// Property tests for the assertion store's pair indexes: after every kind
// of store mutation, the pairs ForEachPinnedAbove visits must be exactly
// the pairs a brute-force scan of RelationAt pins to one relation other
// than disjointness, and the disjointness-exclusion bitmap must hold
// exactly the pairs whose relation set excludes disjointness. Phase 4's
// lattice and cluster passes read only the first index, so a stale bit
// silently adds or drops a merge, an IS-A edge or a cluster join; the
// closure's sweeps skip every column the second one lacks, so a missing
// bit silently loses a derivation.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/assertion_store.h"
#include "core/object_ref.h"

namespace ecrint::core {
namespace {

constexpr int kUniverse = 6;

SetRelation Classify(unsigned a, unsigned b) {
  if (a == b) return SetRelation::kEqual;
  if ((a & b) == a) return SetRelation::kSubset;
  if ((a & b) == b) return SetRelation::kSuperset;
  if ((a & b) != 0) return SetRelation::kOverlap;
  return SetRelation::kDisjoint;
}

AssertionType TypeFor(SetRelation relation) {
  switch (relation) {
    case SetRelation::kEqual: return AssertionType::kEquals;
    case SetRelation::kSubset: return AssertionType::kContainedIn;
    case SetRelation::kSuperset: return AssertionType::kContains;
    case SetRelation::kOverlap: return AssertionType::kMayBe;
    case SetRelation::kDisjoint: return AssertionType::kDisjointIntegrable;
  }
  return AssertionType::kDisjointIntegrable;
}

// Compares the index with a scan of every pair a < b, rows beyond the
// registered objects included (ForEachPinnedAbove walks whole rows).
void ExpectIndexMatchesScan(const AssertionStore& store,
                            const std::string& where) {
  const int n = store.num_objects();
  for (int a = 0; a < n; ++a) {
    std::vector<int> indexed;
    store.ForEachPinnedAbove(a, [&](int b) { indexed.push_back(b); });
    std::vector<int> scanned;
    for (int b = a + 1; b < n; ++b) {
      if (PinnedNonDisjoint(store.RelationAt(a, b))) scanned.push_back(b);
    }
    ASSERT_EQ(indexed, scanned) << where << ": row " << a;
    // Columns up to the row's last bitmap word, so a stale bit past the
    // registered objects shows too.
    for (int b = 0; b < (n + 63) / 64 * 64; ++b) {
      bool excludes = b < n && b != a &&
                      !Contains(store.RelationAt(a, b), SetRelation::kDisjoint);
      ASSERT_EQ(store.IndexedExcludesDisjoint(a, b), excludes)
          << where << ": exclusion bit " << a << "," << b;
    }
  }
}

// Random extents over a small universe, named across three schemas.
struct World {
  std::vector<unsigned> sets;
  std::vector<ObjectRef> refs;
};

World MakeWorld(std::mt19937_64& rng, int n, const std::string& prefix) {
  std::uniform_int_distribution<unsigned> pick(1, (1u << kUniverse) - 1);
  World world;
  for (int i = 0; i < n; ++i) {
    world.sets.push_back(pick(rng));
    world.refs.push_back(
        {prefix + std::to_string(i % 3), "O" + std::to_string(i)});
  }
  return world;
}

// A true fact about a random pair, or (one time in three) a random lie, so
// that a good share of the sequence conflicts.
Assertion RandomAssertion(const World& world, std::mt19937_64& rng) {
  int n = static_cast<int>(world.refs.size());
  int i = static_cast<int>(rng() % n);
  int j = static_cast<int>(rng() % (n - 1));
  if (j >= i) ++j;
  SetRelation relation = Classify(world.sets[i], world.sets[j]);
  if (rng() % 3 == 0) {
    relation = static_cast<SetRelation>(rng() % kNumSetRelations);
  }
  return Assertion{world.refs[i], world.refs[j], TypeFor(relation)};
}

class PinnedIndexPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PinnedIndexPropertyTest, AssertConstrainCopyAndRebuildKeepIndex) {
  std::mt19937_64 rng(GetParam() * 7919 + 17);
  World world = MakeWorld(rng, 10, "s");
  AssertionStore store;
  std::vector<Assertion> accepted;
  for (int step = 0; step < 60; ++step) {
    std::string where = "seed " + std::to_string(GetParam()) + " step " +
                        std::to_string(step);
    if (rng() % 4 == 0) {
      // A domain-style bound: any non-empty relation set, often one that
      // contradicts what the store already derived.
      const ObjectRef& a = world.refs[rng() % world.refs.size()];
      const ObjectRef& b = world.refs[rng() % world.refs.size()];
      RelationSet allowed =
          static_cast<RelationSet>(1 + rng() % (kNumRelationSets - 1));
      (void)store.Constrain(a, b, allowed);
      ExpectIndexMatchesScan(store, where + " after Constrain");
    } else {
      Assertion assertion = RandomAssertion(world, rng);
      if (store.Assert(assertion).ok()) accepted.push_back(assertion);
      ExpectIndexMatchesScan(store, where + " after Assert");
    }
    if (HasFatalFailure()) return;
  }

  AssertionStore copy = store;
  ExpectIndexMatchesScan(copy, "copy");

  // The engine's retract: rebuild from the surviving assertions.
  if (!accepted.empty()) {
    accepted.erase(accepted.begin() + rng() % accepted.size());
  }
  common::ThreadPool pool(3);
  AssertionStore rebuilt;
  ASSERT_TRUE(rebuilt.AssertBatch(accepted, &pool).ok());
  ExpectIndexMatchesScan(rebuilt, "retract rebuild");

  // Growth re-lays every row; pinned bits must move with them.
  for (int i = 0; i < 150; ++i) {
    store.AddObject({"grow", "G" + std::to_string(i)});
  }
  ExpectIndexMatchesScan(store, "after growth");
}

TEST_P(PinnedIndexPropertyTest, SerialAndClusteredBatchesKeepIndex) {
  // Three islands with no cross-island assertions, so the pooled batch
  // closes each on its own worker and merges it with MergeComponent.
  std::mt19937_64 rng(GetParam() * 2654435761u);
  std::vector<Assertion> batch;
  for (int g = 0; g < 3; ++g) {
    World island = MakeWorld(rng, 6, "isle" + std::to_string(g) + "_");
    for (int i = 0; i < 6; ++i) {
      for (int j = i + 1; j < 6; ++j) {
        batch.push_back(Assertion{
            island.refs[i], island.refs[j],
            TypeFor(Classify(island.sets[i], island.sets[j]))});
      }
    }
  }
  std::shuffle(batch.begin(), batch.end(), rng);

  AssertionStore serial;
  ASSERT_TRUE(serial.AssertBatch(batch).ok());
  ExpectIndexMatchesScan(serial, "serial batch");

  common::ThreadPool pool(3);
  AssertionStore clustered;
  ASSERT_TRUE(clustered.AssertBatch(batch, &pool).ok());
  EXPECT_GT(clustered.closure_stats().batch_parallel_runs, 0);
  ExpectIndexMatchesScan(clustered, "clustered batch");

  // A second clustered batch over the same islands merges components that
  // already hold pinned pairs.
  std::vector<Assertion> more;
  for (const Assertion& a : batch) {
    if (rng() % 4 == 0) more.push_back(a);
  }
  ASSERT_TRUE(clustered.AssertBatch(more, &pool).ok());
  ExpectIndexMatchesScan(clustered, "second clustered batch");
}

INSTANTIATE_TEST_SUITE_P(Seeds, PinnedIndexPropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

// A bound that its own pair still admits can empty another pair once the
// closure propagates it; the store then rolls back every narrowing it made,
// and the index must roll back with them. Such conflicts are rare on small
// stores: these ten-object random walks reach the first at seeds 15, 35
// and 158.
TEST(PinnedIndexRollbackTest, ConflictFoundByPropagationRollsIndexBack) {
  int rollbacks = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    std::mt19937_64 rng(seed);
    std::vector<ObjectRef> refs;
    for (int i = 0; i < 10; ++i) refs.push_back({"s", "O" + std::to_string(i)});
    AssertionStore store;
    for (int step = 0; step < 200; ++step) {
      const ObjectRef& a = refs[rng() % refs.size()];
      const ObjectRef& b = refs[rng() % refs.size()];
      if (a == b) continue;
      RelationSet allowed =
          static_cast<RelationSet>(1 + rng() % (kNumRelationSets - 1));
      bool compatible = (store.PossibleRelations(a, b) & allowed) != 0;
      if (!store.Constrain(a, b, allowed).ok() && compatible) {
        ++rollbacks;
        ExpectIndexMatchesScan(store, "seed " + std::to_string(seed) +
                                          " after a rolled-back Constrain");
        if (HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GE(rollbacks, 3) << "fewer propagation conflicts than expected";
}

}  // namespace
}  // namespace ecrint::core
