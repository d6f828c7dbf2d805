// Property tests for the bulk seeding paths: AssertBatch, serial or
// cluster-parallel, and SeedForIntegration, which seeds on ids, must each
// leave a store exactly as the plain Assert() loop over the same
// assertions does — same log, same matrix, same derivation records and
// supports, same disjoint-integrable pairs, same kernel work (worklist
// pops and narrowings), same registered objects and ids and, when the
// batch contradicts the store, the same conflict report. The batches are
// the integrator's own seeds (CollectSchemaSeeds, built into assertions
// for the loop) over random schemas with categories, multi-parent
// categories (shared descendants), one schema listed twice, and a store
// that already holds structures and cross-schema user assertions; some
// cases plant a contradiction the seeds must trip over.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/assertion_store.h"
#include "core/integrator.h"
#include "core/seeding.h"
#include "ecr/builder.h"
#include "ecr/catalog.h"

namespace ecrint::core {
namespace {

struct Case {
  ecr::Catalog catalog;
  std::vector<std::string> names;  // seeding order; one schema twice
  AssertionStore store;  // the cross-schema user assertions
  std::vector<Assertion> seeds;  // the seeds of `names`, in order
};

// The production collector's seeds for `schema`, built as assertions.
void AppendSeeds(const ecr::Schema& schema, std::vector<Assertion>& out) {
  std::vector<IdAssertion> ids;
  CollectSchemaSeeds(schema, {}, ids);
  for (const IdAssertion& seed : ids) {
    out.push_back({{schema.name(), schema.object(seed.first).name},
                   {schema.name(), schema.object(seed.second).name},
                   seed.type});
  }
}

// Three schemas of 3-6 entity sets and 1-3 categories each; a category's
// parents are one or two earlier classes of its schema, so categories nest
// and two entity sets can share a descendant.
ecr::Schema RandomSchema(const std::string& name, std::mt19937_64& rng,
                         std::vector<ObjectRef>& refs,
                         std::vector<ObjectRef>& entities) {
  ecr::SchemaBuilder b(name);
  std::vector<std::string> classes;
  int num_entities = 3 + static_cast<int>(rng() % 4);
  for (int e = 0; e < num_entities; ++e) {
    std::string entity = "E" + std::to_string(e);
    b.Entity(entity).Attr("Id", ecr::Domain::Int(), true);
    classes.push_back(entity);
    entities.push_back({name, entity});
  }
  int num_categories = 1 + static_cast<int>(rng() % 3);
  for (int c = 0; c < num_categories; ++c) {
    std::vector<std::string> parents = {classes[rng() % classes.size()]};
    if (rng() % 2 == 0) {
      const std::string& other = classes[rng() % classes.size()];
      if (other != parents[0]) parents.push_back(other);
    }
    std::string category = "C" + std::to_string(c);
    b.Category(category, parents);
    classes.push_back(category);
  }
  for (const std::string& cls : classes) refs.push_back({name, cls});
  Result<ecr::Schema> schema = b.Build();
  EXPECT_TRUE(schema.ok()) << schema.status();
  return *std::move(schema);
}

Case MakeCase(uint64_t seed) {
  std::mt19937_64 rng(seed * 7919 + 3);
  Case c;
  std::vector<std::vector<ObjectRef>> refs(3);
  std::vector<std::vector<ObjectRef>> entities(3);
  for (int s = 0; s < 3; ++s) {
    c.names.push_back("s" + std::to_string(s));
    EXPECT_TRUE(c.catalog
                    .AddSchema(RandomSchema(c.names.back(), rng, refs[s],
                                            entities[s]))
                    .ok());
  }
  c.names.push_back(c.names[rng() % 3]);
  // Structures the store holds before any assertion names them, so the
  // seeds intern around ids already taken.
  for (int s = 0; s < 3; ++s) {
    if (rng() % 2 == 0) {
      (void)c.store.AddObject(refs[s][rng() % refs[s].size()]);
    }
  }
  // Cross-schema user assertions (none at all one time in three, which
  // leaves each schema its own component for the clustered path). The
  // plain store keeps whichever of them agree with each other.
  int user = rng() % 3 == 0 ? 0 : 2 + static_cast<int>(rng() % 6);
  for (int u = 0; u < user; ++u) {
    int s = static_cast<int>(rng() % 3);
    int t = (s + 1 + static_cast<int>(rng() % 2)) % 3;
    Assertion a{refs[s][rng() % refs[s].size()],
                refs[t][rng() % refs[t].size()],
                static_cast<AssertionType>(rng() % 6)};
    (void)c.store.Assert(a);
  }
  // One case in four plants a contradiction: a foreign class equal to two
  // entity sets of one schema, which the seeds make disjoint (unless the
  // two share a descendant, in which case nothing conflicts).
  if (rng() % 4 == 0) {
    const ObjectRef foreign{"s9", "X"};
    (void)c.store.Assert(foreign, entities[0][0], AssertionType::kEquals);
    (void)c.store.Assert(foreign, entities[0][1], AssertionType::kEquals);
  }
  for (const std::string& name : c.names) {
    AppendSeeds(**c.catalog.GetSchema(name), c.seeds);
  }
  return c;
}

std::vector<std::string> Names(const AssertionStore& store) {
  std::vector<std::string> names;
  for (const ObjectRef& ref : store.objects()) names.push_back(ref.ToString());
  return names;
}

void ExpectSameStore(const AssertionStore& want, const AssertionStore& got,
                     const std::string& where) {
  ASSERT_EQ(Names(got), Names(want)) << where;
  for (const ObjectRef& ref : want.objects()) {
    ASSERT_EQ(got.IdOf(ref), want.IdOf(ref)) << where << ": " << ref.ToString();
  }
  ASSERT_EQ(got.assertion_log(), want.assertion_log()) << where;
  ASSERT_EQ(got.user_assertions(), want.user_assertions()) << where;
  EXPECT_EQ(got.disjoint_integrable_pairs(), want.disjoint_integrable_pairs())
      << where;
  for (int a = 0; a < want.num_objects(); ++a) {
    for (int b = 0; b < want.num_objects(); ++b) {
      ASSERT_EQ(got.RelationAt(a, b), want.RelationAt(a, b))
          << where << ": pair " << want.objects()[a].ToString() << " / "
          << want.objects()[b].ToString();
    }
  }
  std::vector<AssertionStore::DerivedFact> want_facts = want.DerivedFacts();
  std::vector<AssertionStore::DerivedFact> got_facts = got.DerivedFacts();
  ASSERT_EQ(got_facts.size(), want_facts.size()) << where;
  for (size_t f = 0; f < want_facts.size(); ++f) {
    EXPECT_EQ(got_facts[f].first, want_facts[f].first) << where;
    EXPECT_EQ(got_facts[f].second, want_facts[f].second) << where;
    EXPECT_EQ(got_facts[f].relation, want_facts[f].relation) << where;
    EXPECT_EQ(got_facts[f].supporting, want_facts[f].supporting)
        << where << ": supports of " << want_facts[f].first.ToString()
        << " / " << want_facts[f].second.ToString();
  }
  EXPECT_EQ(got.closure_stats().worklist_pops,
            want.closure_stats().worklist_pops)
      << where;
  EXPECT_EQ(got.closure_stats().narrowings, want.closure_stats().narrowings)
      << where;
  EXPECT_EQ(got.closure_stats().conflicts, want.closure_stats().conflicts)
      << where;
  ASSERT_EQ(got.last_conflict().has_value(), want.last_conflict().has_value())
      << where;
  if (want.last_conflict().has_value()) {
    EXPECT_EQ(got.last_conflict()->ToString(), want.last_conflict()->ToString())
        << where;
  }
}

// The Assert() loop over `seeds` on a copy of `store`, stopping at the
// first conflict; `result` receives the last call's result.
AssertionStore AssertLoop(const AssertionStore& store,
                          const std::vector<Assertion>& seeds,
                          Result<ConflictReport>& result) {
  AssertionStore loop = store;
  result = ConflictReport{};
  for (const Assertion& seed : seeds) {
    result = loop.Assert(seed);
    if (!result.ok()) break;
  }
  return loop;
}

class BulkSeedPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BulkSeedPropertyTest, BatchEqualsAssertLoop) {
  Case c = MakeCase(GetParam());
  const std::string where = "seed " + std::to_string(GetParam());

  Result<ConflictReport> loop_result = ConflictReport{};
  AssertionStore loop = AssertLoop(c.store, c.seeds, loop_result);

  common::ThreadPool pool(3);
  for (common::ThreadPool* p : {static_cast<common::ThreadPool*>(nullptr),
                                &pool}) {
    std::string how = where + (p == nullptr ? " serial" : " pooled");
    AssertionStore batched = c.store;
    Result<ConflictReport> batch_result = batched.AssertBatch(c.seeds, p);
    ASSERT_EQ(batch_result.ok(), loop_result.ok()) << how;
    if (loop_result.ok()) {
      EXPECT_EQ(batch_result->attempted, loop_result->attempted) << how;
      EXPECT_EQ(batch_result->existing, loop_result->existing) << how;
      EXPECT_EQ(batch_result->ToString(), loop_result->ToString()) << how;
    } else {
      EXPECT_EQ(batch_result.status().message(),
                loop_result.status().message())
          << how;
    }
    ExpectSameStore(loop, batched, how);
    if (HasFatalFailure()) return;
  }
}

// Seeding on ids (one lookup per structure, pair arrays sized once)
// equals the Assert() loop over the same seeds built as assertions.
TEST_P(BulkSeedPropertyTest, SeedForIntegrationEqualsAssertLoop) {
  Case c = MakeCase(GetParam());
  const std::string where = "seed " + std::to_string(GetParam());

  Result<ConflictReport> loop_result = ConflictReport{};
  AssertionStore loop = AssertLoop(c.store, c.seeds, loop_result);

  AssertionStore seeded = c.store;
  Status status = SeedForIntegration(seeded, c.catalog, c.names);
  ASSERT_EQ(status.ok(), loop_result.ok()) << where;
  if (!status.ok()) {
    EXPECT_EQ(status.message(), loop_result.status().message()) << where;
  }
  ExpectSameStore(loop, seeded, where);
}

// Both outcomes and both batch paths must be exercised by the seed range,
// or the equivalences above prove less than they claim.
TEST(BulkSeedCoverageTest, SeedsCoverConflictsAndTheClusteredPath) {
  common::ThreadPool pool(3);
  int conflicts = 0;
  int seed_conflicts = 0;
  int clustered = 0;
  int known = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Case c = MakeCase(seed);
    AssertionStore batched = c.store;
    if (!batched.AssertBatch(c.seeds, &pool).ok()) ++conflicts;
    clustered += batched.closure_stats().batch_parallel_runs >
                 c.store.closure_stats().batch_parallel_runs;
    AssertionStore seeded = c.store;
    if (!SeedForIntegration(seeded, c.catalog, c.names).ok()) ++seed_conflicts;
    known += std::any_of(c.seeds.begin(), c.seeds.end(),
                         [&c](const Assertion& a) {
                           return c.store.Knows(a.first) ||
                                  c.store.Knows(a.second);
                         });
  }
  EXPECT_GE(conflicts, 2);
  EXPECT_GE(seed_conflicts, 2);
  EXPECT_GE(clustered, 2);
  EXPECT_GE(known, 20);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BulkSeedPropertyTest,
                         ::testing::Range<uint64_t>(1, 41));

}  // namespace
}  // namespace ecrint::core
