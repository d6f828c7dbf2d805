// Property: over generated workloads and random edit sequences, an Engine
// with incremental recomputation produces the same integration result as
// one that always rebuilds from scratch. This is the confluence claim the
// dirty tracking rests on — extending a cached closure by the appended
// assertions reaches the same fixpoint as replaying the full log.
//
// Property: the Engine's cached integration plan gives the result a
// plan-less core::Integrate on a fresh store gives, after random edits that
// hit every key of the plan: a define, a form rename through
// MutableCatalog, map resets and rebuilds, equivalence retracts, asserts
// that register new structures (relationship sets), conflicting asserts,
// retracts, and integrates over different schema lists and orders.

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <regex>
#include <string>

#include "core/integrator.h"
#include "ecr/ddl_parser.h"
#include "ecr/printer.h"
#include "engine/engine.h"
#include "workload/generator.h"

namespace ecrint::engine {
namespace {

workload::Workload Make(uint64_t seed) {
  workload::GeneratorConfig config;
  config.seed = seed;
  config.num_concepts = 12;
  config.num_schemas = 2;
  config.rename_noise = 0.0;  // every ground-truth equivalence declares
  Result<workload::Workload> w = workload::GenerateWorkload(config);
  EXPECT_TRUE(w.ok()) << w.status();
  return *std::move(w);
}

Engine Load(const workload::Workload& w, bool incremental) {
  EngineOptions options;
  options.incremental = incremental;
  Engine engine(options);
  for (const std::string& name : w.schema_names) {
    Result<const ecr::Schema*> schema = w.catalog.GetSchema(name);
    EXPECT_TRUE(schema.ok());
    EXPECT_TRUE(engine.AddSchema(**schema).ok());
  }
  for (const workload::TrueAttributeMatch& match : w.attribute_matches) {
    EXPECT_TRUE(engine.AssertEquivalence(match.first, match.second).ok());
  }
  for (const workload::TrueObjectRelation& relation : w.object_relations) {
    EXPECT_TRUE(engine
                    .AssertRelation(relation.first, relation.second,
                                    relation.assertion)
                    .ok());
  }
  return engine;
}

std::map<core::ObjectRef, std::string> Targets(
    const core::IntegrationResult& result) {
  std::map<core::ObjectRef, std::string> out;
  for (const core::StructureMapping& mapping : result.mappings) {
    out[mapping.source] = mapping.target;
  }
  return out;
}

// Integrates both engines and requires identical results: same integrated
// schema (by outline) and same source -> target structure mapping.
void ExpectSameIntegration(Engine& incremental, Engine& full,
                           const std::string& context) {
  Result<const core::IntegrationResult*> a = incremental.Integrate();
  Result<const core::IntegrationResult*> b = full.Integrate();
  ASSERT_TRUE(a.ok()) << context << ": " << a.status();
  ASSERT_TRUE(b.ok()) << context << ": " << b.status();
  EXPECT_EQ(ecr::ToOutline((*a)->schema), ecr::ToOutline((*b)->schema))
      << context;
  EXPECT_EQ(Targets(**a), Targets(**b)) << context;
}

int64_t IncrementalReuses(const Engine& engine) {
  auto it = engine.trace().phases().find("integrate");
  if (it == engine.trace().phases().end()) return 0;
  auto cit = it->second.counters.find("incremental_reuses");
  return cit == it->second.counters.end() ? 0 : cit->second;
}

class IncrementalPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalPropertyTest, EditSequenceMatchesFullRebuild) {
  workload::Workload w = Make(GetParam());
  Engine incremental = Load(w, /*incremental=*/true);
  Engine full = Load(w, /*incremental=*/false);
  ExpectSameIntegration(incremental, full, "initial");

  std::mt19937_64 rng(GetParam() * 7919 + 1);
  for (int round = 0; round < 6; ++round) {
    std::string context = "round " + std::to_string(round);
    if (round % 3 == 2 && !w.attribute_matches.empty()) {
      // Equivalence edit: retract one declared pair and re-declare it. The
      // equivalence generation bumps, so the incremental engine must fall
      // back to a full rebuild — and still agree.
      const workload::TrueAttributeMatch& match =
          w.attribute_matches[rng() % w.attribute_matches.size()];
      ASSERT_TRUE(incremental.RetractEquivalence(match.first).ok());
      ASSERT_TRUE(full.RetractEquivalence(match.first).ok());
      ExpectSameIntegration(incremental, full, context + " (retracted eq)");
      ASSERT_TRUE(
          incremental.AssertEquivalence(match.first, match.second).ok());
      ASSERT_TRUE(full.AssertEquivalence(match.first, match.second).ok());
    } else {
      // Assertion edit: retract a random Screen 8 answer (non-append
      // change, drops the seeded closure), integrate, then re-assert it
      // (append — the incremental engine extends the cached closure).
      int n =
          static_cast<int>(incremental.assertions().user_assertions().size());
      ASSERT_GT(n, 0);
      int index = static_cast<int>(rng() % static_cast<uint64_t>(n));
      core::Assertion edit =
          incremental.assertions().user_assertions()[index];
      ASSERT_TRUE(incremental.RetractRelation(index).ok());
      ASSERT_TRUE(full.RetractRelation(index).ok());
      ExpectSameIntegration(incremental, full, context + " (retracted)");
      ASSERT_TRUE(
          incremental.AssertRelation(edit.first, edit.second, edit.type)
              .ok());
      ASSERT_TRUE(
          full.AssertRelation(edit.first, edit.second, edit.type).ok());
    }
    ExpectSameIntegration(incremental, full, context + " (restored)");
  }

  // The agreement above must not be vacuous: the incremental engine has to
  // have taken its fast path, and the from-scratch engine never does.
  EXPECT_GE(IncrementalReuses(incremental), 1);
  EXPECT_EQ(IncrementalReuses(full), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalPropertyTest,
                         ::testing::Values(3, 17, 42, 99, 1234));

// Everything an integration result holds, as text: the outline, the
// derived attributes, the mappings, the clusters and the structures.
std::string Fingerprint(const core::IntegrationResult& result) {
  std::string out = ecr::ToOutline(result.schema);
  for (const core::DerivedAttributeInfo& info : result.derived_attributes) {
    out += "derived " + info.owner + "." + info.name + " <-";
    for (const ecr::AttributePath& path : info.components) {
      out += " " + path.ToString();
    }
    out += "\n";
  }
  for (const core::StructureMapping& mapping : result.mappings) {
    out += "mapping " + mapping.source.ToString() + " " +
           core::StructureKindName(mapping.kind) + " -> " + mapping.target;
    for (const core::AttributeMapping& a : mapping.attributes) {
      out += " " + a.source_attribute + ":" + a.target_owner + "." +
             a.target_attribute;
    }
    out += "\n";
  }
  for (const auto* clusters :
       {&result.object_clusters, &result.relationship_clusters}) {
    for (const core::Cluster& cluster : *clusters) {
      out += "cluster";
      for (const core::ObjectRef& member : cluster.members) {
        out += " " + member.ToString();
      }
      out += "\n";
    }
  }
  for (const core::IntegratedStructureInfo& info : result.structures) {
    out += "structure " + info.name + " " +
           core::StructureKindName(info.kind) + " " +
           std::to_string(static_cast<int>(info.origin));
    for (const core::ObjectRef& source : info.sources) {
      out += " " + source.ToString();
    }
    out += "\n";
  }
  return out;
}

int64_t IntegrateCounter(const Engine& engine, const std::string& name) {
  auto it = engine.trace().phases().find("integrate");
  if (it == engine.trace().phases().end()) return 0;
  auto cit = it->second.counters.find(name);
  return cit == it->second.counters.end() ? 0 : cit->second;
}

class IntegrationPlanPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    workload::GeneratorConfig config;
    config.seed = GetParam();
    config.num_concepts = 10;
    config.num_schemas = 3;
    config.rename_noise = 0.0;
    Result<workload::Workload> w = workload::GenerateWorkload(config);
    ASSERT_TRUE(w.ok()) << w.status();
    w_ = *std::move(w);
    rng_.seed(GetParam() * 104729 + 11);
  }

  // Integrates `names` on the engine and, without any plan or cached
  // closure, with core::Integrate on a copy of the engine's user
  // assertions; both must fail alike or give the same result.
  void ExpectSameAsFresh(const std::vector<std::string>& names,
                         const std::string& context) {
    Result<const core::IntegrationResult*> got = engine_.Integrate(names);
    std::vector<std::string> listed =
        names.empty() ? engine_.catalog().SchemaNames() : names;
    Result<core::IntegrationResult> want =
        core::Integrate(engine_.catalog(), listed, engine_.Equivalence(),
                        engine_.assertions());
    ASSERT_EQ(got.ok(), want.ok())
        << context << ": " << (got.ok() ? want.status() : got.status());
    if (!got.ok()) {
      EXPECT_EQ(got.status().ToString(), want.status().ToString()) << context;
      return;
    }
    EXPECT_EQ(Fingerprint(**got), Fingerprint(*want)) << context;
    ++compared_;
  }

  // The schemas defined so far, in a random order and count (at least one).
  std::vector<std::string> RandomList() {
    std::vector<std::string> names = engine_.catalog().SchemaNames();
    if (rng_() % 4 == 0) return {};  // all, in definition order
    std::shuffle(names.begin(), names.end(), rng_);
    names.resize(1 + rng_() % names.size());
    return names;
  }

  void Define(int schema) {
    const ecr::Schema& s = **w_.catalog.GetSchema(w_.schema_names[schema]);
    ASSERT_TRUE(engine_.DefineSchema(ecr::ToDdl(s)).ok());
    engine_.ResetEquivalence();  // the service's policy after a define
  }

  // Declares every ground-truth equivalence whose attributes exist.
  void DeclareMatches() {
    for (const workload::TrueAttributeMatch& match : w_.attribute_matches) {
      (void)engine_.AssertEquivalence(match.first, match.second);
    }
  }

  workload::Workload w_;
  Engine engine_;
  std::mt19937_64 rng_;
  int compared_ = 0;
};

TEST_P(IntegrationPlanPropertyTest, CachedPlanMatchesIntegrateWithoutPlan) {
  Define(0);
  Define(1);
  DeclareMatches();
  for (const workload::TrueObjectRelation& relation : w_.object_relations) {
    (void)engine_.AssertRelation(relation.first, relation.second,
                                 relation.assertion);
  }
  ExpectSameAsFresh({}, "initial");
  bool third_defined = false;
  int renames = 0;
  for (int round = 0; round < 40; ++round) {
    std::string context = "round " + std::to_string(round);
    std::vector<std::string> names = engine_.catalog().SchemaNames();
    size_t ia = rng_() % names.size();
    size_t ib = (ia + 1 + rng_() % (names.size() - 1)) % names.size();
    const std::string a = names[ia];
    const std::string b = names[ib];
    const ecr::Schema& sa = **engine_.catalog().GetSchema(a);
    const ecr::Schema& sb = **engine_.catalog().GetSchema(b);
    switch (rng_() % 10) {
      case 0:
        if (!third_defined) {
          Define(2);
          DeclareMatches();
          third_defined = true;
          context += " define";
        }
        break;
      case 1: {
        // A form edit: rename one object class of `a` through the mutable
        // catalog (drop the schema, parse it back renamed). Half the time
        // the map is left as it was, over the old names.
        std::string ddl = ecr::ToDdl(sa);
        std::string from = sa.object(rng_() % sa.num_objects()).name;
        std::string to = "Ren" + std::to_string(++renames) + "_" + from;
        ddl = std::regex_replace(ddl, std::regex("\\b" + from + "\\b"), to);
        ecr::Catalog& catalog = engine_.MutableCatalog();
        ASSERT_TRUE(catalog.DropSchema(a).ok());
        ASSERT_TRUE(ecr::ParseInto(catalog, ddl).ok()) << ddl;
        if (rng_() % 2 == 0) engine_.ResetEquivalence();
        context += " rename " + from;
        break;
      }
      case 2: {
        // A new registry under an unchanged catalog: after a rename that
        // left the map stale, its attribute ids differ from the old map's,
        // and the plan kept from the integrate before must not be reused.
        std::vector<std::string> list = RandomList();
        ExpectSameAsFresh(list, context + " before map rebuilt");
        if (rng_() % 2 == 0) {
          engine_.ResetEquivalence();
        } else {
          ASSERT_TRUE(engine_.RebuildEquivalence().ok());
        }
        ExpectSameAsFresh(list, context + " map rebuilt");
        context += " map rebuilt";
        break;
      }
      case 3: {
        const core::EquivalenceMap& map = engine_.Equivalence();
        if (map.num_attributes() > 0) {
          (void)engine_.RetractEquivalence(
              map.PathAt(rng_() % map.num_attributes()));
        }
        context += " equivalence retracted";
        break;
      }
      case 4:
      case 5:
        // A relationship set no seed names: the seeded store registers it,
        // and the plan kept from the integrate before must look it up.
        if (sa.num_relationships() > 0 && sb.num_relationships() > 0) {
          ExpectSameAsFresh({a, b}, context + " before relationship assert");
          (void)engine_.AssertRelation(
              {a, sa.relationship(rng_() % sa.num_relationships()).name},
              {b, sb.relationship(rng_() % sb.num_relationships()).name},
              static_cast<core::AssertionType>(1 + rng_() % 3));
          ExpectSameAsFresh({a, b}, context + " relationship assert");
          context += " relationship assert";
        }
        break;
      case 6:
        // Two entity sets of one schema asserted equal: seeding makes them
        // disjoint, so integration conflicts until the assert is retracted.
        if (sa.num_objects() >= 2 && rng_() % 2 == 0) {
          int before = engine_.assertions().num_user_assertions();
          Result<core::ConflictReport> report = engine_.AssertRelation(
              {a, sa.object(0).name}, {a, sa.object(1).name},
              core::AssertionType::kEquals);
          ExpectSameAsFresh(RandomList(), context + " conflicting assert");
          if (report.ok() &&
              engine_.assertions().num_user_assertions() > before) {
            ASSERT_TRUE(engine_.RetractRelation(before).ok());
          }
          context += " conflict retracted";
        }
        break;
      case 7: {
        int n = engine_.assertions().num_user_assertions();
        if (n > 0) {
          ASSERT_TRUE(engine_.RetractRelation(rng_() % n).ok());
          context += " retract";
        }
        break;
      }
      default: {
        // The edit cycle: declare, assert.
        if (!w_.attribute_matches.empty()) {
          const workload::TrueAttributeMatch& match =
              w_.attribute_matches[rng_() % w_.attribute_matches.size()];
          (void)engine_.AssertEquivalence(match.first, match.second);
        }
        if (!w_.object_relations.empty()) {
          const workload::TrueObjectRelation& relation =
              w_.object_relations[rng_() % w_.object_relations.size()];
          (void)engine_.AssertRelation(relation.first, relation.second,
                                       relation.assertion);
        }
        context += " edit";
        break;
      }
    }
    ExpectSameAsFresh(RandomList(), context);
    if (HasFatalFailure()) return;
    ExpectSameAsFresh(RandomList(), context + " again");
    if (HasFatalFailure()) return;
  }
  // Not vacuous: plans were both built and reused, and results compared.
  EXPECT_GE(IntegrateCounter(engine_, "plan_builds"), 2);
  EXPECT_GE(IntegrateCounter(engine_, "plan_reuses"), 1);
  EXPECT_GE(compared_, 20);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntegrationPlanPropertyTest,
                         ::testing::Values(3, 17, 42, 99, 1234, 2024));

}  // namespace
}  // namespace ecrint::engine
