// The Engine's structured diagnostics and dirty tracking: assertion
// conflicts surface through diagnostics() with the Screen-9 derivation
// chain, repeated Integrate calls hit the result cache, schema edits
// invalidate it, and the incremental path reproduces the full pipeline's
// result on the paper's university example.

#include "engine/engine.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/integrator.h"
#include "ecr/builder.h"
#include "ecr/printer.h"

namespace ecrint::engine {
namespace {

using core::AssertionType;
using core::ObjectRef;
using ecr::Domain;
using ecr::SchemaBuilder;

int64_t Counter(const Engine& engine, const std::string& phase,
                const std::string& counter) {
  auto it = engine.trace().phases().find(phase);
  if (it == engine.trace().phases().end()) return 0;
  auto cit = it->second.counters.find(counter);
  return cit == it->second.counters.end() ? 0 : cit->second;
}

// The paper's university session (Figures 3-5, Screens 6-12) loaded into an
// Engine: schemas sc1/sc2, the DDA's attribute equivalences, and the Screen
// 8 answers.
Engine UniversityEngine() {
  Engine engine;
  SchemaBuilder b1("sc1");
  b1.Entity("Student")
      .Attr("Name", Domain::Char(), true)
      .Attr("GPA", Domain::Real());
  b1.Entity("Department").Attr("Dname", Domain::Char(), true);
  b1.Relationship("Majors", {{"Student", 1, 1, ""},
                             {"Department", 0, SchemaBuilder::kN, ""}});
  EXPECT_TRUE(engine.AddSchema(*b1.Build()).ok());

  SchemaBuilder b2("sc2");
  b2.Entity("Grad_student")
      .Attr("Name", Domain::Char(), true)
      .Attr("GPA", Domain::Real())
      .Attr("Support_type", Domain::Char());
  b2.Entity("Faculty")
      .Attr("Name", Domain::Char(), true)
      .Attr("Rank", Domain::Char());
  b2.Entity("Department").Attr("Dname", Domain::Char(), true);
  b2.Relationship("Study", {{"Grad_student", 1, 1, ""},
                            {"Department", 0, SchemaBuilder::kN, ""}});
  b2.Relationship("Works", {{"Faculty", 1, 1, ""},
                            {"Department", 1, SchemaBuilder::kN, ""}});
  EXPECT_TRUE(engine.AddSchema(*b2.Build()).ok());

  EXPECT_TRUE(engine
                  .AssertEquivalence({"sc1", "Student", "Name"},
                                     {"sc2", "Grad_student", "Name"})
                  .ok());
  EXPECT_TRUE(engine
                  .AssertEquivalence({"sc1", "Student", "GPA"},
                                     {"sc2", "Grad_student", "GPA"})
                  .ok());
  EXPECT_TRUE(engine
                  .AssertEquivalence({"sc1", "Department", "Dname"},
                                     {"sc2", "Department", "Dname"})
                  .ok());

  EXPECT_TRUE(engine
                  .AssertRelation({"sc1", "Department"}, {"sc2", "Department"},
                                  AssertionType::kEquals)
                  .ok());
  EXPECT_TRUE(engine
                  .AssertRelation({"sc1", "Student"}, {"sc2", "Grad_student"},
                                  AssertionType::kContains)
                  .ok());
  EXPECT_TRUE(engine
                  .AssertRelation({"sc1", "Student"}, {"sc2", "Faculty"},
                                  AssertionType::kDisjointIntegrable)
                  .ok());
  return engine;
}

// Screen 9's scenario: Instructor ⊆ Grad_student and Grad_student ⊆ Student
// derive Instructor ⊆ Student; asserting the pair disjoint must be rejected
// with the derivation chain attached to the diagnostic.
TEST(EngineDiagnosticsTest, ConflictCarriesScreen9DerivationChain) {
  Engine engine;
  const ObjectRef instructor{"sc3", "Instructor"};
  const ObjectRef grad{"sc4", "Grad_student"};
  const ObjectRef student{"sc4", "Student"};
  ASSERT_TRUE(
      engine.AssertRelation(instructor, grad, AssertionType::kContainedIn)
          .ok());
  ASSERT_TRUE(
      engine.AssertRelation(grad, student, AssertionType::kContainedIn).ok());

  Result<core::ConflictReport> rejected = engine.AssertRelation(
      instructor, student, AssertionType::kDisjointNonintegrable);
  ASSERT_FALSE(rejected.ok());
  ASSERT_EQ(engine.diagnostics().size(), 1u);
  const Diagnostic& d = engine.diagnostics().back();

  EXPECT_EQ(d.code, "assertion-conflict");
  EXPECT_EQ(d.severity, Severity::kError);
  // The free text stays what the legacy screens printed.
  EXPECT_EQ(d.message, rejected.status().message());
  // The structures in conflict, machine-readable.
  ASSERT_EQ(d.objects.size(), 2u);
  EXPECT_TRUE(d.objects[0] == instructor);
  EXPECT_TRUE(d.objects[1] == student);
  // Line 1 of the screen: the derived constraint; lines 3-4: the user
  // assertions whose composition supports it.
  ASSERT_EQ(d.derivation.size(), 3u);
  EXPECT_NE(d.derivation[0].find("derived constraint"), std::string::npos)
      << d.derivation[0];
  EXPECT_NE(d.derivation[0].find("sc3.Instructor / sc4.Student"),
            std::string::npos)
      << d.derivation[0];
  EXPECT_NE(d.derivation[1].find("sc3.Instructor contained in "
                                 "sc4.Grad_student"),
            std::string::npos)
      << d.derivation[1];
  EXPECT_NE(d.derivation[2].find("sc4.Grad_student contained in "
                                 "sc4.Student"),
            std::string::npos)
      << d.derivation[2];

  // Counters record the rejection, and the failed assert left no trace in
  // the store (Assert is transactional).
  EXPECT_EQ(Counter(engine, "assert", "conflicts"), 1);
  EXPECT_EQ(engine.assertions().user_assertions().size(), 2u);

  engine.ClearDiagnostics();
  EXPECT_TRUE(engine.diagnostics().empty());
}

TEST(EngineDiagnosticsTest, ToStringFormatsSeverityCodeAndDerivation) {
  Diagnostic d;
  d.code = "assertion-conflict";
  d.severity = Severity::kError;
  d.message = "cannot do that";
  d.derivation = {"first step", "second step"};
  EXPECT_EQ(d.ToString(),
            "ERROR assertion-conflict: cannot do that"
            "\n    first step"
            "\n    second step");
  EXPECT_STREQ(SeverityName(Severity::kWarning), "WARNING");
  EXPECT_STREQ(SeverityName(Severity::kInfo), "INFO");
}

TEST(EngineCacheTest, RepeatedIntegrateHitsTheResultCache) {
  Engine engine = UniversityEngine();
  ASSERT_TRUE(engine.Integrate({"sc1", "sc2"}).ok());
  EXPECT_EQ(Counter(engine, "integrate", "full_rebuilds"), 1);
  EXPECT_EQ(Counter(engine, "integrate", "cache_hits"), 0);

  ASSERT_TRUE(engine.Integrate({"sc1", "sc2"}).ok());
  EXPECT_EQ(Counter(engine, "integrate", "full_rebuilds"), 1);
  EXPECT_EQ(Counter(engine, "integrate", "cache_hits"), 1);
}

TEST(EngineCacheTest, SchemaEditInvalidatesTheResultCache) {
  Engine engine = UniversityEngine();
  ASSERT_TRUE(engine.Integrate({"sc1", "sc2"}).ok());
  // Touching the catalog through the mutable accessor marks the schemas
  // dirty; the next Integrate must rebuild instead of serving the cache.
  (void)engine.MutableCatalog();
  ASSERT_TRUE(engine.Integrate({"sc1", "sc2"}).ok());
  EXPECT_EQ(Counter(engine, "integrate", "cache_hits"), 0);
  EXPECT_EQ(Counter(engine, "integrate", "full_rebuilds"), 2);
}

TEST(EngineIncrementalTest, IncrementalEditMatchesFullPipeline) {
  Engine engine = UniversityEngine();
  ASSERT_TRUE(engine.Integrate({"sc1", "sc2"}).ok());

  // Retract the last Screen 8 answer, integrate (re-seeds the closure
  // cache), then re-assert it: the final Integrate may only extend the
  // cached closure by the one appended assertion.
  int last =
      static_cast<int>(engine.assertions().user_assertions().size()) - 1;
  core::Assertion edit = engine.assertions().user_assertions()[last];
  ASSERT_TRUE(engine.RetractRelation(last).ok());
  ASSERT_TRUE(engine.Integrate({"sc1", "sc2"}).ok());
  ASSERT_TRUE(engine.AssertRelation(edit.first, edit.second, edit.type).ok());
  ASSERT_TRUE(engine.Integrate({"sc1", "sc2"}).ok());
  EXPECT_GE(Counter(engine, "integrate", "incremental_reuses"), 1);

  Engine fresh = UniversityEngine();
  ASSERT_TRUE(fresh.Integrate({"sc1", "sc2"}).ok());

  ASSERT_TRUE(engine.integration() != nullptr);
  ASSERT_TRUE(fresh.integration() != nullptr);
  EXPECT_EQ(ecr::ToOutline(engine.integration()->schema),
            ecr::ToOutline(fresh.integration()->schema));
  std::map<ObjectRef, std::string> incremental_targets;
  for (const core::StructureMapping& m : engine.integration()->mappings) {
    incremental_targets[m.source] = m.target;
  }
  std::map<ObjectRef, std::string> fresh_targets;
  for (const core::StructureMapping& m : fresh.integration()->mappings) {
    fresh_targets[m.source] = m.target;
  }
  EXPECT_EQ(incremental_targets, fresh_targets);
}

TEST(EngineIncrementalTest, AssertAfterIntegrateExtendsSeededClosure) {
  Engine engine = UniversityEngine();
  ASSERT_TRUE(engine.Integrate({"sc1", "sc2"}).ok());
  // The closure cache is seeded; the next compatible assertion must be
  // folded into it eagerly (delta-incremental) rather than invalidating it.
  ASSERT_TRUE(engine
                  .AssertRelation({"sc1", "Department"}, {"sc2", "Faculty"},
                                  AssertionType::kDisjointNonintegrable)
                  .ok());
  EXPECT_EQ(Counter(engine, "assert", "seeded_extended"), 1);
  ASSERT_TRUE(engine.Integrate({"sc1", "sc2"}).ok());
  EXPECT_GE(Counter(engine, "integrate", "incremental_reuses"), 1);

  // A rejected assertion must neither extend nor poison the seeded cache.
  ASSERT_FALSE(engine
                   .AssertRelation({"sc1", "Department"}, {"sc2", "Faculty"},
                                   AssertionType::kEquals)
                   .ok());
  EXPECT_EQ(Counter(engine, "assert", "seeded_extended"), 1);
  ASSERT_TRUE(engine.Integrate({"sc1", "sc2"}).ok());
}

TEST(EngineIncrementalTest, ClosureTotalsExposeKernelCounters) {
  Engine engine = UniversityEngine();
  core::ClosureStats before = engine.ClosureTotals();
  EXPECT_GT(before.worklist_pops, 0);  // Screen-8 answers already asserted
  ASSERT_TRUE(engine.Integrate({"sc1", "sc2"}).ok());
  core::ClosureStats after = engine.ClosureTotals();
  // Integration seeding runs through the same kernel, so the lifetime
  // totals (assertion store + seeded closure cache) only grow.
  EXPECT_GE(after.worklist_pops, before.worklist_pops);
  EXPECT_GE(after.row_compositions, before.row_compositions);
  EXPECT_GT(engine.ClosureClusterCount(), 0);
}

// ClosureTotals() must count each store's work once and never shrink: a
// retract retires the live store (the rebuilt one starts the count from its
// own replay), and the integrate after it re-seeds from a copy of the new
// store whose counters start at zero. So the totals rise by exactly the
// rebuild's pops and then by exactly the re-seed's.
TEST(EngineIncrementalTest, ClosureTotalsCountRetractAndReseedOnce) {
  Engine engine = UniversityEngine();
  ASSERT_TRUE(engine.Integrate({"sc1", "sc2"}).ok());
  const core::ClosureStats integrated = engine.ClosureTotals();

  ASSERT_TRUE(engine.RetractRelation(0).ok());
  const core::ClosureStats retracted = engine.ClosureTotals();
  EXPECT_EQ(retracted.worklist_pops,
            integrated.worklist_pops +
                engine.assertions().closure_stats().worklist_pops);

  // What the re-seed alone costs, measured on the side.
  core::AssertionStore probe = engine.assertions();
  const core::ClosureStats unseeded = probe.closure_stats();
  ASSERT_TRUE(core::SeedForIntegration(probe, engine.catalog(), {"sc1", "sc2"},
                                       {})
                  .ok());
  const int64_t reseed_pops =
      probe.closure_stats().worklist_pops - unseeded.worklist_pops;
  const int64_t reseed_narrowings =
      probe.closure_stats().narrowings - unseeded.narrowings;
  ASSERT_GT(reseed_pops, 0);

  ASSERT_TRUE(engine.Integrate({"sc1", "sc2"}).ok());
  EXPECT_EQ(Counter(engine, "integrate", "full_rebuilds"), 2);
  const core::ClosureStats reseeded = engine.ClosureTotals();
  EXPECT_EQ(reseeded.worklist_pops, retracted.worklist_pops + reseed_pops);
  EXPECT_EQ(reseeded.narrowings, retracted.narrowings + reseed_narrowings);
}

// last_seed_cost() describes the last Integrate() alone: a re-seed, an
// extension of the cached closure, or (served from the result cache) no
// closure work at all.
TEST(EngineIncrementalTest, LastSeedCostTellsRebuildsFromExtensions) {
  Engine engine = UniversityEngine();
  ASSERT_TRUE(engine.Integrate({"sc1", "sc2"}).ok());
  EXPECT_TRUE(engine.last_seed_cost().full_rebuild);
  EXPECT_GE(engine.last_seed_cost().ns, 0);

  ASSERT_TRUE(engine
                  .AssertRelation({"sc1", "Department"}, {"sc2", "Faculty"},
                                  AssertionType::kDisjointNonintegrable)
                  .ok());
  ASSERT_TRUE(engine.Integrate({"sc1", "sc2"}).ok());
  EXPECT_FALSE(engine.last_seed_cost().full_rebuild);
  EXPECT_GE(engine.last_seed_cost().ns, 0);

  ASSERT_TRUE(engine.Integrate({"sc1", "sc2"}).ok());
  EXPECT_EQ(Counter(engine, "integrate", "cache_hits"), 1);
  EXPECT_FALSE(engine.last_seed_cost().full_rebuild);
  EXPECT_EQ(engine.last_seed_cost().ns, -1);
}

// The integration plan depends on the catalog, the schema list and the
// equivalence registry only: the first integrate builds it, an edit cycle
// (declare, rank, assert, integrate) reuses it, a new relationship-set
// assertion only extends its store ids, and a define, a map rebuild or
// another schema list builds a new one.
TEST(EngineIncrementalTest, PlanIsBuiltPerCatalogAndReusedByEdits) {
  Engine engine = UniversityEngine();
  ASSERT_TRUE(engine.Integrate({"sc1", "sc2"}).ok());
  EXPECT_TRUE(engine.last_plan_built());
  EXPECT_EQ(Counter(engine, "integrate", "plan_builds"), 1);

  ASSERT_TRUE(engine
                  .AssertEquivalence({"sc1", "Student", "Name"},
                                     {"sc2", "Faculty", "Name"})
                  .ok());
  ASSERT_TRUE(engine
                  .RankedPairs("sc1", "sc2", core::StructureKind::kObjectClass)
                  .ok());
  ASSERT_TRUE(engine
                  .AssertRelation({"sc1", "Majors"}, {"sc2", "Study"},
                                  AssertionType::kEquals)
                  .ok());
  ASSERT_TRUE(engine.Integrate({"sc1", "sc2"}).ok());
  EXPECT_FALSE(engine.last_plan_built());
  EXPECT_EQ(Counter(engine, "integrate", "plan_builds"), 1);
  EXPECT_EQ(Counter(engine, "integrate", "plan_reuses"), 1);
  // The relationship sets joined through the store ids the plan extended.
  const core::IntegrationResult& result = *engine.integration();
  Result<const core::StructureMapping*> majors =
      result.MappingFor({"sc1", "Majors"});
  Result<const core::StructureMapping*> study =
      result.MappingFor({"sc2", "Study"});
  ASSERT_TRUE(majors.ok() && study.ok());
  EXPECT_EQ((*majors)->target, (*study)->target);

  ASSERT_TRUE(engine.Integrate({"sc2", "sc1"}).ok());
  EXPECT_TRUE(engine.last_plan_built());
  ASSERT_TRUE(engine.RebuildEquivalence().ok());
  ASSERT_TRUE(engine.Integrate({"sc2", "sc1"}).ok());
  EXPECT_TRUE(engine.last_plan_built());
  ASSERT_TRUE(engine.DefineSchema("schema sc3 { entity X { Ix: int key; } }")
                  .ok());
  ASSERT_TRUE(engine.Integrate({"sc2", "sc1"}).ok());
  EXPECT_TRUE(engine.last_plan_built());
  EXPECT_EQ(Counter(engine, "integrate", "plan_builds"), 4);
  EXPECT_EQ(Counter(engine, "integrate", "plan_reuses"), 1);
}

TEST(EngineIncrementalTest, RetractDropsTheAssertionAndItsConsequences) {
  Engine engine = UniversityEngine();
  size_t before = engine.assertions().user_assertions().size();
  ASSERT_TRUE(engine.RetractRelation(0).ok());
  EXPECT_EQ(engine.assertions().user_assertions().size(), before - 1);
  EXPECT_FALSE(engine.RetractRelation(99).ok());
}

// Replaying a mutation the engine has already absorbed must leave the
// stamp untouched: the service's snapshot publication and response cache
// both key on stamp/part identity, so a no-op write that bumped a
// generation would needlessly evict every cached read.
TEST(EngineIdempotencyTest, DuplicateEquivalenceLeavesStampUnchanged) {
  Engine engine = UniversityEngine();
  EngineStamp before = engine.Stamp();
  ASSERT_TRUE(engine
                  .AssertEquivalence({"sc1", "Student", "Name"},
                                     {"sc2", "Grad_student", "Name"})
                  .ok());
  EXPECT_EQ(engine.Stamp(), before);
}

TEST(EngineIdempotencyTest, DuplicateAssertionLeavesStampUnchanged) {
  Engine engine = UniversityEngine();
  EngineStamp before = engine.Stamp();
  Result<core::ConflictReport> replay =
      engine.AssertRelation({"sc1", "Student"}, {"sc2", "Grad_student"},
                            AssertionType::kContains);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(engine.Stamp(), before);
  EXPECT_EQ(engine.assertions().user_assertions().size(), 3u);
}

TEST(EngineIdempotencyTest, NewAssertionStillAdvancesTheStamp) {
  Engine engine = UniversityEngine();
  EngineStamp before = engine.Stamp();
  ASSERT_TRUE(engine
                  .AssertRelation({"sc2", "Faculty"}, {"sc2", "Grad_student"},
                                  AssertionType::kDisjointIntegrable)
                  .ok());
  EXPECT_NE(engine.Stamp(), before);
}

}  // namespace
}  // namespace ecrint::engine
