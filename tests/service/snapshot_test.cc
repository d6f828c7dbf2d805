// Copy-on-write snapshot publication: a republish after a mutation shares
// every part the mutation did not touch (pointer-identical), unchanged
// engines publish nothing, and a reader's old snapshot stays fully usable
// after any number of newer generations.

#include "service/snapshot.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/assertion.h"
#include "engine/engine.h"

namespace ecrint::service {
namespace {

constexpr const char* kUniversityDdl = R"(
schema sc1 {
  entity Student { Name: char key; GPA: real; }
}
schema sc2 {
  entity Grad { Name: char key; GPA: real; }
}
)";

engine::Engine MakeEngine() {
  engine::Engine engine;
  EXPECT_TRUE(engine.DefineSchema(kUniversityDdl).ok());
  EXPECT_TRUE(engine
                  .AssertEquivalence({"sc1", "Student", "Name"},
                                     {"sc2", "Grad", "Name"})
                  .ok());
  return engine;
}

TEST(SnapshotManagerTest, PublishOnlyOnStampChange) {
  engine::Engine engine = MakeEngine();
  SnapshotManager manager;
  EXPECT_TRUE(manager.Publish(engine));
  EXPECT_FALSE(manager.Publish(engine));  // nothing changed
  EXPECT_EQ(manager.generation(), 1);

  EXPECT_TRUE(engine
                  .AssertEquivalence({"sc1", "Student", "GPA"},
                                     {"sc2", "Grad", "GPA"})
                  .ok());
  EXPECT_TRUE(manager.Publish(engine));
  EXPECT_EQ(manager.generation(), 2);
}

TEST(SnapshotManagerTest, AssertionAppendSharesEveryPart) {
  engine::Engine engine = MakeEngine();
  SnapshotManager manager;
  ASSERT_TRUE(manager.Publish(engine));
  std::shared_ptr<const EngineSnapshot> before = manager.Current();

  ASSERT_TRUE(engine
                  .AssertRelation({"sc1", "Student"}, {"sc2", "Grad"},
                                  core::AssertionType::kContains)
                  .ok());
  ASSERT_TRUE(manager.Publish(engine));
  std::shared_ptr<const EngineSnapshot> after = manager.Current();

  ASSERT_NE(before, after);
  // The assertion touched neither the catalog nor the equivalence map:
  // both are shared verbatim, not copied.
  EXPECT_EQ(before->catalog.get(), after->catalog.get());
  EXPECT_EQ(before->equivalence.get(), after->equivalence.get());
  EXPECT_GT(after->generation, before->generation);
}

TEST(SnapshotManagerTest, EquivalenceEditCopiesMapButSharesCatalog) {
  engine::Engine engine = MakeEngine();
  SnapshotManager manager;
  ASSERT_TRUE(manager.Publish(engine));
  std::shared_ptr<const EngineSnapshot> before = manager.Current();

  ASSERT_TRUE(engine
                  .AssertEquivalence({"sc1", "Student", "GPA"},
                                     {"sc2", "Grad", "GPA"})
                  .ok());
  ASSERT_TRUE(manager.Publish(engine));
  std::shared_ptr<const EngineSnapshot> after = manager.Current();

  EXPECT_EQ(before->catalog.get(), after->catalog.get());
  EXPECT_NE(before->equivalence.get(), after->equivalence.get());
}

// A snapshot cut before an equiv keeps ranking with the classes it was cut
// with: the publish after the declare copies the class arrays (sharing the
// attribute registry), it does not edit the old snapshot's map.
TEST(SnapshotManagerTest, SnapshotBeforeEquivKeepsItsClasses) {
  engine::Engine engine = MakeEngine();
  SnapshotManager manager;
  ASSERT_TRUE(manager.Publish(engine));
  std::shared_ptr<const EngineSnapshot> before = manager.Current();
  auto rank = [](const EngineSnapshot& snapshot) {
    Result<std::vector<core::ObjectPair>> ranked = SnapshotRankedPairs(
        snapshot, "sc1", "sc2", core::StructureKind::kObjectClass,
        /*include_zero=*/true);
    EXPECT_TRUE(ranked.ok());
    if (!ranked.ok() || ranked->size() != 1) return -1;
    return ranked->front().equivalent_attributes;
  };
  const int score_before = rank(*before);

  ASSERT_TRUE(engine
                  .AssertEquivalence({"sc1", "Student", "GPA"},
                                     {"sc2", "Grad", "GPA"})
                  .ok());
  ASSERT_TRUE(manager.Publish(engine));
  std::shared_ptr<const EngineSnapshot> after = manager.Current();

  EXPECT_EQ(&before->equivalence->PathAt(0), &after->equivalence->PathAt(0));
  EXPECT_GT(rank(*after), score_before);
  EXPECT_EQ(rank(*before), score_before);
  EXPECT_FALSE(before->equivalence->AreEquivalent({"sc1", "Student", "GPA"},
                                                  {"sc2", "Grad", "GPA"}));
}

TEST(SnapshotManagerTest, IntegrationPublishesAndThenShares) {
  engine::Engine engine = MakeEngine();
  ASSERT_TRUE(engine
                  .AssertRelation({"sc1", "Student"}, {"sc2", "Grad"},
                                  core::AssertionType::kEquals)
                  .ok());
  SnapshotManager manager;
  ASSERT_TRUE(manager.Publish(engine));
  EXPECT_EQ(manager.Current()->integration, nullptr);

  ASSERT_TRUE(engine.Integrate().ok());
  ASSERT_TRUE(manager.Publish(engine));
  std::shared_ptr<const EngineSnapshot> integrated = manager.Current();
  ASSERT_NE(integrated->integration, nullptr);

  // A later unrelated append shares the integration result verbatim.
  ASSERT_TRUE(engine
                  .AssertEquivalence({"sc1", "Student", "GPA"},
                                     {"sc2", "Grad", "GPA"})
                  .ok());
  ASSERT_TRUE(manager.Publish(engine));
  EXPECT_EQ(manager.Current()->integration.get(),
            integrated->integration.get());
}

TEST(SnapshotManagerTest, OldSnapshotSurvivesRepublication) {
  engine::Engine engine = MakeEngine();
  SnapshotManager manager;
  ASSERT_TRUE(manager.Publish(engine));
  std::shared_ptr<const EngineSnapshot> held = manager.Current();

  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(engine
                    .DefineSchema("schema extra" + std::to_string(round) +
                                  " { entity E { A: char key; } }")
                    .ok());
    ASSERT_TRUE(manager.Publish(engine));
  }
  // The held snapshot still answers reads over its own (old) catalog.
  Result<std::vector<core::ObjectPair>> ranked = SnapshotRankedPairs(
      *held, "sc1", "sc2", core::StructureKind::kObjectClass,
      /*include_zero=*/true);
  ASSERT_TRUE(ranked.ok());
  EXPECT_EQ(held->catalog->SchemaNames().size(), 2u);
  EXPECT_EQ(manager.Current()->catalog->SchemaNames().size(), 5u);
}

TEST(SnapshotReadsTest, OutlineRequiresIntegration) {
  engine::Engine engine = MakeEngine();
  SnapshotManager manager;
  ASSERT_TRUE(manager.Publish(engine));
  Result<std::vector<std::string>> outline =
      SnapshotIntegratedOutline(*manager.Current());
  EXPECT_EQ(outline.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SnapshotReadsTest, SuggestFindsSameNameAttributes) {
  engine::Engine engine = MakeEngine();
  SnapshotManager manager;
  ASSERT_TRUE(manager.Publish(engine));
  Result<std::vector<heuristics::EquivalenceSuggestion>> suggestions =
      SnapshotSuggest(*manager.Current(), "sc1", "sc2", /*threshold=*/0.6,
                      /*object_threshold=*/0.0, /*max_results=*/0);
  ASSERT_TRUE(suggestions.ok());
  EXPECT_FALSE(suggestions->empty());
}

}  // namespace
}  // namespace ecrint::service
