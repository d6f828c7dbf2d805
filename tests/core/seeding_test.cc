#include "core/seeding.h"

#include <gtest/gtest.h>

#include "ecr/builder.h"

namespace ecrint::core {
namespace {

using ecr::Domain;
using ecr::SchemaBuilder;

ecr::Schema University() {
  SchemaBuilder b("sc1");
  b.Entity("Person").Attr("Name", Domain::Char(), true);
  b.Entity("Department").Attr("Dname", Domain::Char(), true);
  b.Category("Student", {"Person"});
  b.Category("Grad", {"Student"});
  return *b.Build();
}

TEST(SeedingTest, CategoryContainmentSeeded) {
  AssertionStore store;
  ASSERT_TRUE(SeedSchemaRelations(store, University()).ok());
  EXPECT_EQ(*store.EstablishedRelation({"sc1", "Student"}, {"sc1", "Person"}),
            SetRelation::kSubset);
  // Transitive: Grad ⊆ Person derived.
  EXPECT_EQ(*store.EstablishedRelation({"sc1", "Grad"}, {"sc1", "Person"}),
            SetRelation::kSubset);
}

TEST(SeedingTest, EntityDisjointnessSeeded) {
  AssertionStore store;
  ASSERT_TRUE(SeedSchemaRelations(store, University()).ok());
  EXPECT_EQ(
      *store.EstablishedRelation({"sc1", "Person"}, {"sc1", "Department"}),
      SetRelation::kDisjoint);
  // Categories of disjoint entity sets are derived disjoint.
  EXPECT_EQ(
      *store.EstablishedRelation({"sc1", "Grad"}, {"sc1", "Department"}),
      SetRelation::kDisjoint);
  // Seeded disjointness never connects clusters.
  EXPECT_FALSE(store.IsIntegrating({"sc1", "Person"}, {"sc1", "Department"}));
}

TEST(SeedingTest, OptionsDisableEachSeed) {
  SeedOptions options;
  options.category_containment = false;
  options.entity_disjointness = false;
  AssertionStore store;
  ASSERT_TRUE(SeedSchemaRelations(store, University(), options).ok());
  EXPECT_EQ(store.user_assertions().size(), 0u);
}

TEST(SeedingTest, CatchesAssertionsContradictingStructure) {
  // The DDA asserted sc2.X = sc1.Person and sc2.X = sc1.Department; the two
  // local entity sets are disjoint, so seeding must report the conflict.
  AssertionStore store;
  ASSERT_TRUE(store.Assert({"sc2", "X"}, {"sc1", "Person"},
                           AssertionType::kEquals)
                  .ok());
  ASSERT_TRUE(store.Assert({"sc2", "X"}, {"sc1", "Department"},
                           AssertionType::kEquals)
                  .ok());
  Status s = SeedSchemaRelations(store, University());
  EXPECT_EQ(s.code(), StatusCode::kConflict);
}

TEST(SeedingTest, SharedDescendantSuppressesDisjointnessSeed) {
  // A category with parents in two entity sets (or two D_ generalizations
  // over one class in an integrated schema) proves the entity sets overlap;
  // they must not be seeded disjoint.
  SchemaBuilder b("sc");
  b.Entity("Staff").Attr("Id", Domain::Int(), true);
  b.Entity("Students").Attr("Id2", Domain::Int(), true);
  b.Entity("Building").Attr("Bid", Domain::Int(), true);
  b.Category("TA", {"Staff", "Students"});
  ecr::Schema schema = *b.Build();
  AssertionStore store;
  ASSERT_TRUE(SeedSchemaRelations(store, schema).ok());
  // Staff/Students share TA: unconstrained beyond the closure's derivations.
  EXPECT_FALSE(
      store.EstablishedRelation({"sc", "Staff"}, {"sc", "Students"}).ok());
  // Building shares nothing: still seeded disjoint.
  EXPECT_EQ(*store.EstablishedRelation({"sc", "Staff"}, {"sc", "Building"}),
            SetRelation::kDisjoint);
  // And a subsequent overlap assertion between Staff and Students is legal.
  EXPECT_TRUE(store.Assert({"sc", "Staff"}, {"sc", "Students"},
                           AssertionType::kMayBe)
                  .ok());
}

// The collector's own output: a descendant shared two levels down (A and B
// each have a category, and one category sits under both) still suppresses
// the A/B disjointness seed, while every other pair is seeded, in entity
// order, after the containment seeds.
TEST(SeedingTest, DeepSharedDescendantSuppressesOnlyItsPair) {
  SchemaBuilder b("sc");
  b.Entity("A").Attr("Ia", Domain::Int(), true);
  b.Entity("B").Attr("Ib", Domain::Int(), true);
  b.Entity("C").Attr("Ic", Domain::Int(), true);
  b.Category("A1", {"A"});
  b.Category("B1", {"B"});
  b.Category("AB", {"A1", "B1"});
  ecr::Schema schema = *b.Build();
  std::vector<Assertion> seeds;
  CollectSchemaSeedAssertions(schema, {}, seeds);
  const std::vector<Assertion> want = {
      {{"sc", "A1"}, {"sc", "A"}, AssertionType::kContainedIn},
      {{"sc", "B1"}, {"sc", "B"}, AssertionType::kContainedIn},
      {{"sc", "AB"}, {"sc", "A1"}, AssertionType::kContainedIn},
      {{"sc", "AB"}, {"sc", "B1"}, AssertionType::kContainedIn},
      {{"sc", "A"}, {"sc", "C"}, AssertionType::kDisjointNonintegrable},
      {{"sc", "B"}, {"sc", "C"}, AssertionType::kDisjointNonintegrable},
  };
  EXPECT_EQ(seeds, want);
}

TEST(SeedingTest, IdempotentOnConsistentStore) {
  AssertionStore store;
  ecr::Schema schema = University();
  ASSERT_TRUE(SeedSchemaRelations(store, schema).ok());
  size_t count = store.user_assertions().size();
  ASSERT_TRUE(SeedSchemaRelations(store, schema).ok());
  // Re-seeding re-asserts compatible facts; no conflicts.
  EXPECT_EQ(store.user_assertions().size(), 2 * count);
}

}  // namespace
}  // namespace ecrint::core
