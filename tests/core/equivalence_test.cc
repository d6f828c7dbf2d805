#include "core/equivalence.h"

#include <gtest/gtest.h>

#include "ecr/builder.h"

namespace ecrint::core {
namespace {

using ecr::AttributePath;
using ecr::Domain;
using ecr::SchemaBuilder;

// The paper's university example: Figure 3 (sc1) and the sc2 used by
// Screens 6-8 (Grad_student, Faculty, Department).
ecr::Catalog UniversityCatalog() {
  ecr::Catalog catalog;
  SchemaBuilder b1("sc1");
  b1.Entity("Student")
      .Attr("Name", Domain::Char(), true)
      .Attr("GPA", Domain::Real());
  b1.Entity("Department").Attr("Dname", Domain::Char(), true);
  b1.Relationship("Majors", {{"Student", 1, 1, ""},
                             {"Department", 0, SchemaBuilder::kN, ""}});
  EXPECT_TRUE(catalog.AddSchema(*b1.Build()).ok());

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
  EXPECT_TRUE(catalog.AddSchema(*b2.Build()).ok());
  return catalog;
}

EquivalenceMap MakeMap(const ecr::Catalog& catalog) {
  Result<EquivalenceMap> map = EquivalenceMap::Create(catalog, {"sc1", "sc2"});
  EXPECT_TRUE(map.ok()) << map.status();
  return *std::move(map);
}

TEST(EquivalenceMapTest, CreateRegistersEveryAttribute) {
  ecr::Catalog catalog = UniversityCatalog();
  EquivalenceMap map = MakeMap(catalog);
  // sc1: 2+1 object attrs, 0 rel attrs; sc2: 3+2+1 object attrs.
  EXPECT_EQ(map.num_attributes(), 9);
  EXPECT_TRUE(map.ClassOf({"sc1", "Student", "Name"}).ok());
  EXPECT_FALSE(map.ClassOf({"sc1", "Student", "Nope"}).ok());
}

TEST(EquivalenceMapTest, FreshAttributesAreSingletons) {
  ecr::Catalog catalog = UniversityCatalog();
  EquivalenceMap map = MakeMap(catalog);
  EXPECT_FALSE(map.AreEquivalent({"sc1", "Student", "Name"},
                                 {"sc2", "Grad_student", "Name"}));
  EXPECT_TRUE(map.NontrivialClasses().empty());
  // Screen 7: class numbers follow declaration order, starting at 1.
  EXPECT_EQ(*map.ClassOf({"sc1", "Student", "Name"}), 1);
  EXPECT_EQ(*map.ClassOf({"sc1", "Student", "GPA"}), 2);
  EXPECT_EQ(*map.ClassOf({"sc2", "Grad_student", "GPA"}), 5);
}

TEST(EquivalenceMapTest, DeclareEquivalentMergesClasses) {
  ecr::Catalog catalog = UniversityCatalog();
  EquivalenceMap map = MakeMap(catalog);
  ASSERT_TRUE(map.DeclareEquivalent({"sc1", "Student", "Name"},
                                    {"sc2", "Grad_student", "Name"})
                  .ok());
  EXPECT_TRUE(map.AreEquivalent({"sc1", "Student", "Name"},
                                {"sc2", "Grad_student", "Name"}));
  // The earlier attribute's class number wins, as in the paper.
  EXPECT_EQ(*map.ClassOf({"sc2", "Grad_student", "Name"}), 1);
}

TEST(EquivalenceMapTest, EquivalenceIsTransitive) {
  ecr::Catalog catalog = UniversityCatalog();
  EquivalenceMap map = MakeMap(catalog);
  ASSERT_TRUE(map.DeclareEquivalent({"sc1", "Student", "Name"},
                                    {"sc2", "Grad_student", "Name"})
                  .ok());
  ASSERT_TRUE(map.DeclareEquivalent({"sc2", "Grad_student", "Name"},
                                    {"sc2", "Faculty", "Name"})
                  .ok());
  EXPECT_TRUE(map.AreEquivalent({"sc1", "Student", "Name"},
                                {"sc2", "Faculty", "Name"}));
  std::vector<std::vector<AttributePath>> classes = map.NontrivialClasses();
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0].size(), 3u);
}

TEST(EquivalenceMapTest, IncomparableDomainsRejected) {
  ecr::Catalog catalog = UniversityCatalog();
  EquivalenceMap map = MakeMap(catalog);
  // char Name vs real GPA.
  Status s = map.DeclareEquivalent({"sc1", "Student", "Name"},
                                   {"sc2", "Grad_student", "GPA"});
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(EquivalenceMapTest, UnknownAttributeRejected) {
  ecr::Catalog catalog = UniversityCatalog();
  EquivalenceMap map = MakeMap(catalog);
  EXPECT_EQ(map.DeclareEquivalent({"sc1", "Student", "Name"},
                                  {"sc9", "X", "Y"})
                .code(),
            StatusCode::kNotFound);
}

TEST(EquivalenceMapTest, RemoveFromClassRestoresSingleton) {
  ecr::Catalog catalog = UniversityCatalog();
  EquivalenceMap map = MakeMap(catalog);
  ASSERT_TRUE(map.DeclareEquivalent({"sc1", "Student", "Name"},
                                    {"sc2", "Grad_student", "Name"})
                  .ok());
  ASSERT_TRUE(map.DeclareEquivalent({"sc1", "Student", "Name"},
                                    {"sc2", "Faculty", "Name"})
                  .ok());
  ASSERT_TRUE(map.RemoveFromClass({"sc2", "Faculty", "Name"}).ok());
  EXPECT_FALSE(map.AreEquivalent({"sc1", "Student", "Name"},
                                 {"sc2", "Faculty", "Name"}));
  // The remaining pair stays merged.
  EXPECT_TRUE(map.AreEquivalent({"sc1", "Student", "Name"},
                                {"sc2", "Grad_student", "Name"}));
}

TEST(EquivalenceMapTest, OcsCellCountsEquivalentPairs) {
  ecr::Catalog catalog = UniversityCatalog();
  EquivalenceMap map = MakeMap(catalog);
  ASSERT_TRUE(map.DeclareEquivalent({"sc1", "Student", "Name"},
                                    {"sc2", "Grad_student", "Name"})
                  .ok());
  ASSERT_TRUE(map.DeclareEquivalent({"sc1", "Student", "GPA"},
                                    {"sc2", "Grad_student", "GPA"})
                  .ok());
  EXPECT_EQ(map.EquivalentAttributeCount({"sc1", "Student"},
                                         {"sc2", "Grad_student"}),
            2);
  EXPECT_EQ(map.EquivalentAttributeCount({"sc1", "Student"},
                                         {"sc2", "Faculty"}),
            0);
  EXPECT_EQ(map.EquivalentAttributeCount({"sc1", "Nope"}, {"sc2", "Faculty"}),
            0);
}

TEST(EquivalenceMapTest, EntriesForMatchesScreen7Layout) {
  ecr::Catalog catalog = UniversityCatalog();
  EquivalenceMap map = MakeMap(catalog);
  ASSERT_TRUE(map.DeclareEquivalent({"sc1", "Student", "Name"},
                                    {"sc2", "Grad_student", "Name"})
                  .ok());
  std::vector<AttributeClassEntry> entries =
      map.EntriesFor({"sc2", "Grad_student"});
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].path.attribute, "Name");
  EXPECT_EQ(entries[0].eq_class, 1);  // merged into sc1.Student.Name's class
  EXPECT_EQ(entries[1].path.attribute, "GPA");
  EXPECT_GT(entries[1].eq_class, 1);
}

TEST(EquivalenceMapTest, ClassMembersSorted) {
  ecr::Catalog catalog = UniversityCatalog();
  EquivalenceMap map = MakeMap(catalog);
  ASSERT_TRUE(map.DeclareEquivalent({"sc1", "Student", "Name"},
                                    {"sc2", "Faculty", "Name"})
                  .ok());
  std::vector<AttributePath> members =
      map.ClassMembers({"sc2", "Faculty", "Name"});
  ASSERT_EQ(members.size(), 2u);
  EXPECT_EQ(members[0].schema, "sc1");
  EXPECT_EQ(members[1].schema, "sc2");
}

TEST(EquivalenceMapTest, RelationshipAttributesParticipate) {
  ecr::Catalog catalog;
  SchemaBuilder b1("a");
  b1.Entity("X");
  b1.Entity("Y");
  b1.Relationship("R", {{"X", 0, 1, ""}, {"Y", 0, 1, ""}})
      .Attr("Since", Domain::Date());
  ASSERT_TRUE(catalog.AddSchema(*b1.Build()).ok());
  SchemaBuilder b2("b");
  b2.Entity("X2");
  b2.Entity("Y2");
  b2.Relationship("R2", {{"X2", 0, 1, ""}, {"Y2", 0, 1, ""}})
      .Attr("From", Domain::Date());
  ASSERT_TRUE(catalog.AddSchema(*b2.Build()).ok());
  Result<EquivalenceMap> map = EquivalenceMap::Create(catalog, {"a", "b"});
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(
      map->DeclareEquivalent({"a", "R", "Since"}, {"b", "R2", "From"}).ok());
  EXPECT_EQ(map->EquivalentAttributeCount({"a", "R"}, {"b", "R2"}), 1);
}

TEST(EquivalenceMapTest, CreateFailsOnUnknownSchema) {
  ecr::Catalog catalog = UniversityCatalog();
  EXPECT_FALSE(EquivalenceMap::Create(catalog, {"sc1", "nope"}).ok());
}

// A copy shares the registry (the attribute entries and indexes) but owns
// its classes: a declare or remove on either side leaves the other's class
// numbers and class list exactly as they were.
TEST(EquivalenceMapTest, CopiesShareRegistryButNotClasses) {
  ecr::Catalog catalog = UniversityCatalog();
  EquivalenceMap original = MakeMap(catalog);
  const AttributePath name1{"sc1", "Student", "Name"};
  const AttributePath name2{"sc2", "Grad_student", "Name"};
  const AttributePath gpa1{"sc1", "Student", "GPA"};
  const AttributePath gpa2{"sc2", "Grad_student", "GPA"};
  ASSERT_TRUE(original.DeclareEquivalent(name1, name2).ok());

  EquivalenceMap copy = original;
  EXPECT_EQ(&copy.PathAt(0), &original.PathAt(0));
  EXPECT_EQ(copy.num_attributes(), original.num_attributes());

  // Declare on the copy: the original keeps its single class.
  ASSERT_TRUE(copy.DeclareEquivalent(gpa1, gpa2).ok());
  EXPECT_EQ(*copy.ClassOf(gpa2), *copy.ClassOf(gpa1));
  EXPECT_NE(*original.ClassOf(gpa2), *original.ClassOf(gpa1));
  EXPECT_EQ(original.NontrivialClassIndices().size(), 1u);
  EXPECT_EQ(copy.NontrivialClassIndices().size(), 2u);

  // Remove on the original: the copy keeps Name's class.
  ASSERT_TRUE(original.RemoveFromClass(name2).ok());
  EXPECT_TRUE(original.NontrivialClassIndices().empty());
  EXPECT_EQ(*original.ClassOf(name2), *MakeMap(catalog).ClassOf(name2));
  EXPECT_EQ(*copy.ClassOf(name2), *copy.ClassOf(name1));
  EXPECT_EQ(copy.NontrivialClassIndices().size(), 2u);

  // Copy-assignment shares too; the registry outlives the map it came from.
  EquivalenceMap assigned;
  assigned = copy;
  copy = original;
  EXPECT_EQ(&assigned.PathAt(0), &original.PathAt(0));
  EXPECT_EQ(*assigned.ClassOf(gpa2), *assigned.ClassOf(gpa1));
}

TEST(EquivalenceMapTest, DefaultMapAnswersAsEmpty) {
  EquivalenceMap map;
  EXPECT_EQ(map.num_attributes(), 0);
  EXPECT_FALSE(map.ClassOf({"sc1", "Student", "Name"}).ok());
  EXPECT_FALSE(map.AreEquivalent({"sc1", "Student", "Name"},
                                 {"sc1", "Student", "Name"}));
  EXPECT_FALSE(map.DeclareEquivalent({"sc1", "Student", "Name"},
                                     {"sc2", "Grad_student", "Name"})
                   .ok());
  EXPECT_EQ(map.EquivalentAttributeCount({"sc1", "Student"},
                                         {"sc2", "Grad_student"}),
            0);
  EXPECT_TRUE(map.EntriesFor({"sc1", "Student"}).empty());
  EXPECT_TRUE(map.AttributesOf({"sc1", "Student"}).empty());
  EXPECT_TRUE(map.ClassMembers({"sc1", "Student", "Name"}).empty());
  EXPECT_TRUE(map.NontrivialClasses().empty());
  EXPECT_TRUE(map.NontrivialClassIndices().empty());
}

}  // namespace
}  // namespace ecrint::core
