#include "core/resemblance.h"

#include <gtest/gtest.h>

#include "common/strings.h"
#include "ecr/builder.h"

namespace ecrint::core {
namespace {

using ecr::Domain;
using ecr::SchemaBuilder;

ecr::Catalog UniversityCatalog() {
  ecr::Catalog catalog;
  SchemaBuilder b1("sc1");
  b1.Entity("Student")
      .Attr("Name", Domain::Char(), true)
      .Attr("GPA", Domain::Real());
  b1.Entity("Department").Attr("Dname", Domain::Char(), true);
  b1.Relationship("Majors", {{"Student", 1, 1, ""},
                             {"Department", 0, SchemaBuilder::kN, ""}})
      .Attr("Since", Domain::Date());
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
                            {"Department", 0, SchemaBuilder::kN, ""}})
      .Attr("From", Domain::Date());
  EXPECT_TRUE(catalog.AddSchema(*b2.Build()).ok());
  return catalog;
}

// DDA input reproducing Screen 8's session.
EquivalenceMap UniversityEquivalences(const ecr::Catalog& catalog) {
  EquivalenceMap map = *EquivalenceMap::Create(catalog, {"sc1", "sc2"});
  EXPECT_TRUE(map.DeclareEquivalent({"sc1", "Student", "Name"},
                                    {"sc2", "Grad_student", "Name"})
                  .ok());
  EXPECT_TRUE(map.DeclareEquivalent({"sc1", "Student", "Name"},
                                    {"sc2", "Faculty", "Name"})
                  .ok());
  EXPECT_TRUE(map.DeclareEquivalent({"sc1", "Student", "GPA"},
                                    {"sc2", "Grad_student", "GPA"})
                  .ok());
  EXPECT_TRUE(map.DeclareEquivalent({"sc1", "Department", "Dname"},
                                    {"sc2", "Department", "Dname"})
                  .ok());
  return map;
}

TEST(ResemblanceTest, Screen8RatiosAndOrder) {
  ecr::Catalog catalog = UniversityCatalog();
  EquivalenceMap map = UniversityEquivalences(catalog);
  Result<std::vector<ObjectPair>> ranked = RankObjectPairs(
      catalog, map, "sc1", "sc2", StructureKind::kObjectClass);
  ASSERT_TRUE(ranked.ok()) << ranked.status();
  ASSERT_EQ(ranked->size(), 3u);

  // Screen 8, row 1: sc1.Department / sc2.Department, ratio 0.5000.
  EXPECT_EQ((*ranked)[0].first.ToString(), "sc1.Department");
  EXPECT_EQ((*ranked)[0].second.ToString(), "sc2.Department");
  EXPECT_EQ(FormatFixed((*ranked)[0].attribute_ratio, 4), "0.5000");

  // Row 2: sc1.Student / sc2.Grad_student, ratio 0.5000.
  EXPECT_EQ((*ranked)[1].first.ToString(), "sc1.Student");
  EXPECT_EQ((*ranked)[1].second.ToString(), "sc2.Grad_student");
  EXPECT_EQ(FormatFixed((*ranked)[1].attribute_ratio, 4), "0.5000");
  EXPECT_EQ((*ranked)[1].equivalent_attributes, 2);

  // Row 3: sc1.Student / sc2.Faculty, ratio 0.3333.
  EXPECT_EQ((*ranked)[2].first.ToString(), "sc1.Student");
  EXPECT_EQ((*ranked)[2].second.ToString(), "sc2.Faculty");
  EXPECT_EQ(FormatFixed((*ranked)[2].attribute_ratio, 4), "0.3333");
}

TEST(ResemblanceTest, HalfMeansEverySmallerAttributeMatched) {
  // The paper: "a value of 0.5 for attribute ratio specifies that every
  // attribute in one object class has an equivalent attribute in the other."
  ecr::Catalog catalog = UniversityCatalog();
  EquivalenceMap map = UniversityEquivalences(catalog);
  Result<OcsMatrix> matrix = OcsMatrix::Create(catalog, map, "sc1", "sc2",
                                               StructureKind::kObjectClass);
  ASSERT_TRUE(matrix.ok());
  for (const ObjectPair& pair : matrix->RankedPairs()) {
    EXPECT_LE(pair.attribute_ratio, 0.5);
    if (pair.attribute_ratio == 0.5) {
      EXPECT_EQ(pair.equivalent_attributes, pair.smaller_attribute_count);
    }
  }
}

TEST(ResemblanceTest, ZeroPairsExcludedByDefault) {
  ecr::Catalog catalog = UniversityCatalog();
  EquivalenceMap map = UniversityEquivalences(catalog);
  Result<OcsMatrix> matrix = OcsMatrix::Create(catalog, map, "sc1", "sc2",
                                               StructureKind::kObjectClass);
  ASSERT_TRUE(matrix.ok());
  EXPECT_EQ(matrix->RankedPairs().size(), 3u);
  // 2 structures in sc1 x 3 in sc2 = 6 with zeros included.
  EXPECT_EQ(matrix->RankedPairs(/*include_zero=*/true).size(), 6u);
}

// Equal ratios from different counts, 1/(1+2) and 2/(2+4): the tie breaks
// by names alone, so sc1.Alpha's pair (one equivalent attribute) ranks
// before sc1.Beta's (two).
TEST(ResemblanceTest, EqualRatiosTieBreakByNamesNotCounts) {
  ecr::Catalog catalog;
  SchemaBuilder b1("sc1");
  b1.Entity("Alpha")
      .Attr("A1", Domain::Char(), true)
      .Attr("A2", Domain::Char());
  b1.Entity("Beta")
      .Attr("B1", Domain::Char(), true)
      .Attr("B2", Domain::Char())
      .Attr("B3", Domain::Char())
      .Attr("B4", Domain::Char());
  ASSERT_TRUE(catalog.AddSchema(*b1.Build()).ok());
  SchemaBuilder b2("sc2");
  b2.Entity("Gamma")
      .Attr("G1", Domain::Char(), true)
      .Attr("G2", Domain::Char());
  b2.Entity("Delta")
      .Attr("D1", Domain::Char(), true)
      .Attr("D2", Domain::Char())
      .Attr("D3", Domain::Char())
      .Attr("D4", Domain::Char());
  ASSERT_TRUE(catalog.AddSchema(*b2.Build()).ok());
  EquivalenceMap map = *EquivalenceMap::Create(catalog, {"sc1", "sc2"});
  ASSERT_TRUE(
      map.DeclareEquivalent({"sc1", "Alpha", "A1"}, {"sc2", "Gamma", "G1"})
          .ok());
  ASSERT_TRUE(
      map.DeclareEquivalent({"sc1", "Beta", "B1"}, {"sc2", "Delta", "D1"})
          .ok());
  ASSERT_TRUE(
      map.DeclareEquivalent({"sc1", "Beta", "B2"}, {"sc2", "Delta", "D2"})
          .ok());
  Result<OcsMatrix> matrix = OcsMatrix::Create(catalog, map, "sc1", "sc2",
                                               StructureKind::kObjectClass);
  ASSERT_TRUE(matrix.ok()) << matrix.status();

  std::vector<ObjectPair> ranked = matrix->RankedPairs();
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].attribute_ratio, ranked[1].attribute_ratio);
  EXPECT_EQ(ranked[0].first.ToString(), "sc1.Alpha");
  EXPECT_EQ(ranked[0].second.ToString(), "sc2.Gamma");
  EXPECT_EQ(ranked[0].equivalent_attributes, 1);
  EXPECT_EQ(ranked[1].first.ToString(), "sc1.Beta");
  EXPECT_EQ(ranked[1].second.ToString(), "sc2.Delta");
  EXPECT_EQ(ranked[1].equivalent_attributes, 2);
  std::vector<ObjectPair> top = matrix->TopKPairs(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].first.ToString(), "sc1.Alpha");
}

TEST(ResemblanceTest, OcsMatrixCellsMatchCounts) {
  ecr::Catalog catalog = UniversityCatalog();
  EquivalenceMap map = UniversityEquivalences(catalog);
  Result<OcsMatrix> matrix = OcsMatrix::Create(catalog, map, "sc1", "sc2",
                                               StructureKind::kObjectClass);
  ASSERT_TRUE(matrix.ok());
  ASSERT_EQ(matrix->rows().size(), 2u);     // Student, Department
  ASSERT_EQ(matrix->columns().size(), 3u);  // Grad_student, Faculty, Dept
  // rows/columns follow declaration order.
  EXPECT_EQ(matrix->rows()[0].object, "Student");
  EXPECT_EQ(matrix->Count(0, 0), 2);  // Student x Grad_student
  EXPECT_EQ(matrix->Count(0, 1), 1);  // Student x Faculty
  EXPECT_EQ(matrix->Count(0, 2), 0);  // Student x Department
  EXPECT_EQ(matrix->Count(1, 2), 1);  // Department x Department
}

TEST(ResemblanceTest, RelationshipKindRanksRelationships) {
  ecr::Catalog catalog = UniversityCatalog();
  EquivalenceMap map = UniversityEquivalences(catalog);
  ASSERT_TRUE(
      map.DeclareEquivalent({"sc1", "Majors", "Since"}, {"sc2", "Study", "From"})
          .ok());
  Result<std::vector<ObjectPair>> ranked = RankObjectPairs(
      catalog, map, "sc1", "sc2", StructureKind::kRelationshipSet);
  ASSERT_TRUE(ranked.ok());
  ASSERT_EQ(ranked->size(), 1u);
  EXPECT_EQ((*ranked)[0].first.object, "Majors");
  EXPECT_EQ((*ranked)[0].second.object, "Study");
  EXPECT_EQ((*ranked)[0].attribute_ratio, 0.5);
}

TEST(ResemblanceTest, SameSchemaRejected) {
  ecr::Catalog catalog = UniversityCatalog();
  EquivalenceMap map = UniversityEquivalences(catalog);
  EXPECT_FALSE(OcsMatrix::Create(catalog, map, "sc1", "sc1",
                                 StructureKind::kObjectClass)
                   .ok());
}

TEST(ResemblanceTest, UnknownSchemaRejected) {
  ecr::Catalog catalog = UniversityCatalog();
  EquivalenceMap map = UniversityEquivalences(catalog);
  EXPECT_FALSE(OcsMatrix::Create(catalog, map, "sc1", "nope",
                                 StructureKind::kObjectClass)
                   .ok());
}

}  // namespace
}  // namespace ecrint::core
