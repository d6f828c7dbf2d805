#include <gtest/gtest.h>

#include "core/integrator.h"
#include "ecr/builder.h"
#include "ecr/validate.h"

namespace ecrint::core {
namespace {

using ecr::Domain;
using ecr::SchemaBuilder;

// Two views of employment: v2's Teaches is a subset of v1's WorksFor
// (teaching staff are employees), and v2's Advises overlaps v1's Mentors.
struct Fixture {
  ecr::Catalog catalog;
  EquivalenceMap equivalence{*EquivalenceMap::Create(ecr::Catalog(), {})};
  AssertionStore assertions;
};

Fixture Make() {
  Fixture f;
  SchemaBuilder b1("v1");
  b1.Entity("Person").Attr("Ssn", Domain::Int(), true);
  b1.Entity("Org").Attr("Oid", Domain::Int(), true);
  b1.Relationship("WorksFor", {{"Person", 0, 1, ""},
                               {"Org", 0, SchemaBuilder::kN, ""}})
      .Attr("Since", Domain::Date());
  b1.Relationship("Mentors", {{"Person", 0, SchemaBuilder::kN, "mentor"},
                              {"Person", 0, 1, "mentee"}});
  EXPECT_TRUE(f.catalog.AddSchema(*b1.Build()).ok());

  SchemaBuilder b2("v2");
  b2.Entity("Teacher").Attr("Ssn", Domain::Int(), true);
  b2.Entity("School").Attr("Oid", Domain::Int(), true);
  b2.Relationship("Teaches", {{"Teacher", 1, 1, ""},
                              {"School", 1, SchemaBuilder::kN, ""}})
      .Attr("Started", Domain::Date());
  b2.Relationship("Advises", {{"Teacher", 0, SchemaBuilder::kN, "mentor"},
                              {"Teacher", 0, 2, "mentee"}});
  EXPECT_TRUE(f.catalog.AddSchema(*b2.Build()).ok());

  f.equivalence = *EquivalenceMap::Create(f.catalog, {"v1", "v2"});
  EXPECT_TRUE(f.equivalence
                  .DeclareEquivalent({"v1", "Person", "Ssn"},
                                     {"v2", "Teacher", "Ssn"})
                  .ok());
  EXPECT_TRUE(f.equivalence
                  .DeclareEquivalent({"v1", "WorksFor", "Since"},
                                     {"v2", "Teaches", "Started"})
                  .ok());
  // Object assertions: Teacher ⊂ Person, School ⊂ Org.
  EXPECT_TRUE(f.assertions
                  .Assert({"v2", "Teacher"}, {"v1", "Person"},
                          AssertionType::kContainedIn)
                  .ok());
  EXPECT_TRUE(f.assertions
                  .Assert({"v2", "School"}, {"v1", "Org"},
                          AssertionType::kContainedIn)
                  .ok());
  return f;
}

TEST(RelationshipIntegrationTest, ContainedRelationshipJoinsLattice) {
  Fixture f = Make();
  ASSERT_TRUE(f.assertions
                  .Assert({"v2", "Teaches"}, {"v1", "WorksFor"},
                          AssertionType::kContainedIn)
                  .ok());
  Result<IntegrationResult> result =
      Integrate(f.catalog, {"v1", "v2"}, f.equivalence, f.assertions);
  ASSERT_TRUE(result.ok()) << result.status();
  const ecr::Schema& s = result->schema;
  EXPECT_TRUE(ecr::CheckSchemaValid(s).ok());

  ecr::RelationshipId works = s.FindRelationship("WorksFor");
  ecr::RelationshipId teaches = s.FindRelationship("Teaches");
  ASSERT_GE(works, 0);
  ASSERT_GE(teaches, 0);
  // The contained relationship points at its generalization in the lattice.
  EXPECT_EQ(s.relationship(teaches).parents,
            std::vector<ecr::RelationshipId>{works});
  EXPECT_TRUE(s.relationship(works).parents.empty());

  // The equivalent attributes merged onto the containing relationship.
  bool derived_on_works = false;
  for (const ecr::Attribute& a : s.relationship(works).attributes) {
    derived_on_works |= a.name.rfind("D_", 0) == 0;
  }
  EXPECT_TRUE(derived_on_works);
  const DerivedAttributeInfo* info =
      result->FindDerivedAttribute("WorksFor", "D_Sinc_Star");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->components.size(), 2u);
  // The contained relationship keeps no duplicate of the merged attribute.
  EXPECT_TRUE(s.relationship(teaches).attributes.empty());
}

TEST(RelationshipIntegrationTest, OverlapCreatesDerivedRelationship) {
  Fixture f = Make();
  ASSERT_TRUE(f.assertions
                  .Assert({"v2", "Advises"}, {"v1", "Mentors"},
                          AssertionType::kMayBe)
                  .ok());
  Result<IntegrationResult> result =
      Integrate(f.catalog, {"v1", "v2"}, f.equivalence, f.assertions);
  ASSERT_TRUE(result.ok()) << result.status();
  const ecr::Schema& s = result->schema;

  ecr::RelationshipId derived = s.FindRelationship("D_Ment_Advi");
  ASSERT_GE(derived, 0);
  EXPECT_EQ(s.relationship(derived).origin, ecr::ObjectOrigin::kDerived);
  // Both originals become children of the derived generalization.
  ecr::RelationshipId mentors = s.FindRelationship("Mentors");
  ecr::RelationshipId advises = s.FindRelationship("Advises");
  ASSERT_GE(mentors, 0);
  ASSERT_GE(advises, 0);
  EXPECT_EQ(s.relationship(mentors).parents,
            std::vector<ecr::RelationshipId>{derived});
  EXPECT_EQ(s.relationship(advises).parents,
            std::vector<ecr::RelationshipId>{derived});
  // The derived relationship generalizes the participants: both legs reach
  // Person (Teacher's generalization).
  for (const ecr::Participation& p : s.relationship(derived).participants) {
    EXPECT_EQ(s.object(p.object).name, "Person");
  }
}

TEST(RelationshipIntegrationTest, EqualsMergeWidensCardinality) {
  Fixture f = Make();
  ASSERT_TRUE(f.assertions
                  .Assert({"v2", "Teaches"}, {"v1", "WorksFor"},
                          AssertionType::kEquals)
                  .ok());
  Result<IntegrationResult> result =
      Integrate(f.catalog, {"v1", "v2"}, f.equivalence, f.assertions);
  ASSERT_TRUE(result.ok()) << result.status();
  const ecr::Schema& s = result->schema;
  ecr::RelationshipId merged = s.FindRelationship("E_Teac_Work");
  if (merged < 0) merged = s.FindRelationship("E_Work_Teac");
  ASSERT_GE(merged, 0);
  const ecr::RelationshipSet& rel = s.relationship(merged);
  ASSERT_EQ(rel.participants.size(), 2u);
  // WorksFor had [0,1] on Person, Teaches [1,1] on Teacher: the merged
  // constraint is the weaker [0,1]; the participant is the generalization
  // Person.
  EXPECT_EQ(s.object(rel.participants[0].object).name, "Person");
  EXPECT_EQ(rel.participants[0].min_card, 0);
  EXPECT_EQ(rel.participants[0].max_card, 1);
  // Org side: [0,n] vs [1,n] -> [0,n].
  EXPECT_EQ(s.object(rel.participants[1].object).name, "Org");
  EXPECT_EQ(rel.participants[1].min_card, 0);
  EXPECT_EQ(rel.participants[1].max_card, ecr::kUnboundedCardinality);
}

TEST(RelationshipIntegrationTest, EqualsMergeKeepsUnmatchedRolesApart) {
  // No object of one relationship relates to an object of the other, so
  // every participant of the second is appended. The two roles over Node
  // belong to one relationship and must stay two participants: only a
  // participant of the first list may absorb one of the second.
  ecr::Catalog catalog;
  SchemaBuilder b1("g1");
  b1.Entity("City").Attr("Name", Domain::Char(), true);
  b1.Entity("Road").Attr("Id", Domain::Int(), true);
  b1.Relationship("On", {{"City", 0, SchemaBuilder::kN, ""},
                         {"Road", 0, SchemaBuilder::kN, ""}});
  ASSERT_TRUE(catalog.AddSchema(*b1.Build()).ok());
  SchemaBuilder b2("g2");
  b2.Entity("Node").Attr("Id", Domain::Int(), true);
  b2.Relationship("Edge", {{"Node", 0, SchemaBuilder::kN, "from"},
                           {"Node", 0, SchemaBuilder::kN, "to"}});
  ASSERT_TRUE(catalog.AddSchema(*b2.Build()).ok());
  EquivalenceMap equivalence = *EquivalenceMap::Create(catalog, {"g1", "g2"});
  AssertionStore assertions;
  ASSERT_TRUE(assertions
                  .Assert({"g1", "On"}, {"g2", "Edge"},
                          AssertionType::kEquals)
                  .ok());
  Result<IntegrationResult> result =
      Integrate(catalog, {"g1", "g2"}, equivalence, assertions);
  ASSERT_TRUE(result.ok()) << result.status();
  const ecr::Schema& s = result->schema;
  ecr::RelationshipId merged = s.FindRelationship("E_On_Edge");
  ASSERT_GE(merged, 0);
  const std::vector<ecr::Participation>& participants =
      s.relationship(merged).participants;
  ASSERT_EQ(participants.size(), 4u);
  EXPECT_EQ(s.object(participants[2].object).name, "Node");
  EXPECT_EQ(participants[2].role, "from");
  EXPECT_EQ(s.object(participants[3].object).name, "Node");
  EXPECT_EQ(participants[3].role, "to");
}

}  // namespace
}  // namespace ecrint::core
