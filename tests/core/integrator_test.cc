#include "core/integrator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "ecr/builder.h"
#include "ecr/validate.h"

namespace ecrint::core {
namespace {

using ecr::Domain;
using ecr::ObjectKind;
using ecr::ObjectOrigin;
using ecr::SchemaBuilder;

// --- the paper's university example (Figures 3-5) --------------------------

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

IntegrationResult IntegrateUniversity() {
  ecr::Catalog catalog = UniversityCatalog();
  EquivalenceMap equivalence =
      *EquivalenceMap::Create(catalog, {"sc1", "sc2"});
  // The session behind Screens 11-12: Name and GPA of Student/Grad_student
  // are equivalent, the Department keys are equivalent; Faculty's Name is
  // kept separate (as in Screen 12's two-component D_Name).
  EXPECT_TRUE(equivalence
                  .DeclareEquivalent({"sc1", "Student", "Name"},
                                     {"sc2", "Grad_student", "Name"})
                  .ok());
  EXPECT_TRUE(equivalence
                  .DeclareEquivalent({"sc1", "Student", "GPA"},
                                     {"sc2", "Grad_student", "GPA"})
                  .ok());
  EXPECT_TRUE(equivalence
                  .DeclareEquivalent({"sc1", "Department", "Dname"},
                                     {"sc2", "Department", "Dname"})
                  .ok());

  AssertionStore assertions;
  // Screen 8's answers: 1 (equals), 3 (contains), 4 (disjoint integrable).
  EXPECT_TRUE(assertions
                  .Assert({"sc1", "Department"}, {"sc2", "Department"},
                          AssertionType::kEquals)
                  .ok());
  EXPECT_TRUE(assertions
                  .Assert({"sc1", "Student"}, {"sc2", "Grad_student"},
                          AssertionType::kContains)
                  .ok());
  EXPECT_TRUE(assertions
                  .Assert({"sc1", "Student"}, {"sc2", "Faculty"},
                          AssertionType::kDisjointIntegrable)
                  .ok());
  // Relationship phase: Majors and Study describe the same association.
  EXPECT_TRUE(assertions
                  .Assert({"sc1", "Majors"}, {"sc2", "Study"},
                          AssertionType::kEquals)
                  .ok());

  Result<IntegrationResult> result =
      Integrate(catalog, {"sc1", "sc2"}, equivalence, assertions);
  EXPECT_TRUE(result.ok()) << result.status();
  return *std::move(result);
}

// The integrated schema and every mapping target, as text.
std::string Summary(const IntegrationResult& result) {
  std::string out;
  for (int i = 0; i < result.schema.num_objects(); ++i) {
    out += result.schema.object(i).name + ";";
  }
  for (int i = 0; i < result.schema.num_relationships(); ++i) {
    out += result.schema.relationship(i).name + ";";
  }
  for (const StructureMapping& mapping : result.mappings) {
    out += mapping.source.ToString() + "->" + mapping.target + ";";
  }
  return out;
}

// A plan runs only on a map sharing its registry and on the store it was
// last synced with; after the store registers structures, or forgets
// some in a conflicting batch, SyncIds brings it to what a fresh plan
// gives.
TEST(IntegrationPlanTest, RunsOnItsMapAndSyncsWithItsStore) {
  ecr::Catalog catalog = UniversityCatalog();
  EquivalenceMap map = *EquivalenceMap::Create(catalog, {"sc1", "sc2"});
  ASSERT_TRUE(map.DeclareEquivalent({"sc1", "Department", "Dname"},
                                    {"sc2", "Department", "Dname"})
                  .ok());
  AssertionStore store;
  ASSERT_TRUE(store
                  .Assert({"sc1", "Department"}, {"sc2", "Department"},
                          AssertionType::kEquals)
                  .ok());
  ASSERT_TRUE(SeedForIntegration(store, catalog, {"sc1", "sc2"}).ok());
  Result<IntegrationPlan> plan =
      IntegrationPlan::Build(catalog, {"sc1", "sc2"}, map);
  ASSERT_TRUE(plan.ok()) << plan.status();
  plan->SyncIds(store, 1);
  Result<IntegrationResult> fresh =
      IntegrateSeeded(catalog, {"sc1", "sc2"}, map, store);
  ASSERT_TRUE(fresh.ok());
  Result<IntegrationResult> planned = IntegrateSeeded(*plan, map, store);
  ASSERT_TRUE(planned.ok()) << planned.status();
  EXPECT_EQ(Summary(*planned), Summary(*fresh));

  // A copy of the map shares the registry; a new map does not.
  EquivalenceMap copy = map;
  EXPECT_TRUE(IntegrateSeeded(*plan, copy, store).ok());
  EquivalenceMap other = *EquivalenceMap::Create(catalog, {"sc1", "sc2"});
  EXPECT_EQ(IntegrateSeeded(*plan, other, store).status().code(),
            StatusCode::kFailedPrecondition);

  // The store registers two relationship sets: unsynced, the plan refuses.
  ASSERT_TRUE(store
                  .Assert({"sc1", "Majors"}, {"sc2", "Study"},
                          AssertionType::kEquals)
                  .ok());
  EXPECT_EQ(IntegrateSeeded(*plan, map, store).status().code(),
            StatusCode::kFailedPrecondition);
  plan->SyncIds(store, 1);
  fresh = IntegrateSeeded(catalog, {"sc1", "sc2"}, map, store);
  planned = IntegrateSeeded(*plan, map, store);
  ASSERT_TRUE(fresh.ok() && planned.ok());
  EXPECT_EQ(Summary(*planned), Summary(*fresh));
  EXPECT_NE(Summary(*planned).find("sc1.Majors->E_"), std::string::npos)
      << Summary(*planned);

  // A batch that conflicts at its first entry forgets the structures its
  // later entries registered.
  int64_t forgets = store.object_forgets();
  Result<ConflictReport> conflict = store.AssertBatch(
      {{{"sc1", "Department"},
        {"sc2", "Department"},
        AssertionType::kDisjointNonintegrable},
       {{"sc1", "X"}, {"sc2", "Y"}, AssertionType::kEquals}});
  EXPECT_FALSE(conflict.ok());
  EXPECT_GT(store.object_forgets(), forgets);
  plan->SyncIds(store, 1);
  planned = IntegrateSeeded(*plan, map, store);
  ASSERT_TRUE(planned.ok()) << planned.status();
  EXPECT_EQ(Summary(*planned), Summary(*fresh));
}

TEST(IntegratorTest, Figure5ObjectLattice) {
  IntegrationResult result = IntegrateUniversity();
  const ecr::Schema& s = result.schema;

  // Figure 5 / Screen 10: entities E_Department and D_Stud_Facu; categories
  // Student, Grad_student, Faculty.
  ecr::ObjectId e_dept = s.FindObject("E_Department");
  ecr::ObjectId d_sf = s.FindObject("D_Stud_Facu");
  ecr::ObjectId student = s.FindObject("Student");
  ecr::ObjectId grad = s.FindObject("Grad_student");
  ecr::ObjectId faculty = s.FindObject("Faculty");
  ASSERT_NE(e_dept, ecr::kNoObject);
  ASSERT_NE(d_sf, ecr::kNoObject);
  ASSERT_NE(student, ecr::kNoObject);
  ASSERT_NE(grad, ecr::kNoObject);
  ASSERT_NE(faculty, ecr::kNoObject);

  EXPECT_EQ(s.object(e_dept).kind, ObjectKind::kEntitySet);
  EXPECT_EQ(s.object(e_dept).origin, ObjectOrigin::kEquivalent);
  EXPECT_EQ(s.object(d_sf).kind, ObjectKind::kEntitySet);
  EXPECT_EQ(s.object(d_sf).origin, ObjectOrigin::kDerived);

  // Screen 11: Student's parent is D_Stud_Facu, child is Grad_student.
  EXPECT_EQ(s.object(student).kind, ObjectKind::kCategory);
  EXPECT_EQ(s.object(student).parents, std::vector<ecr::ObjectId>{d_sf});
  EXPECT_EQ(s.ChildrenOf(student), std::vector<ecr::ObjectId>{grad});
  EXPECT_EQ(s.object(faculty).parents, std::vector<ecr::ObjectId>{d_sf});

  // The result is a structurally valid ECR schema.
  EXPECT_TRUE(ecr::CheckSchemaValid(s).ok());
}

TEST(IntegratorTest, Figure5AttributePlacement) {
  IntegrationResult result = IntegrateUniversity();
  const ecr::Schema& s = result.schema;

  // Screen 12: Student carries derived D_Name (and D_GPA); Grad_student
  // keeps only Support_type and inherits the rest.
  ecr::ObjectId student = s.FindObject("Student");
  std::vector<std::string> names;
  for (const ecr::Attribute& a : s.object(student).attributes) {
    names.push_back(a.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"D_Name", "D_GPA"}));
  // Both components were keys, so D_Name stays a key.
  EXPECT_TRUE(s.object(student).attributes[0].is_key);
  EXPECT_FALSE(s.object(student).attributes[1].is_key);

  ecr::ObjectId grad = s.FindObject("Grad_student");
  ASSERT_EQ(s.object(grad).attributes.size(), 1u);
  EXPECT_EQ(s.object(grad).attributes[0].name, "Support_type");
  // Inherited view includes the derived attributes.
  std::vector<ecr::Attribute> all = s.InheritedAttributes(grad);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].name, "D_Name");

  // E_Department holds the merged key.
  ecr::ObjectId dept = s.FindObject("E_Department");
  ASSERT_EQ(s.object(dept).attributes.size(), 1u);
  EXPECT_EQ(s.object(dept).attributes[0].name, "D_Dname");

  // Screens 12a/b: D_Name's components are sc1.Student.Name and
  // sc2.Grad_student.Name.
  const DerivedAttributeInfo* d_name =
      result.FindDerivedAttribute("Student", "D_Name");
  ASSERT_NE(d_name, nullptr);
  ASSERT_EQ(d_name->components.size(), 2u);
  EXPECT_EQ(d_name->components[0].ToString(), "sc1.Student.Name");
  EXPECT_EQ(d_name->components[1].ToString(), "sc2.Grad_student.Name");
  // Faculty's Name was not declared equivalent, so it is not derived.
  EXPECT_EQ(result.FindDerivedAttribute("Faculty", "Name"), nullptr);
}

TEST(IntegratorTest, Figure5Relationships) {
  IntegrationResult result = IntegrateUniversity();
  const ecr::Schema& s = result.schema;

  // Figure 5: the merged Majors/Study relationship and Works.
  ecr::RelationshipId merged = s.FindRelationship("E_Majo_Stud");
  ASSERT_GE(merged, 0);
  EXPECT_EQ(s.relationship(merged).origin, ObjectOrigin::kEquivalent);
  const auto& participants = s.relationship(merged).participants;
  ASSERT_EQ(participants.size(), 2u);
  // Student generalizes Grad_student, so the merged relationship connects
  // Student; the Departments merged into E_Department.
  EXPECT_EQ(s.object(participants[0].object).name, "Student");
  EXPECT_EQ(participants[0].min_card, 1);
  EXPECT_EQ(participants[0].max_card, 1);
  EXPECT_EQ(s.object(participants[1].object).name, "E_Department");
  EXPECT_EQ(participants[1].min_card, 0);
  EXPECT_EQ(participants[1].max_card, ecr::kUnboundedCardinality);

  ecr::RelationshipId works = s.FindRelationship("Works");
  ASSERT_GE(works, 0);
  EXPECT_EQ(s.object(s.relationship(works).participants[0].object).name,
            "Faculty");
  EXPECT_EQ(s.object(s.relationship(works).participants[1].object).name,
            "E_Department");
}

TEST(IntegratorTest, Figure5Clusters) {
  IntegrationResult result = IntegrateUniversity();
  ASSERT_EQ(result.object_clusters.size(), 2u);
  // {sc1.Department, sc2.Department} and {Student, Grad_student, Faculty}.
  EXPECT_EQ(result.object_clusters[0].members.size(), 2u);
  EXPECT_EQ(result.object_clusters[1].members.size(), 3u);
  // Relationships: {Majors, Study} and {Works}.
  ASSERT_EQ(result.relationship_clusters.size(), 2u);
}

TEST(IntegratorTest, Figure5Mappings) {
  IntegrationResult result = IntegrateUniversity();
  Result<const StructureMapping*> grad =
      result.MappingFor({"sc2", "Grad_student"});
  ASSERT_TRUE(grad.ok());
  EXPECT_EQ((*grad)->target, "Grad_student");
  // Its Name attribute is represented by D_Name on Student.
  bool found = false;
  for (const AttributeMapping& m : (*grad)->attributes) {
    if (m.source_attribute == "Name") {
      EXPECT_EQ(m.target_owner, "Student");
      EXPECT_EQ(m.target_attribute, "D_Name");
      found = true;
    }
  }
  EXPECT_TRUE(found);

  Result<const StructureMapping*> majors = result.MappingFor({"sc1", "Majors"});
  ASSERT_TRUE(majors.ok());
  EXPECT_EQ((*majors)->target, "E_Majo_Stud");

  // Federated extent of the derived generalization covers all components.
  std::vector<ObjectRef> extent = result.ComponentExtent("D_Stud_Facu");
  ASSERT_EQ(extent.size(), 3u);
  EXPECT_TRUE(std::find(extent.begin(), extent.end(),
                        ObjectRef{"sc1", "Student"}) != extent.end());
  EXPECT_TRUE(std::find(extent.begin(), extent.end(),
                        ObjectRef{"sc2", "Grad_student"}) != extent.end());
  EXPECT_TRUE(std::find(extent.begin(), extent.end(),
                        ObjectRef{"sc2", "Faculty"}) != extent.end());
}

// --- Figure 2: one test per assertion outcome ------------------------------

struct TwoSchemaFixture {
  ecr::Catalog catalog;
  EquivalenceMap equivalence;
  AssertionStore assertions;
};

TwoSchemaFixture MakePair(const std::string& name1, const std::string& name2,
                          bool equate_keys = true) {
  ecr::Catalog catalog;
  SchemaBuilder b1("sc1");
  b1.Entity(name1).Attr("Id", Domain::Int(), true).Attr("A1", Domain::Char());
  EXPECT_TRUE(catalog.AddSchema(*b1.Build()).ok());
  SchemaBuilder b2("sc2");
  b2.Entity(name2).Attr("Id", Domain::Int(), true).Attr("A2", Domain::Char());
  EXPECT_TRUE(catalog.AddSchema(*b2.Build()).ok());
  EquivalenceMap equivalence =
      *EquivalenceMap::Create(catalog, {"sc1", "sc2"});
  if (equate_keys) {
    EXPECT_TRUE(equivalence
                    .DeclareEquivalent({"sc1", name1, "Id"},
                                       {"sc2", name2, "Id"})
                    .ok());
  }
  return {std::move(catalog), std::move(equivalence), AssertionStore()};
}

TEST(IntegratorTest, Figure2aEqualsMergesIntoEClass) {
  TwoSchemaFixture f = MakePair("Department", "Department");
  ASSERT_TRUE(f.assertions
                  .Assert({"sc1", "Department"}, {"sc2", "Department"},
                          AssertionType::kEquals)
                  .ok());
  Result<IntegrationResult> result =
      Integrate(f.catalog, {"sc1", "sc2"}, f.equivalence, f.assertions);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->schema.num_objects(), 1);
  const ecr::ObjectClass& merged = result->schema.object(0);
  EXPECT_EQ(merged.name, "E_Department");
  EXPECT_EQ(merged.origin, ObjectOrigin::kEquivalent);
  // Merged key plus both non-equivalent attributes.
  EXPECT_EQ(merged.attributes.size(), 3u);
}

TEST(IntegratorTest, Figure2bContainsMakesCategory) {
  TwoSchemaFixture f = MakePair("Student", "Grad_student");
  ASSERT_TRUE(f.assertions
                  .Assert({"sc1", "Student"}, {"sc2", "Grad_student"},
                          AssertionType::kContains)
                  .ok());
  Result<IntegrationResult> result =
      Integrate(f.catalog, {"sc1", "sc2"}, f.equivalence, f.assertions);
  ASSERT_TRUE(result.ok()) << result.status();
  const ecr::Schema& s = result->schema;
  ecr::ObjectId student = s.FindObject("Student");
  ecr::ObjectId grad = s.FindObject("Grad_student");
  ASSERT_NE(student, ecr::kNoObject);
  ASSERT_NE(grad, ecr::kNoObject);
  EXPECT_EQ(s.object(student).kind, ObjectKind::kEntitySet);
  EXPECT_EQ(s.object(grad).kind, ObjectKind::kCategory);
  EXPECT_EQ(s.object(grad).parents, std::vector<ecr::ObjectId>{student});
}

TEST(IntegratorTest, Figure2cMayBeCreatesDerivedGeneralization) {
  TwoSchemaFixture f = MakePair("Grad_student", "Instructor");
  ASSERT_TRUE(f.assertions
                  .Assert({"sc1", "Grad_student"}, {"sc2", "Instructor"},
                          AssertionType::kMayBe)
                  .ok());
  Result<IntegrationResult> result =
      Integrate(f.catalog, {"sc1", "sc2"}, f.equivalence, f.assertions);
  ASSERT_TRUE(result.ok()) << result.status();
  const ecr::Schema& s = result->schema;
  ecr::ObjectId derived = s.FindObject("D_Grad_Inst");
  ASSERT_NE(derived, ecr::kNoObject);
  EXPECT_EQ(s.object(derived).kind, ObjectKind::kEntitySet);
  EXPECT_EQ(s.object(derived).origin, ObjectOrigin::kDerived);
  ecr::ObjectId grad = s.FindObject("Grad_student");
  ecr::ObjectId instructor = s.FindObject("Instructor");
  EXPECT_EQ(s.object(grad).parents, std::vector<ecr::ObjectId>{derived});
  EXPECT_EQ(s.object(instructor).parents,
            std::vector<ecr::ObjectId>{derived});
  // The shared key moves up to the generalization.
  ASSERT_EQ(s.object(derived).attributes.size(), 1u);
  EXPECT_EQ(s.object(derived).attributes[0].name, "D_Id");
}

TEST(IntegratorTest, Figure2dDisjointIntegrableCreatesDerived) {
  TwoSchemaFixture f = MakePair("Secretary", "Engineer");
  ASSERT_TRUE(f.assertions
                  .Assert({"sc1", "Secretary"}, {"sc2", "Engineer"},
                          AssertionType::kDisjointIntegrable)
                  .ok());
  Result<IntegrationResult> result =
      Integrate(f.catalog, {"sc1", "sc2"}, f.equivalence, f.assertions);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NE(result->schema.FindObject("D_Secr_Engi"), ecr::kNoObject);
}

TEST(IntegratorTest, Figure2eDisjointNonintegrableKeptApart) {
  TwoSchemaFixture f = MakePair("Under_Grad_Student", "Full_Professor",
                                /*equate_keys=*/false);
  ASSERT_TRUE(f.assertions
                  .Assert({"sc1", "Under_Grad_Student"},
                          {"sc2", "Full_Professor"},
                          AssertionType::kDisjointNonintegrable)
                  .ok());
  Result<IntegrationResult> result =
      Integrate(f.catalog, {"sc1", "sc2"}, f.equivalence, f.assertions);
  ASSERT_TRUE(result.ok()) << result.status();
  const ecr::Schema& s = result->schema;
  EXPECT_EQ(s.num_objects(), 2);
  EXPECT_NE(s.FindObject("Under_Grad_Student"), ecr::kNoObject);
  EXPECT_NE(s.FindObject("Full_Professor"), ecr::kNoObject);
  for (ecr::ObjectId i = 0; i < s.num_objects(); ++i) {
    EXPECT_EQ(s.object(i).kind, ObjectKind::kEntitySet);
    EXPECT_EQ(s.object(i).origin, ObjectOrigin::kComponent);
  }
  // Two singleton clusters.
  EXPECT_EQ(result->object_clusters.size(), 2u);
}

// --- behaviours beyond the figures -----------------------------------------

TEST(IntegratorTest, UnassertedNameCollisionQualifiedBySchema) {
  TwoSchemaFixture f = MakePair("Student", "Student", /*equate_keys=*/false);
  Result<IntegrationResult> result =
      Integrate(f.catalog, {"sc1", "sc2"}, f.equivalence, f.assertions);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NE(result->schema.FindObject("Student"), ecr::kNoObject);
  EXPECT_NE(result->schema.FindObject("sc2_Student"), ecr::kNoObject);
}

TEST(IntegratorTest, TransitiveReductionDropsImpliedEdge) {
  ecr::Catalog catalog;
  SchemaBuilder b1("s1");
  b1.Entity("A");
  ASSERT_TRUE(catalog.AddSchema(*b1.Build()).ok());
  SchemaBuilder b2("s2");
  b2.Entity("B");
  ASSERT_TRUE(catalog.AddSchema(*b2.Build()).ok());
  SchemaBuilder b3("s3");
  b3.Entity("C");
  ASSERT_TRUE(catalog.AddSchema(*b3.Build()).ok());
  EquivalenceMap equivalence =
      *EquivalenceMap::Create(catalog, {"s1", "s2", "s3"});
  AssertionStore assertions;
  ASSERT_TRUE(assertions.Assert({"s1", "A"}, {"s2", "B"},
                                AssertionType::kContainedIn).ok());
  ASSERT_TRUE(assertions.Assert({"s2", "B"}, {"s3", "C"},
                                AssertionType::kContainedIn).ok());
  ASSERT_TRUE(assertions.Assert({"s1", "A"}, {"s3", "C"},
                                AssertionType::kContainedIn).ok());
  Result<IntegrationResult> result =
      Integrate(catalog, {"s1", "s2", "s3"}, equivalence, assertions);
  ASSERT_TRUE(result.ok()) << result.status();
  const ecr::Schema& s = result->schema;
  ecr::ObjectId a = s.FindObject("A");
  ecr::ObjectId b = s.FindObject("B");
  // A's only direct parent is B; A -> C is implied.
  EXPECT_EQ(s.object(a).parents, std::vector<ecr::ObjectId>{b});
}

TEST(IntegratorTest, NaryIntegrationAcrossThreeSchemas) {
  ecr::Catalog catalog;
  for (const char* name : {"v1", "v2", "v3"}) {
    SchemaBuilder b(name);
    b.Entity("Person").Attr("Ssn", Domain::Int(), true);
    ASSERT_TRUE(catalog.AddSchema(*b.Build()).ok());
  }
  EquivalenceMap equivalence =
      *EquivalenceMap::Create(catalog, {"v1", "v2", "v3"});
  ASSERT_TRUE(equivalence
                  .DeclareEquivalent({"v1", "Person", "Ssn"},
                                     {"v2", "Person", "Ssn"})
                  .ok());
  ASSERT_TRUE(equivalence
                  .DeclareEquivalent({"v2", "Person", "Ssn"},
                                     {"v3", "Person", "Ssn"})
                  .ok());
  AssertionStore assertions;
  ASSERT_TRUE(assertions.Assert({"v1", "Person"}, {"v2", "Person"},
                                AssertionType::kEquals).ok());
  ASSERT_TRUE(assertions.Assert({"v2", "Person"}, {"v3", "Person"},
                                AssertionType::kEquals).ok());
  // v1 = v3 is derived; all three merge into one E_ class.
  Result<IntegrationResult> result =
      Integrate(catalog, {"v1", "v2", "v3"}, equivalence, assertions);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->schema.num_objects(), 1);
  const IntegratedStructureInfo* info =
      result->FindStructure("E_Person");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->sources.size(), 3u);
}

TEST(IntegratorTest, WithinSchemaCategoriesCarryOver) {
  ecr::Catalog catalog;
  SchemaBuilder b1("s1");
  b1.Entity("Person").Attr("Ssn", Domain::Int(), true);
  b1.Category("Employee", {"Person"}).Attr("Salary", Domain::Real());
  ASSERT_TRUE(catalog.AddSchema(*b1.Build()).ok());
  SchemaBuilder b2("s2");
  b2.Entity("Contractor").Attr("Ssn", Domain::Int(), true);
  ASSERT_TRUE(catalog.AddSchema(*b2.Build()).ok());
  EquivalenceMap equivalence = *EquivalenceMap::Create(catalog, {"s1", "s2"});
  AssertionStore assertions;
  ASSERT_TRUE(assertions.Assert({"s2", "Contractor"}, {"s1", "Person"},
                                AssertionType::kContainedIn).ok());
  Result<IntegrationResult> result =
      Integrate(catalog, {"s1", "s2"}, equivalence, assertions);
  ASSERT_TRUE(result.ok()) << result.status();
  const ecr::Schema& s = result->schema;
  ecr::ObjectId person = s.FindObject("Person");
  ecr::ObjectId employee = s.FindObject("Employee");
  ecr::ObjectId contractor = s.FindObject("Contractor");
  EXPECT_EQ(s.object(employee).parents, std::vector<ecr::ObjectId>{person});
  EXPECT_EQ(s.object(contractor).parents, std::vector<ecr::ObjectId>{person});
}

TEST(IntegratorTest, ConflictingAssertionsSurfaceThroughSeeding) {
  // Equate a foreign class with two local entity sets, which the ECR model
  // makes disjoint: Integrate must fail with a conflict.
  ecr::Catalog catalog;
  SchemaBuilder b1("s1");
  b1.Entity("A");
  b1.Entity("B");
  ASSERT_TRUE(catalog.AddSchema(*b1.Build()).ok());
  SchemaBuilder b2("s2");
  b2.Entity("X");
  ASSERT_TRUE(catalog.AddSchema(*b2.Build()).ok());
  EquivalenceMap equivalence = *EquivalenceMap::Create(catalog, {"s1", "s2"});
  AssertionStore assertions;
  ASSERT_TRUE(assertions.Assert({"s2", "X"}, {"s1", "A"},
                                AssertionType::kEquals).ok());
  ASSERT_TRUE(assertions.Assert({"s2", "X"}, {"s1", "B"},
                                AssertionType::kEquals).ok());
  Result<IntegrationResult> result =
      Integrate(catalog, {"s1", "s2"}, equivalence, assertions);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kConflict);
}

TEST(IntegratorTest, SingleSchemaPassesThrough) {
  ecr::Catalog catalog = UniversityCatalog();
  EquivalenceMap equivalence = *EquivalenceMap::Create(catalog, {"sc1"});
  AssertionStore assertions;
  Result<IntegrationResult> result =
      Integrate(catalog, {"sc1"}, equivalence, assertions);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->schema.num_objects(), 2);
  EXPECT_EQ(result->schema.num_relationships(), 1);
  EXPECT_NE(result->schema.FindObject("Student"), ecr::kNoObject);
}

TEST(IntegratorTest, RejectsEmptyAndUnknownSchemas) {
  ecr::Catalog catalog = UniversityCatalog();
  EquivalenceMap equivalence = *EquivalenceMap::Create(catalog, {"sc1"});
  AssertionStore assertions;
  EXPECT_FALSE(Integrate(catalog, {}, equivalence, assertions).ok());
  EXPECT_FALSE(
      Integrate(catalog, {"sc1", "nope"}, equivalence, assertions).ok());
}

TEST(IntegratorTest, DeepCategoryChainPlacesAttributesOnTheMergedClass) {
  // A 40-deep category chain. The closure gives every category all of its
  // ancestors as parents, so a node depth computed by plain recursion costs
  // about 2^40 calls. The bottom category equals a class of a second schema
  // and shares one equivalent attribute with it, so attribute placement
  // needs the depth of every class in the chain.
  constexpr int kDepth = 40;
  auto name = [](int i) { return "C" + std::to_string(i); };
  ecr::Catalog catalog;
  SchemaBuilder b1("s1");
  b1.Entity(name(0)).Attr("Key", Domain::Int(), true);
  for (int i = 1; i <= kDepth; ++i) b1.Category(name(i), {name(i - 1)});
  b1.Attr("Code", Domain::Char());
  ASSERT_TRUE(catalog.AddSchema(*b1.Build()).ok());
  SchemaBuilder b2("s2");
  b2.Entity("Item").Attr("Code", Domain::Char());
  ASSERT_TRUE(catalog.AddSchema(*b2.Build()).ok());
  EquivalenceMap equivalence = *EquivalenceMap::Create(catalog, {"s1", "s2"});
  ASSERT_TRUE(equivalence
                  .DeclareEquivalent({"s1", name(kDepth), "Code"},
                                     {"s2", "Item", "Code"})
                  .ok());
  AssertionStore assertions;
  ASSERT_TRUE(assertions.Assert({"s1", name(kDepth)}, {"s2", "Item"},
                                AssertionType::kEquals).ok());

  Result<IntegrationResult> result =
      Integrate(catalog, {"s1", "s2"}, equivalence, assertions);
  ASSERT_TRUE(result.ok()) << result.status();
  const ecr::Schema& s = result->schema;
  EXPECT_TRUE(ecr::CheckSchemaValid(s).ok());
  Result<const StructureMapping*> bottom =
      result->MappingFor({"s1", name(kDepth)});
  Result<const StructureMapping*> item = result->MappingFor({"s2", "Item"});
  ASSERT_TRUE(bottom.ok() && item.ok());
  EXPECT_EQ((*bottom)->target, "E_" + name(kDepth) + "_Item");
  EXPECT_EQ((*item)->target, (*bottom)->target);
  // Reduction keeps only the chain's own links.
  for (int i = 1; i < kDepth; ++i) {
    EXPECT_EQ(s.object(s.FindObject(name(i))).parents,
              std::vector<ecr::ObjectId>{s.FindObject(name(i - 1))});
  }
  ecr::ObjectId merged = s.FindObject((*bottom)->target);
  ASSERT_NE(merged, ecr::kNoObject);
  EXPECT_EQ(s.object(merged).parents,
            std::vector<ecr::ObjectId>{s.FindObject(name(kDepth - 1))});
  // The equivalent pair merges onto the most specific class that holds
  // both owners: the merged bottom class itself.
  const DerivedAttributeInfo* code =
      result->FindDerivedAttribute((*bottom)->target, "D_Code");
  ASSERT_NE(code, nullptr);
  EXPECT_EQ(code->components.size(), 2u);
}

TEST(IntegratorTest, ResultNameOption) {
  ecr::Catalog catalog = UniversityCatalog();
  EquivalenceMap equivalence = *EquivalenceMap::Create(catalog, {"sc1"});
  AssertionStore assertions;
  IntegrationOptions options;
  options.result_name = "global";
  Result<IntegrationResult> result =
      Integrate(catalog, {"sc1"}, equivalence, assertions, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->schema.name(), "global");
}

}  // namespace
}  // namespace ecrint::core
