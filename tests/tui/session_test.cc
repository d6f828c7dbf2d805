#include "tui/session.h"

#include <gtest/gtest.h>

namespace ecrint::tui {
namespace {

// Feeds a list of input lines, returning the final frame.
std::string Drive(Session& session, const std::vector<std::string>& lines) {
  std::string frame;
  for (const std::string& line : lines) frame = session.Step(line);
  return frame;
}

// The paper's university session: define sc1 and sc2 through the collection
// screens exactly as the forms would.
void DefineUniversity(Session& session) {
  Drive(session, {
      "1",                       // task 1: schema collection
      "a sc1",                   // Screen 2: add schema sc1
      "a Student e",             // Screen 3: add entity
      "Name char key",           // Screen 5: attributes
      "GPA real",
      "e",
      "a Department e",
      "Dname char key",
      "e",
      "a Majors r",              // Screen 4: relationship
      "Student 1 1",
      "Department 0 n",
      "e",                       // finish participants
      "e",                       // no relationship attributes
      "e",                       // back to schema names
      "a sc2",
      "a Grad_student e",
      "Name char key",
      "GPA real",
      "Support_type char",
      "e",
      "a Faculty e",
      "Name char key",
      "Rank char",
      "e",
      "a Department e",
      "Dname char key",
      "e",
      "a Study r",
      "Grad_student 1 1",
      "Department 0 n",
      "e",
      "e",
      "a Works r",
      "Faculty 1 1",
      "Department 1 n",
      "e",
      "e",
      "e",                       // back to schema names
      "e",                       // back to main menu
  });
}

void DeclareEquivalences(Session& session) {
  Drive(session, {
      "2",                        // task 2
      "sc1 sc2",                  // schema pair
      "Student Grad_student",     // Screen 6 pick
      "a Name Name",              // Screen 7
      "a GPA GPA",
      "e",
      "Department Department",
      "a Dname Dname",
      "e",
      "e",                        // leave selection
  });
}

TEST(SessionTest, MainMenuRendersScreen1) {
  Session session;
  std::string frame = session.CurrentFrame();
  EXPECT_NE(frame.find("SCHEMA INTEGRATION TOOL"), std::string::npos);
  EXPECT_NE(frame.find("< Main Menu >"), std::string::npos);
  EXPECT_NE(frame.find("1. Define the schemas"), std::string::npos);
  EXPECT_NE(frame.find("6. Integrate and view"), std::string::npos);
}

TEST(SessionTest, SchemaCollectionBuildsCatalog) {
  Session session;
  DefineUniversity(session);
  EXPECT_EQ(session.screen(), ScreenId::kMainMenu);
  ASSERT_TRUE(session.catalog().Contains("sc1"));
  ASSERT_TRUE(session.catalog().Contains("sc2"));
  const ecr::Schema& sc1 = **session.catalog().GetSchema("sc1");
  EXPECT_EQ(sc1.num_objects(), 2);
  EXPECT_EQ(sc1.num_relationships(), 1);
  ecr::ObjectId student = sc1.FindObject("Student");
  ASSERT_NE(student, ecr::kNoObject);
  ASSERT_EQ(sc1.object(student).attributes.size(), 2u);
  EXPECT_TRUE(sc1.object(student).attributes[0].is_key);
  const ecr::RelationshipSet& majors = sc1.relationship(0);
  EXPECT_EQ(majors.participants[0].min_card, 1);
  EXPECT_EQ(majors.participants[1].max_card, ecr::kUnboundedCardinality);
}

TEST(SessionTest, StructureScreenShowsCounts) {
  Session session;
  Drive(session, {"1", "a sc1", "a Student e", "Name char key", "GPA real",
                  "e"});
  std::string frame = session.CurrentFrame();
  EXPECT_NE(frame.find("Structure Information Collection Screen"),
            std::string::npos);
  EXPECT_NE(frame.find("SCHEMA NAME: sc1"), std::string::npos);
  EXPECT_NE(frame.find("1> Student"), std::string::npos);
  EXPECT_NE(frame.find("2"), std::string::npos);  // two attributes
}

TEST(SessionTest, EquivalenceEditorShowsClasses) {
  Session session;
  DefineUniversity(session);
  std::string frame = Drive(session, {
      "2", "sc1 sc2", "Student Grad_student", "a Name Name"});
  EXPECT_NE(frame.find("Equivalence Class Creation and Deletion Screen"),
            std::string::npos);
  EXPECT_NE(frame.find("sc1.Student"), std::string::npos);
  EXPECT_NE(frame.find("sc2.Grad_student"), std::string::npos);
  // Merged class: Grad_student's Name shows class #1 (Student.Name's).
  EXPECT_NE(frame.find("1> Name"), std::string::npos);
}

TEST(SessionTest, AssertionScreenShowsRatiosLikeScreen8) {
  Session session;
  DefineUniversity(session);
  DeclareEquivalences(session);
  std::string frame = Drive(session, {"3"});
  EXPECT_EQ(session.screen(), ScreenId::kAssertionCollection);
  EXPECT_NE(frame.find("Assertion Collection For Object Pairs"),
            std::string::npos);
  EXPECT_NE(frame.find("0.5000"), std::string::npos);
  EXPECT_NE(frame.find("sc1.Department"), std::string::npos);
  EXPECT_NE(frame.find("'equals'"), std::string::npos);
}

TEST(SessionTest, AssertionsRecordedAndShown) {
  Session session;
  DefineUniversity(session);
  DeclareEquivalences(session);
  std::string frame = Drive(session, {"3", "1 1", "2 3"});
  // Department=Department and Student contains Grad_student recorded.
  EXPECT_EQ(session.assertions().user_assertions().size(), 2u);
  EXPECT_NE(frame.find("=>3"), std::string::npos);
}

TEST(SessionTest, ConflictShowsScreen9) {
  Session session;
  DefineUniversity(session);
  DeclareEquivalences(session);
  // Student contains Grad_student, then claim they're disjoint: conflict.
  std::string frame = Drive(session, {"3", "2 3", "2 0"});
  EXPECT_EQ(session.screen(), ScreenId::kAssertionConflict);
  EXPECT_NE(frame.find("Assertion Conflict Resolution Screen"),
            std::string::npos);
  EXPECT_NE(frame.find("conflict"), std::string::npos);
  // Any key returns to the collection screen; the store is unchanged.
  Drive(session, {"x"});
  EXPECT_EQ(session.screen(), ScreenId::kAssertionCollection);
  EXPECT_EQ(session.assertions().user_assertions().size(), 1u);
}

// Full paper scenario through the viewing screens (Screens 10-12).
class ViewingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DefineUniversity(session_);
    DeclareEquivalences(session_);
    Drive(session_, {"3", "1 1", "2 3", "6 4", "e"});   // Screen 8 answers
    Drive(session_, {"5", "1 1", "e"});                 // Majors = Study
    Drive(session_, {"6"});                             // integrate + view
  }
  Session session_;
};

TEST_F(ViewingTest, ObjectClassScreenListsResult) {
  ASSERT_EQ(session_.screen(), ScreenId::kObjectClassScreen);
  std::string frame = session_.CurrentFrame();
  EXPECT_NE(frame.find("INTEGRATED SCHEMA"), std::string::npos);
  EXPECT_NE(frame.find("E_Department"), std::string::npos);
  EXPECT_NE(frame.find("D_Stud_Facu"), std::string::npos);
  EXPECT_NE(frame.find("Grad_student"), std::string::npos);
  EXPECT_NE(frame.find("Entities(2)"), std::string::npos);
  EXPECT_NE(frame.find("Categories(3)"), std::string::npos);
  EXPECT_NE(frame.find("Relationships(2)"), std::string::npos);
}

TEST_F(ViewingTest, CategoryScreenShowsStudentParentsAndChildren) {
  std::string frame = Drive(session_, {"m Student", "c"});
  EXPECT_EQ(session_.screen(), ScreenId::kCategoryScreen);
  EXPECT_NE(frame.find("< Category Screen >"), std::string::npos);
  EXPECT_NE(frame.find("D_Stud_Facu"), std::string::npos);
  EXPECT_NE(frame.find("Grad_student"), std::string::npos);
}

TEST_F(ViewingTest, AttributeAndComponentScreens) {
  std::string frame = Drive(session_, {"m Student", "a"});
  EXPECT_EQ(session_.screen(), ScreenId::kAttributeScreen);
  EXPECT_NE(frame.find("D_Name"), std::string::npos);
  EXPECT_NE(frame.find("derived"), std::string::npos);

  frame = Drive(session_, {"c D_Name"});
  EXPECT_EQ(session_.screen(), ScreenId::kComponentAttributeScreen);
  EXPECT_NE(frame.find("original Schema Name: sc1"), std::string::npos);
  EXPECT_NE(frame.find("original Object Name: Student"), std::string::npos);
  EXPECT_NE(frame.find("component 1 of 2"), std::string::npos);

  frame = Drive(session_, {""});
  frame = session_.CurrentFrame();
  EXPECT_NE(frame.find("original Schema Name: sc2"), std::string::npos);
  EXPECT_NE(frame.find("original Object Name: Grad_student"),
            std::string::npos);
}

TEST_F(ViewingTest, EquivalentScreenShowsSources) {
  std::string frame = Drive(session_, {"m E_Department", "en", "v"});
  EXPECT_EQ(session_.screen(), ScreenId::kEquivalentScreen);
  EXPECT_NE(frame.find("sc1.Department"), std::string::npos);
  EXPECT_NE(frame.find("sc2.Department"), std::string::npos);
}

TEST_F(ViewingTest, RelationshipAndParticipatingScreens) {
  std::string frame = Drive(session_, {"r E_Majo_Stud"});
  EXPECT_EQ(session_.screen(), ScreenId::kRelationshipScreen);
  frame = Drive(session_, {"p"});
  EXPECT_EQ(session_.screen(), ScreenId::kParticipatingScreen);
  EXPECT_NE(frame.find("Student"), std::string::npos);
  EXPECT_NE(frame.find("E_Department"), std::string::npos);
  EXPECT_NE(frame.find("[1,1]"), std::string::npos);
  EXPECT_NE(frame.find("[0,n]"), std::string::npos);
}

TEST_F(ViewingTest, ExitReturnsToMainThenQuits) {
  Drive(session_, {"x"});
  EXPECT_EQ(session_.screen(), ScreenId::kMainMenu);
  Drive(session_, {"e"});
  EXPECT_TRUE(session_.done());
}

TEST(SessionTest, ErrorsSurfaceInMessageRow) {
  Session session;
  std::string frame = Drive(session, {"1", "a bad name extra"});
  EXPECT_NE(frame.find("*"), std::string::npos);
  frame = Drive(session, {"a sc1", "a Student e", "Name nosuchdomain", "e"});
  // The bad attribute was rejected but the flow continues.
  EXPECT_EQ(session.screen(), ScreenId::kStructureCollection);
  const ecr::Schema& sc1 = **session.catalog().GetSchema("sc1");
  EXPECT_EQ(sc1.object(sc1.FindObject("Student")).attributes.size(), 0u);
}

TEST(SessionTest, Task4RelationshipEquivalences) {
  Session session;
  DefineUniversity(session);
  // Give the relationships attributes to relate.
  Drive(session, {"1", "u sc1", "e", "e"});  // no-op navigation check
  EXPECT_EQ(session.screen(), ScreenId::kMainMenu);
  std::string frame = Drive(session, {"4", "sc1 sc2"});
  EXPECT_EQ(session.screen(), ScreenId::kObjectNameSelection);
  EXPECT_NE(frame.find("Relationship Name Selection Screen"),
            std::string::npos);
  EXPECT_NE(frame.find("r Majors"), std::string::npos);
  EXPECT_NE(frame.find("r Study"), std::string::npos);
  // Majors/Study have no attributes: picking them is rejected helpfully.
  frame = Drive(session, {"Majors Study"});
  EXPECT_EQ(session.screen(), ScreenId::kObjectNameSelection);
  EXPECT_NE(frame.find("no attributes"), std::string::npos);
  Drive(session, {"e"});
  EXPECT_EQ(session.screen(), ScreenId::kMainMenu);
}

TEST(SessionTest, ProjectExportImportRoundTrip) {
  Session original;
  DefineUniversity(original);
  DeclareEquivalences(original);
  Drive(original, {"3", "1 1", "2 3", "e"});
  std::string text = original.ExportProject();
  EXPECT_NE(text.find("%schemas"), std::string::npos);

  ecrint::Result<ecrint::core::Project> project =
      ecrint::core::ParseProject(text);
  ASSERT_TRUE(project.ok()) << project.status();
  Session resumed;
  ASSERT_TRUE(resumed.ImportProject(*std::move(project)).ok());
  EXPECT_TRUE(resumed.catalog().Contains("sc1"));
  EXPECT_TRUE(resumed.catalog().Contains("sc2"));
  EXPECT_EQ(resumed.assertions().user_assertions().size(), 2u);
  // The resumed session can go straight to integration over all schemas.
  Drive(resumed, {"6"});
  ASSERT_TRUE(resumed.integration() != nullptr);
  EXPECT_NE(resumed.integration()->schema.FindObject("E_Department"),
            ecr::kNoObject);
}

TEST(SessionTest, AssertionHintsRendered) {
  Session session;
  DefineUniversity(session);
  DeclareEquivalences(session);
  std::string frame = Drive(session, {"3"});
  // Name is the key of both Student and Grad_student and the DDA declared
  // them equivalent: the Section-4 hint appears with the closed-world menu
  // code (equal char domains -> 'equals', code 1).
  EXPECT_NE(frame.find("hint: Student/Grad_student"), std::string::npos);
  EXPECT_NE(frame.find("key domains equal; codes 1"), std::string::npos);
}

TEST(SessionTest, Task6WithoutSchemasExplains) {
  Session session;
  std::string frame = Drive(session, {"6"});
  EXPECT_EQ(session.screen(), ScreenId::kMainMenu);
  EXPECT_NE(frame.find("no schemas defined"), std::string::npos);
}

}  // namespace
}  // namespace ecrint::tui
