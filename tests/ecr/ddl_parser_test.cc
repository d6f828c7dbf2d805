#include "ecr/ddl_parser.h"

#include <gtest/gtest.h>

#include <ostream>

#include "ecr/printer.h"

namespace ecrint::ecr {
namespace {

constexpr char kFigure3[] = R"(
# the paper's Figure 3
schema sc1 {
  entity Student {
    Name: char key;
    GPA: real;
  }
  entity Department {
    Dname: char key;
  }
  relationship Majors (Student [1,1], Department [0,n]) {
    Since: int;
  }
}
)";

TEST(DdlParserTest, ParsesFigure3) {
  Result<Schema> schema = ParseSchema(kFigure3);
  ASSERT_TRUE(schema.ok()) << schema.status();
  EXPECT_EQ(schema->name(), "sc1");
  ObjectId student = schema->FindObject("Student");
  ASSERT_NE(student, kNoObject);
  ASSERT_EQ(schema->object(student).attributes.size(), 2u);
  EXPECT_EQ(schema->object(student).attributes[0].name, "Name");
  EXPECT_TRUE(schema->object(student).attributes[0].is_key);
  EXPECT_EQ(schema->object(student).attributes[1].domain.type(),
            DomainType::kReal);
  RelationshipId majors = schema->FindRelationship("Majors");
  ASSERT_GE(majors, 0);
  const RelationshipSet& rel = schema->relationship(majors);
  ASSERT_EQ(rel.participants.size(), 2u);
  EXPECT_EQ(rel.participants[0].min_card, 1);
  EXPECT_EQ(rel.participants[0].max_card, 1);
  EXPECT_EQ(rel.participants[1].max_card, kUnboundedCardinality);
  ASSERT_EQ(rel.attributes.size(), 1u);
  EXPECT_EQ(rel.attributes[0].name, "Since");
}

TEST(DdlParserTest, ParsesCategoriesAndRoles) {
  Result<Schema> schema = ParseSchema(R"(
    schema s {
      entity Person { Name: char(40) key; Age: int[0..120]; }
      category Employee of Person { Salary: real unit usd; }
      category TA of Employee;
      relationship Manages (Employee as boss [0,1],
                            Employee as report [0,n]);
    }
  )");
  ASSERT_TRUE(schema.ok()) << schema.status();
  ObjectId employee = schema->FindObject("Employee");
  ASSERT_NE(employee, kNoObject);
  EXPECT_EQ(schema->object(employee).kind, ObjectKind::kCategory);
  ObjectId ta = schema->FindObject("TA");
  EXPECT_EQ(schema->object(ta).parents, std::vector<ObjectId>{employee});
  const RelationshipSet& rel = schema->relationship(0);
  EXPECT_EQ(rel.participants[0].role, "boss");
  // Domain details survive.
  const ObjectClass& person = schema->object(schema->FindObject("Person"));
  EXPECT_EQ(person.attributes[0].domain.max_length(), 40);
  EXPECT_EQ(person.attributes[1].domain.lower_bound(), 0);
  const ObjectClass& emp = schema->object(employee);
  EXPECT_EQ(emp.attributes[0].domain.unit(), "usd");
}

TEST(DdlParserTest, MultiSchemaFileIntoCatalog) {
  Catalog catalog;
  Result<std::vector<std::string>> names = ParseInto(catalog, R"(
    schema a { entity X { K: int key; } }
    schema b { entity Y { K: int key; } }
  )");
  ASSERT_TRUE(names.ok()) << names.status();
  EXPECT_EQ(*names, (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(catalog.Contains("a"));
  EXPECT_TRUE(catalog.Contains("b"));
}

TEST(DdlParserTest, DdlRoundTrip) {
  Result<Schema> first = ParseSchema(kFigure3);
  ASSERT_TRUE(first.ok());
  std::string ddl = ToDdl(*first);
  Result<Schema> second = ParseSchema(ddl);
  ASSERT_TRUE(second.ok()) << second.status() << "\n" << ddl;
  EXPECT_EQ(ToDdl(*second), ddl);
}

struct BadDdlCase {
  const char* label;
  const char* ddl;
};

// Test listings show a case by its label; without this gtest prints the
// struct's raw bytes, two pointers that change from build to build and run
// to run.
void PrintTo(const BadDdlCase& value, std::ostream* os) { *os << value.label; }

class DdlParserErrorTest : public ::testing::TestWithParam<BadDdlCase> {};

TEST_P(DdlParserErrorTest, RejectsMalformedInput) {
  Result<Schema> schema = ParseSchema(GetParam().ddl);
  EXPECT_FALSE(schema.ok()) << GetParam().label;
  EXPECT_EQ(schema.status().code(), StatusCode::kParseError)
      << GetParam().label << ": " << schema.status();
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, DdlParserErrorTest,
    ::testing::Values(
        BadDdlCase{"unterminated_schema", "schema s { entity X;"},
        BadDdlCase{"unknown_structure", "schema s { table X; }"},
        BadDdlCase{"unterminated_attr",
                   "schema s { entity X { N: char } }"},
        BadDdlCase{"two_schemas_for_single_parse",
                   "schema a { entity X; } schema b { entity Y; }"}),
    [](const ::testing::TestParamInfo<BadDdlCase>& info) {
      return info.param.label;
    });

// Rejects `ddl` as a parse error whose message is exactly `message`.
void ExpectParseError(const char* ddl, const std::string& message) {
  Result<Schema> schema = ParseSchema(ddl);
  ASSERT_FALSE(schema.ok()) << ddl;
  EXPECT_EQ(schema.status().code(), StatusCode::kParseError)
      << schema.status();
  EXPECT_EQ(schema.status().message(), message);
}

TEST(DdlParserTest, RejectsEmptyInput) {
  ExpectParseError("", "input defines no schema");
}

TEST(DdlParserTest, RejectsMissingSchemaKeyword) {
  ExpectParseError("entity X;",
                   "line 1: expected keyword 'schema' (near 'entity')");
}

TEST(DdlParserTest, RejectsAttributeWithoutColon) {
  ExpectParseError("schema s { entity X { Name char; } }",
                   "line 1: expected ':' (near 'char')");
}

TEST(DdlParserTest, RejectsUnknownDomain) {
  ExpectParseError("schema s { entity X { N: varchar; } }",
                   "unknown domain 'varchar'");
}

TEST(DdlParserTest, RejectsStrayCharacter) {
  ExpectParseError("schema s @ {}", "line 1: unexpected character '@'");
}

TEST(DdlParserTest, RejectsBadCardinality) {
  ExpectParseError(
      "schema s { entity X; entity Y; relationship R (X [n,1], Y [0,1]); }",
      "line 1: expected cardinality (near 'n')");
}

TEST(DdlParserTest, SemanticErrorsKeepTheirCodes) {
  // Unknown parent is NotFound, not ParseError.
  Result<Schema> schema =
      ParseSchema("schema s { category C of Missing; }");
  ASSERT_FALSE(schema.ok());
  EXPECT_EQ(schema.status().code(), StatusCode::kNotFound);
  // Duplicate structure name is AlreadyExists.
  schema = ParseSchema("schema s { entity X; entity X; }");
  ASSERT_FALSE(schema.ok());
  EXPECT_EQ(schema.status().code(), StatusCode::kAlreadyExists);
}

TEST(DdlParserTest, ErrorsMentionLineNumbers) {
  Result<Schema> schema = ParseSchema("schema s {\n  entity X {\n    N char;\n  }\n}");
  ASSERT_FALSE(schema.ok());
  EXPECT_NE(schema.status().message().find("line 3"), std::string::npos)
      << schema.status();
}

TEST(DdlParserTest, CommentsAndWhitespaceIgnored) {
  Result<Schema> schema = ParseSchema(
      "schema s {  # trailing comment\n"
      "  # whole-line comment\n"
      "  entity X { N: char key; }\n"
      "}");
  ASSERT_TRUE(schema.ok()) << schema.status();
  EXPECT_EQ(schema->num_objects(), 1);
}

TEST(DdlParserTest, AttributelessStructuresUseSemicolon) {
  Result<Schema> schema = ParseSchema(
      "schema s { entity X; entity Y; relationship R (X [0,n], Y [1,1]); }");
  ASSERT_TRUE(schema.ok()) << schema.status();
  EXPECT_EQ(schema->num_objects(), 2);
  EXPECT_EQ(schema->num_relationships(), 1);
}

}  // namespace
}  // namespace ecrint::ecr
