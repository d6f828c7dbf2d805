// Property: the OCS ranking on the equivalence registry's ids (row and
// column slots per registered structure, a class scatter, an int sort on
// name ranks) equals a brute force over names: one EquivalentAttributeCount
// per cell and a stable sort in Screen 8's order (ratio descending, then
// the first structure's name, then the second's). Checked over generated
// schema pairs of several sizes, after random declares and removals, for
// both structure kinds, with and without the zero pairs, in both schema
// orders, through RankObjectPairs, OcsMatrix::TopKPairs and
// SuggestAssertionCandidates; with structures that have no attributes; and
// with a map created before the catalog dropped, renamed and gained object
// classes (a form edit between two map rebuilds), which must rank as a
// lookup by name would.

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <random>
#include <regex>
#include <string>
#include <vector>

#include "core/resemblance.h"
#include "ecr/ddl_parser.h"
#include "ecr/printer.h"
#include "heuristics/suggest.h"
#include "workload/generator.h"

namespace ecrint::core {
namespace {

// Screen 8's order, on names.
bool PairBefore(const ObjectPair& a, const ObjectPair& b) {
  if (a.attribute_ratio != b.attribute_ratio) {
    return a.attribute_ratio > b.attribute_ratio;
  }
  if (!(a.first == b.first)) return a.first < b.first;
  return a.second < b.second;
}

std::vector<std::pair<std::string, int>> Structures(const ecr::Schema& schema,
                                                    StructureKind kind) {
  std::vector<std::pair<std::string, int>> out;
  if (kind == StructureKind::kObjectClass) {
    for (ecr::ObjectId i = 0; i < schema.num_objects(); ++i) {
      out.push_back({schema.object(i).name,
                     static_cast<int>(schema.object(i).attributes.size())});
    }
  } else {
    for (ecr::RelationshipId i = 0; i < schema.num_relationships(); ++i) {
      out.push_back(
          {schema.relationship(i).name,
           static_cast<int>(schema.relationship(i).attributes.size())});
    }
  }
  return out;
}

// The brute force: every cell counted by name, then a stable sort.
std::vector<ObjectPair> ReferenceRank(const ecr::Catalog& catalog,
                                      const EquivalenceMap& map,
                                      const std::string& schema1,
                                      const std::string& schema2,
                                      StructureKind kind, bool include_zero) {
  const ecr::Schema& s1 = **catalog.GetSchema(schema1);
  const ecr::Schema& s2 = **catalog.GetSchema(schema2);
  std::vector<ObjectPair> out;
  for (const auto& [row, row_attributes] : Structures(s1, kind)) {
    for (const auto& [column, column_attributes] : Structures(s2, kind)) {
      ObjectPair pair;
      pair.first = {schema1, row};
      pair.second = {schema2, column};
      pair.equivalent_attributes =
          map.EquivalentAttributeCount(pair.first, pair.second);
      if (pair.equivalent_attributes == 0 && !include_zero) continue;
      pair.smaller_attribute_count =
          std::min(row_attributes, column_attributes);
      int denominator =
          pair.equivalent_attributes + pair.smaller_attribute_count;
      pair.attribute_ratio =
          denominator == 0
              ? 0.0
              : static_cast<double>(pair.equivalent_attributes) /
                    denominator;
      out.push_back(pair);
    }
  }
  std::stable_sort(out.begin(), out.end(), PairBefore);
  return out;
}

std::string Describe(const std::vector<ObjectPair>& pairs) {
  std::string out;
  for (const ObjectPair& pair : pairs) {
    out += pair.first.ToString() + " " + pair.second.ToString() + " " +
           std::to_string(pair.equivalent_attributes) + "/" +
           std::to_string(pair.smaller_attribute_count) + " " +
           std::to_string(pair.attribute_ratio) + "\n";
  }
  return out;
}

// Compares RankObjectPairs, every TopKPairs prefix size class and
// SuggestAssertionCandidates with the brute force, in both schema orders,
// for both kinds, with and without the zero pairs. Adds the number of
// nonzero pairs seen to `nonzero`, so callers can require a non-vacuous
// check.
void ExpectRanksMatch(const ecr::Catalog& catalog, const EquivalenceMap& map,
                      const std::string& a, const std::string& b,
                      const std::string& context, size_t* nonzero) {
  for (StructureKind kind :
       {StructureKind::kObjectClass, StructureKind::kRelationshipSet}) {
    for (const auto& [s1, s2] : {std::pair(a, b), std::pair(b, a)}) {
      std::string where = context + " " + s1 + "x" + s2 + " " +
                          StructureKindName(kind);
      Result<OcsMatrix> matrix = OcsMatrix::Create(catalog, map, s1, s2, kind);
      ASSERT_TRUE(matrix.ok()) << matrix.status();
      for (bool include_zero : {false, true}) {
        std::vector<ObjectPair> want =
            ReferenceRank(catalog, map, s1, s2, kind, include_zero);
        if (!include_zero) *nonzero += want.size();
        Result<std::vector<ObjectPair>> got =
            RankObjectPairs(catalog, map, s1, s2, kind, include_zero);
        ASSERT_TRUE(got.ok()) << got.status();
        EXPECT_EQ(Describe(*got), Describe(want))
            << where << (include_zero ? " zero" : "");
        int size = static_cast<int>(want.size());
        for (int k : {0, 1, 3, size / 2, size, size + 5}) {
          std::vector<ObjectPair> prefix(
              want.begin(), want.begin() + std::clamp(k, 0, size));
          EXPECT_EQ(Describe(matrix->TopKPairs(k, include_zero)),
                    Describe(prefix))
              << where << " top " << k << (include_zero ? " zero" : "");
          if (include_zero || k <= 0) continue;
          Result<std::vector<ObjectPair>> suggested =
              heuristics::SuggestAssertionCandidates(catalog, map, s1, s2,
                                                     kind, k);
          ASSERT_TRUE(suggested.ok()) << suggested.status();
          EXPECT_EQ(Describe(*suggested), Describe(prefix))
              << where << " suggest " << k;
        }
      }
      // Count() answers every cell as the brute force does.
      const ecr::Schema& first = **catalog.GetSchema(s1);
      const ecr::Schema& second = **catalog.GetSchema(s2);
      auto rows = Structures(first, kind);
      auto columns = Structures(second, kind);
      for (size_t r = 0; r < rows.size(); ++r) {
        for (size_t c = 0; c < columns.size(); ++c) {
          ASSERT_EQ(matrix->Count(static_cast<int>(r), static_cast<int>(c)),
                    map.EquivalentAttributeCount({s1, rows[r].first},
                                                 {s2, columns[c].first}))
              << where << " cell " << r << "," << c;
        }
      }
    }
  }
}

// Two generated schemas, each also holding an entity set and a
// relationship set without attributes, and attributes on most
// relationship sets so that the relationship kind ranks something.
ecr::Catalog MakeCatalog(uint64_t seed, int concepts,
                         std::vector<std::string>* names) {
  workload::GeneratorConfig config;
  config.seed = seed;
  config.num_concepts = concepts;
  config.num_schemas = 2;
  config.relationships_per_schema = std::max(3, concepts / 3);
  Result<workload::Workload> w = workload::GenerateWorkload(config);
  EXPECT_TRUE(w.ok()) << w.status();
  *names = w->schema_names;
  ecr::Catalog catalog = w->catalog;
  const char* kRelationshipAttributes[] = {"Since", "Weight", "Role"};
  for (const std::string& name : *names) {
    ecr::Schema* schema = *catalog.GetMutableSchema(name);
    EXPECT_TRUE(schema->AddEntitySet("Bare_entity").ok());
    for (ecr::RelationshipId r = 0; r < schema->num_relationships(); ++r) {
      for (int k = 0; k <= static_cast<int>(r % 3); ++k) {
        EXPECT_TRUE(schema
                        ->AddRelationshipAttribute(
                            r, {kRelationshipAttributes[k], ecr::Domain::Char(),
                                false})
                        .ok());
      }
    }
    if (schema->num_objects() >= 2) {
      EXPECT_TRUE(schema
                      ->AddRelationship("Bare_link",
                                        {{0, 0, ecr::kUnboundedCardinality, ""},
                                         {1, 0, ecr::kUnboundedCardinality,
                                          ""}})
                      .ok());
    }
  }
  return catalog;
}

// Random declares across the two schemas (domains must compare, or the
// declare is refused) and random removals.
void Edit(EquivalenceMap& map, const std::vector<std::string>& names,
          std::mt19937_64& rng, int declares, int removals) {
  std::vector<int> side[2];
  for (int id = 0; id < map.num_attributes(); ++id) {
    const ecr::AttributePath& path = map.PathAt(id);
    if (path.schema == names[0]) side[0].push_back(id);
    if (path.schema == names[1]) side[1].push_back(id);
  }
  if (side[0].empty() || side[1].empty()) return;
  for (int i = 0; i < declares; ++i) {
    const ecr::AttributePath& a = map.PathAt(side[0][rng() % side[0].size()]);
    const ecr::AttributePath& b = map.PathAt(side[1][rng() % side[1].size()]);
    (void)map.DeclareEquivalent(a, b);
    // Some classes also grow within one schema.
    if (rng() % 4 == 0) {
      (void)map.DeclareEquivalent(
          a, map.PathAt(side[0][rng() % side[0].size()]));
    }
  }
  for (int i = 0; i < removals; ++i) {
    (void)map.RemoveFromClass(map.PathAt(rng() % map.num_attributes()));
  }
}

// `ddl` with every whole-word `from` replaced by `to`.
std::string RenameWord(const std::string& ddl, const std::string& from,
                       const std::string& to) {
  return std::regex_replace(ddl, std::regex("\\b" + from + "\\b"), to);
}

struct RankCase {
  uint64_t seed;
  int concepts;
};

void PrintTo(const RankCase& c, std::ostream* os) {
  *os << "seed " << c.seed << ", " << c.concepts << " concepts";
}

class RankPropertyTest : public ::testing::TestWithParam<RankCase> {};

TEST_P(RankPropertyTest, IdRankingEqualsBruteForce) {
  std::vector<std::string> names;
  ecr::Catalog catalog =
      MakeCatalog(GetParam().seed, GetParam().concepts, &names);
  Result<EquivalenceMap> map = EquivalenceMap::Create(catalog, names);
  ASSERT_TRUE(map.ok()) << map.status();
  std::mt19937_64 rng(GetParam().seed * 31 + 7);
  size_t nonzero = 0;
  for (int round = 0; round < 4; ++round) {
    Edit(*map, names, rng, GetParam().concepts, GetParam().concepts / 4);
    ExpectRanksMatch(catalog, *map, names[0], names[1],
                     "round " + std::to_string(round), &nonzero);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(nonzero, 0u);
}

// The map is created over a catalog whose first schema starts with an
// extra object class; then a form edit drops it (every later ordinal
// moves down by one), renames another object class and adds one whose
// name sorts first. The stale map must rank as a lookup by name: the
// dropped and the renamed structures count nowhere, the moved ones are
// found by name, the new one has no equivalences.
TEST_P(RankPropertyTest, MapFromOlderCatalogRanksByName) {
  std::vector<std::string> names;
  ecr::Catalog current =
      MakeCatalog(GetParam().seed, GetParam().concepts, &names);
  const ecr::Schema& first = **current.GetSchema(names[0]);
  ASSERT_GE(first.num_objects(), 3);
  std::string ddl = ecr::ToDdl(first);
  std::string header = "schema " + names[0] + " {\n";
  ASSERT_EQ(ddl.rfind(header, 0), 0u) << ddl;
  std::string older_ddl =
      header + "  entity Doomed {\n    Doom_Key: int key;\n    Name: char;\n"
               "  }\n" + ddl.substr(header.size());
  // The older catalog: the extra class first, and one class under its old
  // name.
  std::string renamed = first.object(1).name;
  older_ddl = RenameWord(older_ddl, renamed, "Old_" + renamed);
  ecr::Catalog older;
  ASSERT_TRUE(ecr::ParseInto(older, older_ddl).ok()) << older_ddl;
  ASSERT_TRUE(older.AddSchema(**current.GetSchema(names[1])).ok());
  // Keep the relationship attributes MakeCatalog added: ParseInto read
  // them back from the DDL, so both catalogs agree on everything else.
  Result<EquivalenceMap> map = EquivalenceMap::Create(older, names);
  ASSERT_TRUE(map.ok()) << map.status();
  std::mt19937_64 rng(GetParam().seed * 131 + 3);
  Edit(*map, names, rng, 2 * GetParam().concepts, GetParam().concepts / 4);
  // Make sure the dropped and the renamed classes hold equivalences: each
  // declares its first attribute equivalent to the first comparable one of
  // the other schema.
  std::vector<ecr::AttributePath> others;
  for (int id = 0; id < map->num_attributes(); ++id) {
    if (map->PathAt(id).schema == names[1]) others.push_back(map->PathAt(id));
  }
  for (const std::string& name : {std::string("Doomed"), "Old_" + renamed}) {
    std::vector<ecr::AttributePath> attributes =
        map->AttributesOf({names[0], name});
    ASSERT_FALSE(attributes.empty()) << name;
    bool declared = false;
    for (const ecr::AttributePath& other : others) {
      if (map->DeclareEquivalent(attributes.front(), other).ok()) {
        declared = true;
        break;
      }
    }
    ASSERT_TRUE(declared) << name;
  }

  // The current catalog gains a class whose name sorts before all others.
  ecr::Schema* schema = *current.GetMutableSchema(names[0]);
  Result<ecr::ObjectId> gained = schema->AddEntitySet("Aa_gained");
  ASSERT_TRUE(gained.ok());
  ASSERT_TRUE(
      schema->AddObjectAttribute(*gained, {"Name", ecr::Domain::Char(), false})
          .ok());
  size_t nonzero = 0;
  ExpectRanksMatch(current, *map, names[0], names[1], "older map", &nonzero);
  EXPECT_GT(nonzero, 0u);
  // The older catalog itself still ranks like the brute force.
  ExpectRanksMatch(older, *map, names[0], names[1], "older catalog",
                   &nonzero);
}

std::string CaseName(const ::testing::TestParamInfo<RankCase>& info) {
  return "seed" + std::to_string(info.param.seed) + "_concepts" +
         std::to_string(info.param.concepts);
}

INSTANTIATE_TEST_SUITE_P(Workloads, RankPropertyTest,
                         ::testing::Values(RankCase{1, 6}, RankCase{7, 12},
                                           RankCase{42, 25}, RankCase{99, 40},
                                           RankCase{1234, 80}),
                         CaseName);

}  // namespace
}  // namespace ecrint::core
