// Property tests for phase 4 over generated workloads: for any consistent
// DDA input the integrator must produce a structurally valid ECR schema
// whose lattice honours every assertion, with complete mappings and
// faithful attribute provenance. Also checks the binary ladder agrees with
// the n-ary driver on lattice shape, that IntegrateSeeded equals the
// all-pairs reference algorithm field by field after every edit, and that
// structures merge exactly when the closure equates them.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <tuple>

#include "core/integrator.h"
#include "core/nary.h"
#include "ecr/validate.h"
#include "reference_integrator.h"
#include "workload/generator.h"

namespace ecrint::core {
namespace {

struct Prepared {
  workload::Workload workload;
  EquivalenceMap equivalence;
  AssertionStore assertions;
};

Prepared Prepare(uint64_t seed, int schemas, double noise) {
  workload::GeneratorConfig config;
  config.seed = seed;
  config.num_concepts = 14;
  config.num_schemas = schemas;
  config.rename_noise = noise;
  config.partial_extent = 0.5;
  Result<workload::Workload> w = workload::GenerateWorkload(config);
  EXPECT_TRUE(w.ok());
  Result<EquivalenceMap> equivalence =
      EquivalenceMap::Create(w->catalog, w->schema_names);
  EXPECT_TRUE(equivalence.ok());
  for (const workload::TrueAttributeMatch& match : w->attribute_matches) {
    (void)equivalence->DeclareEquivalent(match.first, match.second);
  }
  AssertionStore assertions;
  for (const workload::TrueObjectRelation& relation : w->object_relations) {
    Result<ConflictReport> r =
        assertions.Assert(relation.first, relation.second,
                          relation.assertion);
    EXPECT_TRUE(r.ok()) << r.status();
  }
  return {*std::move(w), *std::move(equivalence), std::move(assertions)};
}

class IntegratorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntegratorPropertyTest, ResultIsValidAndHonoursAssertions) {
  Prepared p = Prepare(GetParam(), 3, 0.25);
  Result<IntegrationResult> result =
      Integrate(p.workload.catalog, p.workload.schema_names, p.equivalence,
                p.assertions);
  ASSERT_TRUE(result.ok()) << result.status();
  const ecr::Schema& s = result->schema;

  // (1) structural validity.
  EXPECT_TRUE(ecr::CheckSchemaValid(s).ok());

  // (2) every component structure maps to an existing integrated structure.
  std::map<ObjectRef, std::string> target_of;
  for (const StructureMapping& mapping : result->mappings) {
    target_of[mapping.source] = mapping.target;
    if (mapping.kind == StructureKind::kObjectClass) {
      EXPECT_NE(s.FindObject(mapping.target), ecr::kNoObject)
          << mapping.target;
    } else {
      EXPECT_GE(s.FindRelationship(mapping.target), 0) << mapping.target;
    }
    // (3) attribute mappings land on real attributes of real structures.
    for (const AttributeMapping& attribute : mapping.attributes) {
      ecr::ObjectId owner = s.FindObject(attribute.target_owner);
      bool found = false;
      if (owner != ecr::kNoObject) {
        for (const ecr::Attribute& a : s.object(owner).attributes) {
          found |= a.name == attribute.target_attribute;
        }
      } else {
        ecr::RelationshipId rel = s.FindRelationship(attribute.target_owner);
        ASSERT_GE(rel, 0) << attribute.target_owner;
        for (const ecr::Attribute& a : s.relationship(rel).attributes) {
          found |= a.name == attribute.target_attribute;
        }
      }
      EXPECT_TRUE(found) << attribute.target_owner << "."
                         << attribute.target_attribute;
    }
  }

  // (4) the lattice honours every ground-truth assertion.
  for (const workload::TrueObjectRelation& relation :
       p.workload.object_relations) {
    ASSERT_TRUE(target_of.count(relation.first));
    ASSERT_TRUE(target_of.count(relation.second));
    ecr::ObjectId a = s.FindObject(target_of[relation.first]);
    ecr::ObjectId b = s.FindObject(target_of[relation.second]);
    ASSERT_NE(a, ecr::kNoObject);
    ASSERT_NE(b, ecr::kNoObject);
    switch (relation.assertion) {
      case AssertionType::kEquals:
        EXPECT_EQ(a, b) << relation.first.ToString() << " = "
                        << relation.second.ToString();
        break;
      case AssertionType::kContains:
        EXPECT_TRUE(b == a || s.HasAncestor(b, a))
            << relation.first.ToString() << " contains "
            << relation.second.ToString();
        break;
      case AssertionType::kContainedIn:
        EXPECT_TRUE(a == b || s.HasAncestor(a, b));
        break;
      case AssertionType::kMayBe:
      case AssertionType::kDisjointIntegrable: {
        // Both must share a common generalization.
        std::set<ecr::ObjectId> ancestors;
        std::vector<ecr::ObjectId> stack = {a};
        while (!stack.empty()) {
          ecr::ObjectId node = stack.back();
          stack.pop_back();
          if (!ancestors.insert(node).second) continue;
          for (ecr::ObjectId parent : s.object(node).parents) {
            stack.push_back(parent);
          }
        }
        bool shared = false;
        stack = {b};
        std::set<ecr::ObjectId> seen;
        while (!stack.empty() && !shared) {
          ecr::ObjectId node = stack.back();
          stack.pop_back();
          if (!seen.insert(node).second) continue;
          shared |= ancestors.count(node) > 0;
          for (ecr::ObjectId parent : s.object(node).parents) {
            stack.push_back(parent);
          }
        }
        EXPECT_TRUE(shared) << relation.first.ToString() << " ~ "
                            << relation.second.ToString();
        break;
      }
      case AssertionType::kDisjointNonintegrable:
        break;  // nothing to honour
    }
  }

  // (5) derived attributes' components really exist in their source
  // schemas.
  for (const DerivedAttributeInfo& info : result->derived_attributes) {
    EXPECT_GE(info.components.size(), 2u);
    for (const ecr::AttributePath& component : info.components) {
      Result<const ecr::Schema*> source =
          p.workload.catalog.GetSchema(component.schema);
      ASSERT_TRUE(source.ok());
      ecr::ObjectId id = (*source)->FindObject(component.object);
      bool found = false;
      if (id != ecr::kNoObject) {
        for (const ecr::Attribute& a : (*source)->object(id).attributes) {
          found |= a.name == component.attribute;
        }
      }
      EXPECT_TRUE(found) << component.ToString();
    }
  }
}

TEST_P(IntegratorPropertyTest, BinaryLadderAgreesOnLatticeShape) {
  // Four schemas: the ladder re-seeds each intermediate result, which is
  // where D_-generalization pairs over one class once tripped the
  // entity-disjointness seed (regression).
  Prepared p = Prepare(GetParam(), 4, 0.0);
  Result<IntegrationResult> nary =
      Integrate(p.workload.catalog, p.workload.schema_names, p.equivalence,
                p.assertions);
  ASSERT_TRUE(nary.ok()) << nary.status();
  Result<IntegrationResult> ladder = IntegrateBinaryLadder(
      p.workload.catalog, p.workload.schema_names, p.equivalence,
      p.assertions);
  ASSERT_TRUE(ladder.ok()) << ladder.status();

  EXPECT_TRUE(ecr::CheckSchemaValid(ladder->schema).ok());
  // Same merge structure: every pair of component structures lands on the
  // same integrated node in one driver iff it does in the other.
  auto targets = [](const IntegrationResult& result) {
    std::map<ObjectRef, std::string> out;
    for (const StructureMapping& mapping : result.mappings) {
      out[mapping.source] = mapping.target;
    }
    return out;
  };
  std::map<ObjectRef, std::string> nt = targets(*nary);
  std::map<ObjectRef, std::string> lt = targets(*ladder);
  ASSERT_EQ(nt.size(), lt.size());
  for (const auto& [a, ta] : nt) {
    for (const auto& [b, tb] : nt) {
      EXPECT_EQ(ta == tb, lt.at(a) == lt.at(b))
          << a.ToString() << " vs " << b.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntegratorPropertyTest,
                         ::testing::Values(3, 17, 42, 99, 1234));

// --- differential: IntegrateSeeded against the all-pairs reference --------

std::vector<std::string> Render(const std::vector<ObjectRef>& refs) {
  std::vector<std::string> out;
  for (const ObjectRef& ref : refs) out.push_back(ref.ToString());
  return out;
}

std::vector<std::string> Render(const std::vector<ecr::Attribute>& attrs) {
  std::vector<std::string> out;
  for (const ecr::Attribute& a : attrs) {
    out.push_back(a.name + ":" + a.domain.ToString() +
                  (a.is_key ? ":key" : ""));
  }
  return out;
}

std::vector<std::string> Render(const std::vector<ecr::Participation>& ps) {
  std::vector<std::string> out;
  for (const ecr::Participation& p : ps) {
    out.push_back(std::to_string(p.object) +
                  ecr::CardinalityToString(p.min_card, p.max_card) + p.role);
  }
  return out;
}

std::vector<std::vector<std::string>> Render(
    const std::vector<Cluster>& clusters) {
  std::vector<std::vector<std::string>> out;
  for (const Cluster& c : clusters) out.push_back(Render(c.members));
  return out;
}

// Every field of two integration results, in order.
void ExpectSameResult(const IntegrationResult& got,
                      const IntegrationResult& want) {
  const ecr::Schema& gs = got.schema;
  const ecr::Schema& ws = want.schema;
  EXPECT_EQ(gs.name(), ws.name());
  ASSERT_EQ(gs.num_objects(), ws.num_objects());
  for (ecr::ObjectId i = 0; i < gs.num_objects(); ++i) {
    const ecr::ObjectClass& g = gs.object(i);
    const ecr::ObjectClass& w = ws.object(i);
    EXPECT_EQ(g.name, w.name) << "object " << i;
    EXPECT_EQ(g.kind, w.kind) << w.name;
    EXPECT_EQ(g.origin, w.origin) << w.name;
    EXPECT_EQ(g.parents, w.parents) << w.name;
    EXPECT_EQ(Render(g.attributes), Render(w.attributes)) << w.name;
  }
  ASSERT_EQ(gs.num_relationships(), ws.num_relationships());
  for (ecr::RelationshipId i = 0; i < gs.num_relationships(); ++i) {
    const ecr::RelationshipSet& g = gs.relationship(i);
    const ecr::RelationshipSet& w = ws.relationship(i);
    EXPECT_EQ(g.name, w.name) << "relationship " << i;
    EXPECT_EQ(g.origin, w.origin) << w.name;
    EXPECT_EQ(g.parents, w.parents) << w.name;
    EXPECT_EQ(Render(g.participants), Render(w.participants)) << w.name;
    EXPECT_EQ(Render(g.attributes), Render(w.attributes)) << w.name;
  }
  EXPECT_EQ(Render(got.object_clusters), Render(want.object_clusters));
  EXPECT_EQ(Render(got.relationship_clusters),
            Render(want.relationship_clusters));
  ASSERT_EQ(got.structures.size(), want.structures.size());
  for (size_t i = 0; i < got.structures.size(); ++i) {
    const IntegratedStructureInfo& g = got.structures[i];
    const IntegratedStructureInfo& w = want.structures[i];
    EXPECT_EQ(g.name, w.name) << "structure " << i;
    EXPECT_EQ(g.kind, w.kind) << w.name;
    EXPECT_EQ(g.origin, w.origin) << w.name;
    EXPECT_EQ(Render(g.sources), Render(w.sources)) << w.name;
  }
  ASSERT_EQ(got.derived_attributes.size(), want.derived_attributes.size());
  for (size_t i = 0; i < got.derived_attributes.size(); ++i) {
    const DerivedAttributeInfo& g = got.derived_attributes[i];
    const DerivedAttributeInfo& w = want.derived_attributes[i];
    EXPECT_EQ(g.owner, w.owner) << "derived attribute " << i;
    EXPECT_EQ(g.name, w.name) << w.owner;
    ASSERT_EQ(g.components.size(), w.components.size()) << w.name;
    for (size_t c = 0; c < g.components.size(); ++c) {
      EXPECT_EQ(g.components[c].ToString(), w.components[c].ToString());
    }
  }
  ASSERT_EQ(got.mappings.size(), want.mappings.size());
  for (size_t i = 0; i < got.mappings.size(); ++i) {
    const StructureMapping& g = got.mappings[i];
    const StructureMapping& w = want.mappings[i];
    EXPECT_EQ(g.source.ToString(), w.source.ToString()) << "mapping " << i;
    EXPECT_EQ(g.kind, w.kind) << w.source.ToString();
    EXPECT_EQ(g.target, w.target) << w.source.ToString();
    ASSERT_EQ(g.attributes.size(), w.attributes.size())
        << w.source.ToString();
    for (size_t a = 0; a < g.attributes.size(); ++a) {
      EXPECT_EQ(g.attributes[a].source_attribute,
                w.attributes[a].source_attribute);
      EXPECT_EQ(g.attributes[a].target_owner, w.attributes[a].target_owner);
      EXPECT_EQ(g.attributes[a].target_attribute,
                w.attributes[a].target_attribute);
    }
  }
}

// Two component structures of one kind map to the same integrated
// structure exactly when the seeded closure pins their pair to "equals".
void ExpectMergesFollowEquality(const IntegrationResult& result,
                                const AssertionStore& seeded) {
  for (const StructureMapping& a : result.mappings) {
    for (const StructureMapping& b : result.mappings) {
      if (a.kind != b.kind || !(a.source < b.source)) continue;
      bool merged = a.target == b.target;
      bool equal = seeded.PossibleRelations(a.source, b.source) ==
                   MaskOf(SetRelation::kEqual);
      EXPECT_EQ(merged, equal)
          << a.source.ToString() << " -> " << a.target << ", "
          << b.source.ToString() << " -> " << b.target;
    }
  }
}

// One step of a DDA session: an attribute equivalence, an assertion, or
// (when `bound` is set) a Constrain of the assertion's pair to `bound`.
struct Edit {
  bool is_equivalence = false;
  ecr::AttributePath first_attribute;
  ecr::AttributePath second_attribute;
  Assertion assertion;
  RelationSet bound = kNoRelation;
};

// A generated workload widened so every construct phase 4 handles occurs:
// categories (seeded containment, a shared descendant that lifts the
// entity disjointness seed, a two-level chain), relationship attributes,
// and assertions between relationship sets and between categories, next to
// the generator's equals / contains / overlap / disjoint-integrable truth.
struct DifferentialSession {
  workload::Workload workload;
  std::vector<Edit> edits;
};

void MakeSession(uint64_t seed, int schemas, DifferentialSession* out) {
  workload::GeneratorConfig config;
  config.seed = seed;
  config.num_concepts = 10;
  config.num_schemas = schemas;
  config.partial_extent = 0.6;
  config.relationships_per_schema = 3;
  Result<workload::Workload> w = workload::GenerateWorkload(config);
  ASSERT_TRUE(w.ok()) << w.status();
  DifferentialSession& session = *out;
  session.workload = *std::move(w);
  ecr::Catalog& catalog = session.workload.catalog;
  std::mt19937_64 rng(seed * 7919 + schemas);

  for (const std::string& name : session.workload.schema_names) {
    ecr::Schema* schema = *catalog.GetMutableSchema(name);
    int entities = schema->num_objects();
    for (ecr::ObjectId i = 0; i < std::min(entities, 3); ++i) {
      Result<ecr::ObjectId> sub =
          schema->AddCategory("Sub_" + schema->object(i).name, {i});
      ASSERT_TRUE(sub.ok()) << sub.status();
      ASSERT_TRUE(schema
                      ->AddObjectAttribute(
                          *sub, {"Extra", ecr::Domain::Char(), false})
                      .ok());
      if (i == 0) {
        ASSERT_TRUE(
            schema->AddCategory("Sub2_" + schema->object(i).name, {*sub})
                .ok());
      }
    }
    if (entities >= 5) {
      ASSERT_TRUE(schema->AddCategory("Both_" + name, {3, 4}).ok());
    }
    if (schema->num_relationships() > 0) {
      ASSERT_TRUE(schema
                      ->AddRelationshipAttribute(
                          0, {"Since", ecr::Domain::Int(), false})
                      .ok());
    }
  }

  const std::vector<std::string>& names = session.workload.schema_names;
  for (const workload::TrueAttributeMatch& match :
       session.workload.attribute_matches) {
    session.edits.push_back({true, match.first, match.second, {}});
  }
  for (const workload::TrueObjectRelation& relation :
       session.workload.object_relations) {
    session.edits.push_back(
        {false, {}, {}, {relation.first, relation.second,
                         relation.assertion}});
  }
  const AssertionType kTypes[] = {
      AssertionType::kEquals, AssertionType::kContains,
      AssertionType::kMayBe, AssertionType::kDisjointIntegrable,
      AssertionType::kDisjointNonintegrable};
  for (size_t s = 0; s < names.size(); ++s) {
    for (size_t t = s + 1; t < names.size(); ++t) {
      const ecr::Schema& a = **catalog.GetSchema(names[s]);
      const ecr::Schema& b = **catalog.GetSchema(names[t]);
      // Relationship sets, with their attributes declared equivalent.
      for (int r = 0; r < std::min(a.num_relationships(),
                                   b.num_relationships());
           ++r) {
        session.edits.push_back(
            {false, {}, {},
             {{names[s], a.relationship(r).name},
              {names[t], b.relationship(r).name}, kTypes[rng() % 5]}});
      }
      if (a.num_relationships() > 0 && b.num_relationships() > 0) {
        session.edits.push_back(
            {true,
             {names[s], a.relationship(0).name, "Since"},
             {names[t], b.relationship(0).name, "Since"},
             {}});
      }
      // Categories against categories of the same concept.
      for (ecr::ObjectId i = 0; i < a.num_objects(); ++i) {
        if (a.object(i).kind != ecr::ObjectKind::kCategory) continue;
        ecr::ObjectId j = b.FindObject(a.object(i).name);
        if (j == ecr::kNoObject) continue;
        session.edits.push_back(
            {false, {}, {},
             {{names[s], a.object(i).name}, {names[t], b.object(j).name},
              kTypes[rng() % 4]}});
        if (!b.object(j).attributes.empty()) {
          session.edits.push_back(
              {true,
               {names[s], a.object(i).name, "Extra"},
               {names[t], b.object(j).name, "Extra"},
               {}});
        }
      }
      // Pairs left ambiguous: bounds of two or three relations on random
      // object pairs. And random assertions between random objects, some
      // of which contradict the closure only after propagation and are
      // rolled back.
      const RelationSet kEq = MaskOf(SetRelation::kEqual);
      const RelationSet kSub = MaskOf(SetRelation::kSubset);
      const RelationSet kSup = MaskOf(SetRelation::kSuperset);
      const RelationSet kOvr = MaskOf(SetRelation::kOverlap);
      const RelationSet kDsj = MaskOf(SetRelation::kDisjoint);
      const RelationSet kBounds[] = {
          static_cast<RelationSet>(kEq | kSub),
          static_cast<RelationSet>(kOvr | kDsj),
          static_cast<RelationSet>(kSub | kOvr | kDsj),
          static_cast<RelationSet>(kSup | kOvr),
          static_cast<RelationSet>(kEq | kSub | kSup)};
      auto random_pair = [&]() -> std::pair<ObjectRef, ObjectRef> {
        return {{names[s], a.object(rng() % a.num_objects()).name},
                {names[t], b.object(rng() % b.num_objects()).name}};
      };
      for (int k = 0; k < 4; ++k) {
        auto [first, second] = random_pair();
        session.edits.push_back({false,
                                 {},
                                 {},
                                 {first, second, AssertionType::kEquals},
                                 kBounds[rng() % 5]});
        auto [liar_first, liar_second] = random_pair();
        session.edits.push_back(
            {false, {}, {}, {liar_first, liar_second, kTypes[rng() % 5]}});
      }
    }
  }
  std::shuffle(session.edits.begin(), session.edits.end(), rng);
}

// Integrates with both algorithms and compares: the same error, or the
// same result field by field.
void ExpectMatchesReference(const ecr::Catalog& catalog,
                            const std::vector<std::string>& names,
                            const EquivalenceMap& equivalence,
                            const AssertionStore& seeded,
                            bool check_merges,
                            const IntegrationOptions& options = {}) {
  Result<IntegrationResult> got =
      IntegrateSeeded(catalog, names, equivalence, seeded, options);
  Result<IntegrationResult> want = reference::IntegrateSeeded(
      catalog, names, equivalence, seeded, options);
  ASSERT_EQ(got.ok(), want.ok()) << got.status() << " vs " << want.status();
  if (!want.ok()) {
    EXPECT_EQ(got.status().ToString(), want.status().ToString());
    return;
  }
  ExpectSameResult(*got, *want);
  if (check_merges) ExpectMergesFollowEquality(*got, seeded);
}

class IntegratorDifferentialTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(IntegratorDifferentialTest, MatchesAllPairsReferenceAfterEveryEdit) {
  auto [seed, schemas] = GetParam();
  DifferentialSession session;
  MakeSession(seed, schemas, &session);
  if (HasFatalFailure()) return;
  const ecr::Catalog& catalog = session.workload.catalog;
  const std::vector<std::string>& names = session.workload.schema_names;
  // Registering the schemas in reverse makes the map's attribute ids run
  // against path order, which is the order class members must come out in.
  Result<EquivalenceMap> equivalence = EquivalenceMap::Create(
      catalog, std::vector<std::string>(names.rbegin(), names.rend()));
  ASSERT_TRUE(equivalence.ok()) << equivalence.status();
  AssertionStore user;
  AssertionStore seeded;
  ASSERT_TRUE(SeedForIntegration(seeded, catalog, names).ok());

  int accepted = 0;
  std::vector<Assertion> accepted_assertions;
  for (size_t step = 0; step < session.edits.size(); ++step) {
    const Edit& edit = session.edits[step];
    if (step == session.edits.size() / 2 && !accepted_assertions.empty()) {
      // Mid-session, a contradiction of an accepted assertion: its pair is
      // pinned, so any other relation is refused and changes nothing.
      const Assertion& kept = accepted_assertions[step %
                                                  accepted_assertions.size()];
      Assertion contradiction = kept;
      contradiction.type = RelationOf(kept.type) == SetRelation::kEqual
                               ? AssertionType::kMayBe
                               : AssertionType::kEquals;
      EXPECT_FALSE(seeded.Assert(contradiction).ok())
          << contradiction.ToString();
    }
    if (edit.bound != kNoRelation) {
      (void)seeded.Constrain(edit.assertion.first, edit.assertion.second,
                             edit.bound);
      (void)user.Constrain(edit.assertion.first, edit.assertion.second,
                           edit.bound);
    } else if (edit.is_equivalence) {
      (void)equivalence->DeclareEquivalent(edit.first_attribute,
                                           edit.second_attribute);
    } else {
      // A contradicting assertion is refused and leaves the store as it
      // was, as Screen 9 does.
      if (seeded.Assert(edit.assertion).ok()) {
        ++accepted;
        accepted_assertions.push_back(edit.assertion);
        (void)user.Assert(edit.assertion);
      }
    }
    SCOPED_TRACE("after edit " + std::to_string(step));
    ExpectMatchesReference(catalog, names, *equivalence, seeded,
                           step % 16 == 0 ||
                               step + 1 == session.edits.size());
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(accepted, 0);

  // A schema listed twice: every structure appears at two positions, and
  // lookups by name resolve to the later listing. Unseeded, structures no
  // assertion names stay unknown to the store and keep both positions apart.
  std::vector<std::string> twice = names;
  twice.push_back(names.front());
  AssertionStore reseeded = seeded;
  ASSERT_TRUE(SeedForIntegration(reseeded, catalog, twice).ok());
  SCOPED_TRACE("first schema listed twice");
  ExpectMatchesReference(catalog, twice, *equivalence, reseeded, false);
  IntegrationOptions unseeded;
  unseeded.seed_category_containment = false;
  unseeded.seed_entity_disjointness = false;
  ExpectMatchesReference(catalog, twice, *equivalence, user, false, unseeded);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsBySchemas, IntegratorDifferentialTest,
    ::testing::Combine(::testing::Values(3, 17, 42, 99, 1234),
                       ::testing::Values(2, 3, 4)));

}  // namespace
}  // namespace ecrint::core
