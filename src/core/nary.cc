#include "core/nary.h"

#include <map>
#include <set>

namespace ecrint::core {

namespace {

// Collects every structure ref and attribute path of a schema.
void CollectIdentity(const ecr::Schema& schema,
                     std::map<ObjectRef, ObjectRef>& refs,
                     std::map<ecr::AttributePath, ecr::AttributePath>& paths) {
  for (ecr::ObjectId i = 0; i < schema.num_objects(); ++i) {
    const ecr::ObjectClass& object = schema.object(i);
    ObjectRef ref{schema.name(), object.name};
    refs[ref] = ref;
    for (const ecr::Attribute& a : object.attributes) {
      ecr::AttributePath path{schema.name(), object.name, a.name};
      paths[path] = path;
    }
  }
  for (ecr::RelationshipId i = 0; i < schema.num_relationships(); ++i) {
    const ecr::RelationshipSet& rel = schema.relationship(i);
    ObjectRef ref{schema.name(), rel.name};
    refs[ref] = ref;
    for (const ecr::Attribute& a : rel.attributes) {
      ecr::AttributePath path{schema.name(), rel.name, a.name};
      paths[path] = path;
    }
  }
}

}  // namespace

Result<IntegrationResult> IntegrateBinaryLadder(
    const ecr::Catalog& catalog, const std::vector<std::string>& schemas,
    const EquivalenceMap& equivalence, const AssertionStore& assertions,
    const IntegrationOptions& options) {
  if (schemas.size() < 2) {
    return Integrate(catalog, schemas, equivalence, assertions, options);
  }

  // Working catalog with copies of the component schemas.
  ecr::Catalog work;
  for (const std::string& name : schemas) {
    ECRINT_ASSIGN_OR_RETURN(const ecr::Schema* schema,
                            catalog.GetSchema(name));
    ECRINT_RETURN_IF_ERROR(work.AddSchema(*schema));
  }

  // original -> current location of every structure / attribute.
  std::map<ObjectRef, ObjectRef> ref_now;
  std::map<ecr::AttributePath, ecr::AttributePath> path_now;
  for (const std::string& name : schemas) {
    CollectIdentity(**work.GetSchema(name), ref_now, path_now);
  }

  // The DDA's equivalence classes, replayed on each rung after rewriting.
  std::vector<std::vector<ecr::AttributePath>> classes =
      equivalence.NontrivialClasses();

  std::vector<std::string> live = schemas;
  IntegrationResult last;
  int step = 1;
  while (live.size() > 1) {
    const std::string s1 = live[0];
    const std::string s2 = live[1];
    bool final_step = live.size() == 2;
    IntegrationOptions rung = options;
    if (!final_step) {
      std::string name = options.result_name + "_rung" +
                         std::to_string(step);
      while (work.Contains(name)) name += "_x";
      rung.result_name = name;
    }

    // Equivalences whose (rewritten) members fall into this rung's pair.
    ECRINT_ASSIGN_OR_RETURN(EquivalenceMap rung_equiv,
                            EquivalenceMap::Create(work, {s1, s2}));
    for (const std::vector<ecr::AttributePath>& eq_class : classes) {
      std::vector<ecr::AttributePath> members;
      std::set<ecr::AttributePath> seen;
      for (const ecr::AttributePath& path : eq_class) {
        auto it = path_now.find(path);
        if (it == path_now.end()) continue;
        const ecr::AttributePath& now = it->second;
        if ((now.schema == s1 || now.schema == s2) && seen.insert(now).second) {
          members.push_back(now);
        }
      }
      for (size_t i = 1; i < members.size(); ++i) {
        ECRINT_RETURN_IF_ERROR(
            rung_equiv.DeclareEquivalent(members[0], members[i]));
      }
    }

    // Assertions whose (rewritten) operands fall into this rung's pair.
    AssertionStore rung_assertions;
    for (const IdAssertion& original : assertions.assertion_log()) {
      auto first = ref_now.find(assertions.objects()[original.first]);
      auto second = ref_now.find(assertions.objects()[original.second]);
      if (first == ref_now.end() || second == ref_now.end()) continue;
      const ObjectRef& a = first->second;
      const ObjectRef& b = second->second;
      bool in_rung = (a.schema == s1 || a.schema == s2) &&
                     (b.schema == s1 || b.schema == s2);
      if (!in_rung || a == b) continue;
      Result<ConflictReport> r =
          rung_assertions.Assert(a, b, original.type);
      if (!r.ok()) return r.status();
    }

    ECRINT_ASSIGN_OR_RETURN(
        IntegrationResult result,
        Integrate(work, {s1, s2}, rung_equiv, rung_assertions, rung));

    // Advance the rewrite maps through this rung's mappings.
    std::map<ObjectRef, ObjectRef> ref_step;
    std::map<ecr::AttributePath, ecr::AttributePath> path_step;
    for (const StructureMapping& mapping : result.mappings) {
      ref_step[mapping.source] = ObjectRef{rung.result_name, mapping.target};
      for (const AttributeMapping& attr : mapping.attributes) {
        path_step[{mapping.source.schema, mapping.source.object,
                   attr.source_attribute}] =
            ecr::AttributePath{rung.result_name, attr.target_owner,
                               attr.target_attribute};
      }
    }
    for (auto& [orig, now] : ref_now) {
      auto it = ref_step.find(now);
      if (it != ref_step.end()) now = it->second;
    }
    for (auto& [orig, now] : path_now) {
      auto it = path_step.find(now);
      if (it != path_step.end()) now = it->second;
    }

    ECRINT_RETURN_IF_ERROR(work.AddSchema(result.schema));
    live.erase(live.begin(), live.begin() + 2);
    live.insert(live.begin(), rung.result_name);
    last = std::move(result);
    ++step;
  }

  // Rewrite provenance and mappings to speak about the ORIGINAL components.
  std::map<std::string, std::vector<ObjectRef>> sources_of;
  for (const auto& [orig, now] : ref_now) sources_of[now.object].push_back(orig);
  for (IntegratedStructureInfo& info : last.structures) {
    auto it = sources_of.find(info.name);
    info.sources = it == sources_of.end() ? std::vector<ObjectRef>{}
                                          : it->second;
  }
  last.mappings.clear();
  std::map<ObjectRef, StructureMapping> rebuilt;
  for (const auto& [orig, now] : ref_now) {
    StructureMapping mapping;
    mapping.source = orig;
    mapping.target = now.object;
    mapping.kind = last.schema.FindObject(now.object) != ecr::kNoObject
                       ? StructureKind::kObjectClass
                       : StructureKind::kRelationshipSet;
    rebuilt[orig] = std::move(mapping);
  }
  for (const auto& [orig, now] : path_now) {
    auto it = rebuilt.find(ObjectRef{orig.schema, orig.object});
    if (it == rebuilt.end()) continue;
    it->second.attributes.push_back(
        AttributeMapping{orig.attribute, now.object, now.attribute});
  }
  for (auto& [orig, mapping] : rebuilt) {
    last.mappings.push_back(std::move(mapping));
  }
  return last;
}

}  // namespace ecrint::core
