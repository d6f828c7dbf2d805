#include "core/equivalence.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <numeric>
#include <utility>

namespace ecrint::core {

namespace {

size_t HashPath(const ecr::AttributePath& path) {
  return ecr::AttributePathHash{}(path);
}

size_t HashRef(const ObjectRef& ref) { return ObjectRefHash{}(ref); }

}  // namespace

const std::shared_ptr<const EquivalenceMap::Registry>&
EquivalenceMap::EmptyRegistry() {
  // Never destroyed, so maps destroyed during static teardown can still
  // release their reference.
  static const auto* empty =
      new std::shared_ptr<const Registry>(std::make_shared<Registry>());
  return *empty;
}

Result<EquivalenceMap> EquivalenceMap::Create(
    const ecr::Catalog& catalog, const std::vector<std::string>& schemas) {
  auto registry = std::make_shared<Registry>();
  // Pre-size everything; registration is append-only.
  size_t total_attributes = 0;
  size_t total_structures = 0;
  for (const std::string& name : schemas) {
    ECRINT_ASSIGN_OR_RETURN(const ecr::Schema* schema,
                            catalog.GetSchema(name));
    total_structures += schema->num_objects() + schema->num_relationships();
    for (ecr::ObjectId i = 0; i < schema->num_objects(); ++i) {
      total_attributes += schema->object(i).attributes.size();
    }
    for (ecr::RelationshipId i = 0; i < schema->num_relationships(); ++i) {
      total_attributes += schema->relationship(i).attributes.size();
    }
  }
  std::vector<Entry>& entries = registry->entries;
  entries.reserve(total_attributes);
  registry->attribute_index.Reserve(total_attributes);
  registry->structure_of.reserve(total_attributes);
  registry->structures.reserve(total_structures);
  registry->structure_index.Reserve(total_structures);
  registry->schemas.reserve(schemas.size());

  // A structure's attributes are the contiguous id range registered here,
  // so the per-structure bookkeeping is one StructureEntry, no id vector.
  auto register_structure = [&registry, &entries](
                                const std::string& schema,
                                const std::string& structure,
                                StructureKind kind, int ordinal,
                                const std::vector<ecr::Attribute>& attrs) {
    int s = static_cast<int>(registry->structures.size());
    int begin = static_cast<int>(entries.size());
    size_t prefix = ecr::AttributePathHash::PrefixHash(schema, structure);
    for (const ecr::Attribute& a : attrs) {
      int index = static_cast<int>(entries.size());
      entries.push_back(
          Entry{{schema, structure, a.name}, a.domain, a.is_key});
      registry->structure_of.push_back(s);
      registry->attribute_index.Insert(
          ecr::AttributePathHash::WithAttribute(prefix, a.name), index,
          entries.size());
    }
    int end = static_cast<int>(entries.size());
    ObjectRef ref{schema, structure};
    size_t hash = HashRef(ref);
    StructureEntry& entry = registry->structures.emplace_back();
    entry.ref = std::move(ref);
    entry.kind = kind;
    entry.ordinal = ordinal;
    entry.begin = begin;
    entry.end = end;
    registry->structure_index.Insert(hash, s, registry->structures.size());
  };
  for (const std::string& name : schemas) {
    ECRINT_ASSIGN_OR_RETURN(const ecr::Schema* schema,
                            catalog.GetSchema(name));
    SchemaEntry& entry = registry->schemas.emplace_back();
    entry.name = name;
    entry.objects_begin = static_cast<int>(registry->structures.size());
    for (ecr::ObjectId i = 0; i < schema->num_objects(); ++i) {
      const ecr::ObjectClass& object = schema->object(i);
      register_structure(name, object.name, StructureKind::kObjectClass, i,
                         object.attributes);
    }
    entry.relationships_begin = static_cast<int>(registry->structures.size());
    for (ecr::RelationshipId i = 0; i < schema->num_relationships(); ++i) {
      const ecr::RelationshipSet& rel = schema->relationship(i);
      register_structure(name, rel.name, StructureKind::kRelationshipSet, i,
                         rel.attributes);
    }
    entry.end = static_cast<int>(registry->structures.size());
  }
  RankByName(*registry);

  // Every attribute starts as a singleton class: its own root, ring and
  // minimum.
  EquivalenceMap map;
  size_t n = entries.size();
  map.parent_.resize(n);
  std::iota(map.parent_.begin(), map.parent_.end(), 0);
  map.next_ = map.parent_;
  map.min_id_ = map.parent_;
  map.class_size_.assign(n, 1);
  map.registry_ = std::move(registry);
  return map;
}

void EquivalenceMap::RankByName(Registry& registry) {
  // Path order is (schema, structure, attribute) order, so it is built
  // level by level: schemas by name, each schema's structures by name, each
  // structure's attributes by name. The per-kind structure order gives the
  // name ranks; merging the two kinds gives the schema's path order (a
  // schema never names an object class and a relationship set alike).
  const std::vector<StructureEntry>& structures = registry.structures;
  auto by_name = [&structures](int a, int b) {
    return structures[a].ref.object < structures[b].ref.object;
  };
  std::vector<int> schema_order(registry.schemas.size());
  std::iota(schema_order.begin(), schema_order.end(), 0);
  std::stable_sort(schema_order.begin(), schema_order.end(),
                   [&registry](int a, int b) {
                     return registry.schemas[a].name < registry.schemas[b].name;
                   });
  registry.path_rank.resize(registry.entries.size());
  int next_rank = 0;
  std::vector<int> objects, relationships, merged, attributes;
  for (int k : schema_order) {
    const SchemaEntry& schema = registry.schemas[k];
    objects.resize(schema.relationships_begin - schema.objects_begin);
    std::iota(objects.begin(), objects.end(), schema.objects_begin);
    std::stable_sort(objects.begin(), objects.end(), by_name);
    relationships.resize(schema.end - schema.relationships_begin);
    std::iota(relationships.begin(), relationships.end(),
              schema.relationships_begin);
    std::stable_sort(relationships.begin(), relationships.end(), by_name);
    for (size_t r = 0; r < objects.size(); ++r) {
      registry.structures[objects[r]].name_rank = static_cast<int>(r);
    }
    for (size_t r = 0; r < relationships.size(); ++r) {
      registry.structures[relationships[r]].name_rank = static_cast<int>(r);
    }
    merged.clear();
    std::merge(objects.begin(), objects.end(), relationships.begin(),
               relationships.end(), std::back_inserter(merged), by_name);
    for (int s : merged) {
      const StructureEntry& structure = structures[s];
      attributes.resize(structure.end - structure.begin);
      std::iota(attributes.begin(), attributes.end(), structure.begin);
      std::stable_sort(attributes.begin(), attributes.end(),
                       [&registry](int a, int b) {
                         return registry.entries[a].path.attribute <
                                registry.entries[b].path.attribute;
                       });
      for (int id : attributes) registry.path_rank[id] = next_rank++;
    }
  }
}

int EquivalenceMap::Find(int index) {
  while (parent_[index] != index) {
    parent_[index] = parent_[parent_[index]];
    index = parent_[index];
  }
  return index;
}

Result<int> EquivalenceMap::IndexOf(const ecr::AttributePath& path) const {
  const Registry& registry = *registry_;
  int id = registry.attribute_index.Find(HashPath(path), [&](int i) {
    return registry.entries[i].path == path;
  });
  if (id < 0) {
    return NotFoundError("attribute '" + path.ToString() +
                         "' is not registered");
  }
  return id;
}

int EquivalenceMap::StructureIndexOf(const ObjectRef& ref) const {
  const Registry& registry = *registry_;
  return registry.structure_index.Find(HashRef(ref), [&](int i) {
    return registry.structures[i].ref == ref;
  });
}

Status EquivalenceMap::DeclareEquivalent(const ecr::AttributePath& a,
                                         const ecr::AttributePath& b) {
  ECRINT_ASSIGN_OR_RETURN(int ia, IndexOf(a));
  ECRINT_ASSIGN_OR_RETURN(int ib, IndexOf(b));
  const ecr::Domain& da = registry_->entries[ia].domain;
  const ecr::Domain& db = registry_->entries[ib].domain;
  if (!da.Comparable(db)) {
    return FailedPreconditionError("domains of '" + a.ToString() + "' (" +
                                   da.ToString() + ") and '" + b.ToString() +
                                   "' (" + db.ToString() +
                                   ") are not comparable");
  }
  int ra = Find(ia);
  int rb = Find(ib);
  if (ra == rb) return Status::Ok();
  // Union by size. The class number does not depend on which root wins: it
  // is derived from the cached smallest member id. Swapping the two roots'
  // next pointers concatenates their member rings in O(1).
  if (class_size_[ra] < class_size_[rb]) std::swap(ra, rb);
  parent_[rb] = ra;
  class_size_[ra] += class_size_[rb];
  min_id_[ra] = std::min(min_id_[ra], min_id_[rb]);
  std::swap(next_[ra], next_[rb]);
  return Status::Ok();
}

void EquivalenceMap::AppendClassIds(int root, std::vector<int>& out) const {
  int member = root;
  do {
    out.push_back(member);
    member = next_[member];
  } while (member != root);
}

Status EquivalenceMap::RemoveFromClass(const ecr::AttributePath& path) {
  ECRINT_ASSIGN_OR_RETURN(int index, IndexOf(path));
  int root = Find(index);
  if (class_size_[root] <= 1) return Status::Ok();  // already singleton
  // Re-root only the affected class: the ring names its members, so no
  // global rebuild is needed.
  std::vector<int> rest;
  rest.reserve(class_size_[root] - 1);
  int member = root;
  do {
    if (member != index) rest.push_back(member);
    member = next_[member];
  } while (member != root);

  int new_root = rest.front();
  int min_id = rest.front();
  for (size_t i = 0; i < rest.size(); ++i) {
    parent_[rest[i]] = new_root;
    min_id = std::min(min_id, rest[i]);
    next_[rest[i]] = rest[(i + 1) % rest.size()];
  }
  class_size_[new_root] = static_cast<int>(rest.size());
  min_id_[new_root] = min_id;

  parent_[index] = index;
  next_[index] = index;
  class_size_[index] = 1;
  min_id_[index] = index;
  return Status::Ok();
}

Result<int> EquivalenceMap::ClassOf(const ecr::AttributePath& path) const {
  ECRINT_ASSIGN_OR_RETURN(int index, IndexOf(path));
  // Class number = 1 + smallest declaration index in the class. Mirrors the
  // paper's behaviour where merging "changes the value of Eq_Class # of one
  // to that of the other": the earlier attribute's number wins. The root
  // caches that minimum, so this is one walk to the root.
  return min_id_[Root(index)] + 1;
}

bool EquivalenceMap::AreEquivalent(const ecr::AttributePath& a,
                                   const ecr::AttributePath& b) const {
  Result<int> ia = IndexOf(a);
  Result<int> ib = IndexOf(b);
  if (!ia.ok() || !ib.ok()) return false;
  return Root(*ia) == Root(*ib);
}

int EquivalenceMap::EquivalentAttributeCount(const ObjectRef& a,
                                             const ObjectRef& b) const {
  int sa = StructureIndexOf(a);
  int sb = StructureIndexOf(b);
  if (sa < 0 || sb < 0) return 0;
  const StructureEntry& ea = registry_->structures[sa];
  const StructureEntry& eb = registry_->structures[sb];
  // Merge the two sorted root lists; a root shared k_a · k_b times counts
  // k_a · k_b equivalent pairs. O((|A|+|B|) log) instead of O(|A|·|B|).
  std::vector<int> roots_a, roots_b;
  roots_a.reserve(ea.end - ea.begin);
  roots_b.reserve(eb.end - eb.begin);
  for (int i = ea.begin; i < ea.end; ++i) roots_a.push_back(Root(i));
  for (int j = eb.begin; j < eb.end; ++j) roots_b.push_back(Root(j));
  std::sort(roots_a.begin(), roots_a.end());
  std::sort(roots_b.begin(), roots_b.end());
  int count = 0;
  size_t x = 0, y = 0;
  while (x < roots_a.size() && y < roots_b.size()) {
    if (roots_a[x] < roots_b[y]) {
      ++x;
    } else if (roots_b[y] < roots_a[x]) {
      ++y;
    } else {
      int root = roots_a[x];
      size_t run_a = 0, run_b = 0;
      while (x < roots_a.size() && roots_a[x] == root) ++x, ++run_a;
      while (y < roots_b.size() && roots_b[y] == root) ++y, ++run_b;
      count += static_cast<int>(run_a * run_b);
    }
  }
  return count;
}

std::vector<AttributeClassEntry> EquivalenceMap::EntriesFor(
    const ObjectRef& object) const {
  std::vector<AttributeClassEntry> out;
  int s = StructureIndexOf(object);
  if (s < 0) return out;
  const StructureEntry& entry = registry_->structures[s];
  out.reserve(entry.end - entry.begin);
  for (int index = entry.begin; index < entry.end; ++index) {
    out.push_back({PathAt(index), min_id_[Root(index)] + 1});
  }
  return out;
}

std::vector<std::vector<int>> EquivalenceMap::NontrivialClassIndices() const {
  std::vector<std::vector<int>> out;
  ForEachNontrivialClass([&out](std::vector<int>& members) {
    std::sort(members.begin(), members.end());
    out.push_back(members);
  });
  return out;
}

std::vector<std::vector<ecr::AttributePath>>
EquivalenceMap::NontrivialClasses() const {
  std::vector<std::vector<ecr::AttributePath>> out;
  for (const std::vector<int>& ids : NontrivialClassIndices()) {
    std::vector<ecr::AttributePath> members;
    members.reserve(ids.size());
    for (int id : ids) members.push_back(PathAt(id));
    std::sort(members.begin(), members.end());
    out.push_back(std::move(members));
  }
  return out;
}

std::vector<ecr::AttributePath> EquivalenceMap::ClassMembers(
    const ecr::AttributePath& path) const {
  std::vector<ecr::AttributePath> out;
  Result<int> index = IndexOf(path);
  if (!index.ok()) return out;
  int root = Root(*index);
  std::vector<int> ids;
  ids.reserve(class_size_[root]);
  AppendClassIds(root, ids);
  out.reserve(ids.size());
  for (int id : ids) out.push_back(PathAt(id));
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ecr::AttributePath> EquivalenceMap::AttributesOf(
    const ObjectRef& object) const {
  std::vector<ecr::AttributePath> out;
  int s = StructureIndexOf(object);
  if (s < 0) return out;
  const StructureEntry& entry = registry_->structures[s];
  out.reserve(entry.end - entry.begin);
  for (int index = entry.begin; index < entry.end; ++index) {
    out.push_back(PathAt(index));
  }
  return out;
}

}  // namespace ecrint::core
