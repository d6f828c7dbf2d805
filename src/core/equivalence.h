#ifndef ECRINT_CORE_EQUIVALENCE_H_
#define ECRINT_CORE_EQUIVALENCE_H_

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "common/result.h"
#include "ecr/attribute.h"
#include "ecr/catalog.h"
#include "core/object_ref.h"

namespace ecrint::core {

// One row of the paper's Equivalence Class Creation and Deletion Screen:
// an attribute together with the equivalence class number it belongs to.
struct AttributeClassEntry {
  ecr::AttributePath path;
  int eq_class;
};

// The phase-2 bookkeeping structure: which attributes across the loaded
// schemas the DDA has declared equivalent. This is the paper's Attribute
// Class Similarity (ACS) matrix, kept as a union-find over interned
// attribute ids (equivalent storage: the ACS cell for two attributes is 1
// iff they are in the same class). Every attribute starts in a singleton
// class with its own class number, exactly as Screen 7 shows.
//
// Alongside the union-find forest the map maintains a class-inverted index
// kept intrusively (no per-class heap storage): every attribute sits on a
// circular linked list of its class's members, and each root caches the
// class size and the smallest member id. DeclareEquivalent merges two
// classes by swapping the roots' next pointers (O(1)); RemoveFromClass
// walks and re-roots only the affected class. So class queries never scan
// all attributes:
//   - ClassOf walks to the root, O(log n) under union by size: the class
//     number is 1 + the root's cached min id.
//   - NontrivialClasses / ClassMembers walk only their class's ring.
//   - EquivalentAttributeCount merges the two objects' sorted root lists
//     instead of probing all |A|·|B| pairs.
// Attribute and structure ids are interned through flat linear-probing hash
// indexes, and a structure's attributes are the contiguous id range handed
// out while registering it, so registration performs no per-attribute or
// per-structure node allocation.
//
// What Create registers (the attribute entries, both probe indexes, every
// structure with its attribute-id range, and the id tables below) never
// changes afterwards, so it lives in one immutable registry that every copy
// of the map shares. A copy owns only the four class arrays, so the
// snapshot a publish cuts after each declare is four int vectors, not the
// registry's strings. A default-constructed map shares an empty registry
// and answers as a map over no schemas.
//
// The registry's id tables let bulk readers (the OCS ranking, phase 4's
// class resolution) work on ids instead of names: each attribute id's
// structure and its rank in AttributePath order, each structure's kind,
// ordinal and name rank, and each schema's structure ranges. They are
// built eagerly in Create, and readers never write to a map (no lazy
// state, no path compression), so snapshot readers on several threads can
// share one.
class EquivalenceMap {
 public:
  // Registers every attribute of every object class and relationship set of
  // the named schemas. Fails if a schema is missing from the catalog.
  static Result<EquivalenceMap> Create(
      const ecr::Catalog& catalog, const std::vector<std::string>& schemas);

  // Declares a.path equivalent to b.path (merging their classes). Fails with
  // kNotFound if either attribute was not registered and with
  // kFailedPrecondition if their domains are not comparable (the binary
  // simplification of Larson et al. 87 the paper adopts).
  Status DeclareEquivalent(const ecr::AttributePath& a,
                           const ecr::AttributePath& b);

  // Removes one attribute from its class back into a fresh singleton class
  // (the screen's "(D)elete from equiv. class"). O(class size).
  Status RemoveFromClass(const ecr::AttributePath& path);

  // The class number of an attribute (stable until the map is mutated).
  Result<int> ClassOf(const ecr::AttributePath& path) const;

  bool AreEquivalent(const ecr::AttributePath& a,
                     const ecr::AttributePath& b) const;

  // Number of attribute pairs (a from `a`, b from `b`) in the same class.
  // This is one cell of the derived Object Class Similarity (OCS) matrix.
  int EquivalentAttributeCount(const ObjectRef& a, const ObjectRef& b) const;

  // Screen-7 rows for one structure, in attribute declaration order.
  std::vector<AttributeClassEntry> EntriesFor(const ObjectRef& object) const;

  // All equivalence classes with two or more members, each sorted, ordered
  // by class number.
  std::vector<std::vector<ecr::AttributePath>> NontrivialClasses() const;

  // The same classes as interned attribute ids, each sorted ascending
  // (which is declaration order), ordered by class number.
  std::vector<std::vector<int>> NontrivialClassIndices() const;

  // Calls fn(members) for every class with two or more members, in class
  // number order, where `members` is a std::vector<int>& of the class's
  // attribute ids in no particular order. One buffer is reused for every
  // class (the callee may reorder it), so the walk allocates once. This is
  // the entry point for bulk consumers: the OCS matrix build scatters each
  // class into the cells it touches, phase 4 resolves its members.
  template <typename Fn>
  void ForEachNontrivialClass(Fn&& fn) const {
    std::vector<int> members;
    // Class number order is smallest-member order: visit a class at its
    // smallest id.
    for (int id = 0; id < num_attributes(); ++id) {
      int root = Root(id);
      if (class_size_[root] < 2 || min_id_[root] != id) continue;
      members.clear();
      AppendClassIds(root, members);
      fn(members);
    }
  }

  // Members of the class containing `path` (including `path` itself).
  std::vector<ecr::AttributePath> ClassMembers(
      const ecr::AttributePath& path) const;

  // Attributes registered for a structure, in declaration order.
  std::vector<ecr::AttributePath> AttributesOf(const ObjectRef& object) const;

  // The path of an interned attribute id (ids are dense, 0-based, in
  // registration order). Copies of a map return the same object.
  const ecr::AttributePath& PathAt(int id) const {
    return registry_->entries[id].path;
  }

  // The structure an interned attribute id belongs to.
  ObjectRef ObjectAt(int id) const {
    const ecr::AttributePath& path = PathAt(id);
    return {path.schema, path.object};
  }

  int num_attributes() const {
    return static_cast<int>(registry_->entries.size());
  }

  // --- the registry on ids --------------------------------------------------

  // A registered structure: every object class and relationship set of the
  // named schemas, with or without attributes, in registration order (per
  // schema: object classes, then relationship sets, each by ordinal).
  struct StructureEntry {
    ObjectRef ref;
    StructureKind kind = StructureKind::kObjectClass;
    int ordinal = 0;  // its ObjectId / RelationshipId when registered
    // Its position among its schema's structures of its kind when sorted by
    // name, in std::string order (the order ObjectRef::operator< gives).
    int name_rank = 0;
    int begin = 0;  // attribute ids [begin, end), handed out in
    int end = 0;    // declaration order
  };

  // A registered schema: its structures of each kind are the contiguous
  // ranges [objects_begin, relationships_begin) and
  // [relationships_begin, end) of structures.
  struct SchemaEntry {
    std::string name;
    int objects_begin = 0;
    int relationships_begin = 0;
    int end = 0;

    int Begin(StructureKind kind) const {
      return kind == StructureKind::kObjectClass ? objects_begin
                                                 : relationships_begin;
    }
    int End(StructureKind kind) const {
      return kind == StructureKind::kObjectClass ? relationships_begin : end;
    }
  };

  const std::vector<SchemaEntry>& schemas() const {
    return registry_->schemas;
  }
  int num_structures() const {
    return static_cast<int>(registry_->structures.size());
  }
  const StructureEntry& StructureAt(int s) const {
    return registry_->structures[s];
  }
  // The structure an attribute id was registered under.
  int StructureOf(int id) const { return registry_->structure_of[id]; }
  // The position of PathAt(id) among all registered paths in AttributePath
  // order: sorting ids by it sorts them by path.
  int PathRank(int id) const { return registry_->path_rank[id]; }

  // Keeps this map's registry alive, so a cache keyed by it (phase 4's
  // integration plan) can ask HasRegistry later: the registry it holds
  // cannot be freed and its address reused by a new one meanwhile. Every
  // copy of a map answers for the registry of the Create call it came from.
  using RegistryHandle = std::shared_ptr<const void>;
  RegistryHandle registry_handle() const { return registry_; }
  bool HasRegistry(const RegistryHandle& handle) const {
    return handle == registry_;
  }

 private:
  struct Entry {
    ecr::AttributePath path;
    ecr::Domain domain;
    bool is_key = false;
  };

  // Everything Create registers; immutable once built.
  struct Registry {
    std::vector<Entry> entries;
    common::ProbeTable attribute_index;
    std::vector<int> structure_of;  // attribute id -> structure
    std::vector<int> path_rank;     // attribute id -> rank in path order
    // Structures with their attribute-id ranges, plus their probe index.
    std::vector<StructureEntry> structures;
    common::ProbeTable structure_index;
    std::vector<SchemaEntry> schemas;
  };

  static const std::shared_ptr<const Registry>& EmptyRegistry();
  // Fills every structure's name_rank and every attribute's path_rank.
  static void RankByName(Registry& registry);

  // Union-find root. Find compresses the path and is for mutators only;
  // Root only reads, so concurrent readers of one map never write.
  int Find(int index);
  int Root(int index) const {
    while (parent_[index] != index) index = parent_[index];
    return index;
  }

  Result<int> IndexOf(const ecr::AttributePath& path) const;
  int StructureIndexOf(const ObjectRef& ref) const;  // -1 if unknown

  // Member ids of the class rooted at `root` (ring walk), unsorted.
  void AppendClassIds(int root, std::vector<int>& out) const;

  std::shared_ptr<const Registry> registry_ = EmptyRegistry();
  std::vector<int> parent_;          // union-find forest
  std::vector<int> next_;            // circular ring of class co-members
  std::vector<int> class_size_;      // valid at roots
  std::vector<int> min_id_;          // valid at roots; drives ClassOf
};

}  // namespace ecrint::core

#endif  // ECRINT_CORE_EQUIVALENCE_H_
