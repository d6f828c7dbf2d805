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
//   - ClassOf is O(α): the class number is 1 + the root's cached min id.
//   - NontrivialClasses / ClassMembers walk only their class's ring.
//   - EquivalentAttributeCount merges the two objects' sorted root lists
//     instead of probing all |A|·|B| pairs.
// Attribute and structure ids are interned through flat linear-probing hash
// indexes, and a structure's attributes are the contiguous id range handed
// out while registering it, so registration performs no per-attribute or
// per-structure node allocation.
//
// What Create registers (the attribute entries, both probe indexes and the
// structure ranges) never changes afterwards, so it lives in one immutable
// registry that every copy of the map shares. A copy owns only the four
// class arrays, so the snapshot a publish cuts after each declare is four
// int vectors, not the registry's strings. A default-constructed map shares
// an empty registry and answers as a map over no schemas.
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
  // (which is declaration order), ordered by class number. This is the
  // entry point for bulk consumers such as the OCS matrix build, which
  // scatter per-class counts instead of probing every structure pair.
  std::vector<std::vector<int>> NontrivialClassIndices() const;

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

 private:
  struct Entry {
    ecr::AttributePath path;
    ecr::Domain domain;
    bool is_key = false;
  };

  // A registered structure and the contiguous attribute-id range
  // [begin, end) handed out while registering it.
  struct StructureEntry {
    ObjectRef ref;
    int begin = 0;
    int end = 0;
  };

  // Everything Create registers; immutable once built.
  struct Registry {
    std::vector<Entry> entries;
    common::ProbeTable attribute_index;
    // Structures with their attribute-id ranges, plus their probe index.
    std::vector<StructureEntry> structures;
    common::ProbeTable structure_index;
  };

  static const std::shared_ptr<const Registry>& EmptyRegistry();

  int Find(int index) const;  // union-find root with path compression

  Result<int> IndexOf(const ecr::AttributePath& path) const;
  int StructureIndexOf(const ObjectRef& ref) const;  // -1 if unknown

  // Member ids of the class rooted at `root` (ring walk), unsorted.
  void AppendClassIds(int root, std::vector<int>& out) const;

  std::shared_ptr<const Registry> registry_ = EmptyRegistry();
  mutable std::vector<int> parent_;  // union-find forest
  std::vector<int> next_;            // circular ring of class co-members
  std::vector<int> class_size_;      // valid at roots
  std::vector<int> min_id_;          // valid at roots; drives ClassOf
};

}  // namespace ecrint::core

#endif  // ECRINT_CORE_EQUIVALENCE_H_
