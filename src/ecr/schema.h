#ifndef ECRINT_ECR_SCHEMA_H_
#define ECRINT_ECR_SCHEMA_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "ecr/attribute.h"

namespace ecrint::ecr {

// Index of an object class (entity set or category) within its Schema.
using ObjectId = int;
// Index of a relationship set within its Schema.
using RelationshipId = int;

inline constexpr ObjectId kNoObject = -1;

// Whether an object class is a base entity set or a category (subset of
// one or more other object classes, inheriting their attributes).
enum class ObjectKind { kEntitySet, kCategory };

const char* ObjectKindName(ObjectKind kind);
// The one-letter code the paper's screens use: 'e', 'c'.
char ObjectKindCode(ObjectKind kind);

// Provenance tags for classes created during integration. The paper prefixes
// merged ("equals") classes with E_ and derived generalizations with D_.
enum class ObjectOrigin {
  kComponent,   // defined in a component schema
  kEquivalent,  // E_: merger of classes asserted equal
  kDerived,     // D_: generalization generated for overlap / disjoint pairs
};

// An entity set or category. Categories list the object classes they are
// defined over in `parents` and inherit those classes' attributes in
// addition to their own `attributes`.
struct ObjectClass {
  std::string name;
  ObjectKind kind = ObjectKind::kEntitySet;
  ObjectOrigin origin = ObjectOrigin::kComponent;
  std::vector<Attribute> attributes;
  std::vector<ObjectId> parents;  // empty unless kind == kCategory
};

inline constexpr int kUnboundedCardinality = -1;  // rendered as 'n'

// Structural (cardinality) constraint on one object class's participation in
// a relationship set: each member entity takes part in at least `min_card`
// and at most `max_card` relationship instances.
struct Participation {
  ObjectId object = kNoObject;
  int min_card = 0;
  int max_card = kUnboundedCardinality;
  std::string role;  // optional role name; empty if unnamed

  friend bool operator==(const Participation& a, const Participation& b) {
    return a.object == b.object && a.min_card == b.min_card &&
           a.max_card == b.max_card && a.role == b.role;
  }
};

// "[1,1]" / "[0,n]".
std::string CardinalityToString(int min_card, int max_card);

// A set of same-typed relationships over two or more object classes.
// `parents` is used only in integrated schemas, where relationship sets form
// a lattice analogous to the object-class IS-A lattice (paper, Section 3.5);
// component schemas leave it empty.
struct RelationshipSet {
  std::string name;
  ObjectOrigin origin = ObjectOrigin::kComponent;
  std::vector<Attribute> attributes;
  std::vector<Participation> participants;
  std::vector<RelationshipId> parents;
};

// A named ECR schema: object classes plus relationship sets. Objects are
// stored by value and addressed by ObjectId / RelationshipId handles that
// stay valid for the schema's lifetime (no deletion API; the tool's
// "delete" operations rebuild the schema, as the paper's phase-1 forms do).
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // --- construction -------------------------------------------------------

  // Adds a base entity set. Fails with kAlreadyExists on a name collision
  // (object classes and relationship sets share one namespace, as the
  // paper's Structure Information Collection Screen implies).
  Result<ObjectId> AddEntitySet(const std::string& name);

  // Adds a category over existing object classes. `parents` must be
  // non-empty and must not (transitively) include the new category.
  Result<ObjectId> AddCategory(const std::string& name,
                               const std::vector<ObjectId>& parents);

  // Adds a relationship set over >= 2 participations (self-relationships use
  // the same object twice with distinct roles).
  Result<RelationshipId> AddRelationship(
      const std::string& name, const std::vector<Participation>& participants);

  // Appends an attribute to an object class / relationship set. Rejects
  // duplicates against the object's own and inherited attribute names.
  Status AddObjectAttribute(ObjectId id, Attribute attribute);
  Status AddRelationshipAttribute(RelationshipId id,
                                  const Attribute& attribute);

  // Extends a category's parent list (used by the integrator when placing
  // classes into the IS-A lattice).
  Status AddParent(ObjectId category, ObjectId parent);

  // --- lookup -------------------------------------------------------------

  int num_objects() const { return static_cast<int>(objects_.size()); }
  int num_relationships() const {
    return static_cast<int>(relationships_.size());
  }

  const ObjectClass& object(ObjectId id) const { return objects_[id]; }
  ObjectClass& mutable_object(ObjectId id) { return objects_[id]; }
  const RelationshipSet& relationship(RelationshipId id) const {
    return relationships_[id];
  }
  RelationshipSet& mutable_relationship(RelationshipId id) {
    return relationships_[id];
  }

  // kNoObject / -1 when absent.
  ObjectId FindObject(const std::string& name) const;
  RelationshipId FindRelationship(const std::string& name) const;

  Result<ObjectId> GetObject(const std::string& name) const;
  Result<RelationshipId> GetRelationship(const std::string& name) const;

  // --- derived queries ----------------------------------------------------

  // The object's own attributes plus all attributes inherited from its
  // (transitive) parents, parents first, deduplicated by name.
  std::vector<Attribute> InheritedAttributes(ObjectId id) const;

  // Calls fn(attribute) for every attribute of `id` and of its transitive
  // parents, in InheritedAttributes order but without deduplicating by
  // name: depth-first, each class once, parents before the class itself.
  // Allocates nothing for hierarchies up to 32 classes.
  template <typename Fn>
  void ForEachAttributeInScope(ObjectId id, Fn&& fn) const {
    VisitedClasses visited;
    auto visit = [&](auto&& self, ObjectId node) -> void {
      if (!visited.Insert(node)) return;
      for (ObjectId parent : objects_[node].parents) self(self, parent);
      for (const Attribute& a : objects_[node].attributes) fn(a);
    };
    visit(visit, id);
  }

  // Whether `id` declares or inherits an attribute named `name`.
  bool HasAttributeInScope(ObjectId id, std::string_view name) const;

  // Own attribute count only (what the paper's attribute ratio counts).
  int NumOwnAttributes(ObjectId id) const {
    return static_cast<int>(objects_[id].attributes.size());
  }

  // Direct children (categories defined over `id`).
  std::vector<ObjectId> ChildrenOf(ObjectId id) const;

  // True if `ancestor` is reachable from `id` via parent edges.
  bool HasAncestor(ObjectId id, ObjectId ancestor) const;

  // Relationship sets in which `id` participates directly.
  std::vector<RelationshipId> RelationshipsOf(ObjectId id) const;

  // All object ids of a given kind, in insertion order.
  std::vector<ObjectId> ObjectsOfKind(ObjectKind kind) const;

 private:
  // The classes an ancestry walk has entered: a linear list, inline for
  // the shallow hierarchies schemas have, spilling to the heap past that.
  class VisitedClasses {
   public:
    bool Insert(ObjectId id) {
      for (int i = 0; i < inline_count_; ++i) {
        if (inline_[i] == id) return false;
      }
      for (ObjectId seen : spill_) {
        if (seen == id) return false;
      }
      if (inline_count_ < kInline) {
        inline_[inline_count_++] = id;
      } else {
        spill_.push_back(id);
      }
      return true;
    }

   private:
    static constexpr int kInline = 32;
    ObjectId inline_[kInline] = {};
    int inline_count_ = 0;
    std::vector<ObjectId> spill_;
  };

  Status CheckNameFree(const std::string& name) const;

  std::string name_;
  std::vector<ObjectClass> objects_;
  std::vector<RelationshipSet> relationships_;
  std::unordered_map<std::string, ObjectId> object_index_;
  std::unordered_map<std::string, RelationshipId> relationship_index_;
};

}  // namespace ecrint::ecr

#endif  // ECRINT_ECR_SCHEMA_H_
