#include "ecr/schema.h"

#include <algorithm>

#include "common/strings.h"

namespace ecrint::ecr {

const char* ObjectKindName(ObjectKind kind) {
  switch (kind) {
    case ObjectKind::kEntitySet: return "entity";
    case ObjectKind::kCategory: return "category";
  }
  return "?";
}

char ObjectKindCode(ObjectKind kind) {
  return kind == ObjectKind::kEntitySet ? 'e' : 'c';
}

std::string CardinalityToString(int min_card, int max_card) {
  std::string out = "[" + std::to_string(min_card) + ",";
  out += max_card == kUnboundedCardinality ? "n" : std::to_string(max_card);
  out += "]";
  return out;
}

Status Schema::CheckNameFree(const std::string& name) const {
  if (!IsIdentifier(name)) {
    return InvalidArgumentError("'" + name + "' is not a valid identifier");
  }
  if (object_index_.count(name) || relationship_index_.count(name)) {
    return AlreadyExistsError("structure '" + name + "' already defined in " +
                              "schema '" + name_ + "'");
  }
  return Status::Ok();
}

Result<ObjectId> Schema::AddEntitySet(const std::string& name) {
  ECRINT_RETURN_IF_ERROR(CheckNameFree(name));
  ObjectId id = num_objects();
  objects_.push_back(ObjectClass{name, ObjectKind::kEntitySet,
                                 ObjectOrigin::kComponent, {}, {}});
  object_index_[name] = id;
  return id;
}

Result<ObjectId> Schema::AddCategory(const std::string& name,
                                     const std::vector<ObjectId>& parents) {
  ECRINT_RETURN_IF_ERROR(CheckNameFree(name));
  if (parents.empty()) {
    return InvalidArgumentError("category '" + name +
                                "' needs at least one parent");
  }
  for (ObjectId parent : parents) {
    if (parent < 0 || parent >= num_objects()) {
      return NotFoundError("parent id " + std::to_string(parent) +
                           " of category '" + name + "' does not exist");
    }
  }
  ObjectId id = num_objects();
  objects_.push_back(ObjectClass{name, ObjectKind::kCategory,
                                 ObjectOrigin::kComponent, {}, parents});
  object_index_[name] = id;
  return id;
}

Result<RelationshipId> Schema::AddRelationship(
    const std::string& name, const std::vector<Participation>& participants) {
  ECRINT_RETURN_IF_ERROR(CheckNameFree(name));
  if (participants.size() < 2) {
    return InvalidArgumentError("relationship '" + name +
                                "' needs at least two participants");
  }
  for (const Participation& p : participants) {
    if (p.object < 0 || p.object >= num_objects()) {
      return NotFoundError("participant id " + std::to_string(p.object) +
                           " of relationship '" + name + "' does not exist");
    }
    if (p.min_card < 0 ||
        (p.max_card != kUnboundedCardinality &&
         (p.max_card <= 0 || p.min_card > p.max_card))) {
      return InvalidArgumentError(
          "invalid cardinality " + CardinalityToString(p.min_card, p.max_card) +
          " on relationship '" + name + "'");
    }
  }
  RelationshipId id = num_relationships();
  relationships_.push_back(
      RelationshipSet{name, ObjectOrigin::kComponent, {}, participants, {}});
  relationship_index_[name] = id;
  return id;
}

namespace {

Status AttributeExistsError(const std::string& attribute,
                            const std::string& owner) {
  return AlreadyExistsError("attribute '" + attribute +
                            "' already defined on '" + owner + "'");
}

}  // namespace

Status Schema::AddObjectAttribute(ObjectId id, Attribute attribute) {
  if (id < 0 || id >= num_objects()) {
    return NotFoundError("object id " + std::to_string(id));
  }
  if (!IsIdentifier(attribute.name)) {
    return InvalidArgumentError("'" + attribute.name +
                                "' is not a valid attribute name");
  }
  if (HasAttributeInScope(id, attribute.name)) {
    return AttributeExistsError(attribute.name, objects_[id].name);
  }
  objects_[id].attributes.push_back(std::move(attribute));
  return Status::Ok();
}

Status Schema::AddRelationshipAttribute(RelationshipId id,
                                        const Attribute& attribute) {
  if (id < 0 || id >= num_relationships()) {
    return NotFoundError("relationship id " + std::to_string(id));
  }
  if (!IsIdentifier(attribute.name)) {
    return InvalidArgumentError("'" + attribute.name +
                                "' is not a valid attribute name");
  }
  for (const Attribute& a : relationships_[id].attributes) {
    if (a.name == attribute.name) {
      return AttributeExistsError(attribute.name, relationships_[id].name);
    }
  }
  relationships_[id].attributes.push_back(attribute);
  return Status::Ok();
}

Status Schema::AddParent(ObjectId category, ObjectId parent) {
  if (category < 0 || category >= num_objects()) {
    return NotFoundError("object id " + std::to_string(category));
  }
  if (parent < 0 || parent >= num_objects()) {
    return NotFoundError("object id " + std::to_string(parent));
  }
  if (category == parent || HasAncestor(parent, category)) {
    return InvalidArgumentError("adding parent '" + objects_[parent].name +
                                "' to '" + objects_[category].name +
                                "' would create an IS-A cycle");
  }
  ObjectClass& node = objects_[category];
  if (std::find(node.parents.begin(), node.parents.end(), parent) !=
      node.parents.end()) {
    return Status::Ok();  // idempotent
  }
  node.parents.push_back(parent);
  return Status::Ok();
}

ObjectId Schema::FindObject(const std::string& name) const {
  auto it = object_index_.find(name);
  return it == object_index_.end() ? kNoObject : it->second;
}

RelationshipId Schema::FindRelationship(const std::string& name) const {
  auto it = relationship_index_.find(name);
  return it == relationship_index_.end() ? -1 : it->second;
}

Result<ObjectId> Schema::GetObject(const std::string& name) const {
  ObjectId id = FindObject(name);
  if (id == kNoObject) {
    return NotFoundError("no object class '" + name + "' in schema '" +
                         name_ + "'");
  }
  return id;
}

Result<RelationshipId> Schema::GetRelationship(const std::string& name) const {
  RelationshipId id = FindRelationship(name);
  if (id < 0) {
    return NotFoundError("no relationship set '" + name + "' in schema '" +
                         name_ + "'");
  }
  return id;
}

std::vector<Attribute> Schema::InheritedAttributes(ObjectId id) const {
  // Ancestors' attributes come first, so an inherited attribute hides a
  // later one of the same name.
  std::vector<Attribute> out;
  ForEachAttributeInScope(id, [&out](const Attribute& a) {
    for (const Attribute& kept : out) {
      if (kept.name == a.name) return;
    }
    out.push_back(a);
  });
  return out;
}

bool Schema::HasAttributeInScope(ObjectId id, std::string_view name) const {
  bool found = false;
  ForEachAttributeInScope(id, [&](const Attribute& a) {
    found = found || a.name == name;
  });
  return found;
}

std::vector<ObjectId> Schema::ChildrenOf(ObjectId id) const {
  std::vector<ObjectId> out;
  for (ObjectId i = 0; i < num_objects(); ++i) {
    const ObjectClass& node = objects_[i];
    if (std::find(node.parents.begin(), node.parents.end(), id) !=
        node.parents.end()) {
      out.push_back(i);
    }
  }
  return out;
}

bool Schema::HasAncestor(ObjectId id, ObjectId ancestor) const {
  for (ObjectId parent : objects_[id].parents) {
    if (parent == ancestor || HasAncestor(parent, ancestor)) return true;
  }
  return false;
}

std::vector<RelationshipId> Schema::RelationshipsOf(ObjectId id) const {
  std::vector<RelationshipId> out;
  for (RelationshipId i = 0; i < num_relationships(); ++i) {
    for (const Participation& p : relationships_[i].participants) {
      if (p.object == id) {
        out.push_back(i);
        break;
      }
    }
  }
  return out;
}

std::vector<ObjectId> Schema::ObjectsOfKind(ObjectKind kind) const {
  std::vector<ObjectId> out;
  for (ObjectId i = 0; i < num_objects(); ++i) {
    if (objects_[i].kind == kind) out.push_back(i);
  }
  return out;
}

}  // namespace ecrint::ecr
