#include "ecr/printer.h"

#include <string>
#include <string_view>
#include <vector>

namespace ecrint::ecr {

namespace {

std::string ParticipantToString(const Schema& schema,
                                const Participation& p) {
  std::string out = schema.object(p.object).name;
  if (!p.role.empty()) out += " as " + p.role;
  out += " " + CardinalityToString(p.min_card, p.max_card);
  return out;
}

template <typename Attrs>
void AppendAttributeBlock(const Attrs& attributes, std::string& out) {
  if (attributes.empty()) {
    out += ";\n";
    return;
  }
  out += " {\n";
  for (const Attribute& a : attributes) {
    out += "    " + AttributeToString(a) + ";\n";
  }
  out += "  }\n";
}

}  // namespace

std::string ToDdl(const Schema& schema) {
  std::string out = "schema " + schema.name() + " {\n";
  for (ObjectId i = 0; i < schema.num_objects(); ++i) {
    const ObjectClass& object = schema.object(i);
    if (object.kind == ObjectKind::kEntitySet) {
      out += "  entity " + object.name;
    } else {
      out += "  category " + object.name + " of ";
      for (size_t j = 0; j < object.parents.size(); ++j) {
        if (j > 0) out += ", ";
        out += schema.object(object.parents[j]).name;
      }
    }
    AppendAttributeBlock(object.attributes, out);
  }
  for (RelationshipId i = 0; i < schema.num_relationships(); ++i) {
    const RelationshipSet& rel = schema.relationship(i);
    out += "  relationship " + rel.name + " (";
    for (size_t j = 0; j < rel.participants.size(); ++j) {
      if (j > 0) out += ", ";
      out += ParticipantToString(schema, rel.participants[j]);
    }
    out += ")";
    AppendAttributeBlock(rel.attributes, out);
  }
  out += "}\n";
  return out;
}

std::string ToOutline(const Schema& schema) {
  std::vector<std::string> lines;
  AppendOutlineLines(schema, lines);
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

void AppendOutlineLines(const Schema& schema,
                        std::vector<std::string>& lines) {
  auto append_origin = [](ObjectOrigin origin, std::string& line) {
    if (origin == ObjectOrigin::kEquivalent) line += "  (equivalent)";
    if (origin == ObjectOrigin::kDerived) line += "  (derived)";
  };
  auto append_attribute = [&lines](const Attribute& a) {
    std::string domain = a.domain.ToString();
    std::string& line = lines.emplace_back();
    line.reserve(4 + a.name.size() + 2 + domain.size() + 4);
    line += "    ";
    line += a.name;
    line += ": ";
    line += domain;
    if (a.is_key) line += " key";
  };
  // Each class takes a header, at most an is-a and an inherited line, and
  // a line per attribute.
  size_t estimate = 1;
  for (ObjectId i = 0; i < schema.num_objects(); ++i) {
    estimate += 3 + schema.object(i).attributes.size();
  }
  for (RelationshipId i = 0; i < schema.num_relationships(); ++i) {
    estimate += 1 + schema.relationship(i).attributes.size();
  }
  lines.reserve(lines.size() + estimate);
  lines.push_back("schema " + schema.name());
  // Distinct attribute names in scope of one class, in inheritance order;
  // reused across classes.
  std::vector<std::string_view> in_scope;
  for (ObjectId i = 0; i < schema.num_objects(); ++i) {
    const ObjectClass& object = schema.object(i);
    std::string& header = lines.emplace_back("  ");
    header += ObjectKindName(object.kind);
    header += ' ';
    header += object.name;
    append_origin(object.origin, header);
    if (!object.parents.empty()) {
      std::string& isa = lines.emplace_back("    is-a:");
      for (ObjectId parent : object.parents) {
        isa += ' ';
        isa += schema.object(parent).name;
      }
    }
    for (const Attribute& a : object.attributes) append_attribute(a);
    // Show what a member actually carries, if inheritance adds anything.
    in_scope.clear();
    schema.ForEachAttributeInScope(i, [&in_scope](const Attribute& a) {
      for (std::string_view seen : in_scope) {
        if (seen == a.name) return;
      }
      in_scope.push_back(a.name);
    });
    if (in_scope.size() > object.attributes.size()) {
      std::string& inherited = lines.emplace_back("    inherited:");
      for (std::string_view name : in_scope) {
        bool own = false;
        for (const Attribute& mine : object.attributes) {
          own |= mine.name == name;
        }
        if (own) continue;
        inherited += ' ';
        inherited += name;
      }
    }
  }
  for (RelationshipId i = 0; i < schema.num_relationships(); ++i) {
    const RelationshipSet& rel = schema.relationship(i);
    std::string& line = lines.emplace_back("  relationship ");
    line += rel.name;
    append_origin(rel.origin, line);
    line += " (";
    for (size_t j = 0; j < rel.participants.size(); ++j) {
      if (j > 0) line += ", ";
      line += ParticipantToString(schema, rel.participants[j]);
    }
    line += ')';
    for (const Attribute& a : rel.attributes) append_attribute(a);
  }
}

std::string Summarize(const Schema& schema) {
  int entities = 0;
  int categories = 0;
  for (ObjectId i = 0; i < schema.num_objects(); ++i) {
    if (schema.object(i).kind == ObjectKind::kEntitySet) {
      ++entities;
    } else {
      ++categories;
    }
  }
  return schema.name() + ": " + std::to_string(entities) + " entities, " +
         std::to_string(categories) + " categories, " +
         std::to_string(schema.num_relationships()) + " relationships";
}

}  // namespace ecrint::ecr
