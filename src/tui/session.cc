#include "tui/session.h"

#include <algorithm>

#include "common/strings.h"
#include "core/attribute_equivalence.h"
#include "core/resemblance.h"
#include "ecr/domain.h"
#include "tui/screen.h"

namespace ecrint::tui {

namespace {

constexpr int kRows = 24;
constexpr int kCols = 78;

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> out;
  for (const std::string& piece : ecrint::Split(line, ' ')) {
    std::string_view stripped = StripWhitespace(piece);
    if (!stripped.empty()) out.emplace_back(stripped);
  }
  return out;
}

// Standard frame: box, banner, screen subtitle.
Screen FrameWithBanner(const std::string& banner,
                       const std::string& subtitle) {
  Screen screen(kRows, kCols);
  screen.Box(0, 0, kRows - 1, kCols - 1);
  screen.PutCentered(1, banner);
  screen.PutCentered(2, "< " + subtitle + " >");
  screen.HorizontalLine(3, 1, kCols - 2);
  return screen;
}

Screen Frame(const std::string& subtitle) {
  return FrameWithBanner("SCHEMA INTEGRATION TOOL", subtitle);
}

// Frames of the phase-4 viewing screens (paper Screens 10-12).
Screen ViewFrame(const std::string& subtitle) {
  return FrameWithBanner("INTEGRATED SCHEMA", subtitle);
}

std::string CardText(int min_card, int max_card) {
  return ecr::CardinalityToString(min_card, max_card);
}

}  // namespace

Session::Session() = default;

void Session::Fail(const Status& status) { message_ = status.ToString(); }

void Session::Note(std::string message) { message_ = std::move(message); }

std::vector<core::ObjectPair> Session::RankedPairs() const {
  if (!engine_.has_equivalence() || schema1_.empty() || schema2_.empty()) {
    return {};
  }
  // Zero-resemblance pairs are listed too (at the bottom) so the DDA can
  // assert over pairs with no equivalent attributes, e.g. attribute-less
  // relationship sets.
  Result<std::vector<core::ObjectPair>> ranked =
      engine_.RankedPairs(schema1_, schema2_, kind_, /*include_zero=*/true);
  return ranked.ok() ? *std::move(ranked) : std::vector<core::ObjectPair>{};
}

void Session::RunIntegration() {
  std::vector<std::string> names;
  if (!schema1_.empty() && !schema2_.empty()) {
    names = {schema1_, schema2_};
  } else {
    names = engine_.catalog().SchemaNames();
  }
  if (names.empty()) {
    Note("no schemas defined; use task 1 first");
    engine_.DiscardIntegration();
    return;
  }
  Result<const core::IntegrationResult*> result =
      engine_.Integrate(std::move(names));
  if (!result.ok()) {
    Fail(result.status());
    return;
  }
  view_object_.clear();
  view_relationship_.clear();
}

Status Session::ImportProject(core::Project project) {
  ECRINT_RETURN_IF_ERROR(engine_.ImportProject(std::move(project)));
  schema1_.clear();
  schema2_.clear();
  return Status::Ok();
}

std::string Session::ExportProject() { return engine_.ExportProject(); }

// ---------------------------------------------------------------------------
// Input dispatch.
// ---------------------------------------------------------------------------

std::string Session::Step(const std::string& line) {
  message_.clear();
  std::vector<std::string> args = Tokenize(line);
  switch (screen_) {
    case ScreenId::kMainMenu:
      HandleMainMenu(args);
      break;
    case ScreenId::kSchemaNameCollection:
      HandleSchemaNameCollection(args);
      break;
    case ScreenId::kStructureCollection:
      HandleStructureCollection(args);
      break;
    case ScreenId::kCategoryInfo:
      HandleCategoryInfo(args);
      break;
    case ScreenId::kRelationshipInfo:
      HandleRelationshipInfo(args);
      break;
    case ScreenId::kAttributeCollection:
      HandleAttributeCollection(args, line);
      break;
    case ScreenId::kSchemaNameSelection:
      HandleSchemaNameSelection(args);
      break;
    case ScreenId::kObjectNameSelection:
      HandleObjectNameSelection(args);
      break;
    case ScreenId::kEquivalenceEditor:
      HandleEquivalenceEditor(args);
      break;
    case ScreenId::kAssertionCollection:
      HandleAssertionCollection(args);
      break;
    case ScreenId::kAssertionConflict:
      screen_ = ScreenId::kAssertionCollection;  // any key returns
      break;
    case ScreenId::kObjectClassScreen:
    case ScreenId::kEntityScreen:
    case ScreenId::kCategoryScreen:
    case ScreenId::kRelationshipScreen:
    case ScreenId::kAttributeScreen:
    case ScreenId::kComponentAttributeScreen:
    case ScreenId::kEquivalentScreen:
    case ScreenId::kParticipatingScreen:
      HandleViewing(args);
      break;
    case ScreenId::kExit:
      break;
  }
  return CurrentFrame();
}

void Session::HandleMainMenu(const std::vector<std::string>& args) {
  if (args.empty()) return;
  const std::string& choice = args[0];
  if (choice == "e" || choice == "E") {
    screen_ = ScreenId::kExit;
    return;
  }
  if (choice == "1") {
    screen_ = ScreenId::kSchemaNameCollection;
    return;
  }
  if (choice == "2" || choice == "4") {
    kind_ = choice == "2" ? core::StructureKind::kObjectClass
                          : core::StructureKind::kRelationshipSet;
    Status status = engine_.RebuildEquivalence();
    if (!status.ok()) {
      Fail(status);
      return;
    }
    after_schema_selection_ = ScreenId::kObjectNameSelection;
    screen_ = ScreenId::kSchemaNameSelection;
    return;
  }
  if (choice == "3" || choice == "5") {
    kind_ = choice == "3" ? core::StructureKind::kObjectClass
                          : core::StructureKind::kRelationshipSet;
    if (!engine_.has_equivalence()) {
      Status status = engine_.RebuildEquivalence();
      if (!status.ok()) {
        Fail(status);
        return;
      }
    }
    after_schema_selection_ = ScreenId::kAssertionCollection;
    screen_ = schema1_.empty() ? ScreenId::kSchemaNameSelection
                               : ScreenId::kAssertionCollection;
    return;
  }
  if (choice == "6") {
    RunIntegration();
    if (engine_.integration()) {
      screen_ = ScreenId::kObjectClassScreen;
    }
    return;
  }
  Note("choose a task 1-6 or (E)xit");
}

void Session::HandleSchemaNameCollection(const std::vector<std::string>& args) {
  if (args.empty()) return;
  const std::string& op = args[0];
  if (op == "e" || op == "E") {
    engine_.ResetEquivalence();  // schemas may have changed; rebuild on demand
    screen_ = ScreenId::kMainMenu;
    return;
  }
  if ((op == "a" || op == "A") && args.size() == 2) {
    Result<ecr::Schema*> schema = engine_.CreateSchema(args[1]);
    if (!schema.ok()) {
      Fail(schema.status());
      return;
    }
    edit_schema_ = args[1];
    screen_ = ScreenId::kStructureCollection;
    return;
  }
  if ((op == "u" || op == "U") && args.size() == 2) {
    if (!engine_.catalog().Contains(args[1])) {
      Fail(NotFoundError("no schema '" + args[1] + "'"));
      return;
    }
    edit_schema_ = args[1];
    screen_ = ScreenId::kStructureCollection;
    return;
  }
  if ((op == "d" || op == "D") && args.size() == 2) {
    Status status = engine_.DropSchema(args[1]);
    if (!status.ok()) Fail(status);
    return;
  }
  Note("choose (A)dd <name>, (U)pdate <name>, (D)elete <name> or (E)xit");
}

void Session::HandleStructureCollection(const std::vector<std::string>& args) {
  if (args.empty()) return;
  const std::string& op = args[0];
  if (op == "e" || op == "E") {
    screen_ = ScreenId::kSchemaNameCollection;
    return;
  }
  if ((op == "a" || op == "A") && args.size() == 3) {
    const std::string& name = args[1];
    const std::string& type = args[2];
    Result<ecr::Schema*> schema =
        engine_.MutableCatalog().GetMutableSchema(edit_schema_);
    if (!schema.ok()) {
      Fail(schema.status());
      return;
    }
    if (type == "e") {
      Result<ecr::ObjectId> id = (*schema)->AddEntitySet(name);
      if (!id.ok()) {
        Fail(id.status());
        return;
      }
      edit_structure_ = name;
      edit_is_relationship_ = false;
      screen_ = ScreenId::kAttributeCollection;
      return;
    }
    if (type == "c") {
      pending_name_ = name;
      pending_parents_.clear();
      screen_ = ScreenId::kCategoryInfo;
      return;
    }
    if (type == "r") {
      pending_name_ = name;
      pending_participants_.clear();
      screen_ = ScreenId::kRelationshipInfo;
      return;
    }
  }
  Note("choose (A)dd <name> <e|c|r> or (E)xit");
}

void Session::HandleCategoryInfo(const std::vector<std::string>& args) {
  if (args.empty()) return;
  if (args[0] == "e" || args[0] == "E") {
    Result<ecr::Schema*> schema =
        engine_.MutableCatalog().GetMutableSchema(edit_schema_);
    if (!schema.ok()) {
      Fail(schema.status());
      screen_ = ScreenId::kStructureCollection;
      return;
    }
    std::vector<ecr::ObjectId> parents;
    for (const std::string& parent : pending_parents_) {
      Result<ecr::ObjectId> id = (*schema)->GetObject(parent);
      if (!id.ok()) {
        Fail(id.status());
        screen_ = ScreenId::kStructureCollection;
        return;
      }
      parents.push_back(*id);
    }
    Result<ecr::ObjectId> id = (*schema)->AddCategory(pending_name_, parents);
    if (!id.ok()) {
      Fail(id.status());
      screen_ = ScreenId::kStructureCollection;
      return;
    }
    edit_structure_ = pending_name_;
    edit_is_relationship_ = false;
    screen_ = ScreenId::kAttributeCollection;
    return;
  }
  pending_parents_.push_back(args[0]);
}

void Session::HandleRelationshipInfo(const std::vector<std::string>& args) {
  if (args.empty()) return;
  if (args[0] == "e" || args[0] == "E") {
    Result<ecr::Schema*> schema =
        engine_.MutableCatalog().GetMutableSchema(edit_schema_);
    if (!schema.ok()) {
      Fail(schema.status());
      screen_ = ScreenId::kStructureCollection;
      return;
    }
    std::vector<ecr::Participation> participants;
    for (const PendingParticipant& p : pending_participants_) {
      Result<ecr::ObjectId> id = (*schema)->GetObject(p.object);
      if (!id.ok()) {
        Fail(id.status());
        screen_ = ScreenId::kStructureCollection;
        return;
      }
      participants.push_back(
          ecr::Participation{*id, p.min_card, p.max_card, p.role});
    }
    Result<ecr::RelationshipId> id =
        (*schema)->AddRelationship(pending_name_, participants);
    if (!id.ok()) {
      Fail(id.status());
      screen_ = ScreenId::kStructureCollection;
      return;
    }
    edit_structure_ = pending_name_;
    edit_is_relationship_ = true;
    screen_ = ScreenId::kAttributeCollection;
    return;
  }
  // <object> <min> <max|n> [role]
  if (args.size() < 3) {
    Note("enter: <object> <min> <max|n> [role], or (E) to finish");
    return;
  }
  PendingParticipant p;
  p.object = args[0];
  p.min_card = std::atoi(args[1].c_str());
  p.max_card = (args[2] == "n" || args[2] == "N")
                   ? ecr::kUnboundedCardinality
                   : std::atoi(args[2].c_str());
  if (args.size() > 3) p.role = args[3];
  pending_participants_.push_back(std::move(p));
}

void Session::HandleAttributeCollection(const std::vector<std::string>& args,
                                        const std::string& raw) {
  if (args.empty()) return;
  if (args.size() == 1 && (args[0] == "e" || args[0] == "E")) {
    screen_ = ScreenId::kStructureCollection;
    return;
  }
  // <name> <domain...> [key]
  if (args.size() < 2) {
    Note("enter: <name> <domain> [key], or (E) to finish");
    return;
  }
  (void)raw;
  bool key = args.back() == "key";
  std::vector<std::string> domain_tokens(args.begin() + 1,
                                         args.end() - (key ? 1 : 0));
  Result<ecr::Domain> domain =
      ecr::ParseDomain(Join(domain_tokens, " "));
  if (!domain.ok()) {
    Fail(domain.status());
    return;
  }
  Result<ecr::Schema*> schema =
      engine_.MutableCatalog().GetMutableSchema(edit_schema_);
  if (!schema.ok()) {
    Fail(schema.status());
    return;
  }
  ecr::Attribute attribute{args[0], *domain, key};
  Status status;
  if (edit_is_relationship_) {
    Result<ecr::RelationshipId> id =
        (*schema)->GetRelationship(edit_structure_);
    status = id.ok() ? (*schema)->AddRelationshipAttribute(*id, attribute)
                     : id.status();
  } else {
    Result<ecr::ObjectId> id = (*schema)->GetObject(edit_structure_);
    status = id.ok() ? (*schema)->AddObjectAttribute(*id, attribute)
                     : id.status();
  }
  if (!status.ok()) Fail(status);
}

void Session::HandleSchemaNameSelection(const std::vector<std::string>& args) {
  if (args.empty()) return;
  if (args[0] == "e" || args[0] == "E") {
    screen_ = ScreenId::kMainMenu;
    return;
  }
  if (args.size() != 2) {
    Note("enter: <schema1> <schema2>, or (E) to cancel");
    return;
  }
  if (!engine_.catalog().Contains(args[0]) ||
      !engine_.catalog().Contains(args[1]) || args[0] == args[1]) {
    Note("need two distinct existing schemas");
    return;
  }
  schema1_ = args[0];
  schema2_ = args[1];
  screen_ = after_schema_selection_;
}

void Session::HandleObjectNameSelection(const std::vector<std::string>& args) {
  if (args.empty()) return;
  if (args[0] == "e" || args[0] == "E") {
    screen_ = ScreenId::kMainMenu;
    return;
  }
  if (args.size() != 2) {
    Note("enter: <object-of-" + schema1_ + "> <object-of-" + schema2_ + ">");
    return;
  }
  pair_first_ = {schema1_, args[0]};
  pair_second_ = {schema2_, args[1]};
  if (engine_.Equivalence().AttributesOf(pair_first_).empty() &&
      engine_.Equivalence().AttributesOf(pair_second_).empty()) {
    Note("unknown structures or no attributes to relate");
    return;
  }
  screen_ = ScreenId::kEquivalenceEditor;
}

void Session::HandleEquivalenceEditor(const std::vector<std::string>& args) {
  if (args.empty()) return;
  const std::string& op = args[0];
  if (op == "e" || op == "E") {
    screen_ = ScreenId::kObjectNameSelection;
    return;
  }
  if ((op == "a" || op == "A") && args.size() == 3) {
    ecr::AttributePath a{pair_first_.schema, pair_first_.object, args[1]};
    ecr::AttributePath b{pair_second_.schema, pair_second_.object, args[2]};
    Status status = engine_.AssertEquivalence(a, b);
    if (!status.ok()) Fail(status);
    return;
  }
  if ((op == "d" || op == "D") && args.size() == 3) {
    const std::string& side = args[1];
    core::ObjectRef ref = side == "1" ? pair_first_ : pair_second_;
    ecr::AttributePath path{ref.schema, ref.object, args[2]};
    Status status = engine_.RetractEquivalence(path);
    if (!status.ok()) Fail(status);
    return;
  }
  Note("choose (A)dd <attr1> <attr2>, (D)elete <1|2> <attr>, (E)xit");
}

void Session::HandleAssertionCollection(const std::vector<std::string>& args) {
  if (args.empty()) return;
  if (args[0] == "e" || args[0] == "E") {
    screen_ = ScreenId::kMainMenu;
    return;
  }
  if (args.size() != 2) {
    Note("enter: <row> <assertion 0-5>, or (E)xit");
    return;
  }
  std::vector<core::ObjectPair> ranked = RankedPairs();
  int row = std::atoi(args[0].c_str());
  if (row < 1 || row > static_cast<int>(ranked.size())) {
    Note("row out of range");
    return;
  }
  Result<core::AssertionType> type =
      core::AssertionTypeFromCode(std::atoi(args[1].c_str()));
  if (!type.ok()) {
    Fail(type.status());
    return;
  }
  const core::ObjectPair& pair = ranked[row - 1];
  Result<core::ConflictReport> result =
      engine_.AssertRelation(pair.first, pair.second, *type);
  if (!result.ok()) {
    conflict_text_ = result.status().message();
    screen_ = ScreenId::kAssertionConflict;
    return;
  }
  Note("recorded: " + result->attempted.ToString());
}

void Session::HandleViewing(const std::vector<std::string>& args) {
  // An empty line is a keypress too: the press-any-key screens advance on
  // it, the menu screens fall through to their usage note.
  const std::string op = args.empty() ? "" : args[0];
  const core::IntegrationResult& result = *engine_.integration();
  const ecr::Schema& s = result.schema;

  switch (screen_) {
    case ScreenId::kObjectClassScreen: {
      if (op == "x" || op == "X") {
        screen_ = ScreenId::kMainMenu;
        return;
      }
      if ((op == "m" || op == "M") && args.size() == 2) {
        if (s.FindObject(args[1]) == ecr::kNoObject) {
          Note("no object class '" + args[1] + "'");
          return;
        }
        view_object_ = args[1];
        return;
      }
      if (op == "a" || op == "A") {
        if (view_object_.empty()) {
          Note("select an object class first: m <name>");
          return;
        }
        screen_ = ScreenId::kAttributeScreen;
        return;
      }
      if (op == "c" || op == "C") {
        if (view_object_.empty()) {
          Note("select an object class first: m <name>");
          return;
        }
        screen_ = ScreenId::kCategoryScreen;
        return;
      }
      if (op == "en" || op == "EN") {
        if (view_object_.empty()) {
          Note("select an object class first: m <name>");
          return;
        }
        screen_ = ScreenId::kEntityScreen;
        return;
      }
      if ((op == "r" || op == "R") && args.size() == 2) {
        if (s.FindRelationship(args[1]) < 0) {
          Note("no relationship set '" + args[1] + "'");
          return;
        }
        view_relationship_ = args[1];
        screen_ = ScreenId::kRelationshipScreen;
        return;
      }
      Note("choose m <name>, (A)ttributes, (C)ategories, (EN)tity, "
           "r <name>, or (x) to exit");
      return;
    }
    case ScreenId::kEntityScreen:
    case ScreenId::kCategoryScreen: {
      if (op == "v" || op == "V") {
        equivalent_return_ = screen_;
        screen_ = ScreenId::kEquivalentScreen;
        return;
      }
      screen_ = ScreenId::kObjectClassScreen;
      return;
    }
    case ScreenId::kRelationshipScreen: {
      if (op == "p" || op == "P") {
        screen_ = ScreenId::kParticipatingScreen;
        return;
      }
      if (op == "v" || op == "V") {
        equivalent_return_ = screen_;
        screen_ = ScreenId::kEquivalentScreen;
        return;
      }
      screen_ = ScreenId::kObjectClassScreen;
      return;
    }
    case ScreenId::kAttributeScreen: {
      if ((op == "c" || op == "C") && args.size() == 2) {
        if (result.FindDerivedAttribute(view_object_, args[1]) == nullptr) {
          Note("'" + args[1] + "' is not a derived attribute of " +
               view_object_);
          return;
        }
        view_attribute_ = args[1];
        component_index_ = 0;
        screen_ = ScreenId::kComponentAttributeScreen;
        return;
      }
      screen_ = ScreenId::kObjectClassScreen;
      return;
    }
    case ScreenId::kComponentAttributeScreen: {
      const core::DerivedAttributeInfo* info =
          result.FindDerivedAttribute(view_object_, view_attribute_);
      ++component_index_;
      if (info == nullptr ||
          component_index_ >= static_cast<int>(info->components.size())) {
        screen_ = ScreenId::kAttributeScreen;
      }
      return;
    }
    case ScreenId::kEquivalentScreen: {
      screen_ = equivalent_return_;
      return;
    }
    case ScreenId::kParticipatingScreen: {
      screen_ = ScreenId::kRelationshipScreen;
      return;
    }
    default:
      return;
  }
}

// ---------------------------------------------------------------------------
// Rendering.
// ---------------------------------------------------------------------------

std::string Session::CurrentFrame() const {
  std::string frame;
  switch (screen_) {
    case ScreenId::kMainMenu: frame = RenderMainMenu(); break;
    case ScreenId::kSchemaNameCollection:
      frame = RenderSchemaNameCollection();
      break;
    case ScreenId::kStructureCollection:
      frame = RenderStructureCollection();
      break;
    case ScreenId::kCategoryInfo: frame = RenderCategoryInfo(); break;
    case ScreenId::kRelationshipInfo: frame = RenderRelationshipInfo(); break;
    case ScreenId::kAttributeCollection:
      frame = RenderAttributeCollection();
      break;
    case ScreenId::kSchemaNameSelection:
      frame = RenderSchemaNameSelection();
      break;
    case ScreenId::kObjectNameSelection:
      frame = RenderObjectNameSelection();
      break;
    case ScreenId::kEquivalenceEditor: frame = RenderEquivalenceEditor(); break;
    case ScreenId::kAssertionCollection:
      frame = RenderAssertionCollection();
      break;
    case ScreenId::kAssertionConflict: frame = RenderAssertionConflict(); break;
    case ScreenId::kObjectClassScreen: frame = RenderObjectClassScreen(); break;
    case ScreenId::kEntityScreen: frame = RenderEntityScreen(); break;
    case ScreenId::kCategoryScreen: frame = RenderCategoryScreen(); break;
    case ScreenId::kRelationshipScreen:
      frame = RenderRelationshipScreen();
      break;
    case ScreenId::kAttributeScreen: frame = RenderAttributeScreen(); break;
    case ScreenId::kComponentAttributeScreen:
      frame = RenderComponentAttributeScreen();
      break;
    case ScreenId::kEquivalentScreen: frame = RenderEquivalentScreen(); break;
    case ScreenId::kParticipatingScreen:
      frame = RenderParticipatingScreen();
      break;
    case ScreenId::kExit: frame = "goodbye\n"; break;
  }
  return frame;
}

std::string Session::RenderMainMenu() const {
  Screen screen = Frame("Main Menu");
  int row = 5;
  const char* kTasks[] = {
      "1. Define the schemas to be integrated",
      "2. Specify equivalence among attributes of entities and categories",
      "3. Specify assertions among entities and categories",
      "4. Specify equivalence among attributes of relationship sets",
      "5. Specify assertions among relationship sets",
      "6. Integrate and view results of integration",
  };
  for (const char* task : kTasks) screen.Put(row++, 4, task);
  screen.Put(kRows - 3, 2, "Choose a task (1-6) or (E)xit =>");
  if (!message_.empty()) screen.Put(kRows - 2, 2, "* " + message_);
  return screen.Render();
}

std::string Session::RenderSchemaNameCollection() const {
  Screen screen = Frame("Schema Name Collection Screen");
  screen.Put(4, 2, "SCHEMAS DEFINED:");
  int row = 5;
  int index = 1;
  for (const std::string& name : engine_.catalog().SchemaNames()) {
    screen.Put(row++, 4, std::to_string(index++) + "> " + name);
    if (row >= kRows - 4) break;
  }
  screen.Put(kRows - 3, 2,
             "Choose: (A)dd <name> (U)pdate <name> (D)elete <name> "
             "(E)xit =>");
  if (!message_.empty()) screen.Put(kRows - 2, 2, "* " + message_);
  return screen.Render();
}

std::string Session::RenderStructureCollection() const {
  Screen screen = Frame("Structure Information Collection Screen");
  screen.Put(4, 2, "SCHEMA NAME: " + edit_schema_);
  std::vector<std::vector<std::string>> rows;
  Result<const ecr::Schema*> schema = engine_.catalog().GetSchema(edit_schema_);
  if (schema.ok()) {
    int index = 1;
    for (ecr::ObjectId i = 0; i < (*schema)->num_objects(); ++i) {
      const ecr::ObjectClass& object = (*schema)->object(i);
      rows.push_back({std::to_string(index++) + "> " + object.name,
                      std::string(1, ecr::ObjectKindCode(object.kind)),
                      std::to_string(object.attributes.size())});
    }
    for (ecr::RelationshipId i = 0; i < (*schema)->num_relationships(); ++i) {
      const ecr::RelationshipSet& rel = (*schema)->relationship(i);
      rows.push_back({std::to_string(index++) + "> " + rel.name, "r",
                      std::to_string(rel.attributes.size())});
    }
  }
  DrawTable(screen, 6, 2,
            {{"Object Name", 28}, {"Type(E/C/R)", 12}, {"# of attributes", 16}},
            rows);
  screen.Put(kRows - 3, 2, "Choose: (A)dd <name> <e|c|r> (E)xit =>");
  if (!message_.empty()) screen.Put(kRows - 2, 2, "* " + message_);
  return screen.Render();
}

std::string Session::RenderCategoryInfo() const {
  Screen screen = Frame("Category Information Collection Screen");
  screen.Put(4, 2, "SCHEMA NAME: " + edit_schema_ +
                       "   CATEGORY: " + pending_name_);
  screen.Put(6, 2, "Connected entities/categories:");
  int row = 7;
  for (const std::string& parent : pending_parents_) {
    screen.Put(row++, 4, parent);
  }
  screen.Put(kRows - 3, 2,
             "Enter a parent object class name per line, (E) to finish =>");
  if (!message_.empty()) screen.Put(kRows - 2, 2, "* " + message_);
  return screen.Render();
}

std::string Session::RenderRelationshipInfo() const {
  Screen screen = Frame("Relationship Information Collection Screen");
  screen.Put(4, 2, "SCHEMA NAME: " + edit_schema_ +
                       "   RELATIONSHIP: " + pending_name_);
  std::vector<std::vector<std::string>> rows;
  for (const PendingParticipant& p : pending_participants_) {
    rows.push_back({p.object, CardText(p.min_card, p.max_card), p.role});
  }
  DrawTable(screen, 6, 2,
            {{"Connected Object", 26}, {"Cardinality", 12}, {"Role", 16}},
            rows);
  screen.Put(kRows - 3, 2,
             "Enter: <object> <min> <max|n> [role], (E) to finish =>");
  if (!message_.empty()) screen.Put(kRows - 2, 2, "* " + message_);
  return screen.Render();
}

std::string Session::RenderAttributeCollection() const {
  Screen screen = Frame("Attribute Information Collection Screen");
  Result<const ecr::Schema*> schema = engine_.catalog().GetSchema(edit_schema_);
  std::string type = edit_is_relationship_ ? "r" : "e";
  std::vector<std::vector<std::string>> rows;
  if (schema.ok()) {
    const std::vector<ecr::Attribute>* attributes = nullptr;
    if (edit_is_relationship_) {
      ecr::RelationshipId id = (*schema)->FindRelationship(edit_structure_);
      if (id >= 0) attributes = &(*schema)->relationship(id).attributes;
    } else {
      ecr::ObjectId id = (*schema)->FindObject(edit_structure_);
      if (id != ecr::kNoObject) {
        attributes = &(*schema)->object(id).attributes;
        type = std::string(
            1, ecr::ObjectKindCode((*schema)->object(id).kind));
      }
    }
    if (attributes != nullptr) {
      int index = 1;
      for (const ecr::Attribute& a : *attributes) {
        rows.push_back({std::to_string(index++) + "> " + a.name,
                        a.domain.ToString(), a.is_key ? "y" : "n"});
      }
    }
  }
  screen.Put(4, 2, "SCHEMA NAME: " + edit_schema_ +
                       "   OBJECT NAME: " + edit_structure_ +
                       "   TYPE: " + type);
  DrawTable(screen, 6, 2,
            {{"Attribute Name", 24}, {"Domain", 22}, {"Key (y/n)", 10}},
            rows);
  screen.Put(kRows - 3, 2,
             "Enter: <name> <domain> [key], (E) to finish =>");
  if (!message_.empty()) screen.Put(kRows - 2, 2, "* " + message_);
  return screen.Render();
}

std::string Session::RenderSchemaNameSelection() const {
  Screen screen = Frame("Schema Name Selection Screen");
  screen.Put(4, 2, "SCHEMAS DEFINED:");
  int row = 5;
  for (const std::string& name : engine_.catalog().SchemaNames()) {
    screen.Put(row++, 4, name);
    if (row >= kRows - 4) break;
  }
  screen.Put(kRows - 3, 2,
             "Enter the two schemas being integrated: <schema1> <schema2> "
             "or (E)xit =>");
  if (!message_.empty()) screen.Put(kRows - 2, 2, "* " + message_);
  return screen.Render();
}

std::string Session::RenderObjectNameSelection() const {
  const char* subtitle = kind_ == core::StructureKind::kObjectClass
                             ? "Entity/Category Name Selection Screen"
                             : "Relationship Name Selection Screen";
  Screen screen = Frame(subtitle);
  auto list = [&](const std::string& schema_name, int col) {
    screen.Put(4, col, "schema: " + schema_name);
    Result<const ecr::Schema*> schema =
        engine_.catalog().GetSchema(schema_name);
    if (!schema.ok()) return;
    int row = 6;
    if (kind_ == core::StructureKind::kObjectClass) {
      for (ecr::ObjectId i = 0; i < (*schema)->num_objects(); ++i) {
        const ecr::ObjectClass& object = (*schema)->object(i);
        screen.Put(row++, col,
                   std::string(1, ecr::ObjectKindCode(object.kind)) + " " +
                       object.name);
        if (row >= kRows - 4) break;
      }
    } else {
      for (ecr::RelationshipId i = 0; i < (*schema)->num_relationships();
           ++i) {
        screen.Put(row++, col, "r " + (*schema)->relationship(i).name);
        if (row >= kRows - 4) break;
      }
    }
  };
  list(schema1_, 4);
  list(schema2_, 42);
  screen.Put(kRows - 3, 2,
             "Pick one structure from each schema: <name1> <name2>, or "
             "(E)xit =>");
  if (!message_.empty()) screen.Put(kRows - 2, 2, "* " + message_);
  return screen.Render();
}

std::string Session::RenderEquivalenceEditor() const {
  Screen screen = Frame("Equivalence Class Creation and Deletion Screen");
  auto list = [&](const core::ObjectRef& ref, int col) {
    screen.Put(4, col, ref.ToString());
    std::vector<core::AttributeClassEntry> entries =
        engine_.has_equivalence()
            ? engine_.equivalence().EntriesFor(ref)
            : std::vector<core::AttributeClassEntry>{};
    std::vector<std::vector<std::string>> rows;
    int index = 1;
    for (const core::AttributeClassEntry& entry : entries) {
      rows.push_back({std::to_string(index++) + "> " + entry.path.attribute,
                      std::to_string(entry.eq_class)});
    }
    DrawTable(screen, 6, col, {{"Attribute Name", 20}, {"Eq_class #", 10}},
              rows);
  };
  list(pair_first_, 3);
  list(pair_second_, 41);
  screen.Put(kRows - 3, 2,
             "(A)dd <attr1> <attr2>  (D)elete <1|2> <attr>  (E)xit =>");
  if (!message_.empty()) screen.Put(kRows - 2, 2, "* " + message_);
  return screen.Render();
}

std::string Session::RenderAssertionCollection() const {
  Screen screen = Frame("Assertion Collection For Object Pairs");
  std::vector<std::vector<std::string>> rows;
  std::vector<core::ObjectPair> ranked = RankedPairs();
  const core::AssertionStore& store = engine_.assertions();
  int index = 1;
  for (const core::ObjectPair& pair : ranked) {
    std::string current = "=>";
    for (const core::IdAssertion& entry : store.assertion_log()) {
      const core::ObjectRef& first = store.objects()[entry.first];
      const core::ObjectRef& second = store.objects()[entry.second];
      if ((first == pair.first && second == pair.second) ||
          (first == pair.second && second == pair.first)) {
        current = "=>" + std::to_string(core::AssertionTypeCode(entry.type));
      }
    }
    rows.push_back({std::to_string(index++) + "> " + pair.first.ToString(),
                    pair.second.ToString(),
                    FormatFixed(pair.attribute_ratio, 4), current});
  }
  DrawTable(screen, 5, 2,
            {{"Schema_Name1.Obj_Class1", 24},
             {"Schema_Name2.Obj_Class2", 24},
             {"ATTRIBUTE RATIO", 15},
             {"ASSERTION", 9}},
            rows);
  // Section-4 extension: domain-derived hints for pairs whose keys the DDA
  // declared equivalent (closed-world reading of the key domains).
  if (kind_ == core::StructureKind::kObjectClass &&
      engine_.has_equivalence()) {
    Result<std::vector<core::AssertionHint>> hints = core::HintAssertions(
        engine_.catalog(), engine_.equivalence(), schema1_, schema2_);
    if (hints.ok() && !hints->empty()) {
      int hint_row = 5 + 2 + static_cast<int>(rows.size());
      for (const core::AssertionHint& hint : *hints) {
        if (hint_row >= kRows - 9) break;
        std::string codes;
        for (core::AssertionType type : hint.compatible) {
          codes += " " + std::to_string(core::AssertionTypeCode(type));
        }
        screen.Put(hint_row++, 2,
                   "hint: " + hint.first.object + "/" + hint.second.object +
                       " key domains " +
                       core::AttributeRelationName(hint.key_relation) +
                       "; codes" + codes);
      }
    }
  }
  int row = kRows - 9;
  screen.Put(row++, 2, "1 - OB_CL_name_1 'equals' OB_CL_name_2");
  screen.Put(row++, 2, "2 - OB_CL_name_1 'contained in' OB_CL_name_2");
  screen.Put(row++, 2, "3 - OB_CL_name_1 'contains' OB_CL_name_2");
  screen.Put(row++, 2,
             "4 - OB_CL_name_1 and OB_CL_name_2 are disjoint but "
             "integratable");
  screen.Put(row++, 2,
             "5 - OB_CL_name_1 and OB_CL_name_2 may be integratable");
  screen.Put(row++, 2,
             "0 - OB_CL_name_1 and OB_CL_name_2 are disjoint & "
             "non-integratable");
  screen.Put(kRows - 3, 2, "Enter: <row> <assertion>, or (E)xit =>");
  if (!message_.empty()) screen.Put(kRows - 2, 2, "* " + message_);
  return screen.Render();
}

std::string Session::RenderAssertionConflict() const {
  Screen screen = Frame("Assertion Conflict Resolution Screen");
  int row = 5;
  // Wrap the conflict report into the frame.
  std::string text = conflict_text_;
  while (!text.empty() && row < kRows - 4) {
    size_t newline = text.find('\n');
    std::string line =
        newline == std::string::npos ? text : text.substr(0, newline);
    while (line.size() > static_cast<size_t>(kCols - 6) && row < kRows - 4) {
      screen.Put(row++, 3, line.substr(0, kCols - 6));
      line = line.substr(kCols - 6);
    }
    screen.Put(row++, 3, line);
    if (newline == std::string::npos) break;
    text = text.substr(newline + 1);
  }
  screen.Put(kRows - 3, 2,
             "Change the conflicting assertions. Press any key to return =>");
  return screen.Render();
}

std::string Session::RenderObjectClassScreen() const {
  Screen screen = ViewFrame("Object Class Screen");
  if (!engine_.integration()) {
    screen.Put(5, 2, "no integration result");
    return screen.Render();
  }
  const ecr::Schema& s = engine_.integration()->schema;
  std::vector<std::string> entities;
  std::vector<std::string> categories;
  for (ecr::ObjectId i = 0; i < s.num_objects(); ++i) {
    if (s.object(i).kind == ecr::ObjectKind::kEntitySet) {
      entities.push_back(s.object(i).name);
    } else {
      categories.push_back(s.object(i).name);
    }
  }
  std::vector<std::string> relationships;
  for (ecr::RelationshipId i = 0; i < s.num_relationships(); ++i) {
    relationships.push_back(s.relationship(i).name);
  }
  auto column = [&](int col, const std::string& header,
                    const std::vector<std::string>& names) {
    screen.Put(5, col,
               header + "(" + std::to_string(names.size()) + ")");
    screen.HorizontalLine(6, col, col + 22);
    int row = 7;
    for (const std::string& name : names) {
      screen.Put(row++, col, name);
      if (row >= kRows - 5) break;
    }
  };
  column(2, "Entities", entities);
  column(28, "Categories", categories);
  column(54, "Relationships", relationships);
  if (!view_object_.empty()) {
    screen.Put(kRows - 5, 2, "selected: " + view_object_);
  }
  screen.Put(kRows - 4, 2,
             "Choose: <m> <name> to select, <a>ttributes, <c>ategories,");
  screen.Put(kRows - 3, 2,
             "        <en>tity, <r> <name> relationship, <x> to exit =>");
  if (!message_.empty()) screen.Put(kRows - 2, 2, "* " + message_);
  return screen.Render();
}

std::string Session::RenderEntityScreen() const {
  Screen screen = ViewFrame("Entity Screen");
  const ecr::Schema& s = engine_.integration()->schema;
  ecr::ObjectId id = s.FindObject(view_object_);
  screen.PutCentered(4, "< " + view_object_ + " >");
  if (id != ecr::kNoObject) {
    std::vector<std::vector<std::string>> rows;
    for (ecr::ObjectId child : s.ChildrenOf(id)) {
      rows.push_back({s.object(child).name,
                      ecr::ObjectKindName(s.object(child).kind)});
    }
    screen.Put(6, 2,
               "Child Objects(" + std::to_string(rows.size()) + "):");
    DrawTable(screen, 7, 2, {{"Child Object", 28}, {"(type)", 10}}, rows);
  }
  screen.Put(kRows - 3, 2,
             "Choose: (V) equivalent objects, any other key to return =>");
  if (!message_.empty()) screen.Put(kRows - 2, 2, "* " + message_);
  return screen.Render();
}

std::string Session::RenderCategoryScreen() const {
  Screen screen = ViewFrame("Category Screen");
  const ecr::Schema& s = engine_.integration()->schema;
  ecr::ObjectId id = s.FindObject(view_object_);
  screen.PutCentered(4, "< " + view_object_ + " >");
  if (id != ecr::kNoObject) {
    std::vector<ecr::ObjectId> children = s.ChildrenOf(id);
    const std::vector<ecr::ObjectId>& parents = s.object(id).parents;
    screen.Put(6, 4,
               "Parent Object(" + std::to_string(parents.size()) +
                   ") (type)");
    screen.Put(6, 42,
               "Child Object(" + std::to_string(children.size()) +
                   ") (type)");
    screen.HorizontalLine(7, 4, 72);
    int row = 8;
    for (ecr::ObjectId parent : parents) {
      screen.Put(row++, 4, s.object(parent).name + " (" +
                               ecr::ObjectKindName(s.object(parent).kind) +
                               ")");
    }
    row = 8;
    for (ecr::ObjectId child : children) {
      screen.Put(row++, 42, s.object(child).name + " (" +
                                ecr::ObjectKindName(s.object(child).kind) +
                                ")");
    }
  }
  screen.Put(kRows - 3, 2,
             "Choose: (V) equivalent objects, any other key to return =>");
  if (!message_.empty()) screen.Put(kRows - 2, 2, "* " + message_);
  return screen.Render();
}

std::string Session::RenderRelationshipScreen() const {
  Screen screen = ViewFrame("Relationship Screen");
  const ecr::Schema& s = engine_.integration()->schema;
  ecr::RelationshipId id = s.FindRelationship(view_relationship_);
  screen.PutCentered(4, "< " + view_relationship_ + " >");
  if (id >= 0) {
    const ecr::RelationshipSet& rel = s.relationship(id);
    int row = 6;
    if (!rel.parents.empty()) {
      std::string parents = "parents:";
      for (ecr::RelationshipId parent : rel.parents) {
        parents += " " + s.relationship(parent).name;
      }
      screen.Put(row++, 2, parents);
    }
    screen.Put(row++, 2,
               "attributes(" + std::to_string(rel.attributes.size()) + "):");
    for (const ecr::Attribute& a : rel.attributes) {
      screen.Put(row++, 4, ecr::AttributeToString(a));
      if (row >= kRows - 5) break;
    }
  }
  screen.Put(kRows - 3, 2,
             "Choose: (P)articipating objects, (V) equivalents, other key "
             "to return =>");
  if (!message_.empty()) screen.Put(kRows - 2, 2, "* " + message_);
  return screen.Render();
}

std::string Session::RenderAttributeScreen() const {
  Screen screen = ViewFrame("Attribute Screen");
  const ecr::Schema& s = engine_.integration()->schema;
  ecr::ObjectId id = s.FindObject(view_object_);
  if (id != ecr::kNoObject) {
    screen.PutCentered(
        4, "< " + view_object_ + " : " +
               ecr::ObjectKindName(s.object(id).kind) + " >");
    std::vector<std::vector<std::string>> rows;
    for (const ecr::Attribute& a : s.object(id).attributes) {
      bool derived = engine_.integration()->FindDerivedAttribute(
                         view_object_, a.name) != nullptr;
      rows.push_back({a.name, a.domain.ToString(), a.is_key ? "YES" : "NO",
                      derived ? "derived" : ""});
    }
    DrawTable(screen, 6, 2,
              {{"Attribute Name", 20},
               {"Domain", 18},
               {"Key", 5},
               {"Origin", 10}},
              rows);
  }
  screen.Put(kRows - 3, 2,
             "Choose: (C) <attr> component attributes, other key to "
             "return =>");
  if (!message_.empty()) screen.Put(kRows - 2, 2, "* " + message_);
  return screen.Render();
}

std::string Session::RenderComponentAttributeScreen() const {
  Screen screen = ViewFrame("Component Attribute Screen");
  const core::DerivedAttributeInfo* info =
      engine_.integration()->FindDerivedAttribute(view_object_,
                                                  view_attribute_);
  const ecr::Schema& s = engine_.integration()->schema;
  ecr::ObjectId id = s.FindObject(view_object_);
  if (id != ecr::kNoObject) {
    screen.PutCentered(
        4, "< " + view_object_ + " : " +
               ecr::ObjectKindName(s.object(id).kind) + " >");
  }
  screen.PutCentered(5, "< " + view_attribute_ + " >");
  if (info != nullptr &&
      component_index_ < static_cast<int>(info->components.size())) {
    const ecr::AttributePath& component =
        info->components[component_index_];
    // Look up the component attribute in its source schema.
    std::string domain = "?";
    std::string key = "?";
    std::string type = "?";
    Result<const ecr::Schema*> source =
        engine_.catalog().GetSchema(component.schema);
    if (source.ok()) {
      ecr::ObjectId oid = (*source)->FindObject(component.object);
      const std::vector<ecr::Attribute>* attrs = nullptr;
      if (oid != ecr::kNoObject) {
        attrs = &(*source)->object(oid).attributes;
        type = std::string(
            1, ecr::ObjectKindCode((*source)->object(oid).kind));
        type[0] = static_cast<char>(std::toupper(type[0]));
      } else {
        ecr::RelationshipId rid =
            (*source)->FindRelationship(component.object);
        if (rid >= 0) {
          attrs = &(*source)->relationship(rid).attributes;
          type = "R";
        }
      }
      if (attrs != nullptr) {
        for (const ecr::Attribute& a : *attrs) {
          if (a.name == component.attribute) {
            domain = a.domain.ToString();
            key = a.is_key ? "YES" : "NO";
          }
        }
      }
    }
    int row = 7;
    screen.Put(row++, 6, "Attribute Name      : " + component.attribute);
    screen.Put(row++, 6, "Domain              : " + domain);
    screen.Put(row++, 6, "Key                 : " + key);
    screen.Put(row++, 6, "original Object Name: " + component.object);
    screen.Put(row++, 6, "original type       : " + type);
    screen.Put(row++, 6, "original Schema Name: " + component.schema);
    screen.Put(kRows - 4, 2,
               "component " + std::to_string(component_index_ + 1) + " of " +
                   std::to_string(info->components.size()));
  }
  screen.Put(kRows - 3, 2, "Press any key to continue =>");
  return screen.Render();
}

std::string Session::RenderEquivalentScreen() const {
  Screen screen = ViewFrame("Equivalent Screen");
  std::string name = screen_ == ScreenId::kEquivalentScreen &&
                             equivalent_return_ ==
                                 ScreenId::kRelationshipScreen
                         ? view_relationship_
                         : view_object_;
  screen.PutCentered(4, "< " + name + " >");
  const core::IntegratedStructureInfo* info =
      engine_.integration()->FindStructure(name);
  int row = 6;
  if (info != nullptr) {
    screen.Put(row++, 2, "integrated from:");
    for (const core::ObjectRef& source : info->sources) {
      screen.Put(row++, 4, source.ToString());
      if (row >= kRows - 4) break;
    }
    if (info->sources.empty()) {
      screen.Put(row++, 4, "(derived object class - no direct sources)");
    }
  }
  screen.Put(kRows - 3, 2, "Press any key to return =>");
  return screen.Render();
}

std::string Session::RenderParticipatingScreen() const {
  Screen screen = ViewFrame("Participating Objects In Relationship Screen");
  const ecr::Schema& s = engine_.integration()->schema;
  ecr::RelationshipId id = s.FindRelationship(view_relationship_);
  screen.PutCentered(4, "< " + view_relationship_ + " >");
  if (id >= 0) {
    std::vector<std::vector<std::string>> rows;
    for (const ecr::Participation& p : s.relationship(id).participants) {
      rows.push_back({s.object(p.object).name,
                      ecr::ObjectKindName(s.object(p.object).kind),
                      CardText(p.min_card, p.max_card), p.role});
    }
    DrawTable(screen, 6, 2,
              {{"Object", 24},
               {"Type", 10},
               {"Cardinality", 12},
               {"Role", 12}},
              rows);
  }
  screen.Put(kRows - 3, 2, "Press any key to return =>");
  return screen.Render();
}

}  // namespace ecrint::tui
