#ifndef ECRINT_TUI_SESSION_H_
#define ECRINT_TUI_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "ecr/catalog.h"
#include "core/assertion_store.h"
#include "core/equivalence.h"
#include "core/integration_result.h"
#include "core/object_ref.h"
#include "core/project_io.h"
#include "core/resemblance.h"
#include "engine/engine.h"

namespace ecrint::tui {

// Which of the tool's screens is on display. Covers the paper's Screens
// 1-12 and the Figure 6 control flow of the integration-viewing phase.
enum class ScreenId {
  kMainMenu,                  // Screen 1
  kSchemaNameCollection,      // Screen 2
  kStructureCollection,       // Screen 3
  kCategoryInfo,              // category information collection
  kRelationshipInfo,          // Screen 4
  kAttributeCollection,       // Screen 5
  kSchemaNameSelection,       // schema pair selection (phase 2/3 entry)
  kObjectNameSelection,       // Screen 6
  kEquivalenceEditor,         // Screen 7
  kAssertionCollection,       // Screen 8
  kAssertionConflict,         // Screen 9
  kObjectClassScreen,         // Screen 10
  kEntityScreen,              // entity detail
  kCategoryScreen,            // Screen 11
  kRelationshipScreen,        // relationship detail
  kAttributeScreen,           // attribute list
  kComponentAttributeScreen,  // Screens 12a/12b
  kEquivalentScreen,          // merged-structure sources
  kParticipatingScreen,       // participating objects in relationship
  kExit,
};

// The interactive schema-integration tool: the same menu/form state machine
// as the paper's curses program, driven by text lines instead of keystrokes
// so sessions are scriptable and every frame is reproducible.
//
//   Session session;
//   std::cout << session.CurrentFrame();   // Screen 1
//   std::cout << session.Step("1");        // enter schema collection
//   std::cout << session.Step("a sc1");    // add schema sc1 ...
//
// Input conventions (shown in each frame's bottom menu): single-letter menu
// choices, names separated by spaces, 'e' to leave a form, 'x' to leave the
// viewing phase.
//
// The session is a thin view: all pipeline state (catalog, equivalence map,
// assertion store, integration result) lives in an engine::Engine, the
// session only keeps screen/cursor state and renders frames.
class Session {
 public:
  Session();

  // Processes one line of input and returns the next frame to display.
  std::string Step(const std::string& line);

  // The current frame (what the user sees before typing).
  std::string CurrentFrame() const;

  ScreenId screen() const { return screen_; }
  bool done() const { return screen_ == ScreenId::kExit; }

  // Backing state, exposed so examples and harnesses can pre-load schemas
  // or inspect results.
  ecr::Catalog& catalog() { return engine_.MutableCatalog(); }
  const ecr::Catalog& catalog() const { return engine_.catalog(); }
  const core::AssertionStore& assertions() const {
    return engine_.assertions();
  }
  const std::shared_ptr<const core::IntegrationResult>& integration() const {
    return engine_.integration();
  }
  // The pipeline engine behind the screens (phase stats, diagnostics, ...).
  engine::Engine& engine() { return engine_; }
  const engine::Engine& engine() const { return engine_; }
  // Last status line (errors from parsing/commands are surfaced here and in
  // the frame's message row).
  const std::string& message() const { return message_; }

  // Replaces the session state with a saved project: schemas, equivalence
  // declarations and assertions are replayed. Fails (leaving the session
  // empty of the partial import) if a stored decision no longer applies.
  Status ImportProject(core::Project project);

  // Serializes the current schemas + DDA decisions (see core/project_io.h).
  std::string ExportProject();

 private:
  // --- input handling per screen -------------------------------------------
  void HandleMainMenu(const std::vector<std::string>& args);
  void HandleSchemaNameCollection(const std::vector<std::string>& args);
  void HandleStructureCollection(const std::vector<std::string>& args);
  void HandleCategoryInfo(const std::vector<std::string>& args);
  void HandleRelationshipInfo(const std::vector<std::string>& args);
  void HandleAttributeCollection(const std::vector<std::string>& args,
                                 const std::string& raw);
  void HandleSchemaNameSelection(const std::vector<std::string>& args);
  void HandleObjectNameSelection(const std::vector<std::string>& args);
  void HandleEquivalenceEditor(const std::vector<std::string>& args);
  void HandleAssertionCollection(const std::vector<std::string>& args);
  void HandleViewing(const std::vector<std::string>& args);

  // --- rendering per screen -------------------------------------------------
  std::string RenderMainMenu() const;
  std::string RenderSchemaNameCollection() const;
  std::string RenderStructureCollection() const;
  std::string RenderCategoryInfo() const;
  std::string RenderRelationshipInfo() const;
  std::string RenderAttributeCollection() const;
  std::string RenderSchemaNameSelection() const;
  std::string RenderObjectNameSelection() const;
  std::string RenderEquivalenceEditor() const;
  std::string RenderAssertionCollection() const;
  std::string RenderAssertionConflict() const;
  std::string RenderObjectClassScreen() const;
  std::string RenderEntityScreen() const;
  std::string RenderCategoryScreen() const;
  std::string RenderRelationshipScreen() const;
  std::string RenderAttributeScreen() const;
  std::string RenderComponentAttributeScreen() const;
  std::string RenderEquivalentScreen() const;
  std::string RenderParticipatingScreen() const;

  // --- helpers ---------------------------------------------------------------
  void Fail(const Status& status);
  void Note(std::string message);
  // Runs integration over the selected pair (or all schemas).
  void RunIntegration();
  // Ranked pairs for the assertion screen (current structure kind).
  std::vector<core::ObjectPair> RankedPairs() const;

  // Mutable because rendering is const while the engine memoizes rankings
  // and lazily builds the equivalence map behind const-looking queries.
  mutable engine::Engine engine_;

  ScreenId screen_ = ScreenId::kMainMenu;
  std::string message_;

  // Collection state.
  std::string edit_schema_;        // schema being defined
  std::string edit_structure_;     // structure receiving attributes
  bool edit_is_relationship_ = false;
  // A relationship participant being collected on Screen 4.
  struct PendingParticipant {
    std::string object;
    int min_card = 0;
    int max_card = ecr::kUnboundedCardinality;
    std::string role;
  };
  std::string pending_name_;       // category/relationship being assembled
  std::vector<std::string> pending_parents_;
  std::vector<PendingParticipant> pending_participants_;

  // Phase 2/3 state.
  core::StructureKind kind_ = core::StructureKind::kObjectClass;
  ScreenId after_schema_selection_ = ScreenId::kObjectNameSelection;
  std::string schema1_, schema2_;
  core::ObjectRef pair_first_, pair_second_;
  std::string conflict_text_;

  // Viewing state.
  std::string view_object_;        // selected integrated object class
  std::string view_relationship_;
  std::string view_attribute_;     // selected derived attribute
  int component_index_ = 0;
  ScreenId equivalent_return_ = ScreenId::kObjectClassScreen;
};

}  // namespace ecrint::tui

#endif  // ECRINT_TUI_SESSION_H_
