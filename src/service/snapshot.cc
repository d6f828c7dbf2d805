#include "service/snapshot.h"

#include <utility>

#include "ecr/printer.h"
#include "heuristics/synonyms.h"

namespace ecrint::service {

Result<std::vector<core::ObjectPair>> SnapshotRankedPairs(
    const EngineSnapshot& snapshot, const std::string& schema1,
    const std::string& schema2, core::StructureKind kind, bool include_zero) {
  if (!snapshot.equivalence) {
    return FailedPreconditionError("snapshot has no equivalence map");
  }
  return core::RankObjectPairs(*snapshot.catalog, *snapshot.equivalence,
                               schema1, schema2, kind, include_zero);
}

Result<std::vector<heuristics::EquivalenceSuggestion>> SnapshotSuggest(
    const EngineSnapshot& snapshot, const std::string& schema1,
    const std::string& schema2, double threshold, double object_threshold,
    int max_results) {
  // The builtin dictionary is immutable; share one copy across all readers.
  static const heuristics::SynonymDictionary& synonyms =
      *new heuristics::SynonymDictionary(
          heuristics::SynonymDictionary::WithBuiltins());
  return heuristics::SuggestAttributeEquivalences(
      *snapshot.catalog, schema1, schema2, synonyms, threshold,
      object_threshold, max_results);
}

Result<core::Request> SnapshotTranslate(const EngineSnapshot& snapshot,
                                        const core::Request& request) {
  if (!snapshot.integration) {
    return FailedPreconditionError(
        "no integration result; run integrate first");
  }
  return core::TranslateToIntegrated(*snapshot.integration, request);
}

Result<core::FanoutPlan> SnapshotTranslateToComponents(
    const EngineSnapshot& snapshot, const core::Request& request) {
  if (!snapshot.integration) {
    return FailedPreconditionError(
        "no integration result; run integrate first");
  }
  return core::TranslateToComponents(*snapshot.integration, request);
}

Result<std::vector<std::string>> SnapshotIntegratedOutline(
    const EngineSnapshot& snapshot) {
  if (!snapshot.integration) {
    return FailedPreconditionError(
        "no integration result; run integrate first");
  }
  std::vector<std::string> lines;
  ecr::AppendOutlineLines(snapshot.integration->schema, lines);
  return lines;
}

std::shared_ptr<const EngineSnapshot> SnapshotManager::Current() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_;
}

int64_t SnapshotManager::generation() const {
  return next_generation_.load(std::memory_order_relaxed) - 1;
}

bool SnapshotManager::Publish(engine::Engine& engine) {
  // Materialize the equivalence map before stamping: the lazy build bumps
  // the equivalence generation, and publishing first would hand readers a
  // stamp that immediately goes stale.
  engine.Equivalence();
  engine::EngineStamp stamp = engine.Stamp();

  std::shared_ptr<const EngineSnapshot> previous = Current();
  if (previous && previous->stamp == stamp) return false;

  auto next = std::make_shared<EngineSnapshot>();
  next->stamp = stamp;

  // Copy-on-write per part: reuse the previous snapshot's object whenever
  // the generation that guards it is unchanged.
  if (previous &&
      previous->stamp.schema_generation == stamp.schema_generation) {
    next->catalog = previous->catalog;
  } else {
    next->catalog = std::make_shared<const ecr::Catalog>(engine.catalog());
  }
  if (previous &&
      previous->stamp.schema_generation == stamp.schema_generation &&
      previous->stamp.equivalence_generation ==
          stamp.equivalence_generation) {
    next->equivalence = previous->equivalence;
  } else {
    next->equivalence =
        std::make_shared<const core::EquivalenceMap>(engine.equivalence());
  }
  // The engine's result is immutable and replaced, never edited, on each
  // new integration, so it is shared rather than copied.
  next->integration = engine.integration();

  next->generation = next_generation_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<const EngineSnapshot> published = std::move(next);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    current_.swap(published);
  }
  // `published` now holds the old snapshot; if this was its last reference
  // it is destroyed here, outside the lock.
  return true;
}

}  // namespace ecrint::service
