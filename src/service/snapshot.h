#ifndef ECRINT_SERVICE_SNAPSHOT_H_
#define ECRINT_SERVICE_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/equivalence.h"
#include "core/integration_result.h"
#include "core/request_translation.h"
#include "core/resemblance.h"
#include "ecr/catalog.h"
#include "engine/engine.h"
#include "heuristics/suggest.h"

namespace ecrint::service {

// An immutable published view of one project's engine state. Snapshots are
// handed to readers as shared_ptr<const EngineSnapshot>; a reader works
// against its snapshot for as long as it likes (the shared_ptr keeps the
// data alive) while the writer republishes newer generations. The parts
// are themselves behind shared_ptr so publication is copy-on-write: a
// republish after an assertion append reuses the previous catalog,
// equivalence map, and integration result verbatim and copies nothing.
struct EngineSnapshot {
  // Publish sequence number, strictly increasing per SnapshotManager.
  int64_t generation = 0;
  // The engine stamp this snapshot was cut at.
  engine::EngineStamp stamp;

  std::shared_ptr<const ecr::Catalog> catalog;
  // Null when the project has never built an equivalence map.
  std::shared_ptr<const core::EquivalenceMap> equivalence;
  // Null until the first successful Integrate.
  std::shared_ptr<const core::IntegrationResult> integration;
};

// Read operations against a snapshot. These are pure functions of the
// snapshot — no locks, no shared mutable state — so any number of them run
// concurrently on thread-pool workers while the writer mutates the live
// engine.
//
// Screen 8's ranked pair list, recomputed from the snapshot (the engine's
// rank cache belongs to the write side).
Result<std::vector<core::ObjectPair>> SnapshotRankedPairs(
    const EngineSnapshot& snapshot, const std::string& schema1,
    const std::string& schema2, core::StructureKind kind, bool include_zero);

// Heuristic attribute-equivalence proposals.
Result<std::vector<heuristics::EquivalenceSuggestion>> SnapshotSuggest(
    const EngineSnapshot& snapshot, const std::string& schema1,
    const std::string& schema2, double threshold, double object_threshold,
    int max_results);

// View-design request translation against the published integration.
Result<core::Request> SnapshotTranslate(const EngineSnapshot& snapshot,
                                        const core::Request& request);

// Federation direction: integrated request -> component fanout plan.
Result<core::FanoutPlan> SnapshotTranslateToComponents(
    const EngineSnapshot& snapshot, const core::Request& request);

// Outline lines of the published integrated schema (kFailedPrecondition
// when the project has not integrated yet).
Result<std::vector<std::string>> SnapshotIntegratedOutline(
    const EngineSnapshot& snapshot);

// Publishes immutable snapshots of one engine. The writer (who must hold
// the project's write serialization externally) calls Publish after every
// mutation batch; readers call Current from any thread. Publication
// compares the engine's EngineStamp to the last published one part by part
// and shares unchanged parts with the previous snapshot.
class SnapshotManager {
 public:
  // The most recently published snapshot, or null before the first
  // Publish. The returned pointer (and everything it references) stays
  // valid for the caller's lifetime regardless of later publications.
  std::shared_ptr<const EngineSnapshot> Current() const;

  // Cuts a new snapshot from `engine` if its stamp changed since the last
  // publication; returns true when a new generation was published. Caller
  // must be the (single) writer of `engine`. Forces the equivalence map to
  // exist (building it over the current catalog if needed) so readers
  // never observe a half-initialized project.
  bool Publish(engine::Engine& engine);

  // Number of publications so far.
  int64_t generation() const;

 private:
  // A mutex-guarded slot: Current() copies the pointer under the lock, and
  // Publish swaps a new one in. libstdc++ 12's atomic<shared_ptr> is not
  // lock-free either (it spins on a lock bit), and its relaxed unlock after
  // a load left that read unordered with the next store, which
  // ThreadSanitizer reports as a data race; a plain mutex states the same
  // ordering in a form the tool can see. The lock covers only the copy.
  mutable std::mutex mutex_;
  std::shared_ptr<const EngineSnapshot> current_;  // guarded by mutex_
  std::atomic<int64_t> next_generation_{1};
};

}  // namespace ecrint::service

#endif  // ECRINT_SERVICE_SNAPSHOT_H_
