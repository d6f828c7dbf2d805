#ifndef ECRINT_ENGINE_PHASE_TRACE_H_
#define ECRINT_ENGINE_PHASE_TRACE_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/clock.h"

namespace ecrint::engine {

// Accumulated observability for one pipeline phase: how often it ran, how
// long it took, and named work counters (pairs ranked, assertions derived,
// clusters built, cache hits vs. recomputes, ...).
struct PhaseStats {
  int64_t calls = 0;
  int64_t wall_ns = 0;
  std::map<std::string, int64_t> counters;
};

// Per-phase stats for an Engine, exportable as JSON for the bench pipeline
// (bench/run_benches.sh attaches it to BENCH_engine.json). Phases and
// counters are kept in sorted maps so the JSON is deterministic.
class PhaseTrace {
 public:
  // RAII wall-clock scope: charges its lifetime to `phase` and bumps calls.
  class Scope {
   public:
    Scope(PhaseTrace& trace, const std::string& phase)
        : stats_(&trace.phases_[phase]), watch_(common::RealClock()) {
      ++stats_->calls;
    }
    ~Scope() { stats_->wall_ns += watch_.ElapsedNs(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    PhaseStats* stats_;
    common::Stopwatch watch_;
  };

  // Charges one call of `wall_ns` measured elsewhere, e.g. a sub-phase
  // timed inside a library call.
  void Charge(const std::string& phase, int64_t wall_ns) {
    PhaseStats& stats = phases_[phase];
    ++stats.calls;
    stats.wall_ns += wall_ns;
  }

  void Count(const std::string& phase, const std::string& counter,
             int64_t delta = 1) {
    phases_[phase].counters[counter] += delta;
  }

  const std::map<std::string, PhaseStats>& phases() const { return phases_; }

  void Reset() { phases_.clear(); }

  // {"phases": {"<name>": {"calls": N, "wall_ms": X, "counters": {...}}}}
  std::string ToJson() const;

 private:
  std::map<std::string, PhaseStats> phases_;
};

}  // namespace ecrint::engine

#endif  // ECRINT_ENGINE_PHASE_TRACE_H_
