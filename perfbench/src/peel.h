// The traced run's layer peel: the workload's recorded request stream
// replayed in-process through the public entry point of each layer, plus
// the per-layer ratios taken from the server's own counters.
#ifndef PERFBENCH_PEEL_H_
#define PERFBENCH_PEEL_H_

#include <memory>
#include <string>

#include "common.h"
#include "workloads.h"

namespace perfbench {

// Replays a workload's request stream in-process at each layer and sets
// every per-layer metric. A metric whose layer the workload's traffic never
// reaches is reported as 0, with its sample count printed as 0.
class LayerPeel {
 public:
  LayerPeel(const Workload& workload, const Context& context, Report* report);
  ~LayerPeel();
  LayerPeel(const LayerPeel&) = delete;
  LayerPeel& operator=(const LayerPeel&) = delete;

  // For edit_integrate: replays stream request `index` at every in-process
  // level right after the socket answered it, so all levels of one request
  // run within a second of each other and host speed drift cancels out of
  // their comparison. Empty for the other workloads.
  AfterRequest Hook();

  // Runs the remaining replays over `socket`'s recorded stream, takes the
  // counter ratios, prints the nesting table, and writes every level's
  // spans to `spans_path`.
  void Finish(const SocketResult& socket, const std::string& spans_path);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PEEL_H_
