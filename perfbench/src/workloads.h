// The three workloads: generated inputs, and their closed-loop runs over
// real sockets against ecrint_serve child processes.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "engine/replay.h"
#include "wire.h"

namespace perfbench {

// One seeding request: its text line (no newline) and the journal verb it
// becomes, so the in-process layers can be put into exactly the state the
// server is in.
struct SeedStep {
  std::string line;
  ecrint::engine::ReplayVerb verb;
};

// A workload's generated inputs. `ops` is the op table: read_hot's key
// set, edit_integrate's stream in order (four ops per DDA edit), or
// write_durable's write items; `writer_items` lists each write_durable
// writer's items in sending order.
struct Workload {
  std::string name;
  std::string project = "bench";
  std::vector<std::string> schemas;
  std::vector<SeedStep> seed;
  std::vector<Op> ops;
  std::vector<std::vector<int>> writer_items;
};

Workload BuildReadHot(uint64_t seed);
Workload BuildEditIntegrate(uint64_t seed);
Workload BuildWriteDurable(uint64_t seed);

// Where and how a run executes.
struct Context {
  std::string server_binary;
  std::string work_dir;  // data dirs live here (inside the checkout)
  uint64_t seed = 0;
  int seconds = 0;  // --seconds, required
};

// Server and client configuration, fixed per workload and printed in the
// host record.
struct Config {
  int setups = 3;  // set-ups per run; setup_s is their median
  int client_threads = 1;
  int connections = 1;
  std::vector<std::string> server_flags;
  std::vector<std::string> follower_flags;  // write_durable only
};
Config ConfigFor(const std::string& workload);

// What one socket-level run observed.
struct SocketResult {
  std::vector<Span> spans;  // timed-phase requests, sorted by start; id = index
  std::vector<double> setup_s;
  double rss_mb = 0;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  MetricsSnapshot before, after;                    // the (leader) server
  // edit_integrate: the counters of its repeat pass, on a fresh server.
  MetricsSnapshot repeat_before, repeat_after;
  MetricsSnapshot follower_before, follower_after;  // write_durable
  Failures failures;
  std::string leader_project_dir;  // write_durable: for the recovery peel
};

// Called after a timed-phase request completes, outside its timing, with
// the request's stream index (edit_integrate only).
using AfterRequest = std::function<void(size_t index)>;

// Runs the workload's set-ups, timed phase and correctness gates.
SocketResult RunSocket(const Workload& workload, const Context& context,
                       Report* report, const AfterRequest& after = {});

// The journal verb a write op becomes (integrate for every non-write).
ecrint::engine::ReplayVerb ReplayVerbFor(const Op& op);

// The export text an in-process engine reaches when fed the seed and then
// every write op of `ops` in order (service-plane engine interaction).
std::string EngineExport(const Workload& workload, const std::vector<Op>& ops);

// The server's export lines, joined the way EngineExport renders them.
std::string ExportLines(const std::string& engine_export);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
