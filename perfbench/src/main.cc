// perfbench — closed-loop, socket-level benchmark of ecrint_serve.
//
//   perfbench --workload read_hot|edit_integrate|write_durable --seed N
//             --seconds S --trace 0|1 --bin-dir DIR --work-dir DIR
//
// Launches the server from --bin-dir as a child process, seeds a generated
// project over the socket, drives the workload, checks every answer, and
// prints the run's metrics as one JSON object on the last stdout line:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1 (which also replays the request stream through each layer
// in-process; see README.md). Exits nonzero when a correctness gate fails.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "common.h"
#include "peel.h"
#include "workloads.h"

namespace perfbench {
namespace {

// The seed runs are tuned on, and a seed kept back to check that a claimed
// change holds on inputs it was not tuned on.
constexpr uint64_t kDefaultSeed = 1;
constexpr uint64_t kHeldOutSeed = 9001;

std::string LoadAverage() {
  std::ifstream in("/proc/loadavg");
  std::string a, b, c;
  in >> a >> b >> c;
  return a + " " + b + " " + c;
}

// A fixed dependent multiply-add chain; its time shows how fast this core
// ran just before and after a workload, so a run hit by a slow burst can
// be recognised. It never adjusts a metric.
double CalibrationMs() {
  volatile uint64_t sink = 0;
  uint64_t x = 1;
  int64_t start = NowNs();
  for (int i = 0; i < 20'000'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  sink = x;
  (void)sink;
  return static_cast<double>(NowNs() - start) / 1e6;
}

std::string JoinFlags(const std::vector<std::string>& flags) {
  std::string out;
  for (const std::string& flag : flags) out += (out.empty() ? "" : " ") + flag;
  return out;
}

// Whether `op` is of the request class the workload's latency metric times.
bool Primary(const Workload& workload, const Op& op) {
  if (workload.name == "edit_integrate") return op.kind == Op::Kind::kIntegrate;
  return true;
}

// End-to-end metrics of one socket run, plus the human-readable lines.
void EndToEnd(const Workload& workload, const SocketResult& socket,
              Report* report) {
  std::map<std::string, Latencies> by_verb;
  Latencies primary;
  std::vector<int64_t> completions;
  for (const Span& span : socket.spans) {
    const Op& op = workload.ops[static_cast<size_t>(span.op)];
    int64_t ns = span.end_ns - span.start_ns;
    by_verb[op.verb()].Add(ns);
    if (Primary(workload, op)) primary.Add(ns);
    completions.push_back(span.end_ns);
  }
  for (const auto& [verb, latencies] : by_verb) {
    PrintLatency(verb, latencies);
  }
  // Throughput as the median of its distribution over time, so one slow
  // burst cannot swing it: per 250 ms window for the open-ended loops, per
  // DDA edit cycle (four requests) for edit_integrate, whose ~10 cycles a
  // second would make window counts coarse. The p90 is printed beside it.
  std::vector<double> rates;
  if (workload.name == "edit_integrate") {
    // Per edit: its first request's start and its last request's end.
    std::map<int64_t, std::pair<int64_t, int64_t>> cycles;
    for (const Span& span : socket.spans) {
      auto [it, fresh] = cycles.try_emplace(span.group, span.start_ns,
                                            span.end_ns);
      if (!fresh) it->second.second = span.end_ns;
    }
    for (const auto& [cycle, bounds] : cycles) {
      rates.push_back(4e9 / static_cast<double>(bounds.second - bounds.first));
    }
    std::printf("throughput over %zu edit cycles", rates.size());
  } else {
    rates = WindowRates(completions, socket.begin_ns, socket.end_ns,
                        250'000'000);
    std::printf("throughput over %zu windows of 0.25 s", rates.size());
  }
  const double ops = Median(rates);
  std::printf(": median %.3f/s, p90 %.3f/s", ops, Percentile(rates, 0.9));
  double elapsed = static_cast<double>(socket.end_ns - socket.begin_ns) / 1e9;
  std::printf("; total %zu requests in %.3f s = %.1f/s\n", socket.spans.size(),
              elapsed, elapsed > 0 ? socket.spans.size() / elapsed : 0);
  std::printf("setup_s samples:");
  for (double s : socket.setup_s) std::printf(" %.4f", s);
  std::printf("\n");

  if (workload.name == "read_hot") {
    std::printf("named: read_p50_us=%.2f read_p10_us=%.2f (n=%zu)\n",
                primary.P(0.5), primary.P(0.1), primary.us.size());
  } else if (workload.name == "edit_integrate") {
    std::printf("named: rank_p50_us=%.2f (n=%zu) integrate_p10_ms=%.3f "
                "integrate_p50_ms=%.3f integrate_p90_ms=%.3f (n=%zu)\n",
                by_verb["rank"].P(0.5), by_verb["rank"].us.size(),
                primary.P(0.1) / 1000, primary.P(0.5) / 1000,
                primary.P(0.9) / 1000, primary.us.size());
  } else {
    std::printf("named: write_p50_us=%.2f write_p10_us=%.2f (n=%zu)\n",
                primary.P(0.5), primary.P(0.1), primary.us.size());
  }
  report->Set("ops_per_s", ops, "1/s");
  report->Set("latency_p50_us", primary.P(0.5), "us");
  report->Set("setup_s", Median(socket.setup_s), "s");
  report->Set("server_rss_mb", socket.rss_mb, "MB");
}

// Work counts that must repeat exactly across runs of one build and seed.
void Fingerprint(const Workload& workload, const SocketResult& socket,
                 Report* report) {
  const MetricsSnapshot& b = socket.before;
  const MetricsSnapshot& a = socket.after;
  const bool edits = workload.name == "edit_integrate";
  std::printf("fingerprint: requests%s", edits ? " per pass" : "");
  for (const auto& [name, value] : a.values) {
    if (name.rfind("requests.", 0) != 0 || name == "requests.metrics") continue;
    double delta = Delta(b, a, name);
    if (delta != 0) std::printf(" %s=%.0f", name.c_str() + 9, delta);
  }
  std::printf("\n");
  if (edits) {
    // Both passes replay the same stream on a fresh server, so their
    // counters must agree exactly, as they must across runs of a seed.
    bool drift = false;
    std::printf("fingerprint (pass 1/pass 2):");
    for (const char* name : {"closure.row_compositions",
                             "closure.worklist_pops", "requests.integrate"}) {
      double first = Delta(b, a, name);
      double repeat = Delta(socket.repeat_before, socket.repeat_after, name);
      std::printf(" %s=%.0f/%.0f", name, first, repeat);
      drift = drift || first != repeat;
    }
    std::printf(" -> %s (must repeat exactly per seed)\n",
                drift ? "DRIFT" : "equal");
  }
  if (workload.name == "write_durable") {
    double appends = Delta(b, a, "journal.appends");
    double acked = static_cast<double>(socket.spans.size());
    std::printf("fingerprint: journal.appends=%.0f acked_writes=%.0f -> %s\n",
                appends, acked, appends == acked ? "equal" : "DRIFT");
    if (appends != acked) {
      report->Fail("journal_appends",
                   "journal appends differ from acknowledged writes");
    }
  }
}

void PrintFailures(const std::string& label, const Failures& failures) {
  std::printf("%s failures: %lld of %lld attempted (%.4f%%)", label.c_str(),
              static_cast<long long>(failures.failed()),
              static_cast<long long>(failures.attempted),
              failures.attempted > 0
                  ? 100.0 * failures.failed() / failures.attempted
                  : 0.0);
  for (const auto& [cause, n] : failures.by_cause) {
    std::printf(" %s=%lld", cause.c_str(), static_cast<long long>(n));
  }
  std::printf("\n");
}

SocketResult RunOnce(const Workload& workload, const Context& context,
                     Report* report, const AfterRequest& after = {}) {
  std::printf("calibration before: %.2f ms\n", CalibrationMs());
  SocketResult socket = RunSocket(workload, context, report, after);
  std::printf("calibration after: %.2f ms\n", CalibrationMs());
  PrintFailures(workload.name, socket.failures);
  // At the recorded configuration no request fails, so any failure (an
  // error reply, a wrong or unparseable one, a disconnect or a timeout)
  // fails the run; so does a timed phase that completed nothing.
  if (socket.failures.failed() > 0) {
    report->Fail("requests", std::to_string(socket.failures.failed()) +
                                 " of " +
                                 std::to_string(socket.failures.attempted) +
                                 " requests failed");
  }
  if (socket.spans.empty()) {
    report->Fail("requests", "no request completed in the timed phase");
  }
  if (report->correct) {
    EndToEnd(workload, socket, report);
    Fingerprint(workload, socket, report);
  }
  return socket;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload read_hot|edit_integrate|"
               "write_durable --seed N --seconds S --trace 0|1 "
               "--bin-dir DIR --work-dir DIR\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload_name, bin_dir, work_dir;
  Context context;
  context.seed = kDefaultSeed;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      context.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      context.seconds = std::stoi(value);
    } else if (flag == "--trace") {
      trace = std::stoi(value);
    } else if (flag == "--bin-dir") {
      bin_dir = value;
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || bin_dir.empty() || work_dir.empty() ||
      context.seconds < 1 || (trace != 0 && trace != 1)) {
    return Usage();
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "refusing a %s build: measure Release only\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  Workload workload;
  if (workload_name == "read_hot") {
    workload = BuildReadHot(context.seed);
  } else if (workload_name == "edit_integrate") {
    workload = BuildEditIntegrate(context.seed);
  } else if (workload_name == "write_durable") {
    workload = BuildWriteDurable(context.seed);
  } else {
    return Usage();
  }
  context.server_binary = bin_dir + "/ecrint_serve";
  context.work_dir = work_dir + "/run-" + std::to_string(getpid());
  std::filesystem::create_directories(context.work_dir);

  const Config config = ConfigFor(workload.name);
  std::printf("host: nproc=%ld build=%s loadavg_start=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE,
              LoadAverage().c_str());
  std::printf("config: workload=%s seed=%llu default_seed=%llu "
              "held_out_seed=%llu seconds=%d trace=%d setups=%d "
              "client_threads=%d connections=%d ops_in_table=%zu\n",
              workload.name.c_str(),
              static_cast<unsigned long long>(context.seed),
              static_cast<unsigned long long>(kDefaultSeed),
              static_cast<unsigned long long>(kHeldOutSeed), context.seconds,
              trace, config.setups, config.client_threads, config.connections,
              workload.ops.size());
  std::printf("server flags: %s\n", JoinFlags(config.server_flags).c_str());
  if (!config.follower_flags.empty()) {
    std::printf("follower flags: %s\n",
                JoinFlags(config.follower_flags).c_str());
  }

  Report report;
  if (trace == 0) {
    SocketResult socket = RunOnce(workload, context, &report);
    report.failures = socket.failures;
  } else {
    // Untraced first, then traced: the difference is the tracing overhead.
    Report untraced;
    SocketResult plain = RunOnce(workload, context, &untraced);
    std::printf("--- traced socket run ---\n");
    LayerPeel peel(workload, context, &report);
    Report traced;
    SocketResult socket =
        RunOnce(workload, context, &traced, peel.Hook());
    for (const auto& [name, metric] : traced.metrics) {
      auto it = untraced.metrics.find(name);
      if (it == untraced.metrics.end()) continue;
      std::printf("tracing overhead %s: %.4f - %.4f = %+.4f %s\n",
                  name.c_str(), metric.value, it->second.value,
                  metric.value - it->second.value, metric.unit.c_str());
    }
    // `report` already holds the peel's own gates; keep their verdict.
    report.correct = report.correct && untraced.correct && traced.correct;
    report.failures = plain.failures;
    report.failures.Merge(socket.failures);
    if (report.correct) {
      std::string traces = work_dir + "/traces";
      std::filesystem::create_directories(traces);
      peel.Finish(socket, traces + "/" + workload.name + "-seed" +
                              std::to_string(context.seed) + ".jsonl");
    }
  }
  std::filesystem::remove_all(context.work_dir);
  std::printf("host: loadavg_end=%s\n", LoadAverage().c_str());

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<long long>(report.failures.attempted),
              static_cast<long long>(report.failures.failed()));
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
