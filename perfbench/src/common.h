// Shared pieces of the socket-level benchmark: timing, percentile and
// window statistics, the request model every layer replays, and the
// run report the benchmark prints.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/object_ref.h"
#include "core/request_translation.h"
#include "core/resemblance.h"
#include "ecr/attribute.h"
#include "service/protocol.h"
#include "service/service.h"

namespace perfbench {

namespace core = ecrint::core;
namespace ecr = ecrint::ecr;
namespace service = ecrint::service;

int64_t NowNs();

// Sorted-sample percentile (nearest rank); 0 for an empty set.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

// The highest percentile (from a fixed ladder: 50, 75, 90, 95, 99, 99.9)
// that still has at least ten samples beyond it; 0 when even p50 has not.
double TailPercentileWithTenBeyond(size_t count);

// Completed operations per second in each fixed window of the measured
// interval [begin_ns, end_ns); a partial trailing window is dropped.
std::vector<double> WindowRates(const std::vector<int64_t>& completions_ns,
                                int64_t begin_ns, int64_t end_ns,
                                int64_t window_ns);

// One request of a workload stream, kept in structured form so every layer
// can be driven with exactly the same operation: its wire forms (binary
// frame, text line), the service command the router would build, and the
// fields the engine and core entry points take.
struct Op {
  enum class Kind { kRank, kSuggest, kOutline, kTranslate, kEquiv, kAssert,
                    kIntegrate };
  Kind kind = Kind::kRank;
  std::string schema1, schema2;       // rank / suggest
  bool rel = false, zero = false;     // rank
  ecr::AttributePath path_a, path_b;  // equiv
  core::ObjectRef first, second;      // assert
  int type_code = 0;                  // assert
  core::Request request;              // translate

  service::BinaryRequest wire;
  std::string frame;  // encoded binary request frame
  std::string line;   // text v1 request line, newline included
  service::ServiceCommand command;

  // The frame body (what ExtractFrame yields) and the line without its
  // newline: the forms RequestRouter::HandleFrame / HandleLine take.
  std::string_view body() const;
  std::string text() const { return line.substr(0, line.size() - 1); }

  bool is_read() const {
    return kind == Kind::kRank || kind == Kind::kSuggest ||
           kind == Kind::kOutline || kind == Kind::kTranslate;
  }
  const char* verb() const;
};

Op RankOp(const std::string& s1, const std::string& s2, bool rel, bool zero);
Op SuggestOp(const std::string& s1, const std::string& s2);
Op OutlineOp();
Op TranslateOp(const core::Request& request);
Op EquivOp(const ecr::AttributePath& a, const ecr::AttributePath& b);
Op AssertOp(const core::ObjectRef& first, int type_code,
            const core::ObjectRef& second);
Op IntegrateOp();

// One client-side span: a request as the socket client saw it. `id` is the
// request's index in the workload stream and stays its span id at every
// peel level; `group` ties the four requests of one DDA edit together.
struct Span {
  int op = 0;       // index into the workload's op table
  int conn = 0;
  int pass = 0;     // edit_integrate: which replay of the stream
  int64_t id = 0;
  int64_t group = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Counts of attempted and failed requests, failures split by cause.
struct Failures {
  int64_t attempted = 0;
  std::map<std::string, int64_t> by_cause;
  int64_t failed() const {
    int64_t total = 0;
    for (const auto& [cause, n] : by_cause) total += n;
    return total;
  }
  void Add(const std::string& cause, int64_t n = 1) { by_cause[cause] += n; }
  void Merge(const Failures& other) {
    attempted += other.attempted;
    for (const auto& [cause, n] : other.by_cause) by_cause[cause] += n;
  }
};

// A named latency sample set, printed with its count and tail.
struct Latencies {
  std::vector<double> us;
  void Add(int64_t ns) { us.push_back(static_cast<double>(ns) / 1000.0); }
  double P(double p) const { return Percentile(us, p); }
};

// The run report: metrics destined for the final JSON line, plus the
// human-readable lines printed before it.
struct Report {
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  bool correct = true;
  Failures failures;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  // Prints a named failed gate and marks the run incorrect.
  void Fail(const std::string& gate, const std::string& detail);
};

// Prints "latency <name>: n=.. p50=.. p<tail>=.." for a sample set.
void PrintLatency(const std::string& name, const Latencies& latencies);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
