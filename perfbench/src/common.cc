#include "common.h"

#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p * values.size()));
  rank = std::clamp<size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double TailPercentileWithTenBeyond(size_t count) {
  double best = 0;
  for (double p : {0.5, 0.75, 0.9, 0.95, 0.99, 0.999}) {
    if (static_cast<double>(count) * (1.0 - p) >= 10.0) best = p;
  }
  return best;
}

std::vector<double> WindowRates(const std::vector<int64_t>& completions_ns,
                                int64_t begin_ns, int64_t end_ns,
                                int64_t window_ns) {
  int64_t windows = (end_ns - begin_ns) / window_ns;
  std::vector<double> rates(static_cast<size_t>(std::max<int64_t>(windows, 0)),
                            0.0);
  for (int64_t t : completions_ns) {
    if (t < begin_ns) continue;
    int64_t w = (t - begin_ns) / window_ns;
    if (w < windows) rates[static_cast<size_t>(w)] += 1;
  }
  for (double& rate : rates) rate *= 1e9 / static_cast<double>(window_ns);
  return rates;
}

std::string_view Op::body() const {
  std::string_view body;
  size_t consumed = 0;
  std::string error;
  service::ExtractFrame(frame, &body, &consumed, &error);
  return body;
}

const char* Op::verb() const {
  return service::WireVerbName(wire.verb);
}

namespace {

// Fills the wire forms from `op.wire` (verb + args).
Op Finish(Op op) {
  op.frame = service::EncodeBinaryRequest(op.wire);
  op.line = service::WireVerbName(op.wire.verb);
  for (const std::string& arg : op.wire.args) op.line += " " + arg;
  op.line += "\n";
  return op;
}

}  // namespace

Op RankOp(const std::string& s1, const std::string& s2, bool rel, bool zero) {
  Op op;
  op.kind = Op::Kind::kRank;
  op.schema1 = s1;
  op.schema2 = s2;
  op.rel = rel;
  op.zero = zero;
  op.wire.verb = service::WireVerb::kRank;
  op.wire.args = {s1, s2};
  if (rel) op.wire.args.push_back("rel");
  if (zero) op.wire.args.push_back("zero");
  op.command.op = service::ServiceCommand::Op::kRank;
  op.command.schema1 = s1;
  op.command.schema2 = s2;
  op.command.kind = rel ? core::StructureKind::kRelationshipSet
                        : core::StructureKind::kObjectClass;
  op.command.include_zero = zero;
  return Finish(std::move(op));
}

Op SuggestOp(const std::string& s1, const std::string& s2) {
  Op op;
  op.kind = Op::Kind::kSuggest;
  op.schema1 = s1;
  op.schema2 = s2;
  op.wire.verb = service::WireVerb::kSuggest;
  op.wire.args = {s1, s2};
  op.command.op = service::ServiceCommand::Op::kSuggest;
  op.command.schema1 = s1;
  op.command.schema2 = s2;
  op.command.threshold = 0.6;
  return Finish(std::move(op));
}

Op OutlineOp() {
  Op op;
  op.kind = Op::Kind::kOutline;
  op.wire.verb = service::WireVerb::kOutline;
  op.command.op = service::ServiceCommand::Op::kOutline;
  return Finish(std::move(op));
}

Op TranslateOp(const core::Request& request) {
  Op op;
  op.kind = Op::Kind::kTranslate;
  op.request = request;
  op.wire.verb = service::WireVerb::kTranslate;
  op.wire.args = {request.structure.ToString()};
  if (!request.attributes.empty()) {
    std::string joined;
    for (const std::string& attribute : request.attributes) {
      if (!joined.empty()) joined += ",";
      joined += attribute;
    }
    op.wire.args.push_back(joined);
  }
  op.command.op = service::ServiceCommand::Op::kTranslate;
  op.command.request = request;
  op.command.to_components = false;
  return Finish(std::move(op));
}

Op EquivOp(const ecr::AttributePath& a, const ecr::AttributePath& b) {
  Op op;
  op.kind = Op::Kind::kEquiv;
  op.path_a = a;
  op.path_b = b;
  op.wire.verb = service::WireVerb::kEquiv;
  op.wire.args = {a.ToString(), b.ToString()};
  op.command.op = service::ServiceCommand::Op::kEquiv;
  op.command.path_a = a;
  op.command.path_b = b;
  return Finish(std::move(op));
}

Op AssertOp(const core::ObjectRef& first, int type_code,
            const core::ObjectRef& second) {
  Op op;
  op.kind = Op::Kind::kAssert;
  op.first = first;
  op.second = second;
  op.type_code = type_code;
  op.wire.verb = service::WireVerb::kAssert;
  op.wire.args = {first.ToString(), std::to_string(type_code),
                  second.ToString()};
  op.command.op = service::ServiceCommand::Op::kAssert;
  op.command.first = first;
  op.command.type_code = type_code;
  op.command.second = second;
  return Finish(std::move(op));
}

Op IntegrateOp() {
  Op op;
  op.kind = Op::Kind::kIntegrate;
  op.wire.verb = service::WireVerb::kIntegrate;
  op.command.op = service::ServiceCommand::Op::kIntegrate;
  return Finish(std::move(op));
}

void Report::Fail(const std::string& gate, const std::string& detail) {
  correct = false;
  std::printf("GATE FAILED %s: %s\n", gate.c_str(), detail.c_str());
  std::fflush(stdout);
  // Also on stderr, where a harness that keeps only stderr sees it.
  std::fprintf(stderr, "GATE FAILED %s: %s\n", gate.c_str(), detail.c_str());
}

void PrintLatency(const std::string& name, const Latencies& latencies) {
  double tail = TailPercentileWithTenBeyond(latencies.us.size());
  std::printf("latency %-28s n=%-7zu p50=%.2f us", name.c_str(),
              latencies.us.size(), latencies.P(0.5));
  if (tail > 0.5) {
    std::printf("  p%g=%.2f us", tail * 100, latencies.P(tail));
  }
  std::printf("\n");
}

}  // namespace perfbench
