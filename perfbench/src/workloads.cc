#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <random>
#include <thread>

#include "common/strings.h"
#include "core/assertion.h"
#include "ecr/printer.h"
#include "engine/engine.h"
#include "service/recovery.h"
#include "service/router.h"
#include "workload/generator.h"

namespace perfbench {

namespace engine = ecrint::engine;
namespace workload = ecrint::workload;

namespace {

// Input sizes. read_hot's key set must stay well under the router's
// 256-entry ResponseCache so every timed read is a hit; edit_integrate's
// two large schemas make each integrate cost tens of milliseconds.
constexpr int kReadHotSchemas = 4;
constexpr int kReadHotConcepts = 12;
constexpr int kEditConcepts = 310;    // ~250 per schema
constexpr int kEditPasses = 2;
constexpr int kWriteSchemas = 3;
constexpr int kWriteConcepts = 40;
constexpr int kWriters = 2;
// read_hot's verb mix, in percent: bench/perf_service.cc's read mix
// (rank 2 : suggest 1 : outline 1) with translate, the federation client's
// read, added at the weight that mix gives each of its lesser reads.
constexpr uint64_t kRankEnd = 40;
constexpr uint64_t kSuggestEnd = 60;
constexpr uint64_t kOutlineEnd = 80;

// `full_coverage` puts every concept and attribute into every schema, so
// schema sizes, and with them the reply sizes, do not vary with the seed.
workload::Workload Generate(uint64_t seed, int schemas, int concepts,
                            bool full_coverage = false) {
  workload::GeneratorConfig config;
  config.seed = seed;
  config.num_schemas = schemas;
  config.num_concepts = concepts;
  if (full_coverage) {
    config.concept_coverage = 1.0;
    config.attribute_coverage = 1.0;
  }
  ecrint::Result<workload::Workload> generated =
      workload::GenerateWorkload(config);
  if (!generated.ok()) {
    std::fprintf(stderr, "generator failed: %s\n",
                 generated.status().ToString().c_str());
    std::exit(2);
  }
  return *std::move(generated);
}

void AddDefines(const workload::Workload& generated, Workload* out) {
  out->schemas = generated.schema_names;
  for (const std::string& name : generated.schema_names) {
    std::string ddl = ecr::ToDdl(**generated.catalog.GetSchema(name));
    out->seed.push_back(
        {"define " + service::EscapeField(ddl), engine::DefineVerb(ddl)});
  }
}

SeedStep SeedOf(const Op& op) { return {op.text(), ReplayVerbFor(op)}; }

Op EquivOf(const workload::TrueAttributeMatch& match) {
  return EquivOp(match.first, match.second);
}

Op AssertOf(const workload::TrueObjectRelation& relation) {
  return AssertOp(relation.first, core::AssertionTypeCode(relation.assertion),
                  relation.second);
}

}  // namespace

ecrint::engine::ReplayVerb ReplayVerbFor(const Op& op) {
  switch (op.kind) {
    case Op::Kind::kEquiv:
      return engine::EquivalenceVerb(op.path_a, op.path_b);
    case Op::Kind::kAssert:
      return engine::RelationVerb(op.first, op.type_code, op.second);
    default:
      return engine::IntegrateVerb({});
  }
}

Workload BuildReadHot(uint64_t seed) {
  workload::Workload generated =
      Generate(seed, kReadHotSchemas, kReadHotConcepts, true);
  Workload out;
  out.name = "read_hot";
  AddDefines(generated, &out);
  for (const auto& match : generated.attribute_matches) {
    out.seed.push_back(SeedOf(EquivOf(match)));
  }
  for (const auto& relation : generated.object_relations) {
    out.seed.push_back(SeedOf(AssertOf(relation)));
  }
  out.seed.push_back(SeedOf(IntegrateOp()));

  // The key set: every rank / suggest variant over every ordered schema
  // pair, the outline, and one translate per component object class.
  const std::vector<std::string>& names = out.schemas;
  for (const std::string& a : names) {
    for (const std::string& b : names) {
      if (a == b) continue;
      out.ops.push_back(RankOp(a, b, false, false));
      out.ops.push_back(RankOp(a, b, false, true));
      out.ops.push_back(RankOp(a, b, true, false));
      out.ops.push_back(SuggestOp(a, b));
    }
  }
  out.ops.push_back(OutlineOp());
  for (const std::string& name : names) {
    const ecr::Schema& schema = **generated.catalog.GetSchema(name);
    for (int id = 0; id < schema.num_objects(); ++id) {
      const ecr::ObjectClass& object = schema.object(id);
      core::Request request;
      request.structure = {name, object.name};
      for (size_t i = 0; i < object.attributes.size() && i < 2; ++i) {
        request.attributes.push_back(object.attributes[i].name);
      }
      out.ops.push_back(TranslateOp(request));
    }
  }
  return out;
}

Workload BuildEditIntegrate(uint64_t seed) {
  workload::Workload generated = Generate(seed, 2, kEditConcepts);
  Workload out;
  out.name = "edit_integrate";
  AddDefines(generated, &out);

  std::mt19937_64 rng(seed ^ 0x5eedULL);
  std::vector<workload::TrueAttributeMatch> matches =
      generated.attribute_matches;
  std::vector<workload::TrueObjectRelation> relations =
      generated.object_relations;
  std::shuffle(matches.begin(), matches.end(), rng);
  std::shuffle(relations.begin(), relations.end(), rng);

  // Seed a quarter of the true assertions and every equivalence except
  // one reserved per remaining assertion; the timed loop replays the rest
  // as equiv -> rank -> assert -> integrate.
  size_t seeded_asserts = relations.size() / 4;
  size_t edits = std::min(relations.size() - seeded_asserts, matches.size());
  for (size_t i = edits; i < matches.size(); ++i) {
    out.seed.push_back(SeedOf(EquivOf(matches[i])));
  }
  for (size_t i = 0; i < seeded_asserts; ++i) {
    out.seed.push_back(SeedOf(AssertOf(relations[i])));
  }
  out.seed.push_back(SeedOf(IntegrateOp()));

  for (size_t g = 0; g < edits; ++g) {
    out.ops.push_back(EquivOf(matches[g]));
    out.ops.push_back(RankOp(out.schemas[0], out.schemas[1], false, false));
    out.ops.push_back(AssertOf(relations[seeded_asserts + g]));
    out.ops.push_back(IntegrateOp());
  }
  return out;
}

Workload BuildWriteDurable(uint64_t seed) {
  workload::Workload generated = Generate(seed, kWriteSchemas, kWriteConcepts);
  Workload out;
  out.name = "write_durable";
  AddDefines(generated, &out);
  for (const auto& match : generated.attribute_matches) {
    out.ops.push_back(EquivOf(match));
  }
  for (const auto& relation : generated.object_relations) {
    out.ops.push_back(AssertOf(relation));
  }
  std::mt19937_64 rng(seed ^ 0xd0ab1eULL);
  std::vector<int> order(out.ops.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::shuffle(order.begin(), order.end(), rng);
  out.writer_items.resize(kWriters);
  for (size_t i = 0; i < order.size(); ++i) {
    out.writer_items[i % kWriters].push_back(order[i]);
  }
  return out;
}

Config ConfigFor(const std::string& workload) {
  Config config;
  if (workload == "read_hot") {
    config.setups = 11;
    config.client_threads = 4;
    config.connections = 4;
    config.server_flags = {"--net-threads", "2"};
  } else if (workload == "edit_integrate") {
    config.setups = 7;
    config.client_threads = 1;
    config.connections = 1;
    config.server_flags = {"--net-threads", "1"};
  } else {
    config.setups = 11;
    config.client_threads = kWriters;
    config.connections = kWriters;
    config.server_flags = {"--net-threads", "2", "--fsync", "always",
                           "--checkpoint-interval", "256", "--role",
                           "leader"};
    config.follower_flags = {"--net-threads", "1", "--role", "follower"};
  }
  return config;
}

std::string ExportLines(const std::string& engine_export) {
  std::vector<std::string> lines = ecrint::Split(engine_export, '\n');
  while (!lines.empty() && lines.back().empty()) lines.pop_back();
  return ecrint::Join(lines, "\n");
}

std::string EngineExport(const Workload& workload, const std::vector<Op>& ops) {
  engine::Engine engine;
  engine::BeginReplay(engine);
  for (const SeedStep& step : workload.seed) {
    (void)engine::ApplyReplayVerb(engine, step.verb);
  }
  // Integrate changes nothing an export contains (catalog, equivalences,
  // assertions), so only the edits are replayed.
  for (const Op& op : ops) {
    if (op.kind == Op::Kind::kEquiv || op.kind == Op::Kind::kAssert) {
      (void)engine::ApplyReplayVerb(engine, ReplayVerbFor(op));
    }
  }
  return ExportLines(engine.ExportProject());
}

namespace {

// Classifies a reply that is not the expected one.
void CountFailure(const std::string& wire, bool binary, Failures* failures) {
  service::ServiceResponse response;
  if (!DecodeWire(wire, binary, &response)) {
    failures->Add("unparseable");
  } else if (!response.ok()) {
    failures->Add(service::ServiceErrorCodeName(response.error->code));
  } else {
    failures->Add("mismatch");
  }
}

bool SeedServer(Conn& conn, const Workload& workload, Report* report) {
  for (const SeedStep& step : workload.seed) {
    service::ServiceResponse response;
    if (!conn.CallText(step.line + "\n", &response) || !response.ok()) {
      report->Fail("seed", "seeding request failed: " +
                               step.line.substr(0, 60));
      return false;
    }
  }
  return true;
}

// True when `wire` is a batch response frame of `count` ok replies.
bool AllOk(const std::string& wire, size_t count) {
  std::string_view body;
  size_t consumed = 0;
  std::string error;
  if (service::ExtractFrame(wire, &body, &consumed, &error) !=
      service::FrameStatus::kComplete) {
    return false;
  }
  ecrint::Result<service::DecodedResponse> decoded =
      service::DecodeBinaryResponse(body);
  if (!decoded.ok() || !decoded->batch || decoded->items.size() != count) {
    return false;
  }
  for (const service::ServiceResponse& item : decoded->items) {
    if (!item.ok()) return false;
  }
  return true;
}

bool FetchMetrics(Conn& conn, MetricsSnapshot* out) {
  std::string json;
  return conn.Metrics(&json) && ParseMetrics(json, out);
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// Every request a closed-loop client thread completed.
struct ThreadLog {
  std::vector<Span> spans;
  Failures failures;
};

// Runs `threads` closed-loop clients from a common start for `seconds`;
// `step(t, log)` sends one request on thread t and returns false when the
// connection is unusable.
template <typename Step>
void RunClosedLoop(int threads, int seconds, Step step, SocketResult* result) {
  std::vector<ThreadLog> logs(static_cast<size_t>(threads));
  std::atomic<int64_t> begin{0};
  int64_t duration = static_cast<int64_t>(seconds) * 1'000'000'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ThreadLog& log = logs[static_cast<size_t>(t)];
      log.spans.reserve(1u << 18);
      int64_t start_at = 0;
      while ((start_at = begin.load()) == 0) std::this_thread::yield();
      while (NowNs() < start_at) {
      }
      int64_t end_at = start_at + duration;
      while (NowNs() < end_at) {
        if (!step(t, log)) break;
      }
    });
  }
  result->begin_ns = NowNs() + 2'000'000;
  begin.store(result->begin_ns);
  for (std::thread& worker : workers) worker.join();
  result->end_ns = result->begin_ns + duration;
  for (ThreadLog& log : logs) {
    result->failures.Merge(log.failures);
    result->spans.insert(result->spans.end(), log.spans.begin(),
                         log.spans.end());
  }
}

void FinishSpans(SocketResult* result) {
  std::sort(result->spans.begin(), result->spans.end(),
            [](const Span& a, const Span& b) {
              return a.start_ns < b.start_ns;
            });
  for (size_t i = 0; i < result->spans.size(); ++i) {
    result->spans[i].id = static_cast<int64_t>(i);
  }
}

std::vector<std::string> WithPort(std::vector<std::string> flags) {
  flags.insert(flags.begin(), {"--port", "0"});
  return flags;
}

// --- read_hot ---------------------------------------------------------------

SocketResult RunReadHot(const Workload& workload, const Context& context,
                        Report* report) {
  const Config config = ConfigFor(workload.name);
  SocketResult result;

  // The reference replies: an identically seeded in-process router.
  std::vector<std::string> expect_binary, expect_text;
  {
    service::IntegrationService reference;
    service::RequestRouter router(&reference);
    service::RouterSession session;
    router.HandleLine("open " + workload.project, &session);
    for (const SeedStep& step : workload.seed) {
      router.HandleLine(step.line, &session);
    }
    for (const Op& op : workload.ops) {
      expect_text.push_back(router.HandleLine(op.text(), &session));
    }
    session.protocol_version = service::kProtocolBinaryVersion;
    for (const Op& op : workload.ops) {
      expect_binary.push_back(router.HandleFrame(op.body(), &session));
    }
  }

  ServerProcess server;
  std::vector<std::unique_ptr<Conn>> conns;
  // Half the set-ups run before the timed phase (the last of them serves
  // it) and half after the gates, so setup_s samples the host twice.
  auto set_up = [&](int) -> bool {
    conns.clear();
    server.Stop();
    int64_t t0 = NowNs();
    std::string error;
    if (!server.Start(context.server_binary, WithPort(config.server_flags),
                      &error)) {
      report->Fail("server", error);
      return false;
    }
    // Three binary connections and one text connection; the text one
    // seeds the project and later reads the server's counters.
    for (int c = 0; c < config.connections; ++c) {
      conns.push_back(std::make_unique<Conn>());
      if (!conns.back()->Connect(server.port(), workload.project,
                                 c + 1 < config.connections, &error)) {
        report->Fail("connect", error);
        return false;
      }
    }
    if (!SeedServer(*conns.back(), workload, report)) return false;
    // Warm the response cache with one batch frame holding every key, so
    // every timed read is a hit (each timed reply is compared byte for
    // byte). One round trip keeps set-up from being a string of them.
    std::vector<service::BinaryRequest> batch;
    for (const Op& op : workload.ops) batch.push_back(op.wire);
    std::string wire;
    if (!conns.front()->RoundTrip(service::EncodeBinaryBatch(batch), &wire) ||
        !AllOk(wire, workload.ops.size())) {
      report->Fail("read_reply", "warm-up batch failed");
      return false;
    }
    result.setup_s.push_back(Seconds(NowNs() - t0));
    return true;
  };
  const int before = (config.setups + 1) / 2;
  for (int s = 0; s < before; ++s) {
    if (!set_up(s)) return result;
  }
  if (!FetchMetrics(*conns.back(), &result.before)) {
    report->Fail("metrics", "metrics verb failed");
  }

  // Draw the verb first, with fixed weights, then a key of that verb, so
  // the verb mix (and with it the pooled p50) does not depend on how many
  // objects the seed's schemas happen to have.
  std::vector<std::vector<int>> by_verb(4);
  for (size_t k = 0; k < workload.ops.size(); ++k) {
    by_verb[static_cast<size_t>(workload.ops[k].kind)].push_back(
        static_cast<int>(k));
  }
  static_assert(static_cast<int>(Op::Kind::kRank) == 0 &&
                static_cast<int>(Op::Kind::kSuggest) == 1 &&
                static_cast<int>(Op::Kind::kOutline) == 2 &&
                static_cast<int>(Op::Kind::kTranslate) == 3);
  auto draw = [&](std::mt19937_64& rng) {
    uint64_t r = rng() % 100;
    const std::vector<int>& keys = r < kRankEnd      ? by_verb[0]
                                   : r < kSuggestEnd ? by_verb[1]
                                   : r < kOutlineEnd ? by_verb[2]
                                                     : by_verb[3];
    return keys[rng() % keys.size()];
  };
  std::vector<std::mt19937_64> rngs;
  for (int t = 0; t < config.client_threads; ++t) {
    rngs.emplace_back(context.seed * 1'000'003ULL + static_cast<uint64_t>(t));
  }
  std::vector<std::string> wires(rngs.size());
  RunClosedLoop(
      config.client_threads, context.seconds,
      [&](int t, ThreadLog& log) {
        std::string& wire = wires[static_cast<size_t>(t)];
        Conn& conn = *conns[static_cast<size_t>(t)];
        int k = draw(rngs[static_cast<size_t>(t)]);
        const Op& op = workload.ops[static_cast<size_t>(k)];
        ++log.failures.attempted;
        int64_t start = NowNs();
        bool ok = conn.RoundTrip(conn.binary() ? op.frame : op.line, &wire);
        int64_t end = NowNs();
        if (!ok) {
          log.failures.Add("disconnect_or_timeout");
          return false;
        }
        const std::string& expected =
            conn.binary() ? expect_binary[static_cast<size_t>(k)]
                          : expect_text[static_cast<size_t>(k)];
        if (wire != expected) {
          CountFailure(wire, conn.binary(), &log.failures);
          return true;
        }
        Span span;
        span.op = k;
        span.start_ns = start;
        span.end_ns = end;
        span.conn = t;
        log.spans.push_back(span);
        return true;
      },
      &result);
  FinishSpans(&result);

  if (!FetchMetrics(*conns.back(), &result.after)) {
    report->Fail("metrics", "metrics verb failed");
  }
  result.rss_mb = server.PeakRssMb();
  conns.clear();
  if (!server.Stop()) report->Fail("server", "server did not drain cleanly");

  for (int s = before; s < config.setups; ++s) {
    if (!set_up(s)) return result;
  }
  conns.clear();
  server.Stop();
  return result;
}

// --- edit_integrate ----------------------------------------------------------

SocketResult RunEditIntegrate(const Workload& workload, const Context& context,
                              Report* report, const AfterRequest& after) {
  const Config config = ConfigFor(workload.name);
  SocketResult result;
  ServerProcess server;
  Conn dda;
  // Half the set-ups run before the timed phase (the last of them serves
  // its first pass, the next one its repeat pass) and the rest after the
  // gates, so setup_s samples the host more than once.
  auto set_up = [&](int) -> bool {
    dda.Close();
    server.Stop();
    int64_t t0 = NowNs();
    std::string error;
    if (!server.Start(context.server_binary, WithPort(config.server_flags),
                      &error)) {
      report->Fail("server", error);
      return false;
    }
    {
      Conn seeder;
      if (!seeder.Connect(server.port(), workload.project, false, &error)) {
        report->Fail("connect", error);
        return false;
      }
      if (!SeedServer(seeder, workload, report)) return false;
    }
    if (!dda.Connect(server.port(), workload.project, true, &error)) {
      report->Fail("connect", error);
      return false;
    }
    result.setup_s.push_back(Seconds(NowNs() - t0));
    return true;
  };
  const int before = (config.setups + 1) / 2;
  for (int s = 0; s < before; ++s) {
    if (!set_up(s)) return result;
  }

  // Fixed work: the whole edit stream, once per pass, so every run of a
  // seed does identical engine work and the closure counters repeat
  // exactly. The repeat pass runs on the next set-up's fresh server: two
  // passes some 20 s apart sample the host twice, so one slow spell moves
  // half the samples, not all of them.
  const std::string expected_export = EngineExport(workload, workload.ops);
  const size_t edits = workload.ops.size() / 4;
  int64_t timed_ns = 0;
  std::string wire;
  for (int pass = 0; pass < kEditPasses; ++pass) {
    if (pass > 0) {
      dda.Close();
      if (!server.Stop()) {
        report->Fail("server", "server did not drain cleanly");
      }
      if (!set_up(before + pass - 1)) return result;
    }
    MetricsSnapshot& counters_before =
        pass == 0 ? result.before : result.repeat_before;
    MetricsSnapshot& counters_after =
        pass == 0 ? result.after : result.repeat_after;
    if (!FetchMetrics(dda, &counters_before)) {
      report->Fail("metrics", "metrics verb failed");
    }
    const int64_t pass_begin = NowNs();
    if (pass == 0) result.begin_ns = pass_begin;
    for (size_t i = 0; i < workload.ops.size(); ++i) {
      const Op& op = workload.ops[i];
      ++result.failures.attempted;
      int64_t start = NowNs();
      bool ok = dda.RoundTrip(op.frame, &wire);
      int64_t end = NowNs();
      if (!ok) {
        result.failures.Add("disconnect_or_timeout");
        break;
      }
      service::ServiceResponse response;
      if (!DecodeWire(wire, true, &response) || !response.ok()) {
        CountFailure(wire, true, &result.failures);
        continue;
      }
      Span span;
      span.op = static_cast<int>(i);
      span.pass = pass;
      span.start_ns = start;
      span.end_ns = end;
      span.group = static_cast<int64_t>(static_cast<size_t>(pass) * edits +
                                        i / 4);
      result.spans.push_back(span);
      // The traced run's peel follows the first pass only.
      if (after && pass == 0) after(i);
    }
    timed_ns += NowNs() - pass_begin;

    if (!FetchMetrics(dda, &counters_after)) {
      report->Fail("metrics", "metrics verb failed");
    }
    std::string exported;
    if (!dda.Export(&exported)) {
      report->Fail("export", "export failed");
    } else if (exported != expected_export) {
      report->Fail("export", "server export differs from an in-process "
                             "engine fed the same edits");
    }
    result.rss_mb = std::max(result.rss_mb, server.PeakRssMb());
  }
  // The passes' timed phases laid end to end, without the set-up between.
  result.end_ns = result.begin_ns + timed_ns;
  FinishSpans(&result);
  dda.Close();
  if (!server.Stop()) report->Fail("server", "server did not drain cleanly");

  for (int s = before + kEditPasses - 1; s < config.setups; ++s) {
    if (!set_up(s)) return result;
  }
  dda.Close();
  server.Stop();
  return result;
}

// --- write_durable -----------------------------------------------------------

// Polls the follower until its export equals `target`.
bool AwaitFollower(Conn& follower, const std::string& target,
                   int64_t timeout_ns) {
  int64_t deadline = NowNs() + timeout_ns;
  std::string exported;
  while (NowNs() < deadline) {
    if (follower.Export(&exported) && exported == target) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return false;
}

SocketResult RunWriteDurable(const Workload& workload, const Context& context,
                             Report* report) {
  const Config config = ConfigFor(workload.name);
  SocketResult result;
  ServerProcess leader, follower;
  Conn control, follower_conn;
  std::vector<std::unique_ptr<Conn>> writers;
  std::string data_dir;
  std::vector<std::string> leader_flags;

  auto start_leader = [&](std::string* error) {
    return leader.Start(context.server_binary, WithPort(leader_flags),
                        error) &&
           control.Connect(leader.port(), workload.project, false, error);
  };

  // Half the set-ups run before the timed phase (the last of them serves
  // it) and half after the gates, so setup_s samples the host twice.
  auto set_up = [&](int s) -> bool {
    writers.clear();
    control.Close();
    follower_conn.Close();
    follower.Kill();
    leader.Kill();
    data_dir = context.work_dir + "/write_durable-" + std::to_string(s);
    std::filesystem::remove_all(data_dir);
    leader_flags = config.server_flags;
    leader_flags.insert(leader_flags.end(), {"--data-dir", data_dir});

    int64_t t0 = NowNs();
    std::string error;
    if (!start_leader(&error)) {
      report->Fail("server", error);
      return false;
    }
    if (!SeedServer(control, workload, report)) return false;
    // Restart through recovery: a crash, then the journal replay.
    control.Close();
    leader.Kill();
    if (!start_leader(&error)) {
      report->Fail("server", "leader restart: " + error);
      return false;
    }
    std::vector<std::string> follower_flags = config.follower_flags;
    follower_flags.insert(
        follower_flags.end(),
        {"--leader-addr", "127.0.0.1:" + std::to_string(leader.port()),
         "--follow", workload.project});
    if (!follower.Start(context.server_binary, WithPort(follower_flags),
                        &error) ||
        !follower_conn.Connect(follower.port(), workload.project, false,
                               &error)) {
      report->Fail("server", "follower: " + error);
      return false;
    }
    std::string leader_export;
    if (!control.Export(&leader_export) ||
        !AwaitFollower(follower_conn, leader_export, 20'000'000'000)) {
      report->Fail("follower_export", "follower never caught up at set-up");
      return false;
    }
    for (int w = 0; w < config.connections; ++w) {
      writers.push_back(std::make_unique<Conn>());
      if (!writers.back()->Connect(leader.port(), workload.project, true,
                                   &error)) {
        report->Fail("connect", error);
        return false;
      }
    }
    result.setup_s.push_back(Seconds(NowNs() - t0));
    return true;
  };
  const int before = (config.setups + 1) / 2;
  for (int s = 0; s < before; ++s) {
    if (!set_up(s)) return result;
  }
  if (!FetchMetrics(control, &result.before) ||
      !FetchMetrics(follower_conn, &result.follower_before)) {
    report->Fail("metrics", "metrics verb failed");
  }

  std::vector<size_t> cursor(writers.size(), 0);
  std::vector<std::string> wires(writers.size());
  RunClosedLoop(
      config.client_threads, context.seconds,
      [&](int t, ThreadLog& log) {
        std::string& wire = wires[static_cast<size_t>(t)];
        const std::vector<int>& items =
            workload.writer_items[static_cast<size_t>(t)];
        size_t& next = cursor[static_cast<size_t>(t)];
        int k = items[next++ % items.size()];
        const Op& op = workload.ops[static_cast<size_t>(k)];
        ++log.failures.attempted;
        int64_t start = NowNs();
        bool ok = writers[static_cast<size_t>(t)]->RoundTrip(op.frame, &wire);
        int64_t end = NowNs();
        if (!ok) {
          log.failures.Add("disconnect_or_timeout");
          return false;
        }
        service::ServiceResponse response;
        if (!DecodeWire(wire, true, &response) || !response.ok()) {
          CountFailure(wire, true, &log.failures);
          return true;
        }
        Span span;
        span.op = k;
        span.start_ns = start;
        span.end_ns = end;
        span.conn = t;
        log.spans.push_back(span);
        return true;
      },
      &result);
  FinishSpans(&result);

  if (!FetchMetrics(control, &result.after)) {
    report->Fail("metrics", "metrics verb failed");
  }
  result.rss_mb = leader.PeakRssMb();
  std::string before_kill;
  if (!control.Export(&before_kill)) {
    report->Fail("export", "leader export failed");
  } else if (!AwaitFollower(follower_conn, before_kill, 20'000'000'000)) {
    report->Fail("follower_export",
                 "follower export differs from the leader's after the run");
  }
  if (!FetchMetrics(follower_conn, &result.follower_after)) {
    report->Fail("metrics", "follower metrics verb failed");
  }
  writers.clear();
  follower_conn.Close();
  if (!follower.Stop()) report->Fail("server", "follower did not drain");

  // kill -9, restart from the data dir: every acknowledged write survives.
  control.Close();
  leader.Kill();
  std::string error, after_restart;
  if (!start_leader(&error) || !control.Export(&after_restart)) {
    report->Fail("restart_export", "leader restart failed: " + error);
  } else if (after_restart != before_kill) {
    report->Fail("restart_export",
                 "export after kill -9 and restart differs from the last "
                 "export before the kill");
  }
  control.Close();
  if (!leader.Stop()) report->Fail("server", "leader did not drain cleanly");
  result.leader_project_dir =
      data_dir + "/" + service::ProjectDirName(workload.project);

  for (int s = before; s < config.setups; ++s) {
    if (!set_up(s)) return result;
  }
  writers.clear();
  control.Close();
  follower_conn.Close();
  follower.Stop();
  leader.Stop();
  return result;
}

}  // namespace

SocketResult RunSocket(const Workload& workload, const Context& context,
                       Report* report, const AfterRequest& after) {
  if (workload.name == "read_hot") {
    return RunReadHot(workload, context, report);
  }
  if (workload.name == "edit_integrate") {
    return RunEditIntegrate(workload, context, report, after);
  }
  return RunWriteDurable(workload, context, report);
}

}  // namespace perfbench
