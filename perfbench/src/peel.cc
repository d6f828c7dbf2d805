#include "peel.h"

#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "common/fs.h"
#include "core/assertion.h"
#include "core/integrator.h"
#include "engine/engine.h"
#include "engine/replay.h"
#include "service/recovery.h"
#include "service/router.h"
#include "service/snapshot.h"

namespace perfbench {

namespace engine = ecrint::engine;

namespace {

// How much of each recorded stream the peel replays per level: enough
// samples for a steady p50, few enough that a traced run stays short.
constexpr size_t kReadPeelRequests = 50000;
constexpr size_t kUncachedPeelRequests = 2000;
constexpr size_t kEditPeelEdits = 40;
constexpr size_t kWritePeelRequests = 5000;

// Levels, outermost first. A span's parent is the span with the same
// stream id one level out; `publish` and `checkpoint` are the snapshot and
// recovery steps of a write, and `service_uncached` is read_hot's reads
// executed past the response cache.
const std::vector<std::string> kLevels = {
    "socket",  "router",     "service", "service_uncached", "journal",
    "publish", "checkpoint", "snapshot", "engine",          "core"};

struct Sample {
  int64_t id = 0;
  int op = 0;
  int64_t ns = 0;
};

template <typename Fn>
int64_t Time(Fn&& fn) {
  int64_t start = NowNs();
  fn();
  return NowNs() - start;
}

// An in-process service + router seeded exactly like the server: one text
// session (which seeds) and one binary session.
struct InProcess {
  std::unique_ptr<service::IntegrationService> service;
  std::unique_ptr<service::RequestRouter> router;
  service::RouterSession text, binary;
};

InProcess MakeService(const Workload& workload, service::ServiceConfig config) {
  InProcess p;
  p.service = std::make_unique<service::IntegrationService>(std::move(config));
  p.router = std::make_unique<service::RequestRouter>(p.service.get());
  p.router->HandleLine("open " + workload.project, &p.text);
  for (const SeedStep& step : workload.seed) {
    p.router->HandleLine(step.line, &p.text);
  }
  p.router->HandleLine("open " + workload.project, &p.binary);
  p.router->HandleLine("proto 2", &p.binary);
  return p;
}

service::DurabilityOptions Durability() {
  service::DurabilityOptions options;
  options.fsync = service::FsyncPolicy::kAlways;
  options.checkpoint_interval_records = 256;
  return options;
}

service::ServiceConfig DurableConfig(const std::string& dir) {
  std::filesystem::remove_all(dir);
  service::ServiceConfig config;
  config.data_dir = dir;
  config.durability = Durability();
  return config;
}

bool IsAny(const Op&) { return true; }
bool IsRead(const Op& op) { return op.is_read(); }
bool IsWrite(const Op& op) {
  return op.kind == Op::Kind::kEquiv || op.kind == Op::Kind::kAssert;
}
bool IsRank(const Op& op) { return op.kind == Op::Kind::kRank; }
bool IsAssert(const Op& op) { return op.kind == Op::Kind::kAssert; }
bool IsIntegrate(const Op& op) { return op.kind == Op::Kind::kIntegrate; }

core::StructureKind KindOf(const Op& op) {
  return op.rel ? core::StructureKind::kRelationshipSet
                : core::StructureKind::kObjectClass;
}

double IntegrateCounter(const engine::Engine& e, const char* name) {
  auto phase = e.trace().phases().find("integrate");
  if (phase == e.trace().phases().end()) return 0;
  auto it = phase->second.counters.find(name);
  return it == phase->second.counters.end() ? 0.0
                                             : static_cast<double>(it->second);
}

double IntegrateCalls(const engine::Engine& e) {
  auto phase = e.trace().phases().find("integrate");
  return phase == e.trace().phases().end()
             ? 0.0
             : static_cast<double>(phase->second.calls);
}

// Runs closures on its own thread, one at a time, each call returning when
// its closure has. Each of edit_integrate's in-process levels lives on its
// own LevelThread so that glibc gives it its own malloc arena: levels
// advanced in lockstep on one thread interleave their allocations on one
// heap, and each then runs slower than the single-project server it is
// compared with.
class LevelThread {
 public:
  LevelThread() = default;
  ~LevelThread() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    thread_.join();
  }
  LevelThread(const LevelThread&) = delete;
  LevelThread& operator=(const LevelThread&) = delete;

  void Run(const std::function<void()>& fn) {
    std::unique_lock<std::mutex> lock(mutex_);
    task_ = &fn;
    wake_.notify_all();
    wake_.wait(lock, [this] { return task_ == nullptr; });
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      wake_.wait(lock, [this] { return stop_ || task_ != nullptr; });
      if (task_ == nullptr) return;
      lock.unlock();
      (*task_)();
      lock.lock();
      task_ = nullptr;
      wake_.notify_all();
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_;
  const std::function<void()>* task_ = nullptr;  // guarded by mutex_
  bool stop_ = false;                            // guarded by mutex_
  std::thread thread_{[this] { Loop(); }};       // last: uses the above
};

}  // namespace

struct LayerPeel::State {
  const Workload& workload;
  const Context& context;
  Report* report;
  std::map<std::string, std::vector<Sample>> levels;

  // edit_integrate's interleaved levels, created before the traced socket
  // run and advanced one request at a time, each on its own thread (and
  // so its own heap).
  LevelThread router_thread, service_thread, engine_thread;
  std::unique_ptr<InProcess> router_level, service_level;
  std::unique_ptr<engine::Engine> engine_level;
  std::unique_ptr<service::SnapshotManager> snapshots;
  double reuses_before = 0;
  int integrates = 0;

  State(const Workload& w, const Context& c, Report* r)
      : workload(w), context(c), report(r) {}
  ~State() {
    router_thread.Run([this] { router_level.reset(); });
    service_thread.Run([this] { service_level.reset(); });
    engine_thread.Run([this] {
      snapshots.reset();
      engine_level.reset();
    });
  }

  void Add(const std::string& level, int64_t id, int op, int64_t ns) {
    levels[level].push_back({id, op, ns});
  }

  Latencies Samples(const std::string& level,
                    const std::function<bool(const Op&)>& keep) const {
    Latencies latencies;
    auto it = levels.find(level);
    if (it == levels.end()) return latencies;
    for (const Sample& sample : it->second) {
      if (keep(workload.ops[static_cast<size_t>(sample.op)])) {
        latencies.Add(sample.ns);
      }
    }
    return latencies;
  }
  double P50(const std::string& level,
             const std::function<bool(const Op&)>& keep) const {
    return Samples(level, keep).P(0.5);
  }

  // Times SnapshotRankedPairs and core::RankObjectPairs for `op` on the
  // snapshot `service` currently publishes.
  void RankBelowService(service::IntegrationService& svc,
                        const std::string& sid, const Op& op, int64_t id,
                        int index) {
    auto snapshot = svc.CurrentSnapshot(sid);
    Add("snapshot", id, index, Time([&] {
          (void)service::SnapshotRankedPairs(*snapshot, op.schema1, op.schema2,
                                             KindOf(op), op.zero);
        }));
    Add("core", id, index, Time([&] {
          (void)core::RankObjectPairs(*snapshot->catalog,
                                      *snapshot->equivalence, op.schema1,
                                      op.schema2, KindOf(op), op.zero);
        }));
  }

  // Publishes after a state-changing engine write, as the service does.
  void Publish(engine::Engine& e, service::SnapshotManager& manager,
               int64_t id, int index) {
    e.Equivalence();
    bool published = false;
    int64_t ns = Time([&] { published = manager.Publish(e); });
    if (published) Add("publish", id, index, ns);
  }

  // --- edit_integrate ------------------------------------------------------

  void StartEdit() {
    router_thread.Run([this] {
      router_level = std::make_unique<InProcess>(MakeService(workload, {}));
    });
    service_thread.Run([this] {
      service_level = std::make_unique<InProcess>(MakeService(workload, {}));
    });
    engine_thread.Run([this] {
      engine_level = std::make_unique<engine::Engine>();
      engine::BeginReplay(*engine_level);
      for (const SeedStep& step : workload.seed) {
        (void)engine::ApplyReplayVerb(*engine_level, step.verb);
      }
      snapshots = std::make_unique<service::SnapshotManager>();
      snapshots->Publish(*engine_level);
    });
    reuses_before = IntegrateCounter(*engine_level, "incremental_reuses");
  }

  void StepEdit(size_t i) {
    if (i >= kEditPeelEdits * 4) return;
    const Op& op = workload.ops[i];
    const int64_t id = static_cast<int64_t>(i);
    const int index = static_cast<int>(i);
    router_thread.Run([&] {
      std::string_view body = op.body();
      Add("router", id, index, Time([&] {
            router_level->router->HandleFrame(body, &router_level->binary);
          }));
    });
    service_thread.Run([&] {
      const std::string& sid = service_level->binary.session_id;
      Add("service", id, index,
          Time([&] { service_level->service->Execute(sid, op.command); }));
      if (IsRank(op)) {
        RankBelowService(*service_level->service, sid, op, id, index);
      }
    });
    engine_thread.Run([&] { StepEngine(op, id, index); });
  }

  void StepEngine(const Op& op, int64_t id, int index) {
    engine::Engine& e = *engine_level;
    switch (op.kind) {
      case Op::Kind::kEquiv:
        Add("engine", id, index, Time([&] {
              (void)e.AssertEquivalence(op.path_a, op.path_b);
            }));
        Publish(e, *snapshots, id, index);
        break;
      case Op::Kind::kRank:
        Add("engine", id, index, Time([&] {
              (void)e.RankedPairs(op.schema1, op.schema2, KindOf(op), op.zero);
            }));
        break;
      case Op::Kind::kAssert: {
        core::AssertionType type = *core::AssertionTypeFromCode(op.type_code);
        Add("engine", id, index, Time([&] {
              (void)e.AssertRelation(op.first, op.second, type);
            }));
        Publish(e, *snapshots, id, index);
        break;
      }
      default: {
        ++integrates;
        Add("engine", id, index, Time([&] { (void)e.Integrate(); }));
        Publish(e, *snapshots, id, index);
        // core: IntegrateSeeded over a store freshly seeded from the same
        // state; the seeding itself is untimed.
        const std::vector<std::string> names = e.catalog().SchemaNames();
        core::AssertionStore seeded = e.assertions();
        if (!core::SeedForIntegration(seeded, e.catalog(), names).ok()) {
          report->Fail("peel", "SeedForIntegration failed");
          break;
        }
        const core::EquivalenceMap& map = e.Equivalence();
        Add("core", id, index, Time([&] {
              (void)core::IntegrateSeeded(e.catalog(), names, map, seeded);
            }));
        break;
      }
    }
  }

  void FinishEdit() {
    const engine::Engine& e = *engine_level;
    double reuses = IntegrateCounter(e, "incremental_reuses") - reuses_before;
    double derived = IntegrateCounter(e, "assertions_derived");
    double calls = IntegrateCalls(e);
    std::printf("engine trace: %.0f incremental reuses / %d integrates; "
                "%.0f assertions derived / %.0f integrate calls (engine "
                "lifetime, seed included)\n",
                reuses, integrates, derived, calls);
    report->Set("engine.incremental_share",
                integrates > 0 ? reuses / integrates : 0, "ratio");
    report->Set("core.derived_per_integrate", calls > 0 ? derived / calls : 0,
                "count");
  }

  // --- read_hot --------------------------------------------------------------

  void PeelReadHot(const SocketResult& socket, size_t prefix) {
    InProcess p = MakeService(workload, {});
    const int text_conn = ConfigFor(workload.name).connections - 1;
    std::vector<std::string_view> bodies;
    std::vector<std::string> lines;
    std::vector<service::BinaryRequest> batch;
    for (const Op& op : workload.ops) {
      bodies.push_back(op.body());
      lines.push_back(op.text());
      batch.push_back(op.wire);
    }
    // Warm the cache as the server was: one batch of every key.
    std::string frame = service::EncodeBinaryBatch(batch);
    std::string_view body;
    size_t consumed = 0;
    std::string error;
    service::ExtractFrame(frame, &body, &consumed, &error);
    p.router->HandleFrame(body, &p.binary);
    const std::string& sid = p.binary.session_id;
    for (size_t i = 0; i < prefix; ++i) {
      const Span& span = socket.spans[i];
      const size_t k = static_cast<size_t>(span.op);
      const bool text = span.conn == text_conn;
      Add("router", span.id, span.op, Time([&] {
            if (text) {
              p.router->HandleLine(lines[k], &p.text);
            } else {
              p.router->HandleFrame(bodies[k], &p.binary);
            }
          }));
      // A cache hit enters the service only to pin the current snapshot
      // and to be counted.
      Add("service", span.id, span.op, Time([&] {
            auto snapshot = p.service->CurrentSnapshot(sid);
            p.service->NoteCacheHit(sid, workload.ops[k].verb());
          }));
    }
    // What the same reads cost past the cache, one layer further each time
    // (the cache hides this work from read_hot's end-to-end numbers).
    for (size_t i = 0; i < prefix && i < kUncachedPeelRequests; ++i) {
      const Span& span = socket.spans[i];
      const Op& op = workload.ops[static_cast<size_t>(span.op)];
      Add("service_uncached", span.id, span.op,
          Time([&] { p.service->Execute(sid, op.command); }));
      if (IsRank(op)) RankBelowService(*p.service, sid, op, span.id, span.op);
    }
  }

  // --- write_durable ---------------------------------------------------------

  void PeelWriteDurable(const SocketResult& socket, size_t prefix) {
    const std::string root = context.work_dir + "/peel";
    InProcess router_p = MakeService(workload, DurableConfig(root + "-router"));
    InProcess service_p =
        MakeService(workload, DurableConfig(root + "-service"));
    const std::string& sid = service_p.binary.session_id;

    // journal -> engine -> snapshot -> checkpoint, in the service's write
    // order: log, apply, publish, maybe checkpoint.
    const std::string dir = root + "-journal";
    std::filesystem::remove_all(dir);
    service::MetricsRegistry registry;
    engine::Engine e;
    service::RecoveryStats stats;
    auto opened = service::RecoveryManager::Open(
        ecrint::common::RealFs(), dir, Durability(), e, &stats, &registry);
    if (!opened.ok()) {
      report->Fail("peel",
                   "RecoveryManager::Open: " + opened.status().ToString());
      return;
    }
    std::unique_ptr<service::RecoveryManager> recovery = *std::move(opened);
    engine::BeginReplay(e);
    service::SnapshotManager manager;
    manager.Publish(e);
    for (const SeedStep& step : workload.seed) {
      (void)recovery->LogVerb(step.verb);
      (void)engine::ApplyReplayVerb(e, step.verb);
      manager.Publish(e);
      recovery->MaybeCheckpoint(e);
    }
    service::Counter* checkpoints = registry.GetCounter("journal.checkpoints");

    // One request at a time through every level, so host speed drift hits
    // all levels alike.
    for (size_t i = 0; i < prefix; ++i) {
      const Span& span = socket.spans[i];
      const Op& op = workload.ops[static_cast<size_t>(span.op)];
      std::string_view body = op.body();
      Add("router", span.id, span.op, Time([&] {
            router_p.router->HandleFrame(body, &router_p.binary);
          }));
      Add("service", span.id, span.op,
          Time([&] { service_p.service->Execute(sid, op.command); }));
      engine::ReplayVerb verb = ReplayVerbFor(op);
      Add("journal", span.id, span.op,
          Time([&] { (void)recovery->LogVerb(verb); }));
      Add("engine", span.id, span.op, Time([&] {
            if (op.kind == Op::Kind::kEquiv) {
              (void)e.AssertEquivalence(op.path_a, op.path_b);
            } else {
              (void)e.AssertRelation(
                  op.first, op.second,
                  *core::AssertionTypeFromCode(op.type_code));
            }
          }));
      Publish(e, manager, span.id, span.op);
      int64_t before = checkpoints->value();
      int64_t ns = Time([&] { recovery->MaybeCheckpoint(e); });
      if (checkpoints->value() != before) {
        Add("checkpoint", span.id, span.op, ns);
      }
    }

    // Restart cost: recovery of the leader's own data dir after the run.
    engine::Engine restarted;
    service::RecoveryStats restart_stats;
    bool open_ok = false;
    int64_t open_ns = Time([&] {
      open_ok = service::RecoveryManager::Open(
                    ecrint::common::RealFs(), socket.leader_project_dir,
                    Durability(), restarted, &restart_stats, nullptr)
                    .ok();
    });
    if (!open_ok) {
      report->Fail("peel", "recovery of the leader's data dir failed");
    }
    std::printf("recovery: open %.4f s, checkpoint restored %d, %lld records "
                "replayed\n",
                open_ns / 1e9, restart_stats.restored_checkpoint ? 1 : 0,
                static_cast<long long>(restart_stats.replayed_records));
    report->Set("recovery.open_s", open_ns / 1e9, "s");
    for (const char* suffix : {"-router", "-service", "-journal"}) {
      std::filesystem::remove_all(root + suffix);
    }
  }

  // Prints each level's p50 for one verb class over the same stream ids,
  // and for each pair of adjacent levels the median of the per-request
  // differences (outer minus inner). Levels nest when each outer p50 is at
  // least the inner one, within half the larger quartile distance of the
  // two levels' samples (the run's spread).
  void PrintNesting(const std::string& label,
                    const std::function<bool(const Op&)>& keep,
                    const std::vector<std::string>& order) const {
    std::printf("nesting %-10s", label.c_str());
    std::map<int64_t, int64_t> outer_ids;
    Latencies outer;
    std::string outer_name;
    bool nests = true;
    for (const std::string& level : order) {
      auto it = levels.find(level);
      if (it == levels.end()) continue;
      std::map<int64_t, int64_t> ids;
      Latencies inner;
      for (const Sample& sample : it->second) {
        if (keep(workload.ops[static_cast<size_t>(sample.op)])) {
          ids[sample.id] = sample.ns;
          inner.Add(sample.ns);
        }
      }
      if (ids.empty()) continue;
      std::printf("  %s=%.2fus", level.c_str(), inner.P(0.5));
      if (!outer_name.empty()) {
        std::vector<double> diffs;
        for (const auto& [id, ns] : ids) {
          auto match = outer_ids.find(id);
          if (match != outer_ids.end()) {
            diffs.push_back((match->second - ns) / 1000.0);
          }
        }
        double spread = std::max(inner.P(0.75) - inner.P(0.25),
                                 outer.P(0.75) - outer.P(0.25)) / 2;
        if (outer.P(0.5) < inner.P(0.5) - spread) nests = false;
        std::printf("(%s-%s paired %+.2f, n=%zu)", outer_name.c_str(),
                    level.c_str(), Median(diffs), diffs.size());
      }
      outer_ids = std::move(ids);
      outer = std::move(inner);
      outer_name = level;
    }
    std::printf("  -> %s\n", nests ? "nests" : "DOES NOT NEST");
  }

  void Write(const std::string& path, const SocketResult& socket,
             size_t prefix) const {
    std::ofstream out(path);
    for (size_t i = 0; i < prefix && i < socket.spans.size(); ++i) {
      const Span& span = socket.spans[i];
      out << "{\"level\":\"socket\",\"id\":" << span.id << ",\"verb\":\""
          << workload.ops[static_cast<size_t>(span.op)].verb()
          << "\",\"conn\":" << span.conn << ",\"group\":" << span.group
          << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
          << "}\n";
    }
    std::string parent = "socket";
    for (const std::string& level : kLevels) {
      auto it = levels.find(level);
      if (level == "socket" || it == levels.end()) continue;
      for (const Sample& sample : it->second) {
        out << "{\"level\":\"" << level << "\",\"id\":" << sample.id
            << ",\"parent\":\"" << parent << ":" << sample.id
            << "\",\"verb\":\""
            << workload.ops[static_cast<size_t>(sample.op)].verb()
            << "\",\"dur_ns\":" << sample.ns << "}\n";
      }
      parent = level;
    }
  }
};

LayerPeel::LayerPeel(const Workload& workload, const Context& context,
                     Report* report)
    : state_(std::make_unique<State>(workload, context, report)) {
  for (const char* name :
       {"engine.incremental_share", "core.derived_per_integrate"}) {
    report->Set(name, 0, name[0] == 'e' ? "ratio" : "count");
  }
  report->Set("recovery.open_s", 0, "s");
  if (workload.name == "edit_integrate") state_->StartEdit();
}

LayerPeel::~LayerPeel() = default;

AfterRequest LayerPeel::Hook() {
  if (state_->workload.name != "edit_integrate") return {};
  return [this](size_t index) { state_->StepEdit(index); };
}

void LayerPeel::Finish(const SocketResult& socket,
                       const std::string& spans_path) {
  State& s = *state_;
  const Workload& workload = s.workload;
  Report* report = s.report;
  const bool reads = workload.name == "read_hot";
  const bool edits = workload.name == "edit_integrate";
  const size_t prefix = std::min(socket.spans.size(),
                                 reads   ? kReadPeelRequests
                                 : edits ? kEditPeelEdits * 4
                                         : kWritePeelRequests);
  for (size_t i = 0; i < prefix; ++i) {
    const Span& span = socket.spans[i];
    s.Add("socket", span.id, span.op, span.end_ns - span.start_ns);
  }
  if (reads) {
    s.PeelReadHot(socket, prefix);
  } else if (edits) {
    s.FinishEdit();
  } else {
    s.PeelWriteDurable(socket, prefix);
  }

  // The workload's primary request class for the net / router / service
  // split: reads, the rank after each equivalence, writes.
  std::function<bool(const Op&)> primary =
      reads ? IsRead : edits ? IsRank : IsWrite;
  const double router_p50 = s.P50("router", primary);
  report->Set("net.overhead_p50_us", s.P50("socket", primary) - router_p50,
              "us");
  report->Set("router.read_p50_us", s.P50("router", IsRead), "us");
  report->Set("router.self_p50_us", router_p50 - s.P50("service", primary),
              "us");
  report->Set("service.rank_p50_us",
              s.P50(reads ? "service_uncached" : "service", IsRank), "us");
  report->Set("service.write_p50_us", s.P50("service", IsWrite), "us");
  report->Set("snapshot.rank_p50_us", s.P50("snapshot", IsRank), "us");
  report->Set("snapshot.publish_p50_us", s.P50("publish", IsAny), "us");
  report->Set("journal.log_p50_us", s.P50("journal", IsWrite), "us");
  report->Set("journal.checkpoint_p50_ms", s.P50("checkpoint", IsAny) / 1000,
              "ms");
  report->Set("engine.integrate_p50_ms", s.P50("engine", IsIntegrate) / 1000,
              "ms");
  report->Set("engine.assert_p50_us", s.P50("engine", IsAssert), "us");
  report->Set("engine.write_p50_us", s.P50("engine", IsWrite), "us");
  report->Set("core.integrate_seeded_p50_ms",
              s.P50("core", IsIntegrate) / 1000, "ms");
  report->Set("core.rank_p50_us", s.P50("core", IsRank), "us");

  std::printf("peel: %zu of %zu stream requests replayed; samples per level:",
              prefix, socket.spans.size());
  for (const std::string& level : kLevels) {
    std::printf(" %s=%zu", level.c_str(), s.Samples(level, IsAny).us.size());
  }
  std::printf("\n");

  // Ratios from the server's own counters over the (first pass's) timed
  // phase; a run that gets here had no failed request.
  const MetricsSnapshot& b = socket.before;
  const MetricsSnapshot& a = socket.after;
  double read_requests = 0;
  for (const char* verb : {"rank", "suggest", "outline", "translate"}) {
    read_requests += Delta(b, a, std::string("requests.") + verb);
  }
  double requests = 0, writes = 0, asserts = 0;
  for (const Span& span : socket.spans) {
    if (span.pass != 0) continue;
    const Op& op = workload.ops[static_cast<size_t>(span.op)];
    ++requests;
    if (!op.is_read()) ++writes;
    if (IsAssert(op)) ++asserts;
  }
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  report->Set("net.wakeups_per_req",
              ratio(Delta(b, a, "net.epoll_wakeups"), requests), "count");
  report->Set("net.writev_per_req",
              ratio(Delta(b, a, "net.writev_calls"), requests), "count");
  report->Set("router.cache_hit_ratio",
              ratio(Delta(b, a, "cache.hits"), read_requests), "ratio");
  report->Set("router.cache_evictions", Delta(b, a, "cache.evictions"),
              "count");
  report->Set("service.queue_depth_max", a.Get("queue.depth.max"), "count");
  report->Set("snapshot.publishes_per_write",
              ratio(Delta(b, a, "snapshots.published"), writes), "count");
  report->Set("journal.fsyncs_per_write",
              ratio(Delta(b, a, "journal.fsyncs"), writes), "count");
  report->Set("journal.bytes_per_write",
              ratio(Delta(b, a, "journal.append_bytes"), writes), "B");
  report->Set("journal.checkpoints", Delta(b, a, "journal.checkpoints"),
              "count");
  const MetricsSnapshot& fb = socket.follower_before;
  const MetricsSnapshot& fa = socket.follower_after;
  report->Set("repl.bootstraps", Delta(fb, fa, "repl.bootstraps"), "count");
  report->Set("repl.bootstrap_p50_ms", fa.Get("repl.bootstrap.p50_us") / 1000,
              "ms");
  report->Set("repl.shipped_per_write",
              ratio(Delta(b, a, "repl.records_shipped"), writes), "count");
  report->Set("core.compositions_per_assert",
              ratio(Delta(b, a, "closure.row_compositions"), asserts), "count");
  report->Set("core.pops_per_assert",
              ratio(Delta(b, a, "closure.worklist_pops"), asserts), "count");
  std::printf("ratio bases: requests=%.0f reads=%.0f acked_writes=%.0f "
              "asserts=%.0f follower_bootstrap_samples=%.0f\n",
              requests, read_requests, writes, asserts,
              fa.Get("repl.bootstrap.count"));

  std::printf("layer failures: journal.append_failures=%.0f "
              "repl.reconnects=%.0f repl.divergences=%.0f",
              Delta(b, a, "journal.append_failures"),
              Delta(fb, fa, "repl.reconnects"),
              Delta(fb, fa, "repl.divergences"));
  for (const auto& [name, value] : a.values) {
    if (name.rfind("errors.", 0) == 0 && Delta(b, a, name) != 0) {
      std::printf(" %s=%.0f", name.c_str(), Delta(b, a, name));
    }
  }
  std::printf("\n");

  if (reads) {
    s.PrintNesting("read(hit)", IsRead, {"socket", "router", "service"});
    s.PrintNesting("rank(miss)", IsRank,
                   {"service_uncached", "snapshot", "core"});
  } else {
    // A rank is served from the snapshot, never the engine (whose own
    // ranking cache the engine level times), so its chain skips the engine.
    const std::vector<std::string> writes = {"socket",  "router", "service",
                                             "journal", "engine", "core"};
    const std::vector<std::string> ranks = {"socket", "router", "service",
                                            "snapshot", "core"};
    const std::pair<const char*, Op::Kind> verbs[] = {
        {"equiv", Op::Kind::kEquiv},
        {"rank", Op::Kind::kRank},
        {"assert", Op::Kind::kAssert},
        {"integrate", Op::Kind::kIntegrate}};
    for (const auto& [label, kind] : verbs) {
      auto keep = [kind = kind](const Op& op) { return op.kind == kind; };
      if (s.Samples("socket", keep).us.empty()) continue;
      s.PrintNesting(label, keep, kind == Op::Kind::kRank ? ranks : writes);
    }
  }
  s.Write(spans_path, socket, prefix);
  std::printf("spans written to %s\n", spans_path.c_str());
}

}  // namespace perfbench
