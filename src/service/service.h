#ifndef ECRINT_SERVICE_SERVICE_H_
#define ECRINT_SERVICE_SERVICE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/fs.h"
#include "common/result.h"
#include "core/object_ref.h"
#include "core/request_translation.h"
#include "engine/engine.h"
#include "engine/replay.h"
#include "service/metrics.h"
#include "service/protocol.h"
#include "service/recovery.h"
#include "service/response.h"
#include "service/response_cache.h"
#include "service/session.h"
#include "service/snapshot.h"

namespace ecrint::service {

// One parsed request in protocol-independent form. The router builds these
// from the request a text line or a binary frame decodes to; the service
// executes them one at a time (Execute) or as a pipelined batch
// (ExecuteBatch). Which payload fields matter depends on `op`.
struct ServiceCommand {
  enum class Op {
    kPing,
    kDefine,
    kEquiv,
    kAssert,
    kIntegrate,
    kExport,
    kRank,
    kSuggest,
    kTranslate,
    kOutline,
    kMetrics,
  };
  Op op = Op::kPing;
  // Absolute deadline; 0 = service default. Ignored inside a batch (the
  // whole batch runs under one deadline).
  int64_t deadline_ns = 0;

  std::string text;                   // define: raw DDL
  ecr::AttributePath path_a, path_b;  // equiv
  core::ObjectRef first, second;      // assert
  int type_code = 0;                  // assert
  std::vector<std::string> schemas;   // integrate
  std::string schema1, schema2;       // rank / suggest
  core::StructureKind kind = core::StructureKind::kObjectClass;  // rank
  bool include_zero = false;          // rank
  double threshold = 0.6;             // suggest
  core::Request request;              // translate
  bool to_components = false;         // translate
};

// Whether the op mutates (or, for export, must observe) the engine and
// therefore runs under the project write lock.
bool IsWriteCommand(ServiceCommand::Op op);
// The op's verb name on the wire ("define", "rank", ...).
const char* CommandVerbName(ServiceCommand::Op op);

struct ServiceConfig {
  // Admission bound: requests in flight (queued on a write lock or
  // executing) beyond this are refused with OVERLOADED instead of queuing
  // without bound.
  int queue_depth = 64;
  // Deadline applied when a request does not carry its own.
  int64_t default_deadline_ns = 5'000'000'000;  // 5 s
  // Sessions idle longer than this are reaped (opportunistically, on the
  // request path).
  int64_t session_idle_timeout_ns = 600'000'000'000;  // 10 min
  // Time source; null means the real steady clock. Tests inject a
  // ManualClock so deadline and reaping behaviour never sleeps.
  const common::Clock* clock = nullptr;
  // Root of the durability tree: each project journals and checkpoints
  // under <data_dir>/<encoded-project-name>/. Empty disables durability
  // entirely (the pre-journal in-memory behaviour).
  std::string data_dir;
  // Filesystem behind the durability tree; null means the real POSIX
  // filesystem. Tests inject MemFs or FaultInjectingFs.
  common::Fs* fs = nullptr;
  DurabilityOptions durability;
  // Non-empty makes this service a read replica: client-facing mutations
  // are refused with NOT_LEADER carrying this address, and the replication
  // plane (ApplyReplicated et al.) is the only writer.
  std::string leader_addr;
  // The address other nodes reach THIS node at (ecrint_serve --advertise).
  // Only used defensively: a demotion whose leader hint points back at this
  // address is a stale follower echoing our own address, and adopting it
  // would redirect clients in a loop — the node fences instead. Empty
  // disables the self-hint check.
  std::string advertised_addr;
};

// The multi-session, thread-safe service plane over engine::Engine.
//
// Concurrency model: one engine per project, guarded by a per-project
// write mutex — writers (define / equiv / assert / integrate / export)
// serialize per project, and after every successful mutation the writer
// republishes an immutable EngineSnapshot. Readers (rank / suggest /
// translate / outline) never touch the engine: they grab the current
// snapshot shared_ptr and compute from it, so any number run concurrently
// — on client threads or common::ThreadPool workers — while a writer is
// mid-mutation.
//
// Every request passes admission control (bounded in-flight count,
// per-request deadline) and charges a per-verb latency histogram plus
// request/error counters to the MetricsRegistry, whether its reply is
// computed or served from the project's reply memo.
class IntegrationService {
 public:
  explicit IntegrationService(ServiceConfig config = {});

  IntegrationService(const IntegrationService&) = delete;
  IntegrationService& operator=(const IntegrationService&) = delete;

  // --- session plane -------------------------------------------------------
  // Opens a session bound to `project`, creating the project (with an
  // empty published snapshot) on first use. Returns the session id.
  std::string OpenSession(const std::string& project);
  Status CloseSession(const std::string& session_id);
  SessionManager& sessions() { return sessions_; }

  // --- command plane -------------------------------------------------------
  // Executes one protocol-independent command: admission, then a read
  // against the current snapshot through the project's reply memo, or a
  // write (define / equiv / assert / integrate, and export for a consistent
  // view) under the project write lock, journaled first and republished
  // after. A transport passes `wire` and its framing: a memo hit then
  // comes back as the memo's frame in `*wire` with an empty response, so a
  // hit copies no payload line and encodes nothing. Otherwise `*wire` is
  // left empty and the caller frames the response.
  ServiceResponse Execute(const std::string& session_id,
                          const ServiceCommand& command,
                          std::string* wire = nullptr,
                          int protocol_version = kProtocolTextVersion);

  // Pipelined batch execution: ONE admission charge for the whole batch,
  // then consecutive reads share a single snapshot acquisition (and the
  // reply memo, validated against that snapshot) and consecutive writes
  // run in a single write-lock pass whose journal records are covered by
  // one group-commit barrier (FsyncPolicy::kAlways and kBatch both fsync
  // once per write run). Responses come back in command order. If the
  // commit barrier fails, every write of that run answers UNAVAILABLE and
  // the project degrades — the mutations may be applied in memory but are
  // not durable (see docs/OPERATIONS.md).
  std::vector<ServiceResponse> ExecuteBatch(
      const std::string& session_id,
      const std::vector<ServiceCommand>& commands);

  // The accounting of a reply served without executing, on its own: bumps
  // the verb's request counter, the cache-hit counter, and the session's
  // activity stamp. Execute does this itself for a memo hit; perfbench's
  // read_hot peel times it in isolation.
  void NoteCacheHit(const std::string& session_id, const char* verb);

  // Checkpoints every healthy durable project now (shutdown/drain path);
  // returns how many checkpoints were written. A no-op without a data dir.
  int CheckpointProjects();

  // --- replication plane ---------------------------------------------------
  // These are the hooks src/service/replication.{h,cc} drives; normal
  // clients never see them. They bypass the NOT_LEADER gate (the leader's
  // stream IS the write path on a follower) but respect degraded mode.

  // Creates `project` (running recovery and publishing the initial
  // snapshot) if it does not exist yet; idempotent.
  void EnsureProject(const std::string& project);

  // Where a node's replication stream stands: the last sequence folded into
  // the engine and the stamp of that state. On the leader seq comes from
  // the journal; on a diskless follower from the applied-record counter.
  // `epoch` is the leader epoch of the stream (see the failover plane).
  struct ReplicationPosition {
    uint64_t seq = 0;
    uint64_t epoch = 0;
    engine::EngineStamp stamp;
  };
  Result<ReplicationPosition> SampleReplicationPosition(
      const std::string& project);

  // --- failover plane ------------------------------------------------------
  // The node's role is dynamic: it starts from config.leader_addr (empty =
  // leader) and changes at runtime when an operator promotes this node or
  // demotes it behind a new leader. Every stream carries a monotonically
  // increasing *leader epoch* (0 = failover never happened): a promote
  // bumps it, and both sides reject traffic from a stale epoch, so a
  // deposed leader that comes back cannot split-brain the cluster.

  // The leader address NOT_LEADER refusals carry; empty when none is
  // known — which means this node leads, UNLESS it is fenced (see
  // LeadsWrites). Role decisions must go through LeadsWrites, never
  // through CurrentLeaderAddr().empty().
  std::string CurrentLeaderAddr() const;

  // True when this node currently accepts client writes. False for a
  // follower (CurrentLeaderAddr names its leader) and for a *fenced* node:
  // one deposed at a higher epoch without learning the new leader's
  // address (empty or self-pointing demotion hint). A fenced node refuses
  // writes with NOT_LEADER carrying no address; only a promote (or a
  // demotion with a usable address) ends the fence.
  bool LeadsWrites() const;

  // The leader epoch of `project`'s stream (0 for an unknown project).
  uint64_t ProjectEpoch(const std::string& project);

  // Raises `project`'s epoch to `epoch` if higher — a follower adopting
  // the epoch its leader announced. Never lowers; no-op when stale.
  void AdoptReplicationEpoch(const std::string& project, uint64_t epoch);

  // Makes this node the write leader of `project`'s stream at a new,
  // higher epoch: clears the NOT_LEADER gate, bumps the project epoch,
  // and (when durable) persists it in a checkpoint so a restart keeps the
  // fence. Returns the new epoch.
  Result<uint64_t> PromoteProject(const std::string& project);

  // The inverse: fences this node behind `leader_addr` at `epoch`.
  // Rejects a stale demotion — `epoch` below the project's epoch, or equal
  // to it while this node believes it leads that epoch — with
  // FailedPrecondition (counted in repl.stale_epoch_rejects). A hint that
  // is empty or points back at this node (config.advertised_addr) is not
  // adopted: the epoch still rises but the node fences with the leader
  // unknown instead of redirecting clients at itself (or, worse, blanking
  // the address and claiming leadership at the new epoch).
  Status DemoteProject(const std::string& project, uint64_t epoch,
                       const std::string& leader_addr);

  // Applies one leader journal record (an encoded ReplayVerb at the
  // leader's `seq`) to a follower: journals it locally when durable,
  // replays it through engine::ApplyReplayVerb (a rejected verb replays to
  // the same rejection — that is the point), republishes the snapshot, and
  // returns the resulting stamp. `seq` must be exactly the next expected
  // sequence; a mismatch is an error and the caller resubscribes.
  Result<engine::EngineStamp> ApplyReplicated(const std::string& project,
                                              uint64_t seq,
                                              std::string_view payload);

  // Replaces a follower project's state with a checkpoint fetched from the
  // leader (`bytes` is the serialized checkpoint, either format, covering
  // records <= `seq`), persisting it locally when durable.
  Status InstallReplicatedCheckpoint(const std::string& project,
                                     std::string_view bytes, uint64_t seq);

  // Discards a diverged follower project back to the empty post-publication
  // state (seq 0) so the next bootstrap starts from nothing.
  Status ResetReplicatedProject(const std::string& project);

  // The current snapshot of a session's project (null if the session or
  // project is unknown). Exposed for readers that drive snapshot
  // operations directly (tests, the stress harness).
  std::shared_ptr<const EngineSnapshot> CurrentSnapshot(
      const std::string& session_id);

  MetricsRegistry& metrics() { return metrics_; }
  const ServiceConfig& config() const { return config_; }
  const common::Clock* clock() const { return clock_; }
  common::Fs* fs() { return fs_; }

 private:
  // One hosted project: the single-writer engine behind its lock, plus the
  // published snapshot chain and (when a data dir is configured) its
  // write-ahead journal.
  struct ProjectState {
    std::mutex write_mutex;
    engine::Engine engine;  // guarded by write_mutex
    SnapshotManager snapshots;
    // Null when durability is disabled or recovery failed at open.
    std::unique_ptr<RecoveryManager> durability;  // guarded by write_mutex
    // Degraded read-only mode: the journal device failed (or recovery
    // did), so mutations are refused with UNAVAILABLE while reads keep
    // serving the last published snapshot.
    bool degraded = false;            // guarded by write_mutex
    std::string degraded_reason;      // guarded by write_mutex
    // True when the degradation was a full disk (ENOSPC/EDQUOT): the
    // refusal says so explicitly — an operator who frees space can clear
    // it, unlike a dying device. Guarded by write_mutex.
    bool degraded_disk_full = false;
    // Last leader sequence applied on a DISKLESS follower (durable
    // followers track it through the journal's next_seq instead). Guarded
    // by write_mutex.
    uint64_t replica_applied_seq = 0;
    // Leader epoch of this project's replication stream; mirrors the
    // durability layer's persisted epoch when one exists. Guarded by
    // write_mutex.
    uint64_t epoch = 0;
    // Replies to this project's memoizable reads (internally locked).
    ResponseCache memo;
  };

  // Per-verb instruments, resolved once at construction so the hot path
  // never takes the registry mutex or builds a name string.
  struct VerbStats {
    Counter* requests = nullptr;
    Histogram* latency = nullptr;
  };

  // Admission, shared by Execute and ExecuteBatch: resolves the session's
  // project, claims an in-flight slot and checks the queue bound and the
  // absolute deadline (0 = now + the default). Runs `fn(project, deadline)`
  // timed into `latency` when admitted; returns the refusal otherwise.
  template <typename Fn>
  std::optional<ServiceError> Admit(const std::string& session_id,
                                    int64_t deadline_ns, Histogram* latency,
                                    Fn&& fn);

  // The single-write path: lock, re-check the deadline (time spent queued
  // counts against it), journal the verb (WAL-first: a journal failure
  // leaves the engine untouched and degrades the project), run, republish,
  // maybe checkpoint. Export is not journaled and skips the role and
  // degraded checks. Its journal record follows the fsync policy per
  // record; RunWriteBatch ends a run in one barrier instead.
  ServiceResponse RunWrite(ProjectState& project, int64_t deadline_ns,
                           const ServiceCommand& command);

  // Publishes closure.* deltas for the write that just ran. `before` is the
  // engine's closure totals sampled before the verb body. Caller holds
  // write_mutex.
  void RecordClosureMetrics(ProjectState& project,
                            const core::ClosureStats& before);

  // Flips the project to degraded read-only mode. Caller holds write_mutex.
  void DegradeProject(ProjectState& project, const Status& cause);
  ServiceError UnavailableError(const ProjectState& project) const;

  ProjectState* FindProject(const std::string& name);
  ProjectState* ProjectForSession(const std::string& session_id,
                                  ServiceError* error);

  // Reaps idle sessions at most once per reap interval (an atomic probe on
  // every other request) instead of scanning the table per request.
  void MaybeReapSessions();

  VerbStats StatsFor(std::string_view verb);

  // ExecuteBatch internals: segment the batch into read runs and write
  // runs. `RunWriteBatch` executes commands[begin, end) under one lock
  // acquisition with deferred journal appends and one commit barrier.
  void RunBatch(ProjectState& project, int64_t deadline_ns,
                const std::vector<ServiceCommand>& commands,
                std::vector<ServiceResponse>& out);
  void RunWriteBatch(ProjectState& project, int64_t deadline_ns,
                     const std::vector<ServiceCommand>& commands,
                     size_t begin, size_t end,
                     std::vector<ServiceResponse>& out);

  // Verb bodies shared by Execute and ExecuteBatch (the caller holds
  // write_mutex / owns the snapshot). The read body consults and fills the
  // project's reply memo against `snapshot`; `wire` and the framing are
  // Execute's (null inside a batch).
  ServiceResponse IntegrateBody(engine::Engine& engine,
                                std::vector<std::string> schemas);
  ServiceResponse WriteCommandBody(engine::Engine& engine,
                                   const ServiceCommand& command);
  ServiceResponse ReadCommandBody(ProjectState& project,
                                  const EngineSnapshot& snapshot,
                                  const ServiceCommand& command,
                                  std::string* wire, int protocol_version);

  ServiceConfig config_;
  const common::Clock* clock_;
  common::Fs* fs_;
  SessionManager sessions_;
  MetricsRegistry metrics_;

  // Instruments resolved once (the registry hands out stable pointers).
  std::map<std::string, VerbStats, std::less<>> verb_stats_;
  std::array<Counter*, 6> error_counters_{};
  Counter* snapshots_published_ = nullptr;
  Counter* sessions_reaped_ = nullptr;
  Counter* degraded_flips_ = nullptr;
  Counter* enospc_degrades_ = nullptr;
  Counter* stale_epoch_rejects_ = nullptr;
  Counter* cache_hits_ = nullptr;
  Counter* cache_evictions_ = nullptr;
  Gauge* sessions_live_ = nullptr;
  Gauge* queue_depth_ = nullptr;
  Gauge* epoch_gauge_ = nullptr;
  Histogram* batch_size_ = nullptr;
  Histogram* integrate_render_ = nullptr;  // rendering an integrate reply
  Histogram* integrate_seed_ = nullptr;    // building its seeded closure
  Counter* integrate_full_rebuilds_ = nullptr;  // integrates that re-seeded
  Counter* integrate_plan_builds_ = nullptr;  // integrates that built a plan

  // Dynamic role state (see the failover plane). Guarded by role_mutex_;
  // the node leads iff leader_addr_ is empty AND it is not fenced. Fenced
  // = deposed at a higher epoch without a usable new-leader address.
  mutable std::mutex role_mutex_;
  std::string leader_addr_;
  bool fenced_ = false;

  // Guards the project table only; per-project state has its own locks.
  // Readers (every request) take it shared, project creation exclusive.
  std::shared_mutex projects_mutex_;
  std::map<std::string, std::unique_ptr<ProjectState>> projects_;

  std::atomic<int64_t> in_flight_{0};
  std::atomic<int64_t> last_reap_ns_{0};
  int64_t reap_interval_ns_ = 0;
};

}  // namespace ecrint::service

#endif  // ECRINT_SERVICE_SERVICE_H_
