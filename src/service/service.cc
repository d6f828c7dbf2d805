#include "service/service.h"

#include <charconv>
#include <utility>

#include "common/strings.h"
#include "core/assertion.h"
#include "core/project_io.h"
#include "ecr/printer.h"

namespace ecrint::service {

namespace {

// Splits a multi-line engine artifact (outline, project text) into wire
// payload lines, dropping a trailing empty piece from a terminal newline.
std::vector<std::string> ToLines(const std::string& text) {
  std::vector<std::string> lines = Split(text, '\n');
  while (!lines.empty() && lines.back().empty()) lines.pop_back();
  return lines;
}

ServiceResponse ErrorResponse(ServiceError error) {
  ServiceResponse response;
  response.error = std::move(error);
  return response;
}

// The refusal a read replica hands every client-facing mutation. An empty
// `leader` is a fenced node: deposed at a higher epoch without learning
// the new leader's address, so there is nothing to redirect to yet.
ServiceError NotLeaderError(const std::string& leader) {
  ServiceError error;
  error.code = ServiceErrorCode::kNotLeader;
  error.message = leader.empty()
                      ? "read replica: fenced at a newer epoch, leader "
                        "address not yet known"
                      : "read replica: writes go to the leader at " + leader;
  error.leader = leader;
  return error;
}

// A write failure response; prefers the engine's structured diagnostic
// (which carries the Screen-9 derivation chain) over the bare status text.
ServiceResponse WriteFailure(const engine::Engine& engine,
                             size_t diagnostics_before,
                             const Status& status) {
  ServiceError error = ErrorFromStatus(status);
  if (engine.diagnostics().size() > diagnostics_before) {
    error.message = engine.diagnostics().back().ToString();
  }
  return ErrorResponse(std::move(error));
}

// --- shared verb bodies ----------------------------------------------------
// One body per verb, shared by Execute and the batch executor so both
// paths produce byte-identical payloads.

ServiceResponse DefineBody(engine::Engine& engine, const std::string& ddl) {
  size_t before = engine.diagnostics().size();
  Result<std::vector<std::string>> names = engine.DefineSchema(ddl);
  if (!names.ok()) {
    return WriteFailure(engine, before, names.status());
  }
  // The engine leaves equivalence rebuild timing to the frontend (it is
  // DDA-visible); the service's policy is that every define ends schema
  // collection, so the snapshot publish afterwards re-registers the new
  // catalog.
  engine.ResetEquivalence();
  ServiceResponse response;
  response.lines = *std::move(names);
  return response;
}

ServiceResponse EquivBody(engine::Engine& engine, const ecr::AttributePath& a,
                          const ecr::AttributePath& b) {
  size_t before = engine.diagnostics().size();
  Status status = engine.AssertEquivalence(a, b);
  if (!status.ok()) {
    return WriteFailure(engine, before, status);
  }
  ServiceResponse response;
  response.lines.push_back("declared " + a.ToString() + " = " + b.ToString());
  return response;
}

ServiceResponse AssertBody(engine::Engine& engine,
                           const core::ObjectRef& first, int type_code,
                           const core::ObjectRef& second) {
  Result<core::AssertionType> type = core::AssertionTypeFromCode(type_code);
  if (!type.ok()) {
    return ErrorResponse(ErrorFromStatus(type.status()));
  }
  size_t before = engine.diagnostics().size();
  Result<core::ConflictReport> report =
      engine.AssertRelation(first, second, *type);
  if (!report.ok()) {
    return WriteFailure(engine, before, report.status());
  }
  ServiceResponse response;
  response.lines.push_back("asserted " + first.ToString() + " " +
                           std::to_string(type_code) + " " +
                           second.ToString());
  return response;
}

ServiceResponse ExportBody(engine::Engine& engine) {
  ServiceResponse response;
  response.lines = ToLines(engine.ExportProject());
  return response;
}

ServiceResponse RankBody(const EngineSnapshot& snapshot,
                         const std::string& schema1,
                         const std::string& schema2, core::StructureKind kind,
                         bool include_zero) {
  Result<std::vector<core::ObjectPair>> ranked =
      SnapshotRankedPairs(snapshot, schema1, schema2, kind, include_zero);
  if (!ranked.ok()) {
    return ErrorResponse(ErrorFromStatus(ranked.status()));
  }
  ServiceResponse response;
  for (const core::ObjectPair& pair : *ranked) {
    response.lines.push_back(pair.first.ToString() + " " +
                             pair.second.ToString() + " " +
                             FormatFixed(pair.attribute_ratio, 4));
  }
  return response;
}

ServiceResponse SuggestBody(const EngineSnapshot& snapshot,
                            const std::string& schema1,
                            const std::string& schema2, double threshold) {
  Result<std::vector<heuristics::EquivalenceSuggestion>> suggestions =
      SnapshotSuggest(snapshot, schema1, schema2, threshold,
                      /*object_threshold=*/0.0, /*max_results=*/0);
  if (!suggestions.ok()) {
    return ErrorResponse(ErrorFromStatus(suggestions.status()));
  }
  ServiceResponse response;
  for (const heuristics::EquivalenceSuggestion& s : *suggestions) {
    response.lines.push_back(s.first.ToString() + " = " + s.second.ToString() +
                             "  # " + s.rationale);
  }
  return response;
}

ServiceResponse TranslateBody(const EngineSnapshot& snapshot,
                              const core::Request& request,
                              bool to_components) {
  ServiceResponse response;
  if (to_components) {
    Result<core::FanoutPlan> plan =
        SnapshotTranslateToComponents(snapshot, request);
    if (!plan.ok()) {
      return ErrorResponse(ErrorFromStatus(plan.status()));
    }
    response.lines = ToLines(plan->ToString());
  } else {
    Result<core::Request> translated = SnapshotTranslate(snapshot, request);
    if (!translated.ok()) {
      return ErrorResponse(ErrorFromStatus(translated.status()));
    }
    response.lines = ToLines(translated->ToString());
  }
  return response;
}

ServiceResponse OutlineBody(const EngineSnapshot& snapshot) {
  Result<std::vector<std::string>> outline =
      SnapshotIntegratedOutline(snapshot);
  if (!outline.ok()) {
    return ErrorResponse(ErrorFromStatus(outline.status()));
  }
  ServiceResponse response;
  response.lines = *std::move(outline);
  return response;
}

// The reply-memo key of a read whose reply is a pure function of the
// snapshot: the verb and every command field the reply depends on. Empty
// for the reads that are not memoized (ping, and metrics, which reads live
// counters).
std::string MemoKey(const ServiceCommand& command) {
  switch (command.op) {
    case ServiceCommand::Op::kRank:
      return ResponseCache::Key(
          "rank",
          {command.schema1, command.schema2,
           command.kind == core::StructureKind::kRelationshipSet ? "rel" : "",
           command.include_zero ? "zero" : ""});
    case ServiceCommand::Op::kSuggest: {
      char threshold[32];
      auto [end, ec] = std::to_chars(threshold, threshold + sizeof threshold,
                                     command.threshold);
      (void)ec;  // the shortest round-trip form of a double always fits
      return ResponseCache::Key(
          "suggest", {command.schema1, command.schema2,
                      std::string(threshold, end)});
    }
    case ServiceCommand::Op::kTranslate: {
      std::vector<std::string> fields = {
          command.to_components ? "components" : "",
          command.request.structure.schema, command.request.structure.object};
      fields.insert(fields.end(), command.request.attributes.begin(),
                    command.request.attributes.end());
      return ResponseCache::Key("translate", fields);
    }
    case ServiceCommand::Op::kOutline:
      return ResponseCache::Key("outline", {});
    default:
      return "";
  }
}

// The journal record of a write command; nullopt for export, which
// mutates nothing and is never journaled. Both write paths build it before
// anything is logged, so a command that must not reach the journal is
// refused here: an integrate that lists a schema twice would merge the
// schema with itself. Journal replay and checkpoint restore still accept
// such a verb, so a data dir written before this check keeps opening.
Result<std::optional<engine::ReplayVerb>> ReplayVerbFor(
    const ServiceCommand& command) {
  switch (command.op) {
    case ServiceCommand::Op::kDefine:
      return std::optional(engine::DefineVerb(command.text));
    case ServiceCommand::Op::kEquiv:
      return std::optional(
          engine::EquivalenceVerb(command.path_a, command.path_b));
    case ServiceCommand::Op::kAssert:
      return std::optional(engine::RelationVerb(
          command.first, command.type_code, command.second));
    case ServiceCommand::Op::kIntegrate: {
      const std::vector<std::string>& schemas = command.schemas;
      for (size_t i = 1; i < schemas.size(); ++i) {
        for (size_t j = 0; j < i; ++j) {
          if (schemas[i] == schemas[j]) {
            return InvalidArgumentError("integrate lists schema '" +
                                        schemas[i] + "' more than once");
          }
        }
      }
      return std::optional(engine::IntegrateVerb(schemas));
    }
    default:
      return std::optional<engine::ReplayVerb>();
  }
}

}  // namespace

bool IsWriteCommand(ServiceCommand::Op op) {
  switch (op) {
    case ServiceCommand::Op::kDefine:
    case ServiceCommand::Op::kEquiv:
    case ServiceCommand::Op::kAssert:
    case ServiceCommand::Op::kIntegrate:
    case ServiceCommand::Op::kExport:
      return true;
    default:
      return false;
  }
}

const char* CommandVerbName(ServiceCommand::Op op) {
  switch (op) {
    case ServiceCommand::Op::kPing:
      return "ping";
    case ServiceCommand::Op::kDefine:
      return "define";
    case ServiceCommand::Op::kEquiv:
      return "equiv";
    case ServiceCommand::Op::kAssert:
      return "assert";
    case ServiceCommand::Op::kIntegrate:
      return "integrate";
    case ServiceCommand::Op::kExport:
      return "export";
    case ServiceCommand::Op::kRank:
      return "rank";
    case ServiceCommand::Op::kSuggest:
      return "suggest";
    case ServiceCommand::Op::kTranslate:
      return "translate";
    case ServiceCommand::Op::kOutline:
      return "outline";
    case ServiceCommand::Op::kMetrics:
      return "metrics";
  }
  return "unknown";
}

IntegrationService::IntegrationService(ServiceConfig config)
    : config_(config),
      clock_(config.clock != nullptr ? config.clock : common::RealClock()),
      fs_(config.fs != nullptr ? config.fs : common::RealFs()),
      sessions_(clock_, config.session_idle_timeout_ns) {
  // Resolve every instrument the request path touches up front: the
  // registry hands out stable pointers, so the hot path never takes the
  // registry mutex or builds "requests.<verb>" strings per request.
  static constexpr const char* kVerbs[] = {
      "ping",      "define", "equiv",   "assert",  "integrate", "export",
      "rank",      "suggest", "translate", "outline", "metrics", "batch",
  };
  for (const char* verb : kVerbs) {
    verb_stats_[verb] = {
        metrics_.GetCounter(std::string("requests.") + verb),
        metrics_.GetHistogram(std::string("latency.") + verb),
    };
  }
  for (int code = 0; code < static_cast<int>(error_counters_.size()); ++code) {
    error_counters_[code] = metrics_.GetCounter(
        std::string("errors.") +
        ServiceErrorCodeName(static_cast<ServiceErrorCode>(code)));
  }
  snapshots_published_ = metrics_.GetCounter("snapshots.published");
  sessions_reaped_ = metrics_.GetCounter("sessions.reaped");
  degraded_flips_ = metrics_.GetCounter("journal.degraded_flips");
  enospc_degrades_ = metrics_.GetCounter("journal.enospc");
  stale_epoch_rejects_ = metrics_.GetCounter("repl.stale_epoch_rejects");
  cache_hits_ = metrics_.GetCounter("cache.hits");
  cache_evictions_ = metrics_.GetCounter("cache.evictions");
  sessions_live_ = metrics_.GetGauge("sessions.live");
  queue_depth_ = metrics_.GetGauge("queue.depth");
  epoch_gauge_ = metrics_.GetGauge("repl.epoch");
  batch_size_ = metrics_.GetHistogram("batch.size");
  integrate_render_ = metrics_.GetHistogram("integrate.render");
  integrate_seed_ = metrics_.GetHistogram("integrate.seed");
  integrate_full_rebuilds_ = metrics_.GetCounter("integrate.full_rebuilds");
  integrate_plan_builds_ = metrics_.GetCounter("integrate.plan_builds");
  leader_addr_ = config_.leader_addr;
  // Scan the session table at most ~4x per idle timeout (capped at once a
  // second) instead of on every request.
  int64_t quarter = config_.session_idle_timeout_ns / 4;
  reap_interval_ns_ = quarter < 1'000'000'000 ? quarter : 1'000'000'000;
}

IntegrationService::VerbStats IntegrationService::StatsFor(
    std::string_view verb) {
  auto it = verb_stats_.find(verb);
  if (it != verb_stats_.end()) return it->second;
  // Unknown verb (shouldn't happen): resolve through the registry.
  std::string name(verb);
  return {metrics_.GetCounter("requests." + name),
          metrics_.GetHistogram("latency." + name)};
}

void IntegrationService::MaybeReapSessions() {
  int64_t now = clock_->NowNs();
  int64_t last = last_reap_ns_.load(std::memory_order_relaxed);
  if (now - last < reap_interval_ns_) return;
  if (!last_reap_ns_.compare_exchange_strong(last, now,
                                             std::memory_order_relaxed)) {
    return;  // Another request took this interval's scan.
  }
  if (int reaped = sessions_.ReapIdle(); reaped > 0) {
    sessions_reaped_->Increment(reaped);
    sessions_live_->Set(sessions_.size());
  }
}

void IntegrationService::EnsureProject(const std::string& project) {
  std::unique_lock<std::shared_mutex> lock(projects_mutex_);
  std::unique_ptr<ProjectState>& slot = projects_[project];
  if (slot) return;
  slot = std::make_unique<ProjectState>();
  slot->memo.SetEvictionCounter(cache_evictions_);
  if (!config_.data_dir.empty()) {
    // Recover the engine from the project's journal + checkpoint (a
    // fresh directory on first use). Recovery failure does not fail
    // the open: the project comes up degraded — reads serve whatever
    // state was recovered (possibly none), writes get UNAVAILABLE.
    RecoveryStats stats;
    Result<std::unique_ptr<RecoveryManager>> opened = RecoveryManager::Open(
        fs_, config_.data_dir + "/" + ProjectDirName(project),
        config_.durability, slot->engine, &stats, &metrics_);
    if (opened.ok()) {
      slot->durability = *std::move(opened);
      // A recovered follower resumes the leader's stream where its own
      // journal left off.
      slot->replica_applied_seq = slot->durability->next_seq() - 1;
      // The persisted epoch survives restarts: a node that died after a
      // failover comes back already fenced at the promoted epoch.
      slot->epoch = slot->durability->epoch();
      if (slot->epoch > 0) {
        epoch_gauge_->Set(static_cast<int64_t>(slot->epoch));
      }
    } else {
      DegradeProject(*slot, opened.status());
    }
  }
  // Publish the (empty or recovered) generation up front so readers
  // opened before the first write still get a snapshot instead of null.
  slot->snapshots.Publish(slot->engine);
  snapshots_published_->Increment();
}

std::string IntegrationService::OpenSession(const std::string& project) {
  EnsureProject(project);
  std::string id = sessions_.Open(project);
  sessions_live_->Set(sessions_.size());
  return id;
}

Status IntegrationService::CloseSession(const std::string& session_id) {
  Status status = sessions_.Close(session_id);
  sessions_live_->Set(sessions_.size());
  return status;
}

IntegrationService::ProjectState* IntegrationService::FindProject(
    const std::string& name) {
  std::shared_lock<std::shared_mutex> lock(projects_mutex_);
  auto it = projects_.find(name);
  return it == projects_.end() ? nullptr : it->second.get();
}

IntegrationService::ProjectState* IntegrationService::ProjectForSession(
    const std::string& session_id, ServiceError* error) {
  Result<std::string> project_name = sessions_.ProjectOf(session_id);
  if (!project_name.ok()) {
    *error = ErrorFromStatus(project_name.status());
    return nullptr;
  }
  ProjectState* project = FindProject(*project_name);
  if (project == nullptr) {
    *error = {ServiceErrorCode::kBadRequest,
              "no project '" + *project_name + "'"};
  }
  return project;
}

template <typename Fn>
std::optional<ServiceError> IntegrationService::Admit(
    const std::string& session_id, int64_t deadline_ns, Histogram* latency,
    Fn&& fn) {
  Result<std::string> project_name = sessions_.TouchAndProject(session_id);
  if (!project_name.ok()) return ErrorFromStatus(project_name.status());
  ProjectState* project = FindProject(*project_name);
  if (project == nullptr) {
    return ServiceError(ServiceErrorCode::kBadRequest,
                        "no project '" + *project_name + "'");
  }
  int64_t now = clock_->NowNs();
  int64_t deadline =
      deadline_ns > 0 ? deadline_ns : now + config_.default_deadline_ns;
  std::optional<ServiceError> refusal;
  int64_t in_flight = in_flight_.fetch_add(1, std::memory_order_relaxed) + 1;
  queue_depth_->Set(in_flight);
  if (in_flight > config_.queue_depth) {
    refusal = ServiceError(ServiceErrorCode::kOverloaded,
                           "request queue at capacity (" +
                               std::to_string(config_.queue_depth) + ")");
  } else if (now >= deadline) {
    refusal = ServiceError(ServiceErrorCode::kTimeout,
                           "deadline expired before execution");
  } else {
    common::Stopwatch watch(clock_);
    fn(*project, deadline);
    latency->Record(watch.ElapsedNs() / 1000);
  }
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  return refusal;
}

void IntegrationService::RecordClosureMetrics(ProjectState& project,
                                              const core::ClosureStats& before) {
  // The engine's totals are monotone across store swaps (a retract or a
  // re-seed retires a store's counts instead of dropping them), so the
  // deltas are the verb's own work. Increment(0) still registers the
  // instrument, so every closure.* name is present in MetricsJson() from
  // the first write onward.
  const core::ClosureStats after = project.engine.ClosureTotals();
  metrics_.GetCounter("closure.worklist_pops")
      ->Increment(after.worklist_pops - before.worklist_pops);
  metrics_.GetCounter("closure.row_compositions")
      ->Increment(after.row_compositions - before.row_compositions);
  metrics_.GetCounter("closure.narrowings")
      ->Increment(after.narrowings - before.narrowings);
  metrics_.GetCounter("closure.conflicts")
      ->Increment(after.conflicts - before.conflicts);
  int64_t kernel_ns = after.kernel_ns - before.kernel_ns;
  if (kernel_ns > 0) {
    metrics_.GetHistogram("closure.kernel")->Record(kernel_ns / 1000);
  }
  metrics_.GetGauge("closure.clusters")
      ->Set(project.engine.ClosureClusterCount());
}

void IntegrationService::DegradeProject(ProjectState& project,
                                        const Status& cause) {
  project.degraded = true;
  project.degraded_reason = cause.ToString();
  // ENOSPC/EDQUOT get their own counter and refusal text: a full disk is
  // an operator-recoverable condition (free space, restart), not a dying
  // device.
  project.degraded_disk_full = cause.code() == StatusCode::kResourceExhausted;
  if (project.degraded_disk_full) enospc_degrades_->Increment();
  degraded_flips_->Increment();
}

ServiceError IntegrationService::UnavailableError(
    const ProjectState& project) const {
  ServiceError error;
  error.code = ServiceErrorCode::kUnavailable;
  error.message = project.degraded_disk_full
                      ? "project is read-only (journal device full: " +
                            project.degraded_reason + ")"
                      : "project is read-only (journal failure: " +
                            project.degraded_reason + ")";
  error.retry_after_ms = config_.durability.degraded_retry_after_ms;
  return error;
}

ServiceResponse IntegrationService::RunWrite(ProjectState& project,
                                             int64_t deadline_ns,
                                             const ServiceCommand& command) {
  Result<std::optional<engine::ReplayVerb>> verb = ReplayVerbFor(command);
  if (!verb.ok()) {
    return ErrorResponse(
        {ServiceErrorCode::kBadRequest, verb.status().message()});
  }
  std::lock_guard<std::mutex> lock(project.write_mutex);
  // Time queued behind other writers counts against the deadline: a client
  // whose deadline lapsed while waiting sees TIMEOUT, not a late mutation.
  if (clock_->NowNs() >= deadline_ns) {
    return ErrorResponse({ServiceErrorCode::kTimeout,
                          "deadline expired while queued for write"});
  }
  if (verb->has_value()) {
    if (!LeadsWrites()) {
      // Read replica (or a fenced deposed leader): the leader's
      // replication stream is the only writer (it enters through
      // ApplyReplicated, not here). The role is dynamic — a promote lifts
      // the gate, a demote (re)sets it.
      return ErrorResponse(NotLeaderError(CurrentLeaderAddr()));
    }
    if (project.degraded) {
      return ErrorResponse(UnavailableError(project));
    }
    if (project.durability != nullptr) {
      // WAL-first: the verb hits the journal before the engine, so a
      // journal failure leaves memory and disk agreeing (verb happened
      // nowhere) and the project flips to degraded read-only mode.
      Status logged = project.durability->LogVerb(**verb);
      if (!logged.ok()) {
        DegradeProject(project, logged);
        return ErrorResponse(UnavailableError(project));
      }
    }
  }
  const core::ClosureStats closure_before = project.engine.ClosureTotals();
  ServiceResponse response = WriteCommandBody(project.engine, command);
  RecordClosureMetrics(project, closure_before);
  if (project.snapshots.Publish(project.engine)) {
    snapshots_published_->Increment();
  }
  // After publish so the checkpoint captures the published stamp (publish
  // materializes the equivalence map; replay mirrors that).
  if (verb->has_value() && project.durability != nullptr) {
    project.durability->MaybeCheckpoint(project.engine);
  }
  return response;
}

// ---------------------------------------------------------------------------
// Replication plane: the hooks the leader stream drives on a follower (and
// the position probe both roles answer). They take the same write mutex as
// client writes but bypass the NOT_LEADER gate — the leader's stream IS the
// write path on a replica.
// ---------------------------------------------------------------------------

Result<IntegrationService::ReplicationPosition>
IntegrationService::SampleReplicationPosition(const std::string& project) {
  ProjectState* state = FindProject(project);
  if (state == nullptr) {
    return NotFoundError("no project '" + project + "'");
  }
  std::lock_guard<std::mutex> lock(state->write_mutex);
  // Under the write mutex the journal's next_seq and the engine state are
  // mutually consistent: the stamp is exactly the state with every record
  // <= seq folded in.
  ReplicationPosition position;
  position.seq = state->durability != nullptr
                     ? state->durability->next_seq() - 1
                     : state->replica_applied_seq;
  position.epoch = state->epoch;
  position.stamp = state->engine.Stamp();
  return position;
}

// ---------------------------------------------------------------------------
// Failover plane.
// ---------------------------------------------------------------------------

std::string IntegrationService::CurrentLeaderAddr() const {
  std::lock_guard<std::mutex> lock(role_mutex_);
  return leader_addr_;
}

bool IntegrationService::LeadsWrites() const {
  std::lock_guard<std::mutex> lock(role_mutex_);
  return !fenced_ && leader_addr_.empty();
}

uint64_t IntegrationService::ProjectEpoch(const std::string& project) {
  ProjectState* state = FindProject(project);
  if (state == nullptr) return 0;
  std::lock_guard<std::mutex> lock(state->write_mutex);
  return state->epoch;
}

void IntegrationService::AdoptReplicationEpoch(const std::string& project,
                                               uint64_t epoch) {
  if (epoch == 0) return;
  EnsureProject(project);
  ProjectState* state = FindProject(project);
  if (state == nullptr) return;
  std::lock_guard<std::mutex> lock(state->write_mutex);
  if (epoch <= state->epoch) return;
  state->epoch = epoch;
  if (state->durability != nullptr) {
    // Durably carried by the next checkpoint (the leader's own checkpoint
    // bytes already embed it during a bootstrap).
    state->durability->set_epoch(epoch);
  }
  epoch_gauge_->Set(static_cast<int64_t>(epoch));
}

Result<uint64_t> IntegrationService::PromoteProject(
    const std::string& project) {
  EnsureProject(project);
  ProjectState* state = FindProject(project);
  if (state == nullptr) {
    return InternalError("project vanished after EnsureProject");
  }
  uint64_t new_epoch = 0;
  {
    std::lock_guard<std::mutex> lock(state->write_mutex);
    if (state->degraded) {
      return FailedPreconditionError(
          "cannot promote a degraded project: " + state->degraded_reason);
    }
    new_epoch = state->epoch + 1;
    state->epoch = new_epoch;
    if (state->durability != nullptr) {
      state->durability->set_epoch(new_epoch);
      // Persist the fence immediately: a promoted leader that crashes and
      // restarts must come back at its promoted epoch, not the one it was
      // elected over. An atomic-write failure is non-fatal here for the
      // same reason it is in MaybeCheckpoint — the node still leads, the
      // fence just isn't durable until the next checkpoint lands.
      (void)state->durability->WriteCheckpoint(state->engine);
    }
  }
  {
    std::lock_guard<std::mutex> lock(role_mutex_);
    leader_addr_.clear();
    fenced_ = false;
  }
  epoch_gauge_->Set(static_cast<int64_t>(new_epoch));
  return new_epoch;
}

Status IntegrationService::DemoteProject(const std::string& project,
                                         uint64_t epoch,
                                         const std::string& leader_addr) {
  EnsureProject(project);
  ProjectState* state = FindProject(project);
  if (state == nullptr) {
    return InternalError("project vanished after EnsureProject");
  }
  {
    std::lock_guard<std::mutex> lock(state->write_mutex);
    const bool leads = LeadsWrites();
    // A demotion must carry a strictly newer epoch to depose a leader;
    // re-pointing an existing follower at the same epoch is legal (it
    // learned the address out of band).
    if (epoch < state->epoch || (epoch == state->epoch && leads)) {
      stale_epoch_rejects_->Increment();
      return FailedPreconditionError(
          "stale demotion: epoch " + std::to_string(epoch) +
          " does not supersede current epoch " +
          std::to_string(state->epoch));
    }
    state->epoch = epoch;
    if (state->durability != nullptr && !state->degraded) {
      state->durability->set_epoch(epoch);
      (void)state->durability->WriteCheckpoint(state->engine);
    }
  }
  {
    std::lock_guard<std::mutex> lock(role_mutex_);
    // The hint is only adopted when it can actually be followed. An empty
    // hint (the demoter learned the epoch but not the leader's address) or
    // one pointing back at this very node (a stale follower echoing OUR
    // address) must not become leader_addr_: blanking it would mean "this
    // node leads" — split-brain at the new epoch — and self-adopting would
    // bounce every redirected client straight back here. Either way the
    // epoch above already rose, so the node fences: writes are refused
    // with an address-less NOT_LEADER until a usable address arrives.
    const bool self_hint = !config_.advertised_addr.empty() &&
                           leader_addr == config_.advertised_addr;
    if (leader_addr.empty() || self_hint) {
      leader_addr_.clear();
      fenced_ = true;
    } else {
      leader_addr_ = leader_addr;
      fenced_ = false;
    }
  }
  epoch_gauge_->Set(static_cast<int64_t>(epoch));
  return Status::Ok();
}

Result<engine::EngineStamp> IntegrationService::ApplyReplicated(
    const std::string& project, uint64_t seq, std::string_view payload) {
  EnsureProject(project);
  ProjectState* state = FindProject(project);
  if (state == nullptr) {
    return InternalError("project vanished after EnsureProject");
  }
  std::lock_guard<std::mutex> lock(state->write_mutex);
  if (state->degraded) {
    return FailedPreconditionError("replica project is degraded: " +
                                   state->degraded_reason);
  }
  ECRINT_ASSIGN_OR_RETURN(engine::ReplayVerb verb,
                          engine::DecodeReplayVerb(payload));
  uint64_t expected = state->durability != nullptr
                          ? state->durability->next_seq()
                          : state->replica_applied_seq + 1;
  if (seq != expected) {
    return InvalidArgumentError("replication seq mismatch: expected " +
                                std::to_string(expected) + ", got " +
                                std::to_string(seq));
  }
  if (state->durability != nullptr) {
    // The follower journals the leader's record at the leader's seq, so a
    // restarted follower recovers locally and resubscribes from where the
    // stream left off.
    Status logged = state->durability->LogVerb(verb);
    if (!logged.ok()) {
      DegradeProject(*state, logged);
      return logged;
    }
  }
  const core::ClosureStats closure_before = state->engine.ClosureTotals();
  // Outcome ignored: the engine is deterministic, so a verb the leader
  // rejected replays to the identical rejection here — and the leader
  // journaled it regardless.
  (void)engine::ApplyReplayVerb(state->engine, verb);
  RecordClosureMetrics(*state, closure_before);
  state->replica_applied_seq = seq;
  if (state->snapshots.Publish(state->engine)) {
    snapshots_published_->Increment();
  }
  if (state->durability != nullptr) {
    state->durability->MaybeCheckpoint(state->engine);
  }
  return state->engine.Stamp();
}

Status IntegrationService::InstallReplicatedCheckpoint(
    const std::string& project, std::string_view bytes, uint64_t seq) {
  EnsureProject(project);
  ProjectState* state = FindProject(project);
  if (state == nullptr) {
    return InternalError("project vanished after EnsureProject");
  }
  std::lock_guard<std::mutex> lock(state->write_mutex);
  if (state->degraded) {
    return FailedPreconditionError("replica project is degraded: " +
                                   state->degraded_reason);
  }
  ECRINT_ASSIGN_OR_RETURN(CheckpointView checkpoint, ParseCheckpointAny(bytes));
  if (checkpoint.seq != seq) {
    return InvalidArgumentError(
        "checkpoint seq " + std::to_string(checkpoint.seq) +
        " does not match advertised seq " + std::to_string(seq));
  }
  // The leader's checkpoint carries its epoch; adopt a newer one (never
  // regress — this node may already know of a later failover).
  if (checkpoint.epoch > state->epoch) {
    state->epoch = checkpoint.epoch;
    epoch_gauge_->Set(static_cast<int64_t>(state->epoch));
  }
  // Build the replacement engine on the side so a bad checkpoint leaves
  // the current state (and its published snapshot) untouched. This mirrors
  // RecoveryManager::Open's checkpoint branch exactly.
  ECRINT_ASSIGN_OR_RETURN(
      core::Project parsed,
      core::ParseProject(std::string(checkpoint.project_text)));
  engine::Engine fresh;
  ECRINT_RETURN_IF_ERROR(fresh.ImportProject(std::move(parsed)));
  if (checkpoint.integrated) {
    Result<const core::IntegrationResult*> integrated =
        fresh.Integrate(checkpoint.integrated_schemas);
    if (!integrated.ok()) {
      return InternalError("leader checkpoint claims a current integration "
                           "but rebuilding it failed: " +
                           integrated.status().message());
    }
  }
  ECRINT_RETURN_IF_ERROR(fresh.AdoptReplayStamp(checkpoint.stamp));
  state->engine = std::move(fresh);
  if (state->durability != nullptr) {
    state->durability->set_epoch(state->epoch);
    Status installed = state->durability->InstallCheckpoint(bytes, seq);
    if (!installed.ok()) {
      DegradeProject(*state, installed);
      return installed;
    }
  }
  state->replica_applied_seq = seq;
  if (state->snapshots.Publish(state->engine)) {
    snapshots_published_->Increment();
  }
  return Status::Ok();
}

Status IntegrationService::ResetReplicatedProject(const std::string& project) {
  ProjectState* state = FindProject(project);
  if (state == nullptr) return Status::Ok();
  std::lock_guard<std::mutex> lock(state->write_mutex);
  engine::Engine fresh;
  engine::BeginReplay(fresh);
  state->engine = std::move(fresh);
  state->replica_applied_seq = 0;
  if (state->durability != nullptr) {
    Status reset = state->durability->Reset();
    if (!reset.ok()) {
      DegradeProject(*state, reset);
      return reset;
    }
  }
  if (state->snapshots.Publish(state->engine)) {
    snapshots_published_->Increment();
  }
  return Status::Ok();
}

int IntegrationService::CheckpointProjects() {
  std::vector<ProjectState*> all;
  {
    std::shared_lock<std::shared_mutex> lock(projects_mutex_);
    for (auto& [name, project] : projects_) all.push_back(project.get());
  }
  int written = 0;
  for (ProjectState* project : all) {
    std::lock_guard<std::mutex> lock(project->write_mutex);
    if (project->degraded || project->durability == nullptr) continue;
    if (project->durability->WriteCheckpoint(project->engine).ok()) {
      ++written;
    }
  }
  return written;
}

// ---------------------------------------------------------------------------
// The integrate body (a member: it times its reply rendering and records
// what building its seeded closure and its plan cost).
// ---------------------------------------------------------------------------

ServiceResponse IntegrationService::IntegrateBody(
    engine::Engine& engine, std::vector<std::string> schemas) {
  size_t before = engine.diagnostics().size();
  Result<const core::IntegrationResult*> result =
      engine.Integrate(std::move(schemas));
  // What this integrate paid to build its seeded closure: a full rebuild
  // re-seeds every schema, an extension of the cached closure does not.
  const engine::Engine::SeedCost& seed = engine.last_seed_cost();
  if (seed.full_rebuild) integrate_full_rebuilds_->Increment();
  if (seed.ns >= 0) integrate_seed_->Record(seed.ns / 1000);
  if (engine.last_plan_built()) integrate_plan_builds_->Increment();
  if (!result.ok()) {
    return WriteFailure(engine, before, result.status());
  }
  // The reply: the integrated schema's outline, then one line per derived
  // attribute, rendered straight into the response.
  common::Stopwatch watch(clock_);
  ServiceResponse response;
  ecr::AppendOutlineLines((*result)->schema, response.lines);
  const std::vector<core::DerivedAttributeInfo>& derived =
      (*result)->derived_attributes;
  response.lines.reserve(response.lines.size() + derived.size());
  for (const core::DerivedAttributeInfo& info : derived) {
    std::string& line = response.lines.emplace_back("derived ");
    line += info.owner;
    line += '.';
    line += info.name;
    line += " <-";
    for (const ecr::AttributePath& component : info.components) {
      line += ' ';
      line += component.schema;
      line += '.';
      line += component.object;
      line += '.';
      line += component.attribute;
    }
  }
  integrate_render_->Record(watch.ElapsedNs() / 1000);
  return response;
}

// ---------------------------------------------------------------------------
// Command plane: one executor for single requests, and pipelined batches.
// ---------------------------------------------------------------------------

ServiceResponse IntegrationService::Execute(const std::string& session_id,
                                            const ServiceCommand& command,
                                            std::string* wire,
                                            int protocol_version) {
  // Opportunistic (throttled) reaping keeps the session table tight
  // without a timer thread.
  MaybeReapSessions();
  VerbStats stats = StatsFor(CommandVerbName(command.op));
  stats.requests->Increment();
  ServiceResponse response;
  std::optional<ServiceError> refusal = Admit(
      session_id, command.deadline_ns, stats.latency,
      [&](ProjectState& project, int64_t deadline) {
        if (IsWriteCommand(command.op)) {
          response = RunWrite(project, deadline, command);
        } else {
          // Reads never touch the engine: they compute from (or are
          // answered by the memo against) the current snapshot, lock-free
          // against a writer mid-mutation.
          response = ReadCommandBody(project, *project.snapshots.Current(),
                                     command, wire, protocol_version);
        }
      });
  if (refusal.has_value()) response.error = *std::move(refusal);
  if (response.error.has_value()) {
    error_counters_[static_cast<int>(response.error->code)]->Increment();
  }
  return response;
}

ServiceResponse IntegrationService::ReadCommandBody(
    ProjectState& project, const EngineSnapshot& snapshot,
    const ServiceCommand& command, std::string* wire, int protocol_version) {
  const std::string key = MemoKey(command);
  if (!key.empty()) {
    if (std::optional<ServiceResponse> hit =
            project.memo.Lookup(key, snapshot, wire, protocol_version)) {
      cache_hits_->Increment();
      return *std::move(hit);
    }
  }
  ServiceResponse response;
  switch (command.op) {
    case ServiceCommand::Op::kPing:
      response.lines.push_back("pong");
      break;
    case ServiceCommand::Op::kRank:
      response = RankBody(snapshot, command.schema1, command.schema2,
                          command.kind, command.include_zero);
      break;
    case ServiceCommand::Op::kSuggest:
      response = SuggestBody(snapshot, command.schema1, command.schema2,
                             command.threshold);
      break;
    case ServiceCommand::Op::kTranslate:
      response =
          TranslateBody(snapshot, command.request, command.to_components);
      break;
    case ServiceCommand::Op::kOutline:
      response = OutlineBody(snapshot);
      break;
    case ServiceCommand::Op::kMetrics:
      response.lines.push_back(metrics_.MetricsJson());
      break;
    default:
      return ErrorResponse(
          {ServiceErrorCode::kBadRequest, "not a read command"});
  }
  // Only successful replies are memoized: an error names a missing schema
  // or object, which a later write may add without touching the parts the
  // entry would be validated against.
  if (!key.empty() && response.ok()) {
    project.memo.Insert(key, snapshot, response);
  }
  return response;
}

ServiceResponse IntegrationService::WriteCommandBody(
    engine::Engine& engine, const ServiceCommand& command) {
  switch (command.op) {
    case ServiceCommand::Op::kDefine:
      return DefineBody(engine, command.text);
    case ServiceCommand::Op::kEquiv:
      return EquivBody(engine, command.path_a, command.path_b);
    case ServiceCommand::Op::kAssert:
      return AssertBody(engine, command.first, command.type_code,
                        command.second);
    case ServiceCommand::Op::kIntegrate:
      return IntegrateBody(engine, command.schemas);
    case ServiceCommand::Op::kExport:
      return ExportBody(engine);
    default:
      return ErrorResponse(
          {ServiceErrorCode::kBadRequest, "not a write command"});
  }
}

std::vector<ServiceResponse> IntegrationService::ExecuteBatch(
    const std::string& session_id,
    const std::vector<ServiceCommand>& commands) {
  std::vector<ServiceResponse> out(commands.size());
  if (commands.empty()) return out;
  MaybeReapSessions();
  VerbStats batch_stats = StatsFor("batch");
  batch_stats.requests->Increment();
  batch_size_->Record(static_cast<int64_t>(commands.size()));
  // ONE admission charge for the whole batch, under one default deadline.
  std::optional<ServiceError> refusal =
      Admit(session_id, /*deadline_ns=*/0, batch_stats.latency,
            [&](ProjectState& project, int64_t deadline) {
              RunBatch(project, deadline, commands, out);
            });
  for (ServiceResponse& response : out) {
    if (refusal.has_value()) response.error = refusal;
    if (response.error.has_value()) {
      error_counters_[static_cast<int>(response.error->code)]->Increment();
    }
  }
  return out;
}

void IntegrationService::RunBatch(ProjectState& project, int64_t deadline_ns,
                                  const std::vector<ServiceCommand>& commands,
                                  std::vector<ServiceResponse>& out) {
  const size_t n = commands.size();
  size_t i = 0;
  while (i < n) {
    if (!IsWriteCommand(commands[i].op)) {
      // Read run: every read in the run shares ONE snapshot acquisition.
      // Memo lookups validate against this same snapshot, so a read that
      // follows a write run in the batch can never be served a pre-write
      // answer.
      std::shared_ptr<const EngineSnapshot> snapshot =
          project.snapshots.Current();
      for (; i < n && !IsWriteCommand(commands[i].op); ++i) {
        StatsFor(CommandVerbName(commands[i].op)).requests->Increment();
        out[i] = ReadCommandBody(project, *snapshot, commands[i],
                                 /*wire=*/nullptr, kProtocolBinaryVersion);
      }
      continue;
    }
    size_t end = i;
    while (end < n && IsWriteCommand(commands[end].op)) ++end;
    RunWriteBatch(project, deadline_ns, commands, i, end, out);
    i = end;
  }
}

void IntegrationService::RunWriteBatch(
    ProjectState& project, int64_t deadline_ns,
    const std::vector<ServiceCommand>& commands, size_t begin, size_t end,
    std::vector<ServiceResponse>& out) {
  std::lock_guard<std::mutex> lock(project.write_mutex);
  if (clock_->NowNs() >= deadline_ns) {
    for (size_t k = begin; k < end; ++k) {
      out[k] = ErrorResponse({ServiceErrorCode::kTimeout,
                              "deadline expired while queued for write"});
    }
    return;
  }
  const core::ClosureStats closure_before = project.engine.ClosureTotals();
  // One role probe for the run: a promote/demote racing the batch lands
  // before or after the whole run, never between two of its writes.
  const bool leads = LeadsWrites();
  const std::string leader = CurrentLeaderAddr();
  // WAL-first per command, but with deferred appends: each record is
  // framed and appended before its verb runs, and ONE durability barrier
  // at the end of the run covers them all (true group commit — under
  // FsyncPolicy::kAlways a run of W writes costs one fsync, not W).
  bool append_failed = false;
  int64_t appended = 0;
  std::vector<size_t> committed_pending;  // ran; reply gated on the barrier
  for (size_t k = begin; k < end; ++k) {
    const ServiceCommand& command = commands[k];
    StatsFor(CommandVerbName(command.op)).requests->Increment();
    Result<std::optional<engine::ReplayVerb>> verb = ReplayVerbFor(command);
    if (!verb.ok()) {
      out[k] = ErrorResponse(
          {ServiceErrorCode::kBadRequest, verb.status().message()});
      continue;
    }
    if (!verb->has_value()) {
      // export: not journaled, works in degraded mode (and on replicas).
      out[k] = ExportBody(project.engine);
      continue;
    }
    if (!leads) {
      out[k] = ErrorResponse(NotLeaderError(leader));
      continue;
    }
    if (project.degraded || append_failed) {
      out[k] = ErrorResponse(UnavailableError(project));
      continue;
    }
    if (project.durability != nullptr) {
      Status logged = project.durability->LogVerbDeferred(**verb);
      if (!logged.ok()) {
        DegradeProject(project, logged);
        append_failed = true;
        out[k] = ErrorResponse(UnavailableError(project));
        continue;
      }
      ++appended;
    }
    out[k] = WriteCommandBody(project.engine, command);
    committed_pending.push_back(k);
  }
  if (project.durability != nullptr && appended > 0) {
    // No reply for a journaled verb may leave before its record is
    // durable. Attempted even after a failed append so the records of the
    // verbs that DID run get their barrier.
    Status committed = project.durability->CommitBatch();
    if (!committed.ok()) {
      if (!project.degraded) DegradeProject(project, committed);
      // The mutations may be applied in memory but are not durable; the
      // batch answers UNAVAILABLE for them (readers can observe the
      // unacknowledged state until restart — docs/OPERATIONS.md).
      for (size_t k : committed_pending) {
        out[k] = ErrorResponse(UnavailableError(project));
      }
    }
  }
  RecordClosureMetrics(project, closure_before);
  if (project.snapshots.Publish(project.engine)) {
    snapshots_published_->Increment();
  }
  if (!project.degraded && project.durability != nullptr &&
      !committed_pending.empty()) {
    project.durability->MaybeCheckpoint(project.engine);
  }
}

void IntegrationService::NoteCacheHit(const std::string& session_id,
                                      const char* verb) {
  MaybeReapSessions();
  StatsFor(verb).requests->Increment();
  cache_hits_->Increment();
  (void)sessions_.Touch(session_id);
}

std::shared_ptr<const EngineSnapshot> IntegrationService::CurrentSnapshot(
    const std::string& session_id) {
  ServiceError error;
  ProjectState* project = ProjectForSession(session_id, &error);
  if (project == nullptr) return nullptr;
  return project->snapshots.Current();
}

}  // namespace ecrint::service
