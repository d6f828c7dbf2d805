// perf_service — closed-loop load generator for the integration service
// plane. Unlike the google-benchmark sweeps, this harness measures the
// service's *concurrent* behaviour: N client threads drive an in-process
// RequestRouter (same dispatch path as the TCP front end, minus the socket)
// against one shared project, and the emitted JSON records
//
//   * read throughput at 1 thread vs N threads (snapshot reads are
//     lock-free, so the scaling factor is the headline number),
//   * a mixed read/write phase whose writes serialize on the project lock
//     while readers keep running on the previous snapshot,
//   * client-observed error tallies per code (the acceptance bar: zero
//     CONFLICT and zero TIMEOUT at the default queue depth),
//   * journal write latency (p50/p95 per mutation) without a journal vs
//     --fsync batch vs --fsync always, on the real filesystem,
//   * replica read scaling: a replication leader is seeded with the same
//     workload, 1/2/4 follower services bootstrap from its checkpoint +
//     WAL stream (pumped through an in-memory sink), and the aggregate
//     snapshot-read throughput across the replicas is recorded, and
//   * the service's own MetricsRegistry dump — per-verb latency histograms
//     with p50/p95/p99, snapshot publish counts, queue-depth high-water,
//   * connection scaling over real sockets: a forked child serves the
//     epoll network plane, the parent parks 10k pinged-once idle
//     connections and shows that active mixed traffic (and the child's
//     RSS) doesn't pay for them — against a thread-per-connection RSS
//     baseline (see "connection scaling" below).
//
//   perf_service [--threads N] [--ops N] [--queue-depth N]
//                [--idle-conns N] [--smoke]
//
// All writes are idempotent replays of the workload's ground truth
// (re-declaring an equivalence or re-asserting a true relation is a no-op
// for the closure), so any interleaving stays conflict-free — making
// "errors.CONFLICT == 0" a real invariant rather than luck. Exit status is
// nonzero when a CONFLICT or TIMEOUT is observed. bench/run_benches.sh
// --service captures stdout into BENCH_service.json.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fs.h"
#include "core/assertion.h"
#include "ecr/printer.h"
#include "service/net.h"
#include "service/protocol.h"
#include "service/replication.h"
#include "service/router.h"
#include "service/service.h"
#include "workload/generator.h"

namespace {

using namespace ecrint;  // NOLINT: harness brevity

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One client: its own RouterSession (and service session) bound to the
// shared project, issuing one request at a time like a blocking connection.
struct Client {
  service::RouterSession session;
  service::RequestRouter* router = nullptr;
  std::map<std::string, int64_t> errors_by_code;
  int64_t ops = 0;
  // Requests queued for the next batch frame (binary batch mode).
  std::vector<service::BinaryRequest> pending;

  // Sends one line, parses the framed response, tallies errors. Returns
  // true when the response was ok.
  bool Send(const std::string& line) {
    std::string wire = router->HandleLine(line, &session);
    Result<service::ServiceResponse> response =
        service::ParseResponse(wire);
    ++ops;
    if (!response.ok()) {
      ++errors_by_code["UNPARSEABLE"];
      return false;
    }
    if (response->error.has_value()) {
      ++errors_by_code[service::ServiceErrorCodeName(
          response->error->code)];
      return false;
    }
    return true;
  }

  // Sends one complete binary frame through the router (the in-process
  // equivalent of writing it to the socket), decodes the response frame,
  // tallies one op and any error per response item.
  bool SendEncodedFrame(const std::string& frame, int64_t items) {
    std::string_view body;
    size_t consumed = 0;
    std::string frame_error;
    if (service::ExtractFrame(frame, &body, &consumed, &frame_error) !=
        service::FrameStatus::kComplete) {
      ops += items;
      errors_by_code["UNPARSEABLE"] += items;
      return false;
    }
    std::string reply = router->HandleFrame(body, &session);
    if (service::ExtractFrame(reply, &body, &consumed, &frame_error) !=
        service::FrameStatus::kComplete) {
      ops += items;
      errors_by_code["UNPARSEABLE"] += items;
      return false;
    }
    Result<service::DecodedResponse> decoded =
        service::DecodeBinaryResponse(body);
    if (!decoded.ok()) {
      ops += items;
      errors_by_code["UNPARSEABLE"] += items;
      return false;
    }
    bool all_ok = true;
    for (const service::ServiceResponse& response : decoded->items) {
      ++ops;
      if (response.error.has_value()) {
        ++errors_by_code[service::ServiceErrorCodeName(
            response.error->code)];
        all_ok = false;
      }
    }
    return all_ok;
  }

  bool SendBinary(const service::BinaryRequest& request) {
    return SendEncodedFrame(service::EncodeBinaryRequest(request), 1);
  }

  // Flushes the queued requests as one batch frame.
  bool Flush() {
    if (pending.empty()) return true;
    std::string frame = service::EncodeBinaryBatch(pending);
    int64_t items = static_cast<int64_t>(pending.size());
    pending.clear();
    return SendEncodedFrame(frame, items);
  }
};

struct Phase {
  std::string name;
  int threads = 0;
  int64_t ops = 0;
  double elapsed_ms = 0;
  double ops_per_sec = 0;
  std::map<std::string, int64_t> errors_by_code;
};

// Drives `threads` clients through `ops_per_thread` calls of `op(rng, i)`.
// `protocol` 2 negotiates the binary framing before the clock starts.
Phase RunPhase(const std::string& name, service::RequestRouter* router,
               const std::string& project, int threads,
               int64_t ops_per_thread,
               const std::function<void(Client&, std::mt19937&, int64_t)>&
                   op,
               int protocol = service::kProtocolTextVersion) {
  std::vector<Client> clients(threads);
  for (int t = 0; t < threads; ++t) {
    clients[t].router = router;
    clients[t].Send("open " + project);
    if (protocol == service::kProtocolBinaryVersion) {
      clients[t].Send("proto 2");
    }
  }
  std::vector<std::thread> workers;
  int64_t start = NowNs();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::mt19937 rng(1000 + static_cast<uint32_t>(t));
      for (int64_t i = 0; i < ops_per_thread; ++i) op(clients[t], rng, i);
    });
  }
  for (std::thread& worker : workers) worker.join();
  int64_t elapsed = NowNs() - start;
  for (int t = 0; t < threads; ++t) clients[t].Send("close");

  Phase phase;
  phase.name = name;
  phase.threads = threads;
  phase.ops = threads * ops_per_thread;
  phase.elapsed_ms = static_cast<double>(elapsed) / 1e6;
  phase.ops_per_sec =
      elapsed > 0 ? static_cast<double>(phase.ops) * 1e9 /
                        static_cast<double>(elapsed)
                  : 0;
  for (const Client& client : clients) {
    // Setup sends (open/close) count toward errors but not the timed ops.
    for (const auto& [code, count] : client.errors_by_code) {
      phase.errors_by_code[code] += count;
    }
  }
  return phase;
}

std::string JsonErrors(const std::map<std::string, int64_t>& errors) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [code, count] : errors) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << code << "\": " << count;
  }
  out << "}";
  return out.str();
}

std::string JsonPhase(const Phase& phase) {
  std::ostringstream out;
  out << "{\"threads\": " << phase.threads << ", \"ops\": " << phase.ops
      << ", \"elapsed_ms\": " << phase.elapsed_ms
      << ", \"ops_per_sec\": " << phase.ops_per_sec
      << ", \"errors\": " << JsonErrors(phase.errors_by_code) << "}";
  return out.str();
}

// --- shared workload ops ---------------------------------------------------
// The seed and the mixed-traffic generator are shared between the
// in-process phases and the socket-level connection-scaling phase, which
// runs them in a forked server child and drives it over TCP.

bool SeedProject(service::RequestRouter* target,
                 const workload::Workload& workload) {
  Client setup;
  setup.router = target;
  bool seeded = setup.Send("open bench");
  for (const std::string& name : workload.schema_names) {
    const ecr::Schema& schema = **workload.catalog.GetSchema(name);
    seeded &=
        setup.Send("define " + service::EscapeField(ecr::ToDdl(schema)));
  }
  for (const workload::TrueAttributeMatch& match :
       workload.attribute_matches) {
    seeded &= setup.Send("equiv " + match.first.ToString() + " " +
                         match.second.ToString());
  }
  for (const workload::TrueObjectRelation& relation :
       workload.object_relations) {
    seeded &= setup.Send(
        "assert " + relation.first.ToString() + " " +
        std::to_string(core::AssertionTypeCode(relation.assertion)) + " " +
        relation.second.ToString());
  }
  seeded &= setup.Send("integrate");
  if (!seeded) {
    std::cerr << "project seeding failed: "
              << JsonErrors(setup.errors_by_code) << "\n";
  }
  return seeded;
}

service::BinaryRequest MakeReadRequest(const workload::Workload& workload,
                                       std::mt19937& rng) {
  const std::vector<std::string>& names = workload.schema_names;
  size_t a = rng() % names.size();
  size_t b = (a + 1 + rng() % (names.size() - 1)) % names.size();
  service::BinaryRequest request;
  switch (rng() % 4) {
    case 0:
    case 1:
      request.verb = service::WireVerb::kRank;
      request.args = {names[a], names[b], "zero"};
      break;
    case 2:
      request.verb = service::WireVerb::kSuggest;
      request.args = {names[a], names[b]};
      break;
    default:
      request.verb = service::WireVerb::kOutline;
      break;
  }
  return request;
}

service::BinaryRequest MakeMixedRequest(const workload::Workload& workload,
                                        std::mt19937& rng) {
  // ~80/20 read/write; writes replay ground truth, so they commute.
  if (rng() % 5 != 0) return MakeReadRequest(workload, rng);
  service::BinaryRequest request;
  switch (rng() % 3) {
    case 0: {
      const workload::TrueAttributeMatch& match =
          workload
              .attribute_matches[rng() % workload.attribute_matches.size()];
      request.verb = service::WireVerb::kEquiv;
      request.args = {match.first.ToString(), match.second.ToString()};
      break;
    }
    case 1: {
      const workload::TrueObjectRelation& relation =
          workload
              .object_relations[rng() % workload.object_relations.size()];
      request.verb = service::WireVerb::kAssert;
      request.args = {
          relation.first.ToString(),
          std::to_string(core::AssertionTypeCode(relation.assertion)),
          relation.second.ToString()};
      break;
    }
    default:
      request.verb = service::WireVerb::kIntegrate;
      break;
  }
  return request;
}

// --- connection scaling ----------------------------------------------------
// The 10k-connection claim, measured over real sockets. A forked child
// runs the NetServer (the exact epoll plane ecrint_serve uses) over a
// seeded service; the parent
//   * runs an N-connection binary mixed workload over TCP (the active
//     baseline, with client-observed p99),
//   * opens `idle_target` more connections, pings each once (so every
//     connection has served traffic — the realistic "burst then park"
//     shape) and leaves them parked,
//   * measures the child's VmRSS growth per parked connection,
//   * re-runs the same active workload with the herd parked (active_ratio
//     is the "active connections don't pay for idle ones" number), and
//   * compares the per-connection memory against a thread-per-connection
//     baseline: parked threads blocked in read(2) with the old server's
//     64 KiB stack buffer touched, the shape this plane replaced.
// The child is forked FIRST in main, before anything can spawn a thread
// (common::ThreadPool::Shared() is lazy, so a fork before the first
// engine rebuild is a fork of a single-threaded process).

volatile int g_bench_server_shutdown_fd = -1;

void BenchServerSignal(int) {
  if (g_bench_server_shutdown_fd >= 0) {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n =
        write(g_bench_server_shutdown_fd, &one, sizeof(one));
  }
}

// 10k sockets on each side of the loopback: lift the soft fd limit before
// forking so both processes inherit it.
void RaiseFdLimit() {
  struct rlimit limit;
  if (getrlimit(RLIMIT_NOFILE, &limit) != 0) return;
  if (limit.rlim_cur >= limit.rlim_max) return;
  limit.rlim_cur = limit.rlim_max;
  (void)setrlimit(RLIMIT_NOFILE, &limit);
}

[[noreturn]] void RunBenchServer(int ready_fd,
                                 const workload::Workload& workload) {
  signal(SIGPIPE, SIG_IGN);
  service::ServiceConfig config;
  service::IntegrationService service(config);
  service::RequestRouter router(&service);
  if (!SeedProject(&router, workload)) _exit(3);
  service::NetOptions options;
  options.port = 0;
  service::NetServer server(&router, nullptr, options);
  Result<int> port = server.Start();
  if (!port.ok()) _exit(4);
  g_bench_server_shutdown_fd = server.shutdown_fd();
  struct sigaction action {};
  action.sa_handler = BenchServerSignal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGTERM, &action, nullptr);
  dprintf(ready_fd, "%d\n", *port);
  close(ready_fd);
  server.Run();
  _exit(0);
}

int64_t ReadVmRssBytes(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::atoll(line.c_str() + 6) * 1024;
    }
  }
  return -1;
}

int ConnectLoopback(int port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  // Closed-loop round trips: without TCP_NODELAY every request waits out
  // Nagle against the delayed ACK and the phase measures the kernel's
  // 40 ms timer, not the server.
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

ssize_t ReadSome(int fd, char* buf, size_t len) {
  for (;;) {
    ssize_t n = read(fd, buf, len);
    if (n < 0 && errno == EINTR) continue;
    return n;
  }
}

// Reads one "."-terminated text response, leaving any over-read bytes in
// *buffer. Every response has a status line, so "\n.\n" is the terminator.
bool ReadTextResponse(int fd, std::string* buffer, std::string* response) {
  for (;;) {
    size_t pos = buffer->find("\n.\n");
    if (pos != std::string::npos) {
      response->assign(*buffer, 0, pos + 3);
      buffer->erase(0, pos + 3);
      return true;
    }
    char chunk[4096];
    ssize_t n = ReadSome(fd, chunk, sizeof(chunk));
    if (n <= 0) return false;
    buffer->append(chunk, static_cast<size_t>(n));
  }
}

// Reads one complete binary frame body, leaving any over-read bytes in
// *buffer.
bool ReadFrameBody(int fd, std::string* buffer, std::string* body_out) {
  for (;;) {
    std::string_view body;
    size_t consumed = 0;
    std::string frame_error;
    service::FrameStatus status =
        service::ExtractFrame(*buffer, &body, &consumed, &frame_error);
    if (status == service::FrameStatus::kComplete) {
      body_out->assign(body.data(), body.size());
      buffer->erase(0, consumed);
      return true;
    }
    if (status == service::FrameStatus::kError) return false;
    char chunk[65536];
    ssize_t n = ReadSome(fd, chunk, sizeof(chunk));
    if (n <= 0) return false;
    buffer->append(chunk, static_cast<size_t>(n));
  }
}

struct SocketPhase {
  int connections = 0;
  int64_t ops = 0;
  double elapsed_ms = 0;
  double ops_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
  std::map<std::string, int64_t> errors_by_code;
  bool ok = true;
};

// The socket twin of RunPhase's mixed_binary: `connections` client threads
// each negotiate `proto 2` and run `ops_per_conn` closed-loop mixed
// requests, recording client-observed latency per round trip. Both calls
// use the same seeds, so baseline and with-idle see identical request
// streams.
SocketPhase RunSocketMixedPhase(int port,
                                const workload::Workload& workload,
                                int connections, int64_t ops_per_conn) {
  SocketPhase phase;
  phase.connections = connections;
  std::vector<std::vector<int64_t>> latencies(
      static_cast<size_t>(connections));
  std::vector<std::map<std::string, int64_t>> errors(
      static_cast<size_t>(connections));
  std::atomic<bool> failed{false};
  std::vector<std::thread> workers;
  int64_t start = NowNs();
  for (int t = 0; t < connections; ++t) {
    workers.emplace_back([&, t] {
      std::mt19937 rng(5000 + static_cast<uint32_t>(t));
      int fd = ConnectLoopback(port);
      if (fd < 0) {
        failed.store(true, std::memory_order_relaxed);
        return;
      }
      std::string buffer, response;
      bool negotiated = service::SendAll(fd, "open bench\n") &&
                        ReadTextResponse(fd, &buffer, &response) &&
                        response.rfind("ok\n", 0) == 0 &&
                        service::SendAll(fd, "proto 2\n") &&
                        ReadTextResponse(fd, &buffer, &response) &&
                        response.rfind("ok\n", 0) == 0;
      if (!negotiated) {
        failed.store(true, std::memory_order_relaxed);
        close(fd);
        return;
      }
      latencies[static_cast<size_t>(t)].reserve(
          static_cast<size_t>(ops_per_conn));
      for (int64_t i = 0; i < ops_per_conn; ++i) {
        std::string frame =
            service::EncodeBinaryRequest(MakeMixedRequest(workload, rng));
        std::string body;
        int64_t op_start = NowNs();
        if (!service::SendAll(fd, frame) ||
            !ReadFrameBody(fd, &buffer, &body)) {
          failed.store(true, std::memory_order_relaxed);
          break;
        }
        latencies[static_cast<size_t>(t)].push_back(NowNs() - op_start);
        Result<service::DecodedResponse> decoded =
            service::DecodeBinaryResponse(body);
        if (!decoded.ok()) {
          ++errors[static_cast<size_t>(t)]["UNPARSEABLE"];
          continue;
        }
        for (const service::ServiceResponse& item : decoded->items) {
          if (item.error.has_value()) {
            ++errors[static_cast<size_t>(t)][service::ServiceErrorCodeName(
                item.error->code)];
          }
        }
      }
      close(fd);
    });
  }
  for (std::thread& worker : workers) worker.join();
  int64_t elapsed = NowNs() - start;

  std::vector<int64_t> merged;
  for (const std::vector<int64_t>& per_conn : latencies) {
    merged.insert(merged.end(), per_conn.begin(), per_conn.end());
  }
  std::sort(merged.begin(), merged.end());
  phase.ok = !failed.load(std::memory_order_relaxed) &&
             merged.size() ==
                 static_cast<size_t>(connections) *
                     static_cast<size_t>(ops_per_conn);
  phase.ops = static_cast<int64_t>(merged.size());
  phase.elapsed_ms = static_cast<double>(elapsed) / 1e6;
  phase.ops_per_sec = elapsed > 0 ? static_cast<double>(phase.ops) * 1e9 /
                                        static_cast<double>(elapsed)
                                  : 0;
  if (!merged.empty()) {
    phase.p50_us = static_cast<double>(merged[merged.size() / 2]) / 1e3;
    phase.p99_us =
        static_cast<double>(merged[merged.size() * 99 / 100]) / 1e3;
  }
  for (const std::map<std::string, int64_t>& per_conn : errors) {
    for (const auto& [code, count] : per_conn) {
      phase.errors_by_code[code] += count;
    }
  }
  return phase;
}

// What the epoll plane replaced: one parked thread per connection, blocked
// in read(2) on its socket with the old ServeConnection's 64 KiB stack
// buffer touched the way serving real traffic touches it. Measured as the
// parent's own RSS growth per parked thread.
struct ThreadBaseline {
  int threads = 0;
  int64_t rss_total_bytes = 0;
  int64_t rss_per_conn_bytes = 0;
};

ThreadBaseline MeasureThreadBaseline(int count) {
  ThreadBaseline result;
  int64_t before = ReadVmRssBytes(getpid());
  std::vector<int> wake_fds;
  std::vector<std::thread> threads;
  std::atomic<int> parked{0};
  for (int i = 0; i < count; ++i) {
    int fds[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) break;
    wake_fds.push_back(fds[1]);
    const int conn_fd = fds[0];
    threads.emplace_back([conn_fd, &parked] {
      char chunk[65536];
      for (size_t i = 0; i < sizeof(chunk); i += 512) {
        chunk[i] = static_cast<char>(i);
      }
      // The stores above fault the buffer's pages in; without this the
      // optimizer sees dead stores and the stack stays untouched.
      asm volatile("" : : "r"(chunk) : "memory");
      parked.fetch_add(1, std::memory_order_relaxed);
      while (ReadSome(conn_fd, chunk, sizeof(chunk)) > 0) {
      }
      close(conn_fd);
    });
  }
  while (parked.load(std::memory_order_relaxed) <
         static_cast<int>(threads.size())) {
    usleep(1000);
  }
  usleep(200'000);  // let RSS settle before sampling
  int64_t after = ReadVmRssBytes(getpid());
  for (int fd : wake_fds) close(fd);  // EOF wakes every parked reader
  for (std::thread& thread : threads) thread.join();
  result.threads = static_cast<int>(threads.size());
  result.rss_total_bytes = after > before ? after - before : 0;
  result.rss_per_conn_bytes =
      result.threads > 0 ? result.rss_total_bytes / result.threads : 0;
  return result;
}

struct ConnectionScaling {
  bool ok = true;
  std::string error;
  int64_t idle_target = 0;
  int64_t idle_connections = 0;
  double connect_ms = 0;
  double accept_per_sec = 0;
  SocketPhase active_baseline;
  SocketPhase active_with_idle;
  double active_ratio = 0;
  int64_t rss_idle_total_bytes = 0;
  int64_t rss_per_idle_conn_bytes = 0;
  ThreadBaseline thread_baseline;
  double rss_reduction_x = 0;
  bool server_exit_ok = false;
  std::string server_metrics = "{}";
};

ConnectionScaling RunConnectionScaling(const workload::Workload& workload,
                                       int active_conns,
                                       int64_t ops_per_conn,
                                       int idle_target,
                                       int thread_baseline_count) {
  ConnectionScaling result;
  result.idle_target = idle_target;

  int ready_pipe[2];
  if (pipe(ready_pipe) != 0) {
    result.ok = false;
    result.error = "pipe failed";
    return result;
  }
  pid_t child = fork();
  if (child < 0) {
    result.ok = false;
    result.error = "fork failed";
    close(ready_pipe[0]);
    close(ready_pipe[1]);
    return result;
  }
  if (child == 0) {
    close(ready_pipe[0]);
    RunBenchServer(ready_pipe[1], workload);  // _exits
  }
  close(ready_pipe[1]);
  std::string port_line;
  char c;
  while (read(ready_pipe[0], &c, 1) == 1 && c != '\n') port_line.push_back(c);
  close(ready_pipe[0]);
  int port = std::atoi(port_line.c_str());
  if (port <= 0) {
    result.ok = false;
    result.error = "server child failed to start";
    kill(child, SIGKILL);
    waitpid(child, nullptr, 0);
    return result;
  }

  // Active traffic with nothing else connected: the comparison floor.
  result.active_baseline =
      RunSocketMixedPhase(port, workload, active_conns, ops_per_conn);
  result.ok &= result.active_baseline.ok;

  // Park the idle herd: connect, serve one ping, leave open.
  int64_t rss_before = ReadVmRssBytes(child);
  std::vector<int> idle;
  idle.reserve(static_cast<size_t>(idle_target));
  int64_t herd_start = NowNs();
  {
    std::string buffer, response;
    for (int i = 0; i < idle_target; ++i) {
      int fd = ConnectLoopback(port);
      if (fd < 0) break;
      buffer.clear();
      if (!service::SendAll(fd, "ping\n") ||
          !ReadTextResponse(fd, &buffer, &response)) {
        close(fd);
        break;
      }
      idle.push_back(fd);
    }
  }
  int64_t herd_elapsed = NowNs() - herd_start;
  result.idle_connections = static_cast<int64_t>(idle.size());
  result.connect_ms = static_cast<double>(herd_elapsed) / 1e6;
  result.accept_per_sec =
      herd_elapsed > 0 ? static_cast<double>(idle.size()) * 1e9 /
                             static_cast<double>(herd_elapsed)
                       : 0;
  result.ok &= result.idle_connections == idle_target;
  if (result.idle_connections < idle_target) {
    result.error = "only parked " +
                   std::to_string(result.idle_connections) + " of " +
                   std::to_string(idle_target) + " idle connections";
  }

  usleep(200'000);  // let the child's RSS settle before sampling
  int64_t rss_after = ReadVmRssBytes(child);
  result.rss_idle_total_bytes =
      rss_after > rss_before ? rss_after - rss_before : 0;
  result.rss_per_idle_conn_bytes =
      idle.empty() ? 0
                   : result.rss_idle_total_bytes /
                         static_cast<int64_t>(idle.size());

  // Same request streams again, now with the herd parked.
  result.active_with_idle =
      RunSocketMixedPhase(port, workload, active_conns, ops_per_conn);
  result.ok &= result.active_with_idle.ok;
  result.active_ratio =
      result.active_baseline.ops_per_sec > 0
          ? result.active_with_idle.ops_per_sec /
                result.active_baseline.ops_per_sec
          : 0;

  // Server-side counters (accepts, wakeups, writev calls, the
  // net.connections high-water) over a control connection.
  int control = ConnectLoopback(port);
  if (control >= 0) {
    std::string buffer, response;
    if (service::SendAll(control, "open bench\n") &&
        ReadTextResponse(control, &buffer, &response) &&
        response.rfind("ok\n", 0) == 0 &&
        service::SendAll(control, "metrics\n") &&
        ReadTextResponse(control, &buffer, &response) &&
        response.rfind("ok\n", 0) == 0 && response.size() > 6) {
      result.server_metrics = response.substr(3, response.size() - 6);
    }
    close(control);
  }

  // Drain the child with the herd still parked (the 10k-connection
  // SIGTERM path), then release the parent's ends.
  kill(child, SIGTERM);
  int status = 0;
  waitpid(child, &status, 0);
  result.server_exit_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  result.ok &= result.server_exit_ok;
  if (!result.server_exit_ok && result.error.empty()) {
    result.error = "server child did not drain cleanly";
  }
  for (int fd : idle) close(fd);

  result.thread_baseline = MeasureThreadBaseline(thread_baseline_count);
  result.rss_reduction_x =
      result.rss_per_idle_conn_bytes > 0
          ? static_cast<double>(result.thread_baseline.rss_per_conn_bytes) /
                static_cast<double>(result.rss_per_idle_conn_bytes)
          : 0;
  return result;
}

std::string JsonSocketPhase(const SocketPhase& phase) {
  std::ostringstream out;
  out << "{\"connections\": " << phase.connections
      << ", \"ops\": " << phase.ops
      << ", \"elapsed_ms\": " << phase.elapsed_ms
      << ", \"ops_per_sec\": " << phase.ops_per_sec
      << ", \"p50_us\": " << phase.p50_us
      << ", \"p99_us\": " << phase.p99_us
      << ", \"errors\": " << JsonErrors(phase.errors_by_code) << "}";
  return out.str();
}

std::string JsonConnectionScaling(const ConnectionScaling& scaling) {
  std::ostringstream out;
  out << "{\"idle_target\": " << scaling.idle_target
      << ", \"idle_connections\": " << scaling.idle_connections
      << ", \"connect_ms\": " << scaling.connect_ms
      << ", \"accept_per_sec\": " << scaling.accept_per_sec
      << ",\n    \"active_baseline\": "
      << JsonSocketPhase(scaling.active_baseline)
      << ",\n    \"active_with_idle\": "
      << JsonSocketPhase(scaling.active_with_idle)
      << ",\n    \"active_ratio\": " << scaling.active_ratio
      << ", \"rss_idle_total_bytes\": " << scaling.rss_idle_total_bytes
      << ", \"rss_per_idle_conn_bytes\": "
      << scaling.rss_per_idle_conn_bytes
      << ", \"thread_baseline_threads\": " << scaling.thread_baseline.threads
      << ", \"thread_baseline_rss_per_conn_bytes\": "
      << scaling.thread_baseline.rss_per_conn_bytes
      << ", \"rss_reduction_x\": " << scaling.rss_reduction_x
      << ", \"server_exit_ok\": "
      << (scaling.server_exit_ok ? "true" : "false")
      << ",\n    \"server_metrics\": " << scaling.server_metrics << "}";
  return out.str();
}

// --- journal overhead ------------------------------------------------------
// What durability costs per write, by fsync policy: a single-threaded
// client re-declares ground-truth equivalences against its own project,
// once without a journal, once with the journal on the real filesystem
// under each policy. Auto-checkpointing is off so the number isolates
// append + fsync, not snapshot serialization.

struct JournalLatency {
  std::string mode;
  int64_t ops = 0;
  double p50_us = 0;
  double p95_us = 0;
  double ops_per_sec = 0;
  bool ok = true;
};

JournalLatency MeasureJournalMode(const std::string& mode, int64_t ops,
                                  const workload::Workload& workload) {
  JournalLatency result;
  result.mode = mode;
  service::ServiceConfig config;
  std::string dir;
  if (mode != "none") {
    dir = "perf_journal_tmp_" + mode;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    config.data_dir = dir;
    config.durability.checkpoint_interval_records = 0;
    config.durability.fsync = mode == "fsync_always"
                                  ? service::FsyncPolicy::kAlways
                                  : service::FsyncPolicy::kBatch;
  }
  {
    service::IntegrationService service(config);
    std::string session = service.OpenSession("bench");
    service::ServiceCommand command;
    command.op = service::ServiceCommand::Op::kDefine;
    for (const std::string& name : workload.schema_names) {
      command.text = ecr::ToDdl(**workload.catalog.GetSchema(name));
      result.ok &= service.Execute(session, command).ok();
    }
    command.op = service::ServiceCommand::Op::kEquiv;
    std::vector<int64_t> latencies;
    latencies.reserve(static_cast<size_t>(ops));
    int64_t start = NowNs();
    for (int64_t i = 0; i < ops; ++i) {
      const workload::TrueAttributeMatch& match =
          workload.attribute_matches[static_cast<size_t>(i) %
                                     workload.attribute_matches.size()];
      command.path_a = match.first;
      command.path_b = match.second;
      int64_t op_start = NowNs();
      result.ok &= service.Execute(session, command).ok();
      latencies.push_back(NowNs() - op_start);
    }
    int64_t elapsed = NowNs() - start;
    std::sort(latencies.begin(), latencies.end());
    if (!latencies.empty()) {
      result.ops = ops;
      result.p50_us =
          static_cast<double>(latencies[latencies.size() / 2]) / 1e3;
      result.p95_us =
          static_cast<double>(latencies[latencies.size() * 95 / 100]) / 1e3;
      result.ops_per_sec = elapsed > 0 ? static_cast<double>(ops) * 1e9 /
                                             static_cast<double>(elapsed)
                                       : 0;
    }
  }
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  return result;
}

std::string JsonJournalLatency(const JournalLatency& latency) {
  std::ostringstream out;
  out << "{\"ops\": " << latency.ops << ", \"p50_us\": " << latency.p50_us
      << ", \"p95_us\": " << latency.p95_us
      << ", \"ops_per_sec\": " << latency.ops_per_sec << "}";
  return out.str();
}

// --- replica read scaling --------------------------------------------------
// In-process stand-in for a follower's socket: every frame the
// ReplicationServer ships is applied to the FollowerState inline, so
// Serve() doubles as the bootstrap pump and returns once the stop
// predicate sees the follower caught up.

struct DirectSink : service::ReplicationSink {
  explicit DirectSink(service::FollowerState* follower)
      : follower(follower) {}

  Status Send(std::string_view frame) override {
    std::string_view body;
    size_t consumed = 0;
    std::string error;
    if (service::ExtractFrame(frame, &body, &consumed, &error) !=
            service::FrameStatus::kComplete ||
        consumed != frame.size()) {
      return InternalError("sink expected exactly one frame: " + error);
    }
    ECRINT_ASSIGN_OR_RETURN(service::FollowerState::Outcome outcome,
                            follower->HandleFrame(body));
    if (outcome != service::FollowerState::Outcome::kOk) {
      return InternalError("follower asked to resubscribe mid-bootstrap");
    }
    return Status::Ok();
  }

  service::FollowerState* follower;
};

// One read replica: a leader_addr-configured service (writes refused with
// NOT_LEADER) plus its own router, converged off the leader's stream.
struct Replica {
  std::unique_ptr<service::IntegrationService> service;
  std::unique_ptr<service::RequestRouter> router;
};

}  // namespace

int main(int argc, char** argv) {
  int threads = 8;
  int64_t ops = 2000;   // per thread, per phase
  int batch = 64;       // requests per batch frame in the batched phases
  int idle_conns = -1;  // connection_scaling herd size (-1: default)
  bool smoke = false;
  service::ServiceConfig config;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (arg == "--ops" && i + 1 < argc) {
      ops = std::atoll(argv[++i]);
    } else if (arg == "--batch" && i + 1 < argc) {
      batch = std::atoi(argv[++i]);
    } else if (arg == "--idle-conns" && i + 1 < argc) {
      idle_conns = std::atoi(argv[++i]);
    } else if (arg == "--queue-depth" && i + 1 < argc) {
      config.queue_depth = std::atoi(argv[++i]);
    } else if (arg == "--smoke") {
      smoke = true;
      ops = 50;
    } else {
      std::cerr << "usage: perf_service [--threads N] [--ops N] "
                   "[--batch N] [--idle-conns N] [--queue-depth N] "
                   "[--smoke]\n";
      return 2;
    }
  }
  if (threads < 1) threads = 1;
  if (batch < 1) batch = 1;
  if (batch > static_cast<int>(service::kMaxBatchItems)) {
    batch = static_cast<int>(service::kMaxBatchItems);
  }
  // The recorded number is the full 10k herd; --smoke keeps the phase
  // meaningful but quick (and ASan-sized) for CI gates.
  if (idle_conns < 0) idle_conns = smoke ? 200 : 10000;
  int thread_baseline_count = smoke ? 100 : 500;

  workload::GeneratorConfig generator;
  generator.seed = 7;
  generator.num_concepts = 12;
  generator.num_schemas = 3;
  Result<workload::Workload> workload =
      workload::GenerateWorkload(generator);
  if (!workload.ok()) {
    std::cerr << "workload: " << workload.status() << "\n";
    return 1;
  }

  // --- connection scaling (fork-first: no threads exist yet) ---------------
  signal(SIGPIPE, SIG_IGN);
  RaiseFdLimit();
  ConnectionScaling conn_scaling = RunConnectionScaling(
      *workload, threads, ops, idle_conns, thread_baseline_count);
  if (!conn_scaling.ok) {
    std::cerr << "connection_scaling: "
              << (conn_scaling.error.empty() ? "active phase saw failures"
                                             : conn_scaling.error)
              << "\n";
    return 1;
  }

  service::IntegrationService service(config);
  service::RequestRouter router(&service);

  // --- seed the shared project over the wire -------------------------------
  auto seed_project = [&workload](service::RequestRouter* target) {
    return SeedProject(target, *workload);
  };
  if (!seed_project(&router)) return 1;

  const std::vector<std::string>& names = workload->schema_names;
  auto read_op = [&](Client& client, std::mt19937& rng, int64_t) {
    size_t a = rng() % names.size();
    size_t b = (a + 1 + rng() % (names.size() - 1)) % names.size();
    // No `metrics` in the mix: MetricsJson serializes on the registry
    // mutex, which would measure the dump, not the read plane.
    switch (rng() % 4) {
      case 0:
      case 1:
        client.Send("rank " + names[a] + " " + names[b] + " zero");
        break;
      case 2:
        client.Send("suggest " + names[a] + " " + names[b]);
        break;
      default:
        client.Send("outline");
        break;
    }
  };
  auto mixed_op = [&](Client& client, std::mt19937& rng, int64_t i) {
    // ~80/20 read/write; writes replay ground truth, so they commute.
    if (rng() % 5 != 0) {
      read_op(client, rng, i);
      return;
    }
    switch (rng() % 3) {
      case 0: {
        const workload::TrueAttributeMatch& match =
            workload->attribute_matches[rng() %
                                        workload->attribute_matches.size()];
        client.Send("equiv " + match.first.ToString() + " " +
                    match.second.ToString());
        break;
      }
      case 1: {
        const workload::TrueObjectRelation& relation =
            workload->object_relations[rng() %
                                       workload->object_relations.size()];
        client.Send(
            "assert " + relation.first.ToString() + " " +
            std::to_string(core::AssertionTypeCode(relation.assertion)) +
            " " + relation.second.ToString());
        break;
      }
      default:
        client.Send("integrate");
        break;
    }
  };

  // --- binary-protocol ops -------------------------------------------------
  auto binary_mixed_op = [&](Client& client, std::mt19937& rng, int64_t) {
    client.SendBinary(MakeMixedRequest(*workload, rng));
  };
  auto batch_mixed_op = [&](Client& client, std::mt19937& rng, int64_t i) {
    client.pending.push_back(MakeMixedRequest(*workload, rng));
    if (static_cast<int>(client.pending.size()) >= batch || i == ops - 1) {
      client.Flush();
    }
  };

  // --- phases --------------------------------------------------------------
  Phase read_1 =
      RunPhase("read_1thread", &router, "bench", 1, ops * threads, read_op);
  Phase read_n =
      RunPhase("read_nthread", &router, "bench", threads, ops, read_op);
  Phase mixed = RunPhase("mixed", &router, "bench", threads, ops, mixed_op);
  Phase mixed_binary =
      RunPhase("mixed_binary", &router, "bench", threads, ops,
               binary_mixed_op, service::kProtocolBinaryVersion);
  Phase mixed_batch =
      RunPhase("mixed_binary_batch", &router, "bench", threads, ops,
               batch_mixed_op, service::kProtocolBinaryVersion);

  double scaling = read_1.ops_per_sec > 0
                       ? read_n.ops_per_sec / read_1.ops_per_sec
                       : 0;

  // --- replica read scaling ------------------------------------------------
  // Seed a durable leader with the same workload, checkpoint it, and
  // bootstrap kMaxReplicas diskless followers off its checkpoint + WAL
  // stream. Then measure aggregate read throughput with `threads` client
  // threads per replica at 1, 2, and 4 replicas: replica reads share no
  // locks across services, so the aggregate should grow with the replica
  // count until the host runs out of cores.
  constexpr int kMaxReplicas = 4;
  common::MemFs repl_fs;
  service::ServiceConfig leader_config;
  leader_config.fs = &repl_fs;
  leader_config.data_dir = "/leader";
  leader_config.durability.fsync = service::FsyncPolicy::kNever;
  service::IntegrationService leader(leader_config);
  service::RequestRouter leader_router(&leader);
  if (!seed_project(&leader_router)) return 1;
  leader.CheckpointProjects();
  auto leader_position = leader.SampleReplicationPosition("bench");
  if (!leader_position.ok()) {
    std::cerr << "leader position: " << leader_position.status() << "\n";
    return 1;
  }

  service::ReplicationServer repl_server(&leader, &repl_fs, "/leader");
  std::vector<Replica> replicas;
  for (int r = 0; r < kMaxReplicas; ++r) {
    Replica replica;
    service::ServiceConfig follower_config;
    follower_config.leader_addr = "in-process:0";
    replica.service =
        std::make_unique<service::IntegrationService>(follower_config);
    replica.router =
        std::make_unique<service::RequestRouter>(replica.service.get());

    service::FollowerState follower(replica.service.get(), "bench");
    auto from = follower.Prepare();
    if (!from.ok()) {
      std::cerr << "replica prepare: " << from.status() << "\n";
      return 1;
    }
    DirectSink sink(&follower);
    service::ReplSubscribe subscribe;
    subscribe.project = "bench";
    subscribe.have_seq = *from;
    uint64_t target_seq = leader_position->seq;
    Status served = repl_server.Serve(subscribe, sink, [&] {
      return follower.applied_seq() >= target_seq;
    });
    if (!served.ok()) {
      std::cerr << "replica bootstrap: " << served << "\n";
      return 1;
    }
    auto replica_position =
        replica.service->SampleReplicationPosition("bench");
    if (!replica_position.ok() ||
        !(replica_position->stamp == leader_position->stamp)) {
      std::cerr << "replica " << r << " diverged from the leader\n";
      return 1;
    }
    replicas.push_back(std::move(replica));
  }

  // `threads` clients per replica, each running `ops` reads; the phase's
  // ops_per_sec is the aggregate across every replica.
  auto replica_read_phase = [&](const std::string& name,
                                int replica_count) {
    int total = replica_count * threads;
    std::vector<Client> clients(total);
    for (int t = 0; t < total; ++t) {
      clients[t].router = replicas[t % replica_count].router.get();
      clients[t].Send("open bench");
    }
    std::vector<std::thread> workers;
    int64_t start = NowNs();
    for (int t = 0; t < total; ++t) {
      workers.emplace_back([&, t] {
        std::mt19937 rng(3000 + static_cast<uint32_t>(t));
        for (int64_t i = 0; i < ops; ++i) read_op(clients[t], rng, i);
      });
    }
    for (std::thread& worker : workers) worker.join();
    int64_t elapsed = NowNs() - start;
    for (int t = 0; t < total; ++t) clients[t].Send("close");

    Phase phase;
    phase.name = name;
    phase.threads = total;
    phase.ops = total * ops;
    phase.elapsed_ms = static_cast<double>(elapsed) / 1e6;
    phase.ops_per_sec =
        elapsed > 0 ? static_cast<double>(phase.ops) * 1e9 /
                          static_cast<double>(elapsed)
                    : 0;
    for (const Client& client : clients) {
      for (const auto& [code, count] : client.errors_by_code) {
        phase.errors_by_code[code] += count;
      }
    }
    return phase;
  };
  Phase replica_1 = replica_read_phase("replica_read_1", 1);
  Phase replica_2 = replica_read_phase("replica_read_2", 2);
  Phase replica_4 = replica_read_phase("replica_read_4", 4);
  double replica_scaling = replica_1.ops_per_sec > 0
                               ? replica_4.ops_per_sec /
                                     replica_1.ops_per_sec
                               : 0;

  // Journal overhead, single-threaded: no journal vs batched fsync vs
  // fsync-per-record on the real filesystem.
  std::map<std::string, JournalLatency> journal_latency;
  for (const std::string& mode : {std::string("none"),
                                  std::string("fsync_batch"),
                                  std::string("fsync_always")}) {
    journal_latency[mode] = MeasureJournalMode(mode, ops, *workload);
    if (!journal_latency[mode].ok) {
      std::cerr << "journal phase " << mode << " saw write failures\n";
      return 1;
    }
  }

  // Per-verb histograms, snapshot publishes, queue high-water.
  std::string metrics_json = service.metrics().MetricsJson();

  int64_t conflicts = 0, timeouts = 0;
  for (const Phase* phase :
       {&read_1, &read_n, &mixed, &mixed_binary, &mixed_batch,
        &replica_1, &replica_2, &replica_4}) {
    auto conflict = phase->errors_by_code.find("CONFLICT");
    if (conflict != phase->errors_by_code.end()) {
      conflicts += conflict->second;
    }
    auto timeout = phase->errors_by_code.find("TIMEOUT");
    if (timeout != phase->errors_by_code.end()) timeouts += timeout->second;
  }
  for (const SocketPhase* phase :
       {&conn_scaling.active_baseline, &conn_scaling.active_with_idle}) {
    auto conflict = phase->errors_by_code.find("CONFLICT");
    if (conflict != phase->errors_by_code.end()) {
      conflicts += conflict->second;
    }
    auto timeout = phase->errors_by_code.find("TIMEOUT");
    if (timeout != phase->errors_by_code.end()) timeouts += timeout->second;
  }

  // On a 1-core host the expected read_scaling is ~1.0 (parity, i.e. no
  // contention collapse); >1 needs real hardware parallelism. Record the
  // host's thread count so the number stays interpretable.
  std::cout << "{\n"
            << "  \"config\": {\"threads\": " << threads
            << ", \"ops_per_thread\": " << ops
            << ", \"queue_depth\": " << config.queue_depth
            << ", \"batch\": " << batch
            << ", \"hardware_threads\": "
            << std::thread::hardware_concurrency()
            // Provenance: tools/ci.sh refuses recorded numbers from
            // unoptimized builds.
#ifdef NDEBUG
            << ", \"release_build\": true},\n"
#else
            << ", \"release_build\": false},\n"
#endif
            << "  \"read_1thread\": " << JsonPhase(read_1) << ",\n"
            << "  \"read_nthread\": " << JsonPhase(read_n) << ",\n"
            << "  \"mixed\": " << JsonPhase(mixed) << ",\n"
            << "  \"mixed_binary\": " << JsonPhase(mixed_binary) << ",\n"
            << "  \"mixed_binary_batch\": " << JsonPhase(mixed_batch)
            << ",\n"
            << "  \"connection_scaling\": "
            << JsonConnectionScaling(conn_scaling) << ",\n"
            << "  \"journal_write_latency\": {"
            << "\"none\": " << JsonJournalLatency(journal_latency["none"])
            << ", \"fsync_batch\": "
            << JsonJournalLatency(journal_latency["fsync_batch"])
            << ", \"fsync_always\": "
            << JsonJournalLatency(journal_latency["fsync_always"]) << "},\n"
            << "  \"replica_read_scaling\": {"
            << "\"replicas_1\": " << JsonPhase(replica_1)
            << ", \"replicas_2\": " << JsonPhase(replica_2)
            << ", \"replicas_4\": " << JsonPhase(replica_4)
            << ", \"scaling_4x\": " << replica_scaling << "},\n"
            << "  \"read_scaling\": " << scaling << ",\n"
            << "  \"conflicts\": " << conflicts << ",\n"
            << "  \"timeouts\": " << timeouts << ",\n"
            << "  \"service_metrics\": " << metrics_json << "\n"
            << "}\n";

  if (conflicts > 0 || timeouts > 0) {
    std::cerr << "FAIL: " << conflicts << " conflicts, " << timeouts
              << " timeouts\n";
    return 1;
  }
  return 0;
}
