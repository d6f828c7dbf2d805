#include "wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "common/strings.h"

namespace perfbench {

namespace {

// A reply slower than this counts as a client-side timeout failure.
constexpr int kReceiveTimeoutS = 30;
// How long a started server may take to install its SIGTERM handler.
constexpr int64_t kDrainHandlerTimeoutNs = 10'000'000'000;

}  // namespace

// --- ServerProcess ---------------------------------------------------------

ServerProcess::~ServerProcess() { Kill(); }

bool ServerProcess::Start(const std::string& binary,
                          const std::vector<std::string>& args,
                          std::string* error) {
  int pipe_fds[2];
  if (pipe2(pipe_fds, O_CLOEXEC) != 0) {
    *error = "pipe failed";
    return false;
  }
  std::vector<std::string> argv_storage;
  argv_storage.push_back(binary);
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);

  // posix_spawn, not fork: no copy of this (possibly large, threaded)
  // process's page tables lands in the measured set-up time. Every other
  // descriptor of ours is close-on-exec.
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  pid_t child = -1;
  int spawned = posix_spawn(&child, argv[0], &actions, nullptr, argv.data(),
                            environ);
  posix_spawn_file_actions_destroy(&actions);
  close(pipe_fds[1]);
  if (spawned != 0) {
    close(pipe_fds[0]);
    *error = std::string("spawn failed: ") + std::strerror(spawned);
    return false;
  }
  pid_ = child;

  // The server prints "listening on <port>" once it has bound.
  std::string out;
  char chunk[256];
  while (out.find('\n') == std::string::npos) {
    ssize_t n = read(pipe_fds[0], chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out.append(chunk, static_cast<size_t>(n));
  }
  close(pipe_fds[0]);
  const std::string prefix = "listening on ";
  if (out.rfind(prefix, 0) != 0) {
    *error = "server did not start: '" + out + "'";
    Kill();
    return false;
  }
  port_ = std::atoi(out.c_str() + prefix.size());
  return true;
}

bool ServerProcess::AwaitDrainHandler() const {
  const std::string path = "/proc/" + std::to_string(pid_) + "/status";
  const uint64_t sigterm = uint64_t{1} << (SIGTERM - 1);
  int64_t deadline = NowNs() + kDrainHandlerTimeoutNs;
  while (NowNs() < deadline) {
    std::ifstream status(path);
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("State:", 0) == 0 &&
          line.find('Z') != std::string::npos) {
        return false;  // a zombie: it has exited already
      }
      if (line.rfind("SigCgt:", 0) == 0 &&
          (std::strtoull(line.c_str() + 7, nullptr, 16) & sigterm) != 0) {
        return true;
      }
    }
    usleep(200);
  }
  return false;
}

bool ServerProcess::Stop() {
  if (pid_ < 0) return true;
  // The server prints its port, and its reactors answer, just before it
  // installs its drain handler; a SIGTERM in between kills it outright.
  const bool catches = AwaitDrainHandler();
  kill(pid_, catches ? SIGTERM : SIGKILL);
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  if (catches && WIFEXITED(status) && WEXITSTATUS(status) == 0) return true;
  if (!catches) {
    std::fprintf(stderr, "perfbench: server exited, or did not catch "
                         "SIGTERM within 10 s, before it was asked to "
                         "drain\n");
  }
  if (WIFSIGNALED(status)) {
    std::fprintf(stderr, "perfbench: server ended by signal %d\n",
                 WTERMSIG(status));
  } else {
    std::fprintf(stderr, "perfbench: server exited with status %d\n",
                 WEXITSTATUS(status));
  }
  return false;
}

void ServerProcess::Kill() {
  if (pid_ < 0) return;
  kill(pid_, SIGKILL);
  while (waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

double ServerProcess::PeakRssMb() const {
  if (pid_ < 0) return 0;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// --- Conn ------------------------------------------------------------------

Conn::~Conn() { Close(); }

void Conn::Close() {
  if (fd_ >= 0) close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool Conn::Connect(int port, const std::string& project, bool binary,
                   std::string* error) {
  Close();
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    *error = "socket failed";
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect failed: ") + std::strerror(errno);
    Close();
    return false;
  }
  // Closed-loop round trips: without TCP_NODELAY a request can wait out
  // Nagle against the delayed ACK.
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval timeout{};
  timeout.tv_sec = kReceiveTimeoutS;
  setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));

  binary_ = false;
  service::ServiceResponse response;
  if (!CallText("open " + project + "\n", &response) || !response.ok()) {
    *error = "open failed";
    return false;
  }
  if (binary) {
    if (!CallText("proto 2\n", &response) || !response.ok()) {
      *error = "proto 2 failed";
      return false;
    }
    binary_ = true;
  }
  return true;
}

bool Conn::SendAll(const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = send(fd_, bytes.data() + sent, bytes.size() - sent,
                     MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool Conn::ReadText(std::string* wire) {
  size_t scanned = 0;
  for (;;) {
    // Every response has a status line, so "\n.\n" ends it (payload lines
    // starting with '.' are dot-stuffed).
    size_t pos = buffer_.find("\n.\n", scanned > 2 ? scanned - 2 : 0);
    if (pos != std::string::npos) {
      wire->assign(buffer_, 0, pos + 3);
      buffer_.erase(0, pos + 3);
      return true;
    }
    scanned = buffer_.size();
    char chunk[65536];
    ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

bool Conn::ReadFrame(std::string* wire) {
  for (;;) {
    std::string_view body;
    size_t consumed = 0;
    std::string frame_error;
    service::FrameStatus status =
        service::ExtractFrame(buffer_, &body, &consumed, &frame_error);
    if (status == service::FrameStatus::kComplete) {
      wire->assign(buffer_, 0, consumed);
      buffer_.erase(0, consumed);
      return true;
    }
    if (status == service::FrameStatus::kError) return false;
    char chunk[65536];
    ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

bool Conn::RoundTrip(const std::string& request, std::string* wire) {
  if (fd_ < 0 || !SendAll(request)) return false;
  return binary_ ? ReadFrame(wire) : ReadText(wire);
}

bool DecodeWire(const std::string& wire, bool binary,
                service::ServiceResponse* response) {
  if (!binary) {
    ecrint::Result<service::ServiceResponse> parsed =
        service::ParseResponse(wire);
    if (!parsed.ok()) return false;
    *response = *std::move(parsed);
    return true;
  }
  std::string_view body;
  size_t consumed = 0;
  std::string error;
  if (service::ExtractFrame(wire, &body, &consumed, &error) !=
      service::FrameStatus::kComplete) {
    return false;
  }
  ecrint::Result<service::DecodedResponse> decoded =
      service::DecodeBinaryResponse(body);
  if (!decoded.ok() || decoded->batch || decoded->items.size() != 1) {
    return false;
  }
  *response = std::move(decoded->items[0]);
  return true;
}

bool Conn::CallText(const std::string& line,
                    service::ServiceResponse* response) {
  std::string wire;
  return RoundTrip(line, &wire) && DecodeWire(wire, false, response);
}

namespace {

bool CallVerb(Conn& conn, service::WireVerb verb, const char* text,
              std::string* joined) {
  service::ServiceResponse response;
  bool ok = false;
  if (conn.binary()) {
    service::BinaryRequest request;
    request.verb = verb;
    std::string wire;
    ok = conn.RoundTrip(service::EncodeBinaryRequest(request), &wire) &&
         DecodeWire(wire, true, &response);
  } else {
    ok = conn.CallText(std::string(text) + "\n", &response);
  }
  if (!ok || !response.ok()) return false;
  *joined = ecrint::Join(response.lines, "\n");
  return true;
}

}  // namespace

bool Conn::Export(std::string* text) {
  return CallVerb(*this, service::WireVerb::kExport, "export", text);
}

bool Conn::Metrics(std::string* json) {
  return CallVerb(*this, service::WireVerb::kMetrics, "metrics", json);
}

// --- metrics parsing -------------------------------------------------------

namespace {

// Just enough JSON for MetricsRegistry::MetricsJson: objects, numbers,
// strings without escapes beyond \" and \\, and arrays (skipped).
class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  bool Object(MetricsSnapshot* out, const std::string& prefix, int depth) {
    if (!Eat('{')) return false;
    if (Eat('}')) return true;
    do {
      std::string key;
      if (!String(&key) || !Eat(':')) return false;
      // Top-level keys are section names (counters / gauges / histograms)
      // and do not prefix the instrument names below them; a gauge's
      // "value" is the gauge itself.
      std::string name = depth == 0       ? ""
                         : key == "value" ? prefix
                         : prefix.empty() ? key
                                          : prefix + "." + key;
      if (!Value(out, name, depth + 1)) return false;
    } while (Eat(','));
    return Eat('}');
  }

 private:
  bool Value(MetricsSnapshot* out, const std::string& name, int depth) {
    Skip();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') return Object(out, name, depth);
    if (c == '[') {
      int nesting = 0;
      for (; pos_ < text_.size(); ++pos_) {
        if (text_[pos_] == '[') ++nesting;
        if (text_[pos_] == ']' && --nesting == 0) {
          ++pos_;
          return true;
        }
      }
      return false;
    }
    if (c == '"') {
      std::string ignored;
      return String(&ignored);
    }
    char* end = nullptr;
    double value = std::strtod(text_.c_str() + pos_, &end);
    if (end == text_.c_str() + pos_) return false;
    pos_ = static_cast<size_t>(end - text_.c_str());
    out->values[name] = value;
    return true;
  }

  bool String(std::string* out) {
    if (!Eat('"')) return false;
    for (; pos_ < text_.size(); ++pos_) {
      char c = text_[pos_];
      if (c == '\\' && pos_ + 1 < text_.size()) {
        out->push_back(text_[++pos_]);
      } else if (c == '"') {
        ++pos_;
        return true;
      } else {
        out->push_back(c);
      }
    }
    return false;
  }

  void Skip() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Eat(char c) {
    Skip();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

bool ParseMetrics(const std::string& json, MetricsSnapshot* out) {
  out->values.clear();
  JsonReader reader(json);
  return reader.Object(out, "", 0);
}

}  // namespace perfbench
