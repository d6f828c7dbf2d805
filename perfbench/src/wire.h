// The benchmark's outside view of the server: a child ecrint_serve
// process, blocking loopback connections speaking text v1 or binary v2,
// and the server's `metrics` counters.
#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

// One ecrint_serve child. The destructor kills and reaps it, so no exit
// path leaves a server running.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Starts `binary args...` and waits for its "listening on N" line.
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             std::string* error);
  // SIGTERM (drain and checkpoint), once the server handles it, and wait;
  // false if it did not exit 0.
  bool Stop();
  // SIGKILL and wait: the crash the durability plane must survive.
  void Kill();
  // Peak resident set (VmHWM) in MB; 0 if unreadable.
  double PeakRssMb() const;

  int port() const { return port_; }

 private:
  // Waits until /proc shows the child catching SIGTERM; false if it has
  // exited or the wait timed out.
  bool AwaitDrainHandler() const;

  pid_t pid_ = -1;
  int port_ = 0;
};

// A blocking loopback connection bound to a session of `project`. Binary
// connections negotiate `proto 2` right after `open`.
class Conn {
 public:
  Conn() = default;
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool Connect(int port, const std::string& project, bool binary,
               std::string* error);
  bool binary() const { return binary_; }

  // Sends one pre-encoded request (frame or newline-terminated line) and
  // reads one complete response into *wire (the whole frame, length
  // prefix included, or the whole "."-terminated text response). False on
  // a disconnect, a malformed frame, or the receive timeout.
  bool RoundTrip(const std::string& request, std::string* wire);

  // Sends one text request line and decodes the reply.
  bool CallText(const std::string& line, service::ServiceResponse* response);

  // `export` / `metrics` through this connection.
  bool Export(std::string* text);
  bool Metrics(std::string* json);

  void Close();

 private:
  bool SendAll(const std::string& bytes);
  bool ReadText(std::string* wire);
  bool ReadFrame(std::string* wire);

  int fd_ = -1;
  bool binary_ = false;
  std::string buffer_;
};

// Decodes a response read by Conn::RoundTrip.
bool DecodeWire(const std::string& wire, bool binary,
                service::ServiceResponse* response);

// The server's `metrics` blob, flattened: counters by name, gauges as
// name and name + ".max", histogram count and p50 as name + ".count" /
// name + ".p50_us".
struct MetricsSnapshot {
  std::map<std::string, double> values;
  double Get(const std::string& name) const {
    auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
  }
};
bool ParseMetrics(const std::string& json, MetricsSnapshot* out);

// Delta of one counter between two snapshots.
inline double Delta(const MetricsSnapshot& before, const MetricsSnapshot& after,
                    const std::string& name) {
  return after.Get(name) - before.Get(name);
}

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
