// Live pipeline-health endpoint: poll a running pipeline instead of waiting for exit.
//
// A HealthServer listens on an AF_UNIX stream socket and answers minimal HTTP/1.0 GETs —
// enough for `curl --unix-socket`, a Prometheus node-exporter sidecar, or a watchdog
// script, without an HTTP library:
//
//   GET /metrics              Prometheus text exposition (MetricsRegistry::ToPrometheus)
//   GET /metrics?format=json  the JSON snapshot instead
//   GET /healthz              JSON per-stage liveness from the heartbeat-watchdog gauges
//                             (runtime/stage<N>/alive, runtime/stage<N>/beat_age_ms);
//                             HTTP 200 when every stage is alive, 503 otherwise
//   GET /trace?last=N         Chrome trace JSON of the newest N recorded events (default
//                             256) — a live window into the swimlanes, flow events included
//
// The wire protocol deliberately deviates from the PDM1 framing the stage transport uses:
// health consumers are *external* (curl, Prometheus), and speaking plain HTTP over the
// Unix socket means zero custom client code. The listener is one poll-driven thread that
// accepts connections and answers each in turn until Stop().
//
// Arming: PIPEDREAM_HEALTH_SOCK=/path/to.sock starts a process-wide server (the runtime
// calls StartHealthServerFromEnv() from its constructors; stale socket files are
// unlinked). Tests construct HealthServer directly.
#ifndef SRC_OBS_HEALTH_H_
#define SRC_OBS_HEALTH_H_

#include <atomic>
#include <string>
#include <thread>

#include "src/common/status.h"

namespace pipedream {
namespace obs {

class HealthServer {
 public:
  // `socket_path` is bound at Start(); an existing file at the path is replaced.
  explicit HealthServer(std::string socket_path);
  ~HealthServer();

  HealthServer(const HealthServer&) = delete;
  HealthServer& operator=(const HealthServer&) = delete;

  Status Start();
  void Stop();  // idempotent; joins the accept loop and unlinks the socket file

  const std::string& path() const { return path_; }
  int64_t requests_served() const { return requests_.load(std::memory_order_relaxed); }

  // Request handling, exposed for tests: maps an HTTP request target ("/metrics",
  // "/trace?last=8", ...) to (status code, content type, body).
  struct Response {
    int status = 200;
    std::string content_type;
    std::string body;
  };
  static Response Handle(const std::string& target);

 private:
  void AcceptLoop();
  void ServeConnection(int fd);

  std::string path_;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> requests_{0};
  std::thread acceptor_;
  bool started_ = false;
};

// Starts the process-wide server on PIPEDREAM_HEALTH_SOCK if the variable is set and no
// server is running yet. Idempotent and thread-safe; called from the runtime's entry
// points so any traced binary exposes the endpoint. Returns the server (nullptr when the
// variable is unset or the bind failed).
HealthServer* StartHealthServerFromEnv();

}  // namespace obs
}  // namespace pipedream

#endif  // SRC_OBS_HEALTH_H_
