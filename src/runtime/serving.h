// Pipelined inference serving: each stage is a long-lived server loop behind the transport.
//
// Training pipelines (pipeline_trainer.h) spawn workers per epoch because the recovery
// state machine leans on join-quiesce semantics. Serving has no epochs: PipelineServer
// spawns one resident thread per stage at Start() and keeps it waiting on its transport
// endpoint until Stop(). Requests are admitted as microbatches into the same forward path
// 1F1B uses for training — while stage 0 runs request k, stage 1 runs request k-1, so a
// continuous request stream keeps every stage busy and per-request latency approaches the
// sum of stage times while throughput approaches the max stage time (the pipeline bound).
//
// Flow control is a bounded admission window: Submit() blocks while `max_inflight` requests
// are between ingress and egress. The window caps the stage-0 inbox depth (backpressure at
// ingress, not unbounded queueing inside the pipeline), so tail latency degrades by waiting
// at the door rather than by queue-buildup amplification.
//
// Every request's wall latency is recorded in the "serve/<transport>/request_seconds"
// histogram (obs/metrics.h), whose reservoir quantiles provide the p50/p99/p999 read back
// by Stats(). On top of the wall number, each request's journey is decomposed per stage
// into three histograms — serve/<transport>/stage<N>/{transport,queue,compute}_seconds:
// transport is send-to-delivery of the hop into the stage, queue is delivery-to-dequeue
// inside the stage's inbox, compute is the stage's Forward. The last hop (final stage to
// the egress collector) lands in serve/<transport>/egress/transport_seconds. Requests also
// carry their id as the wire-level trace id, emitting one "req" flow chain per request so
// a Perfetto trace shows each request hopping stage to stage. The transport is pluggable
// exactly as in training: in-proc mailboxes or the CRC-framed socket transport, selected
// by ServingOptions::transport.
#ifndef SRC_RUNTIME_SERVING_H_
#define SRC_RUNTIME_SERVING_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/graph/sequential.h"
#include "src/planner/plan.h"
#include "src/runtime/transport.h"

namespace pipedream {

namespace obs {
class Histogram;
}

struct ServingOptions {
  // Stage-to-stage transport.
  TransportKind transport = TransportKind::kInProc;
  // Admission window: requests simultaneously between Submit and result collection. Bounds
  // the ingress mailbox depth (see serving_test.cc).
  int max_inflight = 8;
  // Stage-loop wait granularity: how often an idle stage re-checks the stop flag.
  int worker_tick_ms = 50;
};

// Aggregate serving statistics, read from the latency histogram at call time.
struct ServingStats {
  int64_t completed = 0;
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;
  double p999_seconds = 0.0;
  double mean_seconds = 0.0;
};

class PipelineServer {
 public:
  // `model` is the full network; each stage thread owns a deep copy of its layer slice.
  // Only straight plans serve (one replica per stage — request routing needs no rotation).
  // The model is copied; `plan` is copied. Call Start() before the first Submit.
  PipelineServer(const Sequential& model, const PipelinePlan& plan,
                 ServingOptions options = {});
  ~PipelineServer();

  PipelineServer(const PipelineServer&) = delete;
  PipelineServer& operator=(const PipelineServer&) = delete;

  // Spawns the per-stage server loops and the egress collector. Must be called once.
  Status Start();

  // Admits one request (a microbatch tensor) into the pipeline, blocking while the
  // admission window is full. Returns the request id to pass to Wait().
  int64_t Submit(Tensor input);

  // Blocks until request `id` has flowed through every stage; returns its output tensor.
  // Each id may be waited on exactly once.
  Tensor Wait(int64_t id);

  // Submit + Wait: a synchronous single request (pipelining needs concurrent Submits).
  Tensor Infer(const Tensor& input);

  // Waits for all in-flight requests to complete, then stops the stage loops and shuts the
  // transport down. Idempotent; also run by the destructor. Submit after Stop aborts.
  void Stop();

  // Quantiles over every completed request so far (reservoir-sampled past 64k).
  ServingStats Stats() const;

  // Peak depth of the stage-0 (ingress) inbox — the backpressure witness: bounded by the
  // admission window no matter how hard clients over-submit.
  int64_t IngressDepthHighWater() const;

  int num_stages() const { return plan_.num_stages(); }
  const char* transport_name() const { return transport_->name(); }

 private:
  void StageLoop(int stage);
  void CollectLoop();

  // Single-host hop timing: the sender notes its send timestamp per (dest stage, request),
  // the receiver pairs it with the mailbox's delivery stamp to get transport time.
  void NoteSent(int dest_stage, int64_t id);
  std::optional<int64_t> TakeSentNs(int dest_stage, int64_t id);

  PipelinePlan plan_;
  ServingOptions options_;
  std::unique_ptr<MessageTransport> transport_;  // owns all inboxes; outlives the threads
  std::vector<std::unique_ptr<Sequential>> stage_models_;
  std::vector<Mailbox*> stage_inboxes_;  // [stage], plus the egress inbox at index num_stages
  Mailbox* egress_ = nullptr;

  std::vector<std::thread> stage_threads_;
  std::thread collector_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  bool stopped_ = false;

  mutable std::mutex mutex_;
  std::condition_variable window_cv_;   // signalled when the admission window opens
  std::condition_variable result_cv_;   // signalled when a result lands
  int inflight_ = 0;
  int64_t next_id_ = 0;
  int64_t completed_ = 0;
  std::map<int64_t, int64_t> start_ns_;  // submit time per in-flight request
  std::map<int64_t, Tensor> results_;    // finished, not yet Wait()ed

  obs::Histogram* latency_ = nullptr;  // "serve/<transport>/request_seconds"

  // Per-stage latency decomposition (see header comment).
  std::vector<obs::Histogram*> transport_hist_;  // serve/<t>/stage<N>/transport_seconds
  std::vector<obs::Histogram*> queue_hist_;      // serve/<t>/stage<N>/queue_seconds
  std::vector<obs::Histogram*> compute_hist_;    // serve/<t>/stage<N>/compute_seconds
  obs::Histogram* egress_transport_hist_ = nullptr;  // serve/<t>/egress/transport_seconds

  std::mutex sent_mutex_;
  std::map<std::pair<int, int64_t>, int64_t> sent_ns_;  // (dest stage, id) -> send ts (ns)
};

}  // namespace pipedream

#endif  // SRC_RUNTIME_SERVING_H_
