#include "src/runtime/serving.h"

#include <chrono>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/common/strings.h"
#include "src/common/thread_pool.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace pipedream {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

PipelineServer::PipelineServer(const Sequential& model, const PipelinePlan& plan,
                               ServingOptions options)
    : plan_(plan), options_(options) {
  plan_.Validate(static_cast<int>(model.size()));
  PD_CHECK(plan_.IsStraight())
      << "PipelineServer serves straight plans only (one replica per stage)";
  PD_CHECK_GE(options_.max_inflight, 1);
  transport_ = MakeTransport(options_.transport);

  const int stages = plan_.num_stages();
  stage_models_.reserve(static_cast<size_t>(stages));
  stage_inboxes_.reserve(static_cast<size_t>(stages) + 1);
  for (int s = 0; s < stages; ++s) {
    const StageAssignment& assignment = plan_.stage(s);
    stage_models_.push_back(model.CloneSlice(static_cast<size_t>(assignment.begin_layer),
                                             static_cast<size_t>(assignment.end_layer)));
    stage_inboxes_.push_back(transport_->AddEndpoint(s, 0));
  }
  // The egress collector is one endpoint past the last stage: the final stage "sends
  // downstream" exactly as it would in training, and the collector is just another server.
  egress_ = transport_->AddEndpoint(stages, 0);
  stage_inboxes_.push_back(egress_);

  latency_ = obs::GetHistogram(std::string("serve/") + transport_->name() +
                               "/request_seconds");
  const std::string prefix = std::string("serve/") + transport_->name();
  transport_hist_.reserve(static_cast<size_t>(stages));
  queue_hist_.reserve(static_cast<size_t>(stages));
  compute_hist_.reserve(static_cast<size_t>(stages));
  for (int s = 0; s < stages; ++s) {
    transport_hist_.push_back(
        obs::GetHistogram(StrFormat("%s/stage%d/transport_seconds", prefix.c_str(), s)));
    queue_hist_.push_back(
        obs::GetHistogram(StrFormat("%s/stage%d/queue_seconds", prefix.c_str(), s)));
    compute_hist_.push_back(
        obs::GetHistogram(StrFormat("%s/stage%d/compute_seconds", prefix.c_str(), s)));
  }
  egress_transport_hist_ =
      obs::GetHistogram(StrFormat("%s/egress/transport_seconds", prefix.c_str()));
  // Serving processes expose the same live health endpoint as training ones.
  obs::StartHealthServerFromEnv();
}

PipelineServer::~PipelineServer() { Stop(); }

Status PipelineServer::Start() {
  PD_CHECK(!started_) << "PipelineServer::Start called twice";
  started_ = true;
  const Status status = transport_->Start();
  if (!status.ok()) {
    return status;
  }
  const int stages = plan_.num_stages();
  const int kernel_budget = KernelBudgetForWorkers(stages);
  stage_threads_.reserve(static_cast<size_t>(stages));
  for (int s = 0; s < stages; ++s) {
    stage_threads_.emplace_back([this, s, kernel_budget] {
      ScopedKernelBudget budget(kernel_budget);
      StageLoop(s);
    });
  }
  collector_ = std::thread([this] { CollectLoop(); });
  return Status::Ok();
}

int64_t PipelineServer::Submit(Tensor input) {
  int64_t id;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    PD_CHECK(started_ && !stopped_) << "Submit outside the Start/Stop window";
    window_cv_.wait(lock, [this] { return inflight_ < options_.max_inflight; });
    id = next_id_++;
    ++inflight_;
    start_ns_[id] = NowNs();
  }
  PipeMessage message;
  message.minibatch = id;
  message.type = WorkType::kForward;
  message.payload = std::move(input);
  message.trace_id = id;  // the request id is the causal-chain key over the wire
  StampChecksum(&message);
  NoteSent(0, id);
  transport_->Send(0, 0, std::move(message));
  return id;
}

void PipelineServer::NoteSent(int dest_stage, int64_t id) {
  std::lock_guard<std::mutex> lock(sent_mutex_);
  sent_ns_[{dest_stage, id}] = obs::TraceClockNs();
}

std::optional<int64_t> PipelineServer::TakeSentNs(int dest_stage, int64_t id) {
  std::lock_guard<std::mutex> lock(sent_mutex_);
  const auto it = sent_ns_.find({dest_stage, id});
  if (it == sent_ns_.end()) {
    return std::nullopt;
  }
  const int64_t ns = it->second;
  sent_ns_.erase(it);
  return ns;
}

Tensor PipelineServer::Wait(int64_t id) {
  std::unique_lock<std::mutex> lock(mutex_);
  result_cv_.wait(lock, [this, id] { return results_.count(id) != 0; });
  auto it = results_.find(id);
  Tensor out = std::move(it->second);
  results_.erase(it);
  return out;
}

Tensor PipelineServer::Infer(const Tensor& input) { return Wait(Submit(input)); }

void PipelineServer::StageLoop(int stage) {
  Mailbox* inbox = stage_inboxes_[static_cast<size_t>(stage)];
  const Sequential& model = *stage_models_[static_cast<size_t>(stage)];
  const auto tick = std::chrono::milliseconds(options_.worker_tick_ms);
  for (;;) {
    // Drain everything queued before honouring stop: Stop() only flips the flag once the
    // window is empty, but the message for an admitted request may still be in flight.
    std::optional<PipeMessage> message = inbox->Take(WorkType::kForward);
    if (!message.has_value()) {
      if (stop_.load(std::memory_order_acquire)) {
        return;
      }
      inbox->WaitUntilFor([](int64_t min_fwd, int64_t) { return min_fwd >= 0; }, tick);
      continue;
    }
    const int64_t take_ns = obs::TraceClockNs();
    PD_CHECK(VerifyChecksum(*message))
        << "serving request " << message->minibatch << " corrupted before stage " << stage;
    const int64_t id = message->minibatch;
    const int64_t flow = message->trace_id >= 0 ? message->trace_id : id;
    // Decompose the hop into this stage: transport (send to mailbox delivery) and queue
    // (delivery to dequeue). Compute is timed around Forward below.
    if (message->delivered_ns > 0) {
      queue_hist_[static_cast<size_t>(stage)]->Observe(
          static_cast<double>(take_ns - message->delivered_ns) * 1e-9);
      if (const std::optional<int64_t> sent = TakeSentNs(stage, id)) {
        transport_hist_[static_cast<size_t>(stage)]->Observe(
            static_cast<double>(message->delivered_ns - *sent) * 1e-9);
      }
    }
    Tensor out;
    {
      PD_TRACE_SPAN("serve", stage, id);
      if (stage == 0) {
        obs::RecordFlowStart("req", flow, stage, id);
      } else {
        obs::RecordFlowStep("req", flow, stage, id);
      }
      const int64_t compute_begin_ns = obs::TraceClockNs();
      ModelContext ctx;  // per-request, discarded: inference stashes nothing
      out = model.Forward(message->payload, &ctx, /*training=*/false);
      compute_hist_[static_cast<size_t>(stage)]->Observe(
          static_cast<double>(obs::TraceClockNs() - compute_begin_ns) * 1e-9);
    }
    PipeMessage next;
    next.minibatch = id;
    next.type = WorkType::kForward;
    next.payload = std::move(out);
    next.trace_id = flow;
    StampChecksum(&next);
    NoteSent(stage + 1, id);
    transport_->Send(stage + 1, 0, std::move(next));
  }
}

void PipelineServer::CollectLoop() {
  const auto tick = std::chrono::milliseconds(options_.worker_tick_ms);
  for (;;) {
    std::optional<PipeMessage> message = egress_->Take(WorkType::kForward);
    if (!message.has_value()) {
      if (stop_.load(std::memory_order_acquire)) {
        return;
      }
      egress_->WaitUntilFor([](int64_t min_fwd, int64_t) { return min_fwd >= 0; }, tick);
      continue;
    }
    PD_CHECK(VerifyChecksum(*message))
        << "serving result " << message->minibatch << " corrupted after the last stage";
    const int64_t id = message->minibatch;
    const int64_t end_ns = NowNs();
    if (message->delivered_ns > 0) {
      if (const std::optional<int64_t> sent = TakeSentNs(plan_.num_stages(), id)) {
        egress_transport_hist_->Observe(
            static_cast<double>(message->delivered_ns - *sent) * 1e-9);
      }
    }
    {
      // The chain ends where the result is handed back; a tiny span gives the flow arrow
      // a slice to bind to.
      PD_TRACE_SPAN("collect", plan_.num_stages(), id);
      obs::RecordFlowEnd("req", message->trace_id >= 0 ? message->trace_id : id,
                         plan_.num_stages(), id);
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = start_ns_.find(id);
      PD_CHECK(it != start_ns_.end()) << "result for unknown request " << id;
      latency_->Observe(static_cast<double>(end_ns - it->second) * 1e-9);
      start_ns_.erase(it);
      results_.emplace(id, std::move(message->payload));
      ++completed_;
      --inflight_;
    }
    window_cv_.notify_all();
    result_cv_.notify_all();
  }
}

void PipelineServer::Stop() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!started_ || stopped_) {
      return;
    }
    stopped_ = true;
    // Quiesce: every admitted request must reach the collector before the loops stop.
    window_cv_.wait(lock, [this] { return inflight_ == 0; });
  }
  stop_.store(true, std::memory_order_release);
  for (Mailbox* inbox : stage_inboxes_) {
    inbox->Poke();
  }
  for (std::thread& t : stage_threads_) {
    t.join();
  }
  collector_.join();
  transport_->Drain();
  transport_->Shutdown();
  obs::GetGauge("serve/ingress_depth_hwm")->SetMax(IngressDepthHighWater());
}

ServingStats PipelineServer::Stats() const {
  ServingStats stats;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats.completed = completed_;
  }
  stats.p50_seconds = latency_->Quantile(0.50);
  stats.p99_seconds = latency_->Quantile(0.99);
  stats.p999_seconds = latency_->Quantile(0.999);
  const RunningStat snapshot = latency_->snapshot();
  stats.mean_seconds = snapshot.count() > 0 ? snapshot.mean() : 0.0;
  return stats;
}

int64_t PipelineServer::IngressDepthHighWater() const {
  return stage_inboxes_.front()->DepthHighWater();
}

}  // namespace pipedream
