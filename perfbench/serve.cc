// serve_mlp_socket: PipelineServer over a 2-stage MLP on the socket transport, driven open
// loop. One generator thread sleeps until each Poisson arrival is due and submits it; the
// calling thread blocks in Wait. Latency runs from when a request was due, so a stall also
// charges the requests queued behind it.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "perfbench/workloads.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/graph/models.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/planner/plan.h"
#include "src/runtime/serving.h"

namespace perfbench {

using namespace pipedream;

namespace {

constexpr int kPoolSize = 256;      // distinct request inputs
constexpr int64_t kRows = 8;        // rows per request
constexpr int kMaxInflight = 16;    // admission window
// A quarter of what the server sustains closed loop on a calm 4-vCPU VM (~4k requests/s),
// so the offered load stays below capacity even when the host steals CPU (capacity fell to
// 1.6k requests/s); fixed, so that a slower server shows as higher latency at the same load.
constexpr double kFixedRate = 1000.0;
constexpr double kLatencyLimitMs = 5.0;   // tail limit for the rate ladder
constexpr double kBacklogGrowthMs = 1.0;  // lateness growth that marks a growing backlog
constexpr double kLadderStepSeconds = 0.4;

struct ServeRig {
  std::unique_ptr<Sequential> model;
  std::vector<Tensor> inputs;
  std::vector<Tensor> expected;
  std::unique_ptr<PipelineServer> server;
  int64_t warmup_requests = 0;
  int64_t warmup_mismatches = 0;
};

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.SizeBytes())) == 0;
}

PipelinePlan ServePlan(const Sequential& model) {
  return MakeStraightPlan(static_cast<int>(model.size()), {6});
}

std::unique_ptr<ServeRig> BuildRig(uint64_t seed) {
  auto rig = std::make_unique<ServeRig>();
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 29);
  rig->model = BuildMlpClassifier(64, std::vector<int64_t>(5, 256), 16, &rng);
  for (int i = 0; i < kPoolSize; ++i) {
    Tensor x({kRows, 64});
    float* d = x.data();
    for (int64_t j = 0; j < x.numel(); ++j) {
      d[j] = static_cast<float>(rng.Uniform(-2.0, 2.0));
    }
    ModelContext ctx;
    rig->expected.push_back(rig->model->Forward(x, &ctx, false));
    rig->inputs.push_back(std::move(x));
  }
  ServingOptions options;
  options.transport = TransportKind::kUnixSocket;
  options.max_inflight = kMaxInflight;
  rig->server = std::make_unique<PipelineServer>(*rig->model, ServePlan(*rig->model), options);
  PD_CHECK(rig->server->Start().ok());
  for (int i = 0; i < 64; ++i) {
    const int k = i % kPoolSize;
    ++rig->warmup_requests;
    if (!SameBits(rig->server->Infer(rig->inputs[static_cast<size_t>(k)]),
                  rig->expected[static_cast<size_t>(k)])) {
      ++rig->warmup_mismatches;
    }
  }
  return rig;
}

struct LoadStats {
  std::vector<double> latency_s;  // completion minus due time
  std::vector<double> late_s;     // submit call minus due time (generator lateness)
  std::vector<double> due_s;      // due time, seconds from the phase start
  std::vector<double> done_s;     // completion time, seconds from the phase start
  int64_t requests = 0;
  int64_t mismatches = 0;
  double wall = 0.0;
};

// Drives the server. With `offsets` (seconds from phase start) the load is open loop; with
// none it is closed loop: the generator submits back to back for `seconds`, blocking
// whenever the admission window is full.
LoadStats Drive(ServeRig* rig, const std::vector<double>* offsets, double seconds,
                uint64_t pick_seed) {
  using Clock = std::chrono::steady_clock;
  struct Pending {
    int64_t id;
    int input;
    Clock::time_point due;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> queue;
  bool done = false;
  LoadStats stats;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  std::thread generator([&] {
    Rng pick(pick_seed);
    for (size_t i = 0;; ++i) {
      Clock::time_point due;
      if (offsets != nullptr) {
        if (i >= offsets->size()) break;
        due = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>((*offsets)[i]));
        std::this_thread::sleep_until(due);
      } else {
        due = Clock::now();
        if (due >= stop) break;
      }
      const int input = static_cast<int>(pick.NextU64() % kPoolSize);
      stats.late_s.push_back(std::chrono::duration<double>(Clock::now() - due).count());
      const int64_t id = rig->server->Submit(rig->inputs[static_cast<size_t>(input)]);
      {
        std::lock_guard<std::mutex> lock(mu);
        queue.push_back({id, input, due});
      }
      cv.notify_one();
    }
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_one();
  });
  for (;;) {
    Pending p;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !queue.empty() || done; });
      if (queue.empty()) break;
      p = queue.front();
      queue.pop_front();
    }
    const Tensor out = rig->server->Wait(p.id);
    const Clock::time_point now = Clock::now();
    stats.latency_s.push_back(std::chrono::duration<double>(now - p.due).count());
    stats.due_s.push_back(std::chrono::duration<double>(p.due - start).count());
    stats.done_s.push_back(std::chrono::duration<double>(now - start).count());
    ++stats.requests;
    if (!SameBits(out, rig->expected[static_cast<size_t>(p.input)])) {
      ++stats.mismatches;
    }
  }
  generator.join();
  stats.wall = std::chrono::duration<double>(Clock::now() - start).count();
  return stats;
}

// Median over whole 0.5 s windows of completed requests per second.
double CompletionRate(const LoadStats& stats) {
  return MedianRate("requests", stats.done_s, stats.wall, 0.5);
}

LoadStats OpenLoop(ServeRig* rig, double rate, double seconds, uint64_t seed) {
  const std::vector<double> offsets = PoissonSchedule(seed, rate, seconds);
  return Drive(rig, &offsets, seconds, seed + 1);
}

std::vector<double> ToMs(const std::vector<double>& seconds) {
  std::vector<double> ms;
  ms.reserve(seconds.size());
  for (const double s : seconds) ms.push_back(s * 1e3);
  return ms;
}

// The generator's lateness over the first and last quarter of a step's arrivals.
LadderStep Summarize(double rate, const LoadStats& stats) {
  LadderStep step;
  step.offered_rps = rate;
  step.tail_ms = SelectTail(ToMs(stats.latency_s)).value;
  const std::vector<double> late = ToMs(stats.late_s);
  const auto quarter = static_cast<std::ptrdiff_t>(std::min(late.size(), std::max<size_t>(1, late.size() / 4)));
  step.late_first_quarter_ms = Median(std::vector<double>(late.begin(), late.begin() + quarter));
  step.late_last_quarter_ms = Median(std::vector<double>(late.end() - quarter, late.end()));
  return step;
}

// Forward (training=false) of each stage slice on one request, at the kernel budget the
// server gives its stage threads. Returns the sum over stages, in ms.
double MeasureStageInfer(const ServeRig& rig, Result* result) {
  const PipelinePlan plan = ServePlan(*rig.model);
  ScopedKernelBudget budget(KernelBudgetForWorkers(plan.num_stages()));
  Tensor boundary = rig.inputs[0];
  double total_ms = 0.0;
  for (int s = 0; s < plan.num_stages(); ++s) {
    PD_TRACE_SPAN("probe/stage_infer", s);
    const StageAssignment& st = plan.stage(s);
    const auto slice = rig.model->CloneSlice(static_cast<size_t>(st.begin_layer),
                                             static_cast<size_t>(st.end_layer));
    Tensor out;
    const double ms = 1e3 * TimePerCall([&] {
      ModelContext ctx;
      out = slice->Forward(boundary, &ctx, false);
    });
    result->Set(StageMetric("graph", s, "infer_ms"), ms, "ms");
    total_ms += ms;
    boundary = out;
  }
  return total_ms;
}

void NoteThreads(const Sequential& model) {
  const PipelinePlan plan = ServePlan(model);
  NoteProvenance("plan", plan.ConfigString(static_cast<int>(model.size())));
  NoteProvenance("stage_workers", std::to_string(plan.num_stages()));
  NoteProvenance("transport", "socket");
  // One receiver per stage endpoint plus the egress endpoint.
  NoteProvenance("receiver_threads", std::to_string(plan.num_stages() + 1));
  NoteProvenance("generator_threads", "2 (one submits, one waits)");
}

}  // namespace

void RunServing(const RunConfig& config, Result* result) {
  int64_t attempted = 0;
  int64_t failed = 0;
  if (!config.trace) {
    std::vector<double> setup_seconds;
    std::unique_ptr<ServeRig> rig;
    while (MoreSetUps(setup_seconds)) {
      rig.reset();
      const double t0 = NowSeconds();
      rig = BuildRig(config.seed);
      setup_seconds.push_back(NowSeconds() - t0);
    }
    NoteThreads(*rig->model);
    attempted += rig->warmup_requests;
    failed += rig->warmup_mismatches;
    const LoadStats fixed = OpenLoop(rig.get(), kFixedRate, config.seconds * 0.6, config.seed);
    const LoadStats saturated = Drive(rig.get(), nullptr, config.seconds * 0.4, config.seed + 7);
    attempted += fixed.requests + saturated.requests;
    failed += fixed.mismatches + saturated.mismatches;
    SetSetupMetric(setup_seconds, result);
    result->Set("throughput_per_s", CompletionRate(saturated), "1/s");
    Say("fixed rate %.0f rps: %lld requests, generator late p99 %.4f ms\n", kFixedRate,
        static_cast<long long>(fixed.requests), Quantile(ToMs(fixed.late_s), 0.99));
    SetLatencyMetrics(fixed.latency_s, fixed.due_s, 1.0, result);
    Say("saturated (window %d): %.1f requests/s\n", kMaxInflight, CompletionRate(saturated));
    rig.reset();
    result->Set("peak_rss_mb", PeakRssMb(), "MB");
    result->attempted = attempted;
    result->failed = failed;
    return;
  }

  auto rig = BuildRig(config.seed);
  NoteThreads(*rig->model);
  attempted += rig->warmup_requests;
  failed += rig->warmup_mismatches;
  const LoadStats fixed = OpenLoop(rig.get(), kFixedRate, config.seconds * 0.25, config.seed);
  const LoadStats untraced = Drive(rig.get(), nullptr, config.seconds * 0.1, config.seed + 7);
  attempted += fixed.requests + untraced.requests;
  failed += fixed.mismatches + untraced.mismatches;

  std::vector<LadderStep> ladder;
  for (int k = 0; k < 12; ++k) {
    const double rate = 1000.0 * std::pow(1.25, k);
    const LoadStats step = OpenLoop(rig.get(), rate, kLadderStepSeconds, config.seed + 100 + k);
    attempted += step.requests;
    failed += step.mismatches;
    ladder.push_back(Summarize(rate, step));
    const LadderStep& s = ladder.back();
    const bool pass = LadderStepPasses(s, kLatencyLimitMs, kBacklogGrowthMs);
    Say("ladder %.0f rps: tail %.4f ms, lateness %.4f -> %.4f ms: %s\n", rate, s.tail_ms,
        s.late_first_quarter_ms, s.late_last_quarter_ms, pass ? "pass" : "fail");
    if (!pass) break;
  }
  result->Set("runtime.serving.max_rps",
              MaxPassingRate(ladder, kLatencyLimitMs, kBacklogGrowthMs), "1/s");

  obs::MetricsRegistry::Get().Reset();
  obs::ClearTrace();
  obs::StartTracing();
  LoadStats traced;
  {
    PD_TRACE_SPAN("Submit/Wait");
    traced = Drive(rig.get(), nullptr, std::min(1.0, config.seconds * 0.1), config.seed + 9);
  }
  const double ops = static_cast<double>(traced.requests);
  const double messages = static_cast<double>(
      obs::MetricsRegistry::Get().GetCounter("transport/messages_sent")->value());
  const double bytes = static_cast<double>(
      obs::MetricsRegistry::Get().GetCounter("transport/bytes_sent")->value());
  attempted += traced.requests;
  failed += traced.mismatches;
  const double untraced_rate = CompletionRate(untraced);
  const double traced_rate = CompletionRate(traced);
  result->Set("obs.trace_overhead_frac", (untraced_rate - traced_rate) / untraced_rate,
              "fraction");
  result->Set("runtime.transport.messages_per_op", messages / ops, "count");
  result->Set("runtime.transport.bytes_per_op", bytes / ops, "B");
  const double infer_ms = MeasureStageInfer(*rig, result);
  rig.reset();

  ProbeOptions probes;
  probes.hop_transport = TransportKind::kUnixSocket;
  probes.hop_shape = {kRows, 256};  // the stage-0 -> stage-1 boundary of one request
  probes.scratch_dir = config.scratch_dir;
  RunProbes(probes, result);
  obs::StopTracing();
  if (!obs::WriteTrace(config.trace_path)) {
    ++failed;
  }

  // Latency not explained by compute or hops: wakeups, admission, queueing.
  const double p50_ms = Median(ToMs(fixed.latency_s));
  const int hops = 3;  // ingress -> stage 0 -> stage 1 -> egress
  const double hop_ms = result->metrics["runtime.transport.hop_us"].value * 1e-3;
  result->Set("runtime.serving.overhead_ms", p50_ms - infer_ms - hops * hop_ms, "ms");
  result->Set("runtime.serving.gen_late_ms", Quantile(ToMs(fixed.late_s), 0.99), "ms");
  Say("fixed rate %.0f rps: p50 %.4f ms = infer %.4f + %d hops x %.4f + overhead\n",
      kFixedRate, p50_ms, infer_ms, hops, hop_ms);
  Say("trace: %s\n", config.trace_path.c_str());
  result->attempted = attempted;
  result->failed = failed;
}

}  // namespace perfbench
