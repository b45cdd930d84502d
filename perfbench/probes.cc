// The per-layer probe suite: isolated timed calls into each layer's public function, at
// kernel budget 1 (what every stage worker of the 4-worker training workloads gets).
#include <algorithm>
#include <filesystem>
#include <thread>
#include <vector>

#include "perfbench/workloads.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/data/dataset.h"
#include "src/data/loader.h"
#include "src/graph/models.h"
#include "src/obs/trace.h"
#include "src/planner/partitioner.h"
#include "src/planner/predictor.h"
#include "src/planner/schedule_frontier.h"
#include "src/profile/model_zoo.h"
#include "src/runtime/allreduce.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/mailbox.h"
#include "src/runtime/serving.h"
#include "src/simexec/pipeline_sim.h"
#include "src/tensor/ops.h"

namespace perfbench {

using namespace pipedream;

double TimePerCall(const std::function<void()>& fn, double min_seconds, int rounds) {
  fn();  // warm caches, pool free lists and lazy set-up
  const double t_probe = NowSeconds();
  fn();
  const double one = std::max(1e-7, NowSeconds() - t_probe);
  const int64_t reps =
      std::max<int64_t>(1, static_cast<int64_t>(min_seconds / rounds / one));
  std::vector<double> per_call;
  for (int r = 0; r < rounds; ++r) {
    const double t0 = NowSeconds();
    for (int64_t i = 0; i < reps; ++i) {
      fn();
    }
    per_call.push_back((NowSeconds() - t0) / static_cast<double>(reps));
  }
  return Median(per_call);
}

namespace {

Tensor RandomTensor(std::vector<int64_t> shape, Rng* rng) {
  Tensor t(std::move(shape));
  float* d = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) {
    d[i] = static_cast<float>(rng->Uniform(-1.0, 1.0));
  }
  return t;
}

void ProbeTensor(Result* result) {
  Rng rng(101);
  {
    PD_TRACE_SPAN("probe/gemm");
    // train_vgg_3-1's fc1: [32, 1024] x [1024, 64].
    const Tensor a = RandomTensor({32, 1024}, &rng);
    const Tensor b = RandomTensor({1024, 64}, &rng);
    Tensor out;
    const double s = TimePerCall([&] { Gemm(a, false, b, false, 1.0f, 0.0f, &out); });
    result->Set("tensor.gemm_gflops", 2.0 * 32 * 1024 * 64 / s * 1e-9, "GF/s");
  }
  {
    PD_TRACE_SPAN("probe/conv");
    // train_vgg_3-1's conv2: 8 -> 16 channels over 16x16 maps, batch 32.
    ConvGeometry g;
    g.batch = 32;
    g.in_channels = 8;
    g.in_h = g.in_w = 16;
    g.out_channels = 16;
    g.kernel = 3;
    g.stride = 1;
    g.padding = 1;
    const Tensor input = RandomTensor({32, 8, 16, 16}, &rng);
    const Tensor weight = RandomTensor({16, 8, 3, 3}, &rng);
    const Tensor bias = RandomTensor({16}, &rng);
    Tensor out;
    const double flops = 2.0 * 32 * 16 * 16 * 16 * 8 * 9;
    const double fwd = TimePerCall([&] { Conv2dForward(input, weight, bias, g, &out); });
    const Tensor grad_out = RandomTensor(out.shape(), &rng);
    Tensor gw(weight.shape());
    Tensor gb(bias.shape());
    Tensor gi;
    const double bwd =
        TimePerCall([&] { Conv2dBackward(input, weight, grad_out, g, &gw, &gb, &gi); });
    result->Set("tensor.conv_fwd_gflops", flops / fwd * 1e-9, "GF/s");
    // Backward computes both the weight and the input gradient: twice the forward's FLOPs.
    result->Set("tensor.conv_bwd_gflops", 2.0 * flops / bwd * 1e-9, "GF/s");
  }
}

void ProbeDataAllReduce(Result* result) {
  // train_vgg_3-1's model, batch and data.
  Rng rng(202);
  const auto model = BuildMiniVgg(3, 32, 10, &rng);
  const Dataset data = MakeSyntheticImages(10, 3, 32, 16, 3.0, 7);
  MinibatchLoader loader(&data, 32, 7);
  Tensor inputs;
  Tensor targets;
  {
    PD_TRACE_SPAN("probe/data_batch");
    int64_t index = 0;
    const double s = TimePerCall([&] { loader.BatchAt(index++, &inputs, &targets); });
    result->Set("data.batch_us", s * 1e6, "us");
  }
  {
    PD_TRACE_SPAN("probe/allreduce");
    // Stage 0 of train_vgg_3-1 (the conv block) on its 3 replicas, one thread each.
    constexpr int kReplicas = 3;
    constexpr int kRounds = 300;
    std::vector<std::unique_ptr<Sequential>> slices;
    for (int r = 0; r < kReplicas; ++r) {
      slices.push_back(model->CloneSlice(0, 6));
      for (Parameter* p : slices.back()->Params()) {
        p->grad = RandomTensor(p->value.shape(), &rng);
      }
    }
    GradientAllReducer reducer(kReplicas);
    std::vector<double> seconds(kReplicas, 0.0);
    std::vector<std::thread> threads;
    for (int r = 0; r < kReplicas; ++r) {
      threads.emplace_back([&, r] {
        const std::vector<Parameter*> params = slices[static_cast<size_t>(r)]->Params();
        const double t0 = NowSeconds();
        for (int i = 0; i < kRounds; ++i) {
          reducer.AllReduce(r, params, kReplicas);
        }
        seconds[static_cast<size_t>(r)] = NowSeconds() - t0;
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    result->Set("runtime.allreduce_ms",
                *std::max_element(seconds.begin(), seconds.end()) / kRounds * 1e3, "ms");
  }
}

void ProbeTransportCheckpoint(const ProbeOptions& options, Result* result) {
  Rng rng(404);
  {
    PD_TRACE_SPAN("probe/transport_hop");
    std::unique_ptr<MessageTransport> transport = MakeTransport(options.hop_transport);
    Mailbox* inbox = transport->AddEndpoint(1, 0);
    PD_CHECK(transport->Start().ok());
    const Tensor payload = RandomTensor(options.hop_shape, &rng);
    int64_t minibatch = 0;
    const double s = TimePerCall([&] {
      PipeMessage m;
      m.minibatch = minibatch;
      m.type = WorkType::kForward;
      m.payload = payload;
      StampChecksum(&m);
      transport->Send(1, 0, std::move(m));
      inbox->WaitUntil([&](int64_t min_fwd, int64_t) { return min_fwd == minibatch; });
      std::optional<PipeMessage> got = inbox->Take(WorkType::kForward);
      PD_CHECK(got.has_value() && VerifyChecksum(*got));
      ++minibatch;
    });
    transport->Shutdown();
    result->Set("runtime.transport.hop_us", s * 1e6, "us");
  }
  {
    PD_TRACE_SPAN("probe/checkpoint_save");
    // Stage 0 of train_mlp_socket: two 64x64 Dense layers.
    const auto model = BuildMlpClassifier(64, {64, 64, 64, 64, 64, 64, 64}, 16, &rng);
    const auto slice = model->CloneSlice(0, 4);
    const std::vector<Parameter*> params = slice->Params();
    const std::string dir = options.scratch_dir + "/probe-checkpoint";
    std::filesystem::create_directories(dir);
    CheckpointManager manager(dir);
    int64_t epoch = 0;
    const double s = TimePerCall(
        [&] { PD_CHECK(manager.SaveStage(0, epoch++ % 4, params).ok()); }, 0.15, 5);
    result->Set("runtime.checkpoint_save_ms", s * 1e3, "ms");
  }
}

void ProbeServing(Result* result) {
  // serve_mlp_socket's model and server, one synchronous 8-row request at a time: the round
  // trip is compute plus per-message overhead, with no queueing.
  Rng rng(505);
  const auto model = BuildMlpClassifier(64, std::vector<int64_t>(5, 256), 16, &rng);
  const Tensor request = RandomTensor({8, 64}, &rng);
  PD_TRACE_SPAN("probe/serving_rtt");
  ServingOptions options;
  options.transport = TransportKind::kUnixSocket;
  PipelineServer server(*model, MakeStraightPlan(static_cast<int>(model->size()), {6}),
                        options);
  PD_CHECK(server.Start().ok());
  const double s = TimePerCall([&] { server.Infer(request); });
  server.Stop();
  result->Set("runtime.serving.rtt_us", s * 1e6, "us");
}

void ProbePlannerSim(Result* result) {
  const ModelProfile profile = MakeProfileByName("VGG-16", DeviceSpec::V100());
  const HardwareTopology cluster = HardwareTopology::ClusterA(4);
  {
    PD_TRACE_SPAN("probe/partition");
    PartitionResult part;
    const double s = TimePerCall([&] { part = Partition(profile, cluster); });
    result->Set("planner.partition_ms", s * 1e3, "ms");
    PD_TRACE_SPAN("probe/predict");
    const double p = TimePerCall([&] { PredictPlan(profile, part.plan, cluster); });
    result->Set("planner.predict_us", p * 1e6, "us");
  }
  const HardwareTopology small = HardwareTopology::ClusterA(2);
  const PipelinePlan straight = MakeBalancedStraightPlan(profile, 4);
  {
    PD_TRACE_SPAN("probe/frontier");
    const double s = TimePerCall(
        [&] { EnumerateScheduleFrontier(profile, straight, small, /*device_memory_bytes=*/0); });
    result->Set("planner.frontier_ms", s * 1e3, "ms");
  }
  PD_TRACE_SPAN("probe/simulate");
  struct Cell {
    const char* metric;
    ScheduleKind kind;
  };
  const Cell cells[] = {
      {"simexec.1f1b.minibatches_per_s", ScheduleKind::kOneFOneB},
      {"simexec.gpipe.minibatches_per_s", ScheduleKind::kGPipe},
      {"simexec.flush.minibatches_per_s", ScheduleKind::kPipeDreamFlush},
      {"simexec.interleaved.minibatches_per_s", ScheduleKind::kInterleaved},
  };
  const PipelinePlan chunked = MakeBalancedStraightPlan(profile, 8);
  for (const Cell& cell : cells) {
    SimOptions options;
    options.schedule = cell.kind;
    options.num_minibatches = 128;
    const bool interleaved = cell.kind == ScheduleKind::kInterleaved;
    options.interleave_chunks = interleaved ? 2 : 1;
    const PipelinePlan& plan = interleaved ? chunked : straight;
    const double s = TimePerCall([&] { SimulatePipeline(profile, plan, small, options); });
    result->Set(cell.metric, static_cast<double>(options.num_minibatches) / s, "1/s");
  }
}

}  // namespace

void RunProbes(const ProbeOptions& options, Result* result) {
  PD_TRACE_SPAN("probes");
  ScopedKernelBudget budget(1);
  ProbeTensor(result);
  ProbeDataAllReduce(result);
  ProbeTransportCheckpoint(options, result);
  ProbeServing(result);
  ProbePlannerSim(result);
}

void SetSetupMetric(const std::vector<double>& setup_seconds, Result* result) {
  std::string all;
  for (const double s : setup_seconds) {
    all += " " + std::to_string(s);
  }
  Say("setup: median %.6f s of%s\n", Median(setup_seconds), all.c_str());
  result->Set("setup_s", Median(setup_seconds), "s");
}

double MedianRate(const char* what, const std::vector<double>& times, double wall,
                  double window) {
  const std::vector<double> rates = WindowRates(times, 0.0, wall, window);
  Say("%s/s per %g s window: min %.1f, median %.1f, max %.1f over %zu windows\n", what,
      window, Quantile(rates, 0.0), Median(rates), Quantile(rates, 1.0), rates.size());
  return Median(rates);
}

void SetLatencyMetrics(const std::vector<double>& op_seconds,
                       const std::vector<double>& op_times, double window, Result* result) {
  std::vector<double> ms;
  ms.reserve(op_seconds.size());
  for (const double s : op_seconds) {
    ms.push_back(s * 1e3);
  }
  const TailSelection tail =
      window > 0.0 ? MedianWindowTail(op_times, ms, window) : SelectTail(ms);
  result->Set("op_p50_ms", Median(ms), "ms");
  if (window > 0.0) {
    Say("op latency: p50 %.4f ms, p%g %.4f ms (median over whole %g s windows), %lld samples\n",
        Median(ms), tail.percentile, tail.value, window, static_cast<long long>(tail.samples));
  } else {
    Say("op latency: p50 %.4f ms, p%g %.4f ms, %lld samples\n", Median(ms), tail.percentile,
        tail.value, static_cast<long long>(tail.samples));
  }
}

}  // namespace perfbench
