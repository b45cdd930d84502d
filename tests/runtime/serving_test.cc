// Pipelined serving tests: correctness of the staged forward path, tail-latency quantile
// plumbing (p50 <= p99 <= p999 out of the reservoir histogram), and ingress backpressure —
// the admission window must bound the stage-0 mailbox depth no matter how hard clients
// over-submit. Parameterized over both transports like the conformance battery.
#include "src/runtime/serving.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/graph/models.h"
#include "src/obs/metrics.h"
#include "src/planner/plan.h"
#include "src/tensor/init.h"
#include "src/tensor/ops.h"

namespace pipedream {
namespace {

std::unique_ptr<Sequential> MakeModel() {
  Rng rng(3);
  return BuildMlpClassifier(6, {12, 10}, 4, &rng);
}

Tensor MakeRequest(int64_t batch, float fill) {
  Tensor x({batch, 6});
  for (int64_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = fill + static_cast<float>(i % 7) * 0.125f;
  }
  return x;
}

class ServingTest : public ::testing::TestWithParam<TransportKind> {
 protected:
  ServingOptions Options(int max_inflight = 8) {
    ServingOptions options;
    options.transport = GetParam();
    options.max_inflight = max_inflight;
    options.worker_tick_ms = 5;
    return options;
  }
};

TEST_P(ServingTest, InferMatchesDirectForward) {
  const auto model = MakeModel();
  const auto plan = MakeStraightPlan(static_cast<int>(model->size()), {2});
  PipelineServer server(*model, plan, Options());
  ASSERT_TRUE(server.Start().ok());

  for (int i = 0; i < 4; ++i) {
    const Tensor x = MakeRequest(3, static_cast<float>(i));
    const Tensor got = server.Infer(x);
    ModelContext ctx;
    const Tensor want = model->Forward(x, &ctx, /*training=*/false);
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_EQ(MaxAbsDiff(got, want), 0.0)
        << "staged serving must reproduce the monolithic forward exactly";
  }
  server.Stop();
  EXPECT_EQ(server.Stats().completed, 4);
}

TEST_P(ServingTest, ServingSizeModelMatchesDirectForwardBitwise) {
  // The serving benchmark's model and cut: 64 -> 5 x 256 -> 16, stages [0, 6) and [6, 11).
  // Requests of 1 row up to one past the simd tile's height (MR = 14 on AVX-512, 6
  // otherwise) cover both GEMM paths a Dense forward can take, one strip and packed.
  const int64_t mr = std::strcmp(SimdKernelIsa(), "avx512") == 0 ? 14 : 6;
  Rng rng(11);
  const auto model = BuildMlpClassifier(64, std::vector<int64_t>(5, 256), 16, &rng);
  const auto plan = MakeStraightPlan(static_cast<int>(model->size()), {6});
  PipelineServer server(*model, plan, Options());
  ASSERT_TRUE(server.Start().ok());

  Rng data_rng(12);
  for (int64_t rows = 1; rows <= mr + 1; ++rows) {
    Tensor x({rows, 64});
    InitGaussian(&x, 1.0f, &data_rng);
    const Tensor got = server.Infer(x);
    ModelContext ctx;
    const Tensor want = model->Forward(x, &ctx, /*training=*/false);
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          static_cast<size_t>(want.numel()) * sizeof(float)),
              0)
        << rows << "-row request: staged serving must reproduce the monolithic forward";
  }
  server.Stop();
  EXPECT_EQ(server.Stats().completed, mr + 1);
}

TEST_P(ServingTest, PipelinedStreamPreservesRequestResultPairing) {
  const auto model = MakeModel();
  const auto plan = MakeStraightPlan(static_cast<int>(model->size()), {1, 3});
  PipelineServer server(*model, plan, Options(/*max_inflight=*/4));
  ASSERT_TRUE(server.Start().ok());

  // Overlap many requests; every result must be the forward of *its* input.
  constexpr int kRequests = 24;
  std::vector<int64_t> ids;
  std::vector<Tensor> inputs;
  ids.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    inputs.push_back(MakeRequest(2, static_cast<float>(i) * 0.5f));
  }
  std::thread submitter([&] {
    for (int i = 0; i < kRequests; ++i) {
      ids.push_back(server.Submit(inputs[static_cast<size_t>(i)]));
    }
  });
  submitter.join();
  for (int i = 0; i < kRequests; ++i) {
    const Tensor got = server.Wait(ids[static_cast<size_t>(i)]);
    ModelContext ctx;
    const Tensor want =
        model->Forward(inputs[static_cast<size_t>(i)], &ctx, /*training=*/false);
    EXPECT_EQ(MaxAbsDiff(got, want), 0.0) << "request " << i << " got another's result";
  }
  server.Stop();
  EXPECT_EQ(server.Stats().completed, kRequests);
}

TEST_P(ServingTest, TailLatencyQuantilesAreOrderedAndPositive) {
  obs::MetricsRegistry::Get().Reset();  // isolate this run's latency samples
  const auto model = MakeModel();
  const auto plan = MakeStraightPlan(static_cast<int>(model->size()), {2});
  PipelineServer server(*model, plan, Options());
  ASSERT_TRUE(server.Start().ok());

  std::vector<int64_t> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(server.Submit(MakeRequest(2, static_cast<float>(i))));
    if (ids.size() % 8 == 0) {
      for (const int64_t id : ids) {
        server.Wait(id);
      }
      ids.clear();
    }
  }
  for (const int64_t id : ids) {
    server.Wait(id);
  }
  server.Stop();

  const ServingStats stats = server.Stats();
  EXPECT_EQ(stats.completed, 64);
  EXPECT_GT(stats.p50_seconds, 0.0) << "a request cannot take zero time";
  EXPECT_LE(stats.p50_seconds, stats.p99_seconds);
  EXPECT_LE(stats.p99_seconds, stats.p999_seconds);
  EXPECT_TRUE(std::isfinite(stats.p999_seconds));
  EXPECT_GT(stats.mean_seconds, 0.0);
}

TEST_P(ServingTest, BackpressureBoundsIngressDepthUnderOverAdmission) {
  obs::MetricsRegistry::Get().Reset();
  const auto model = MakeModel();
  const auto plan = MakeStraightPlan(static_cast<int>(model->size()), {2});
  constexpr int kWindow = 4;
  PipelineServer server(*model, plan, Options(kWindow));
  ASSERT_TRUE(server.Start().ok());

  // 2x over-admission from several clients at once: Submit must block at the window, so
  // the ingress inbox never holds more than the window's worth of requests.
  constexpr int kClients = 4;
  constexpr int kPerClient = 2 * kWindow;
  std::vector<std::thread> clients;
  std::mutex ids_mutex;
  std::vector<int64_t> ids;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &ids_mutex, &ids, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const int64_t id = server.Submit(MakeRequest(1, static_cast<float>(c * 100 + i)));
        std::lock_guard<std::mutex> lock(ids_mutex);
        ids.push_back(id);
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  for (const int64_t id : ids) {
    server.Wait(id);
  }
  const int64_t hwm = server.IngressDepthHighWater();
  server.Stop();

  EXPECT_EQ(server.Stats().completed, kClients * kPerClient);
  EXPECT_LE(hwm, kWindow) << "admission window failed to bound the ingress queue";
  EXPECT_GE(hwm, 1);
}

TEST_P(ServingTest, LatencyDecompositionAccountsForEveryRequest) {
  // Every request's wall latency decomposes per stage into transport (send to delivery),
  // queue (delivery to dequeue), and compute (Forward), plus the egress hop. Each component
  // histogram must see every request, and — since the components are disjoint sub-intervals
  // of the submit-to-collect window on one clock — their means must sum to no more than the
  // wall mean Wait() observes.
  obs::MetricsRegistry::Get().Reset();
  const auto model = MakeModel();
  const auto plan = MakeStraightPlan(static_cast<int>(model->size()), {1, 3});
  PipelineServer server(*model, plan, Options(/*max_inflight=*/4));
  ASSERT_TRUE(server.Start().ok());

  constexpr int kRequests = 16;
  std::vector<int64_t> ids;
  ids.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    ids.push_back(server.Submit(MakeRequest(2, static_cast<float>(i))));
  }
  for (const int64_t id : ids) {
    server.Wait(id);
  }
  const ServingStats stats = server.Stats();
  const std::string prefix = std::string("serve/") + server.transport_name();
  const int num_stages = server.num_stages();
  double component_mean_sum = 0.0;
  for (int s = 0; s < num_stages; ++s) {
    for (const char* part : {"transport", "queue", "compute"}) {
      const RunningStat snap =
          obs::GetHistogram(prefix + "/stage" + std::to_string(s) + "/" + part +
                            "_seconds")
              ->snapshot();
      EXPECT_EQ(snap.count(), kRequests)
          << "stage " << s << " " << part << " histogram missed requests";
      EXPECT_GE(snap.min(), 0.0) << "negative " << part << " time at stage " << s;
      component_mean_sum += snap.mean();
    }
  }
  const RunningStat egress =
      obs::GetHistogram(prefix + "/egress/transport_seconds")->snapshot();
  EXPECT_EQ(egress.count(), kRequests);
  component_mean_sum += egress.mean();
  server.Stop();

  EXPECT_EQ(stats.completed, kRequests);
  EXPECT_GT(component_mean_sum, 0.0);
  EXPECT_LE(component_mean_sum, stats.mean_seconds * 1.0001 + 1e-9)
      << "per-stage components exceed the wall latency they decompose";
}

TEST_P(ServingTest, StopIsIdempotentAndDestructorSafe) {
  const auto model = MakeModel();
  const auto plan = MakeStraightPlan(static_cast<int>(model->size()), {2});
  auto server = std::make_unique<PipelineServer>(*model, plan, Options());
  ASSERT_TRUE(server->Start().ok());
  server->Infer(MakeRequest(2, 1.0f));
  server->Stop();
  server->Stop();
  server.reset();  // destructor after explicit Stop must be a no-op

  // Never-started server: destructor alone must not hang or crash.
  PipelineServer unstarted(*model, plan, Options());
}

INSTANTIATE_TEST_SUITE_P(AllTransports, ServingTest,
                         ::testing::Values(TransportKind::kInProc,
                                           TransportKind::kUnixSocket),
                         [](const ::testing::TestParamInfo<TransportKind>& param) {
                           return std::string(TransportKindName(param.param));
                         });

}  // namespace
}  // namespace pipedream
