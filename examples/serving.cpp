// Serving demo: train a small model, then serve it as a pipeline of stage servers.
//
//   1. Train an MLP classifier with the 1F1B pipeline trainer (weight stashing on).
//   2. Stand the trained model up as a PipelineServer: one resident server thread per
//      stage, connected by the pluggable transport (in-proc here; set
//      ServingOptions::transport to TransportKind::kUnixSocket to push every activation
//      through the CRC-framed byte-stream transport instead — same code, same results).
//   3. Stream requests through the pipeline concurrently and read the tail-latency
//      quantiles off the serving histogram.
//
// Run: ./serving
#include <cstdio>
#include <vector>

#include "src/common/rng.h"
#include "src/data/dataset.h"
#include "src/graph/loss.h"
#include "src/graph/models.h"
#include "src/optim/sgd.h"
#include "src/runtime/pipeline_trainer.h"
#include "src/runtime/serving.h"

using namespace pipedream;

int main() {
  std::printf("== PipeDream pipelined serving ==\n\n");

  // Train a small classifier with the pipeline runtime (2 stages, 1F1B + stashing).
  Rng rng(7);
  const auto model = BuildMlpClassifier(/*in=*/16, /*hidden=*/{48, 32}, /*classes=*/3, &rng);
  const Dataset all = MakeGaussianMixture(3, 16, 200, 0.35, 11);
  Dataset train;
  Dataset eval;
  SplitDataset(all, 0.8, &train, &eval);
  SoftmaxCrossEntropy loss;
  Sgd sgd(0.05);
  const auto train_plan = MakeStraightPlan(static_cast<int>(model->size()), {2});
  PipelineTrainer trainer(*model, train_plan, &loss, sgd, &train, /*batch=*/16, /*seed=*/5);
  for (int epoch = 0; epoch < 8; ++epoch) {
    trainer.TrainEpoch();
  }
  const auto trained = trainer.AssembleModel();
  std::printf("trained 8 epochs, eval accuracy %.1f%%\n\n",
              100.0 * trainer.EvaluateAccuracy(eval, 16));

  // Serve it: stage servers behind the transport, bounded admission window of 4.
  ServingOptions options;
  options.max_inflight = 4;
  const auto serve_plan = MakeStraightPlan(static_cast<int>(trained->size()), {2});
  PipelineServer server(*trained, serve_plan, options);
  PD_CHECK(server.Start().ok());
  std::printf("serving over the '%s' transport, admission window %d\n",
              server.transport_name(), options.max_inflight);

  // Stream 64 single-sample requests, keeping the window full so stages overlap.
  Tensor request({1, 16});
  std::vector<int64_t> ids;
  int64_t answered = 0;
  for (int i = 0; i < 64; ++i) {
    request.Fill(static_cast<float>(i % 3));
    ids.push_back(server.Submit(request));
    if (ids.size() == 4) {
      for (const int64_t id : ids) {
        const Tensor logits = server.Wait(id);
        answered += logits.numel() > 0 ? 1 : 0;
      }
      ids.clear();
    }
  }
  for (const int64_t id : ids) {
    server.Wait(id);
    ++answered;
  }

  const ServingStats stats = server.Stats();
  server.Stop();
  std::printf("answered %lld requests: p50 %.3f ms, p99 %.3f ms, p999 %.3f ms\n",
              static_cast<long long>(answered), stats.p50_seconds * 1e3,
              stats.p99_seconds * 1e3, stats.p999_seconds * 1e3);
  std::printf("ingress depth high-water %lld (window %d) — backpressure %s\n",
              static_cast<long long>(server.IngressDepthHighWater()), options.max_inflight,
              server.IngressDepthHighWater() <= options.max_inflight ? "held" : "FAILED");
  return 0;
}
