#include "src/runtime/asp_trainer.h"

#include <cstring>
#include <thread>

#include "src/common/check.h"
#include "src/common/thread_pool.h"

namespace pipedream {
namespace {

// Packs every parameter's gradient into one flat tensor (the ASP wire payload). Gradients
// are copied, not shared: the worker reuses its local grad buffers immediately.
Tensor FlattenGrads(const std::vector<Parameter*>& params) {
  int64_t total = 0;
  for (const Parameter* p : params) {
    total += p->grad.numel();
  }
  Tensor flat = Tensor::Uninitialized({total});
  float* out = flat.data();
  int64_t at = 0;
  for (const Parameter* p : params) {
    const int64_t n = p->grad.numel();
    std::memcpy(out + at, p->grad.data(), static_cast<size_t>(n) * sizeof(float));
    at += n;
  }
  return flat;
}

}  // namespace

AspTrainer::AspTrainer(const Sequential& model, int workers, const Loss* loss,
                       const Optimizer& optimizer_prototype, const Dataset* dataset,
                       int64_t batch_size, uint64_t seed, int staleness_depth)
    : workers_(workers),
      loss_(loss),
      dataset_(dataset),
      batch_size_(batch_size),
      seed_(seed),
      shared_model_(model.Clone()),
      staleness_depth_(staleness_depth) {
  PD_CHECK_GE(workers, 1);
  PD_CHECK_GE(staleness_depth, 0);
  shared_params_ = shared_model_->Params();
  optimizer_ = optimizer_prototype.CloneFresh();
  acked_.assign(static_cast<size_t>(workers_), 0);
  // The parameter server is endpoint (0, 0) of the shared transport abstraction — the same
  // seam the pipeline runtime sends activations through.
  transport_ = MakeTransport();
  server_inbox_ = transport_->AddEndpoint(0, 0);
  const Status started = transport_->Start();
  PD_CHECK(started.ok()) << "transport start failed: " << started.ToString();
}

void AspTrainer::ApplyGradient(PipeMessage message) {
  PD_CHECK(VerifyChecksum(message)) << "ASP gradient message failed its checksum";
  const int worker = static_cast<int>(message.input_version);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const float* flat = message.payload.data();
    int64_t at = 0;
    for (Parameter* p : shared_params_) {
      const int64_t n = p->grad.numel();
      PD_CHECK_LE(at + n, message.payload.numel());
      std::memcpy(p->grad.data(), flat + at, static_cast<size_t>(n) * sizeof(float));
      at += n;
    }
    PD_CHECK_EQ(at, message.payload.numel());
    optimizer_->Step(shared_params_);
    if (staleness_depth_ > 0) {
      std::vector<Tensor> snapshot;
      snapshot.reserve(shared_params_.size());
      for (const Parameter* param : shared_params_) {
        snapshot.push_back(param->value);
      }
      history_.push_back(std::move(snapshot));
      while (history_.size() > static_cast<size_t>(staleness_depth_)) {
        history_.pop_front();
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(ack_mutex_);
    ++acked_[static_cast<size_t>(worker)];
  }
  ack_cv_.notify_all();
}

AspEpochStats AspTrainer::TrainEpoch() {
  MinibatchLoader probe(dataset_, batch_size_, seed_);
  const int64_t bpe = probe.batches_per_epoch();
  const int64_t begin = next_global_batch_;
  const int64_t end = begin + bpe;

  std::vector<double> loss_sums(static_cast<size_t>(workers_), 0.0);
  std::vector<int64_t> loss_counts(static_cast<size_t>(workers_), 0);

  auto worker_fn = [&](int worker) {
    MinibatchLoader loader(dataset_, batch_size_, seed_);
    auto local = shared_model_->Clone();
    const std::vector<Parameter*> local_params = local->Params();
    Tensor x;
    Tensor y;
    Tensor grad;
    int64_t sent = 0;
    for (int64_t b = begin + worker; b < end; b += workers_) {
      loader.BatchAt(b, &x, &y);
      // Snapshot shared weights — deliberately `staleness_depth_` updates old (see the
      // constructor comment). No barrier: this is the staleness ASP trades accuracy for.
      {
        std::lock_guard<std::mutex> lock(mutex_);
        const std::vector<Tensor>* source = nullptr;
        if (staleness_depth_ > 0 && !history_.empty()) {
          const size_t back = std::min(history_.size() - 1,
                                       static_cast<size_t>(staleness_depth_ - 1));
          source = &history_[history_.size() - 1 - back];
        }
        for (size_t i = 0; i < local_params.size(); ++i) {
          local_params[i]->value =
              source != nullptr ? (*source)[i] : shared_params_[i]->value;
        }
      }
      local->ZeroGrads();
      ModelContext ctx;
      const Tensor out = local->Forward(x, &ctx, /*training=*/true);
      Tensor targets = y.rank() > 1 ? y.Reshaped({y.numel()}) : y;
      loss_sums[static_cast<size_t>(worker)] += loss_->Compute(out, targets, &grad);
      ++loss_counts[static_cast<size_t>(worker)];
      local->BackwardParams(grad, &ctx);  // the batch's own gradient is never read
      // Ship the gradient to the parameter server; apply-to-whatever-is-current happens
      // there, in arrival order.
      PipeMessage message;
      message.minibatch = b;
      message.type = WorkType::kBackward;
      message.payload = FlattenGrads(local_params);
      message.input_version = worker;  // reply-routing key for the ack
      StampChecksum(&message);
      transport_->Send(0, 0, std::move(message));
      ++sent;
      // Wait for our own update to land before the next snapshot: a worker's own gradient
      // is never stale to itself (identical sequencing to the in-place formulation).
      std::unique_lock<std::mutex> lock(ack_mutex_);
      ack_cv_.wait(lock, [&] { return acked_[static_cast<size_t>(worker)] >= sent; });
    }
  };

  // The parameter-server loop: applies exactly one update per minibatch in the epoch, in
  // message-arrival order, then exits.
  std::thread server([this, bpe] {
    int64_t applied = 0;
    while (applied < bpe) {
      server_inbox_->WaitUntil(
          [](int64_t min_fwd, int64_t min_bwd) { return min_bwd >= 0; });
      std::optional<PipeMessage> message = server_inbox_->Take(WorkType::kBackward);
      PD_CHECK(message.has_value());
      ApplyGradient(std::move(*message));
      ++applied;
    }
  });

  // Concurrent ASP workers share the kernel pool like pipeline stages do.
  const int kernel_budget = KernelBudgetForWorkers(workers_);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers_));
  for (int w = 0; w < workers_; ++w) {
    threads.emplace_back([&worker_fn, kernel_budget](int worker) {
      ScopedKernelBudget budget(kernel_budget);
      worker_fn(worker);
    }, w);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  server.join();
  for (int64_t& count : acked_) {
    count = 0;  // reset the ack ledger so epochs are self-contained
  }

  AspEpochStats stats;
  for (int w = 0; w < workers_; ++w) {
    stats.mean_loss += loss_sums[static_cast<size_t>(w)];
    stats.minibatches += loss_counts[static_cast<size_t>(w)];
  }
  if (stats.minibatches > 0) {
    stats.mean_loss /= static_cast<double>(stats.minibatches);
  }
  next_global_batch_ = end;
  ++epochs_completed_;
  return stats;
}

double AspTrainer::EvaluateAccuracy(const Dataset& eval, int64_t eval_batch) const {
  MinibatchLoader loader(&eval, eval_batch, /*seed=*/1);
  Tensor x;
  Tensor y;
  double total = 0.0;
  const int64_t batches = loader.batches_per_epoch();
  for (int64_t b = 0; b < batches; ++b) {
    loader.BatchAt(b, &x, &y);
    ModelContext ctx;
    const Tensor out = shared_model_->Forward(x, &ctx, /*training=*/false);
    Tensor targets = y.rank() > 1 ? y.Reshaped({y.numel()}) : y;
    total += Accuracy(out, targets);
  }
  return batches > 0 ? total / static_cast<double>(batches) : 0.0;
}

}  // namespace pipedream
