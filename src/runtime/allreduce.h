// Synchronous in-process gradient all_reduce for replicated stages and BSP data parallelism.
//
// Each participant contributes its parameter gradients; all block until every participant of
// the round has arrived; everyone leaves with the element-wise mean. This is the in-process
// stand-in for NCCL/Gloo collectives.
//
// Failure handling: a round's membership is dynamic (a degraded pipeline that ejected a dead
// replica runs partial tail rounds), and Abort() wakes every blocked participant so a dead
// replica cannot wedge the collective — survivors observe the abort and unwind instead of
// waiting for a contribution that will never come.
#ifndef SRC_RUNTIME_ALLREDUCE_H_
#define SRC_RUNTIME_ALLREDUCE_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/common/check.h"
#include "src/graph/layer.h"
#include "src/obs/trace.h"
#include "src/tensor/ops.h"

namespace pipedream {

class GradientAllReducer {
 public:
  // `capacity` is the maximum number of participants a round may have.
  explicit GradientAllReducer(int capacity) : capacity_(capacity) {
    PD_CHECK_GE(capacity, 1);
  }

  // Averages `params`' gradients with every other participant of the current round. Blocks
  // until the round completes; returns false if the round was aborted (the caller must
  // unwind — its gradients are unchanged garbage for this round). All participants must pass
  // structurally identical parameter lists and agree on `round_participants` (ordinarily the
  // stage's active replica count; smaller for a partial tail round). `slot` identifies the
  // caller's position in [0, round_participants): contributions are deposited per slot and
  // summed in slot order once everyone has arrived, so the mean is independent of thread
  // arrival order (float addition is not associative).
  bool AllReduce(int slot, const std::vector<Parameter*>& params, int round_participants) {
    PD_CHECK(round_participants >= 1 && round_participants <= capacity_);
    if (round_participants == 1) {
      return true;
    }
    PD_TRACE_SPAN("allreduce");
    PD_CHECK(slot >= 0 && slot < round_participants);
    std::unique_lock<std::mutex> lock(mutex_);
    if (aborted_) {
      return false;
    }
    if (contributions_.empty()) {
      contributions_.resize(static_cast<size_t>(round_participants));
      expected_ = round_participants;
    }
    PD_CHECK_EQ(expected_, round_participants)
        << "participants disagree about the round size";
    auto& slot_grads = contributions_[static_cast<size_t>(slot)];
    PD_CHECK(slot_grads.empty()) << "slot " << slot << " contributed twice in one round";
    slot_grads.reserve(params.size());
    for (const Parameter* p : params) {
      slot_grads.push_back(p->grad);
    }
    ++arrived_;
    if (arrived_ == expected_) {
      result_ = std::move(contributions_[0]);
      for (size_t r = 1; r < contributions_.size(); ++r) {
        PD_CHECK_EQ(contributions_[r].size(), result_.size());
        for (size_t i = 0; i < result_.size(); ++i) {
          AddInPlace(&result_[i], contributions_[r][i]);
        }
      }
      const float inv = 1.0f / static_cast<float>(expected_);
      for (Tensor& t : result_) {
        Scale(&t, inv);
      }
      contributions_.clear();
      remaining_readers_ = arrived_;
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
    } else {
      const uint64_t my_generation = generation_;
      cv_.wait(lock, [&] { return generation_ != my_generation || aborted_; });
      if (aborted_) {
        return false;
      }
    }
    // Copy the round's mean into this participant's gradients.
    for (size_t i = 0; i < params.size(); ++i) {
      params[i]->grad = result_[i];
    }
    if (--remaining_readers_ == 0) {
      result_.clear();
    }
    return true;
  }

  // Full-membership round: every one of the reducer's `capacity` participants takes part.
  bool AllReduce(int slot, const std::vector<Parameter*>& params) {
    return AllReduce(slot, params, capacity_);
  }

  // Wakes every blocked participant with failure. Safe to call from any thread (the
  // watchdog, or a dying worker's wrapper).
  void Abort() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      aborted_ = true;
    }
    cv_.notify_all();
  }

  // Clears all round state for a fresh epoch attempt. Only call when no participant thread
  // is running.
  void Reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    aborted_ = false;
    contributions_.clear();
    result_.clear();
    arrived_ = 0;
    expected_ = 0;
    remaining_readers_ = 0;
  }

 private:
  const int capacity_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::vector<Tensor>> contributions_;  // one slot per participant
  std::vector<Tensor> result_;
  int arrived_ = 0;
  int expected_ = 0;  // round size, fixed by the first arrival
  int remaining_readers_ = 0;
  bool aborted_ = false;
  uint64_t generation_ = 0;
};

// Generation-counting thread barrier (the Flush instruction of flush-family programs).
// Abortable for the same reason as the reducer: a dead stage must not wedge the flush. An
// aborted barrier stays aborted; each epoch attempt builds a fresh one.
class FlushBarrier {
 public:
  explicit FlushBarrier(int participants) : participants_(participants) {
    PD_CHECK_GE(participants, 1);
  }

  // Blocks until all participants arrive. Returns false if the barrier was aborted.
  bool Arrive() {
    PD_TRACE_SPAN("flush_wait");
    std::unique_lock<std::mutex> lock(mutex_);
    if (aborted_) {
      return false;
    }
    if (++arrived_ == participants_) {
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
      return true;
    }
    const uint64_t my_generation = generation_;
    cv_.wait(lock, [&] { return generation_ != my_generation || aborted_; });
    return !aborted_;
  }

  void Abort() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      aborted_ = true;
    }
    cv_.notify_all();
  }

 private:
  const int participants_;
  std::mutex mutex_;
  std::condition_variable cv_;
  int arrived_ = 0;
  bool aborted_ = false;
  uint64_t generation_ = 0;
};

}  // namespace pipedream

#endif  // SRC_RUNTIME_ALLREDUCE_H_
