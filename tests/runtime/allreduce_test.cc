#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/runtime/allreduce.h"

namespace pipedream {
namespace {

TEST(GradientAllReducerTest, SingleParticipantIsIdentity) {
  GradientAllReducer reducer(1);
  Parameter p;
  p.value = Tensor({2}, {0, 0});
  p.grad = Tensor({2}, {3, 4});
  reducer.AllReduce(0, {&p});
  EXPECT_EQ(p.grad[0], 3.0f);
}

TEST(GradientAllReducerTest, AveragesAcrossThreads) {
  const int n = 4;
  GradientAllReducer reducer(n);
  std::vector<Parameter> params(static_cast<size_t>(n));
  std::vector<std::thread> threads;
  for (int i = 0; i < n; ++i) {
    params[static_cast<size_t>(i)].value = Tensor({2});
    params[static_cast<size_t>(i)].grad =
        Tensor({2}, {static_cast<float>(i), static_cast<float>(2 * i)});
  }
  for (int i = 0; i < n; ++i) {
    threads.emplace_back(
        [&reducer, &params, i] { reducer.AllReduce(i, {&params[static_cast<size_t>(i)]}); });
  }
  for (auto& t : threads) {
    t.join();
  }
  // Mean of 0..3 = 1.5; mean of 0,2,4,6 = 3.
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(params[static_cast<size_t>(i)].grad[0], 1.5f, 1e-6);
    EXPECT_NEAR(params[static_cast<size_t>(i)].grad[1], 3.0f, 1e-6);
  }
}

TEST(GradientAllReducerTest, MultipleRoundsStayConsistent) {
  const int n = 3;
  GradientAllReducer reducer(n);
  std::vector<Parameter> params(static_cast<size_t>(n));
  for (auto& p : params) {
    p.value = Tensor({1});
    p.grad = Tensor({1});
  }
  const int rounds = 50;
  std::vector<std::thread> threads;
  std::vector<std::vector<float>> results(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      for (int r = 0; r < rounds; ++r) {
        params[static_cast<size_t>(i)].grad[0] = static_cast<float>(r * 10 + i);
        reducer.AllReduce(i, {&params[static_cast<size_t>(i)]});
        results[static_cast<size_t>(i)].push_back(params[static_cast<size_t>(i)].grad[0]);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  for (int r = 0; r < rounds; ++r) {
    const float expected = static_cast<float>(r * 10 + 1);  // mean of {r10, r10+1, r10+2}
    for (int i = 0; i < n; ++i) {
      ASSERT_NEAR(results[static_cast<size_t>(i)][static_cast<size_t>(r)], expected, 1e-5)
          << "round " << r << " thread " << i;
    }
  }
}

TEST(GradientAllReducerTest, PartialRoundAveragesOverParticipants) {
  // Degraded epochs can leave a tail round with fewer arrivals than capacity; the explicit
  // participant count closes the round early.
  GradientAllReducer reducer(4);
  std::vector<Parameter> params(2);
  for (int i = 0; i < 2; ++i) {
    params[static_cast<size_t>(i)].value = Tensor({1});
    params[static_cast<size_t>(i)].grad = Tensor({1}, {static_cast<float>(10 * (i + 1))});
  }
  std::thread other([&] {
    EXPECT_TRUE(reducer.AllReduce(1, {&params[1]}, /*round_participants=*/2));
  });
  EXPECT_TRUE(reducer.AllReduce(0, {&params[0]}, /*round_participants=*/2));
  other.join();
  EXPECT_NEAR(params[0].grad[0], 15.0f, 1e-6);
  EXPECT_NEAR(params[1].grad[0], 15.0f, 1e-6);
}

TEST(GradientAllReducerTest, AbortReleasesBlockedParticipant) {
  GradientAllReducer reducer(2);
  Parameter p;
  p.value = Tensor({1});
  p.grad = Tensor({1}, {7.0f});
  std::atomic<bool> returned{false};
  std::atomic<bool> result{true};
  std::thread blocked([&] {
    result = reducer.AllReduce(0, {&p});  // peer never arrives
    returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  reducer.Abort();
  blocked.join();
  EXPECT_TRUE(returned.load());
  EXPECT_FALSE(result.load());  // aborted rounds report failure, not a bogus average
}

TEST(GradientAllReducerTest, ResetReenablesAfterAbort) {
  GradientAllReducer reducer(2);
  reducer.Abort();
  Parameter p;
  p.value = Tensor({1});
  p.grad = Tensor({1}, {1.0f});
  EXPECT_FALSE(reducer.AllReduce(0, {&p}));
  reducer.Reset();
  std::vector<Parameter> params(2);
  for (int i = 0; i < 2; ++i) {
    params[static_cast<size_t>(i)].value = Tensor({1});
    params[static_cast<size_t>(i)].grad = Tensor({1}, {static_cast<float>(i)});
  }
  std::thread other([&] { EXPECT_TRUE(reducer.AllReduce(1, {&params[1]})); });
  EXPECT_TRUE(reducer.AllReduce(0, {&params[0]}));
  other.join();
  EXPECT_NEAR(params[0].grad[0], 0.5f, 1e-6);
}

TEST(FlushBarrierTest, AbortReleasesWaitersWithFailure) {
  FlushBarrier barrier(2);
  std::atomic<bool> result{true};
  std::thread blocked([&] { result = barrier.Arrive(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  barrier.Abort();
  blocked.join();
  EXPECT_FALSE(result.load());
}

TEST(FlushBarrierTest, ReleasesAllParticipants) {
  const int n = 4;
  FlushBarrier barrier(n);
  std::atomic<int> arrived{0};
  std::atomic<int> released{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&] {
      ++arrived;
      barrier.Arrive();
      ++released;
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(arrived.load(), n);
  EXPECT_EQ(released.load(), n);
}

TEST(FlushBarrierTest, ReusableAcrossGenerations) {
  const int n = 2;
  FlushBarrier barrier(n);
  std::atomic<int> count{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&] {
      for (int round = 0; round < 100; ++round) {
        barrier.Arrive();
        ++count;
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(count.load(), 200);
}

}  // namespace
}  // namespace pipedream
