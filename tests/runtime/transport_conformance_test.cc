// Transport conformance battery: every MessageTransport implementation must satisfy the
// same contract, verified here by running one suite parameterized over every TransportKind.
// The contract is what the trainer and the serving runtime actually rely on:
//   * delivery — every Send lands in the destination endpoint's inbox, none are lost;
//   * per-channel ordering — Take(type) drains in minibatch order regardless of send order;
//   * zero-copy move-through (in-proc only) — payload storage moves end to end;
//   * content fidelity (socket) — a serialize/frame/deserialize round trip is bitwise exact;
//   * deadline waits — WaitUntilFor times out on an idle endpoint instead of hanging;
//   * end-to-end checksum — corruption injected before Send is flagged at the receiver over
//     *any* transport (the message checksum travels the wire);
//   * clean shutdown — Drain + Shutdown never loses an in-flight message;
//   * concurrent senders — interleaved multi-threaded Sends never tear a message;
//   * the receive model — Start() starts no thread; two workers sending each other more
//     than a socket buffer both finish; Drain() delivers to an endpoint nobody waits on;
//   * training — a fixed-seed run ends bitwise equal over both transports (straight,
//     1F1B-RR and interleaved plans) and sends 2(S-1) messages per minibatch.
#include "src/runtime/transport.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/data/dataset.h"
#include "src/graph/loss.h"
#include "src/graph/models.h"
#include "src/obs/metrics.h"
#include "src/optim/sgd.h"
#include "src/runtime/fault.h"
#include "src/runtime/pipeline_trainer.h"
#include "src/tensor/ops.h"
#include "src/tensor/pool.h"

namespace pipedream {
namespace {

PipeMessage MakeMessage(int64_t minibatch, WorkType type, float fill, int64_t numel = 64) {
  PipeMessage message;
  message.minibatch = minibatch;
  message.type = type;
  message.payload = Tensor({numel});
  message.payload.Fill(fill);
  if (type == WorkType::kForward) {
    message.targets = Tensor({8});
    message.targets.Fill(fill + 1.0f);
  }
  message.input_version = minibatch * 10;
  message.trace_id = minibatch * 1000 + 7;
  StampChecksum(&message);
  return message;
}

// Blocks until `inbox` holds a forward message, failing the test after a generous deadline
// (socket delivery is asynchronous; in-proc delivery is immediate).
bool AwaitForward(Mailbox* inbox) {
  return inbox->WaitUntilFor([](int64_t min_fwd, int64_t) { return min_fwd >= 0; },
                             std::chrono::milliseconds(5000));
}

class TransportConformanceTest : public ::testing::TestWithParam<TransportKind> {
 protected:
  std::unique_ptr<MessageTransport> Make() { return MakeTransport(GetParam()); }
};

TEST_P(TransportConformanceTest, EndpointLookupMatchesRegistration) {
  const auto transport = Make();
  Mailbox* a = transport->AddEndpoint(0, 0);
  Mailbox* b = transport->AddEndpoint(1, 2);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(transport->endpoint(0, 0), a);
  EXPECT_EQ(transport->endpoint(1, 2), b);
  EXPECT_EQ(transport->endpoint(3, 0), nullptr);
  ASSERT_TRUE(transport->Start().ok());
}

TEST_P(TransportConformanceTest, DeliversEveryMessageInMinibatchOrder) {
  const auto transport = Make();
  Mailbox* inbox = transport->AddEndpoint(1, 0);
  ASSERT_TRUE(transport->Start().ok());

  // Send forwards out of order and backwards interleaved; each channel drains in order.
  const std::vector<int64_t> ids = {5, 1, 9, 3, 7, 0, 8, 2, 6, 4};
  for (const int64_t id : ids) {
    transport->Send(1, 0, MakeMessage(id, WorkType::kForward, static_cast<float>(id)));
    transport->Send(1, 0, MakeMessage(id, WorkType::kBackward, static_cast<float>(-id)));
  }
  transport->Drain();
  ASSERT_TRUE(inbox->WaitUntilFor(
      [](int64_t min_fwd, int64_t min_bwd) { return min_fwd == 0 && min_bwd == 0; },
      std::chrono::milliseconds(5000)));

  for (int64_t want = 0; want < 10; ++want) {
    const std::optional<PipeMessage> fwd = inbox->Take(WorkType::kForward);
    ASSERT_TRUE(fwd.has_value());
    EXPECT_EQ(fwd->minibatch, want);
    EXPECT_EQ(fwd->input_version, want * 10);
    EXPECT_TRUE(VerifyChecksum(*fwd));
    EXPECT_EQ(std::as_const(fwd->payload)[0], static_cast<float>(want));
    EXPECT_EQ(std::as_const(fwd->targets)[0], static_cast<float>(want) + 1.0f);

    const std::optional<PipeMessage> bwd = inbox->Take(WorkType::kBackward);
    ASSERT_TRUE(bwd.has_value());
    EXPECT_EQ(bwd->minibatch, want);
    EXPECT_TRUE(VerifyChecksum(*bwd));
  }
  EXPECT_FALSE(inbox->Take(WorkType::kForward).has_value());
  EXPECT_FALSE(inbox->Take(WorkType::kBackward).has_value());
}

TEST_P(TransportConformanceTest, MoveThroughOrFaithfulCopy) {
  // In-proc must preserve the mailbox zero-copy guarantee (mailbox_move_test) across the
  // transport seam: the delivered payload is the same storage block. A byte-stream
  // transport cannot share storage; it must instead reproduce the contents exactly.
  BufferPool::SetZeroCopyEnabledForTesting(1);
  const auto transport = Make();
  Mailbox* inbox = transport->AddEndpoint(0, 0);
  ASSERT_TRUE(transport->Start().ok());

  PipeMessage message = MakeMessage(3, WorkType::kForward, 1.5f, 1024);
  const void* payload_key = message.payload.StorageKey();
  transport->Send(0, 0, std::move(message));
  transport->Drain();
  ASSERT_TRUE(AwaitForward(inbox));
  const std::optional<PipeMessage> taken = inbox->Take(WorkType::kForward);
  BufferPool::SetZeroCopyEnabledForTesting(-1);
  ASSERT_TRUE(taken.has_value());

  EXPECT_TRUE(VerifyChecksum(*taken));
  EXPECT_EQ(taken->payload.numel(), 1024);
  for (const int64_t i : {int64_t{0}, int64_t{511}, int64_t{1023}}) {
    EXPECT_EQ(std::as_const(taken->payload)[i], 1.5f);
  }
  if (GetParam() == TransportKind::kInProc) {
    EXPECT_EQ(taken->payload.StorageKey(), payload_key)
        << "in-proc transport must keep the zero-copy move-through path";
  }
  // (No inverse assertion for byte-stream transports: the pool may legitimately recycle
  // the sender's freed block for the receiver's allocation.)
}

TEST_P(TransportConformanceTest, DeadlineWaitTimesOutOnIdleEndpoint) {
  const auto transport = Make();
  Mailbox* inbox = transport->AddEndpoint(0, 0);
  ASSERT_TRUE(transport->Start().ok());
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(inbox->WaitUntilFor([](int64_t min_fwd, int64_t) { return min_fwd >= 0; },
                                   std::chrono::milliseconds(50)));
  EXPECT_GE(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(50));
}

TEST_P(TransportConformanceTest, PreSendCorruptionIsFlaggedAtTheReceiver) {
  // The message-level checksum is stamped before the transport touches the message, so
  // corruption injected at the sender (FaultInjector's corrupt fault) must be visible to
  // VerifyChecksum at the receiver over every transport — including one that reframes and
  // CRCs the byte stream (the frame CRC is computed over the already-corrupt body and
  // passes; only the end-to-end checksum can catch this).
  const auto transport = Make();
  Mailbox* inbox = transport->AddEndpoint(0, 0);
  ASSERT_TRUE(transport->Start().ok());

  PipeMessage message = MakeMessage(1, WorkType::kForward, 2.0f);
  CorruptBytes(message.payload.data(),
               static_cast<size_t>(message.payload.SizeBytes()));  // after StampChecksum
  transport->Send(0, 0, std::move(message));
  transport->Drain();
  ASSERT_TRUE(AwaitForward(inbox));
  const std::optional<PipeMessage> taken = inbox->Take(WorkType::kForward);
  ASSERT_TRUE(taken.has_value()) << "corrupt-before-send must still be delivered";
  EXPECT_FALSE(VerifyChecksum(*taken))
      << "end-to-end checksum failed to flag pre-send corruption";
}

TEST_P(TransportConformanceTest, ShutdownDeliversInFlightMessages) {
  const auto transport = Make();
  Mailbox* inbox = transport->AddEndpoint(2, 0);
  ASSERT_TRUE(transport->Start().ok());
  constexpr int kMessages = 50;
  for (int i = 0; i < kMessages; ++i) {
    transport->Send(2, 0, MakeMessage(i, WorkType::kForward, static_cast<float>(i), 256));
  }
  transport->Drain();
  transport->Shutdown();
  transport->Shutdown();  // idempotent
  for (int64_t want = 0; want < kMessages; ++want) {
    const std::optional<PipeMessage> taken = inbox->Take(WorkType::kForward);
    ASSERT_TRUE(taken.has_value()) << "message " << want << " lost across shutdown";
    EXPECT_EQ(taken->minibatch, want);
    EXPECT_TRUE(VerifyChecksum(*taken));
  }
}

TEST_P(TransportConformanceTest, ConcurrentSendersNeverTearMessages) {
  // Many threads hammer one endpoint. Framed transports serialize whole frames under the
  // per-endpoint send mutex; if frames interleaved mid-record, the CRC (and then the
  // message checksum) would reject the result. Every message must arrive intact.
  const auto transport = Make();
  Mailbox* inbox = transport->AddEndpoint(0, 0);
  ASSERT_TRUE(transport->Start().ok());

  constexpr int kSenders = 4;
  constexpr int kPerSender = 32;
  std::vector<std::thread> senders;
  senders.reserve(kSenders);
  for (int t = 0; t < kSenders; ++t) {
    senders.emplace_back([&transport, t] {
      for (int i = 0; i < kPerSender; ++i) {
        const int64_t id = t * kPerSender + i;  // unique ids; the content encodes both
        transport->Send(0, 0,
                        MakeMessage(id, WorkType::kForward, static_cast<float>(id), 512));
      }
    });
  }
  for (std::thread& t : senders) {
    t.join();
  }
  transport->Drain();

  int delivered = 0;
  std::vector<bool> seen(kSenders * kPerSender, false);
  while (delivered < kSenders * kPerSender) {
    ASSERT_TRUE(AwaitForward(inbox)) << "only " << delivered << " messages arrived";
    const std::optional<PipeMessage> taken = inbox->Take(WorkType::kForward);
    ASSERT_TRUE(taken.has_value());
    ASSERT_TRUE(VerifyChecksum(*taken)) << "torn or corrupted message " << taken->minibatch;
    const int64_t id = taken->minibatch;
    ASSERT_GE(id, 0);
    ASSERT_LT(id, kSenders * kPerSender);
    EXPECT_FALSE(seen[static_cast<size_t>(id)]) << "duplicate delivery of " << id;
    seen[static_cast<size_t>(id)] = true;
    EXPECT_EQ(std::as_const(taken->payload)[0], static_cast<float>(id));
    ++delivered;
  }
}

TEST_P(TransportConformanceTest, TraceIdSurvivesDeliveryBitExact) {
  // The causal trace id is part of the checksummed body (wire format v2): it must arrive
  // exactly as sent over every transport, for every bit pattern a flow key could take —
  // including the "unset" sentinel and values with the high bit flipped.
  const auto transport = Make();
  Mailbox* inbox = transport->AddEndpoint(0, 0);
  ASSERT_TRUE(transport->Start().ok());

  const std::vector<int64_t> patterns = {
      -1, 0, 1, int64_t{0x7EADBEEFCAFEF00D}, std::numeric_limits<int64_t>::max(),
      std::numeric_limits<int64_t>::min()};
  for (size_t i = 0; i < patterns.size(); ++i) {
    PipeMessage message =
        MakeMessage(static_cast<int64_t>(i), WorkType::kForward, static_cast<float>(i));
    message.trace_id = patterns[i];
    StampChecksum(&message);  // re-stamp: the checksum covers trace_id
    transport->Send(0, 0, std::move(message));
  }
  transport->Drain();
  for (size_t i = 0; i < patterns.size(); ++i) {
    ASSERT_TRUE(AwaitForward(inbox));
    const std::optional<PipeMessage> taken = inbox->Take(WorkType::kForward);
    ASSERT_TRUE(taken.has_value());
    EXPECT_EQ(taken->trace_id, patterns[i]) << "trace id torn in transit (message " << i
                                            << ")";
    EXPECT_TRUE(VerifyChecksum(*taken));
  }
}

size_t ProcessThreadCount() {
  size_t threads = 0;
  for (const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++threads;
  }
  return threads;
}

TEST_P(TransportConformanceTest, StartStartsNoThread) {
  // Delivery needs no thread of the transport's own: the socket transport's inboxes are
  // read by whoever waits on them.
  const auto transport = Make();
  for (int stage = 0; stage < 4; ++stage) {
    transport->AddEndpoint(stage, 0);
  }
  const size_t before = ProcessThreadCount();
  ASSERT_TRUE(transport->Start().ok());
  EXPECT_EQ(ProcessThreadCount(), before);
  transport->Send(1, 0, MakeMessage(0, WorkType::kForward, 1.0f));
  EXPECT_EQ(ProcessThreadCount(), before);
}

TEST_P(TransportConformanceTest, CrossedLargeSendsComplete) {
  // Two workers each send the other a message several socket buffers long, then wait on
  // their own inbox. Neither reads while it sends, so over sockets each sender has to drain
  // the other's socket itself; without that rule both block forever.
  const auto transport = Make();
  Mailbox* inboxes[2] = {transport->AddEndpoint(0, 0), transport->AddEndpoint(1, 0)};
  ASSERT_TRUE(transport->Start().ok());
  constexpr int64_t kNumel = int64_t{2} << 20;  // 8 MB of floats
  std::promise<bool> done[2];
  std::future<bool> finished[2] = {done[0].get_future(), done[1].get_future()};
  const auto worker = [&](int self) {
    const int peer = 1 - self;
    transport->Send(peer, 0,
                    MakeMessage(self, WorkType::kForward, static_cast<float>(self), kNumel));
    bool ok = AwaitForward(inboxes[self]);
    if (ok) {
      const std::optional<PipeMessage> taken = inboxes[self]->Take(WorkType::kForward);
      ok = taken.has_value() && taken->minibatch == peer && VerifyChecksum(*taken) &&
           taken->payload.numel() == kNumel &&
           std::as_const(taken->payload)[kNumel - 1] == static_cast<float>(peer);
    }
    done[self].set_value(ok);
  };
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::thread first(worker, 0);
  std::thread second(worker, 1);
  for (std::future<bool>& f : finished) {
    if (f.wait_until(deadline) != std::future_status::ready) {
      // The workers are blocked for good; joining would hang the suite.
      std::fprintf(stderr, "crossed 8 MB sends did not finish within 10 s\n");
      std::_Exit(1);
    }
  }
  first.join();
  second.join();
  EXPECT_TRUE(finished[0].get());
  EXPECT_TRUE(finished[1].get());
}

TEST_P(TransportConformanceTest, DrainDeliversToAnEndpointNobodyWaitsOn) {
  // 8 MB, several socket buffers' worth, to an inbox no thread waits on: the sender makes
  // room by reading the socket into the inbox, and Drain() reads the rest.
  const auto transport = Make();
  Mailbox* inbox = transport->AddEndpoint(0, 0);
  ASSERT_TRUE(transport->Start().ok());
  constexpr int kMessages = 8;
  constexpr int64_t kNumel = int64_t{256} << 10;  // 1 MB each
  for (int i = 0; i < kMessages; ++i) {
    transport->Send(0, 0, MakeMessage(i, WorkType::kForward, static_cast<float>(i), kNumel));
  }
  transport->Drain();
  for (int64_t want = 0; want < kMessages; ++want) {
    const std::optional<PipeMessage> taken = inbox->Take(WorkType::kForward);
    ASSERT_TRUE(taken.has_value()) << "message " << want << " missing after Drain";
    EXPECT_EQ(taken->minibatch, want);
    EXPECT_TRUE(VerifyChecksum(*taken));
    EXPECT_EQ(std::as_const(taken->payload)[kNumel - 1], static_cast<float>(want));
  }
  EXPECT_FALSE(inbox->Take(WorkType::kForward).has_value());
}

// --- training over the transport ---

struct TrainingCase {
  std::vector<int> cuts;                        // straight plan cuts, or
  std::vector<std::pair<int, int>> shape;       // (layers, replicas) per stage
  ScheduleKind schedule = ScheduleKind::kOneFOneB;
  int chunks = 1;
};

// Two fixed-seed epochs of a 7-layer MLP; returns the assembled parameters.
std::vector<Tensor> TrainTwoEpochs(const TrainingCase& c, TransportKind transport) {
  const Dataset data = MakeGaussianMixture(3, 4, 48, 0.4, 7);
  SoftmaxCrossEntropy loss;
  Sgd sgd(0.05);
  Rng rng(1);
  const auto model = BuildMlpClassifier(4, {8, 8, 8}, 3, &rng);
  const int layers = static_cast<int>(model->size());
  const PipelinePlan plan =
      c.shape.empty() ? MakeStraightPlan(layers, c.cuts) : MakePlanFromShape(c.shape);
  PipelineTrainerOptions options;
  options.transport = transport;
  options.schedule = c.schedule;
  options.interleave_chunks = c.chunks;
  PipelineTrainer trainer(*model, plan, &loss, sgd, &data, 8, /*seed=*/5, options);
  trainer.TrainEpoch();
  trainer.TrainEpoch();
  const auto trained = trainer.AssembleModel();
  std::vector<Tensor> params;
  for (const Parameter* p : trained->Params()) {
    params.push_back(p->value);
  }
  return params;
}

TEST(TransportTrainingTest, SocketRunsEndBitwiseEqualToInProc) {
  // The socket transport changes how bytes move, never which: a straight 4-stage plan, a
  // 1F1B-RR 2-1 plan, and an interleaved k=2 plan whose two workers each own two chunk
  // endpoints and read only the one they wait on, all end bitwise equal to in-proc.
  const std::vector<std::pair<std::string, TrainingCase>> cases = {
      {"straight4", {{2, 4, 6}, {}, ScheduleKind::kOneFOneB, 1}},
      {"1f1b_rr_2-1", {{}, {{4, 2}, {3, 1}}, ScheduleKind::kOneFOneB, 1}},
      {"interleaved_k2", {{2, 4, 6}, {}, ScheduleKind::kInterleaved, 2}},
  };
  for (const auto& [name, c] : cases) {
    const std::vector<Tensor> inproc = TrainTwoEpochs(c, TransportKind::kInProc);
    const std::vector<Tensor> socket = TrainTwoEpochs(c, TransportKind::kUnixSocket);
    ASSERT_EQ(inproc.size(), socket.size()) << name;
    for (size_t i = 0; i < inproc.size(); ++i) {
      EXPECT_EQ(MaxAbsDiff(inproc[i], socket[i]), 0.0) << name << " parameter " << i;
    }
  }
}

TEST_P(TransportConformanceTest, TrainingSendsTwoMessagesPerBoundaryPerMinibatch) {
  // One forward and one backward per stage boundary: the output stage's loss gradient is
  // handed to its backward in place, not sent.
  const Dataset data = MakeGaussianMixture(3, 4, 48, 0.4, 7);
  SoftmaxCrossEntropy loss;
  Sgd sgd(0.05);
  obs::Counter* sent = obs::GetCounter("transport/messages_sent");
  for (int stages = 2; stages <= 4; ++stages) {
    Rng rng(1);
    const auto model = BuildMlpClassifier(4, {8, 8, 8}, 3, &rng);  // 7 layers
    std::vector<int> cuts;
    for (int s = 1; s < stages; ++s) {
      cuts.push_back(2 * s);
    }
    PipelineTrainerOptions options;
    options.transport = GetParam();
    PipelineTrainer trainer(*model, MakeStraightPlan(static_cast<int>(model->size()), cuts),
                            &loss, sgd, &data, 8, /*seed=*/5, options);
    const int64_t before = sent->value();
    const EpochStats stats = trainer.TrainEpoch();
    EXPECT_EQ(sent->value() - before, 2 * (stages - 1) * stats.minibatches)
        << stages << " stages";
  }
}

TEST(WireFormatTest, SerializedTraceIdRoundTripsBitExact) {
  // Serialize/deserialize without a transport in the loop: the v2 body layout itself must
  // carry the id bit-exactly.
  for (const int64_t id : {int64_t{-1}, int64_t{0}, int64_t{0x0123456789ABCDEF},
                           std::numeric_limits<int64_t>::min()}) {
    PipeMessage message = MakeMessage(4, WorkType::kForward, 0.5f);
    message.trace_id = id;
    StampChecksum(&message);
    const std::vector<uint8_t> body = SerializeMessage(message);
    const Result<PipeMessage> parsed = DeserializeMessage(body.data(), body.size());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->trace_id, id);
    EXPECT_EQ(parsed->minibatch, 4);
    EXPECT_EQ(parsed->input_version, 40);
    EXPECT_TRUE(VerifyChecksum(*parsed));
  }
}

TEST(WireFormatTest, ChecksumCoversTraceId) {
  // A flipped trace id must not verify: the flow key is load-bearing (it routes Perfetto
  // arrows and serving results), so corruption must be detectable end to end.
  PipeMessage message = MakeMessage(2, WorkType::kForward, 1.0f);
  ASSERT_TRUE(VerifyChecksum(message));
  message.trace_id ^= 1;
  EXPECT_FALSE(VerifyChecksum(message));
}

INSTANTIATE_TEST_SUITE_P(AllTransports, TransportConformanceTest,
                         ::testing::Values(TransportKind::kInProc,
                                           TransportKind::kUnixSocket),
                         [](const ::testing::TestParamInfo<TransportKind>& param) {
                           return std::string(TransportKindName(param.param));
                         });

}  // namespace
}  // namespace pipedream
