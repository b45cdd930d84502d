// Framing fuzz battery for the socket transport's wire format (DESIGN.md §5f).
//
// The FrameDecoder sits between a raw byte stream and the mailbox layer; these tests attack
// it with every mangling a real stream can suffer — arbitrary fragmentation, coalescing,
// truncation, prepended garbage, and single-bit flips — under a seeded generator so every
// failure replays. The invariant is *no silent corruption*: a frame either reaches the
// mailbox bitwise-identical to what was sent, or it is dropped and counted. The final test
// closes the loop end to end: a trainer running over the real socket transport, with
// injected drop/corrupt faults, recovers to weights bitwise equal to an undisturbed run
// (the same guarantee fault_injection_test establishes for in-proc mailboxes).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "src/common/rng.h"
#include "src/data/dataset.h"
#include "src/graph/loss.h"
#include "src/graph/models.h"
#include "src/optim/sgd.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/fault.h"
#include "src/runtime/pipeline_trainer.h"
#include "src/runtime/transport.h"
#include "src/tensor/ops.h"

namespace pipedream {
namespace {

PipeMessage MakeMessage(int64_t id, Rng* rng) {
  PipeMessage message;
  message.minibatch = id;
  message.type = (id % 3 == 0) ? WorkType::kBackward : WorkType::kForward;
  const int64_t rows = 1 + static_cast<int64_t>(rng->NextU64() % 7);
  const int64_t cols = 1 + static_cast<int64_t>(rng->NextU64() % 17);
  message.payload = Tensor({rows, cols});
  for (int64_t i = 0; i < message.payload.numel(); ++i) {
    message.payload.data()[i] = static_cast<float>(rng->NextU64() % 1000) * 0.25f;
  }
  if (message.type == WorkType::kForward && id % 2 == 0) {
    message.targets = Tensor({rows});
    for (int64_t i = 0; i < rows; ++i) {
      message.targets.data()[i] = static_cast<float>(id % 5);
    }
  }
  message.input_version = id * 3 - 1;
  StampChecksum(&message);
  return message;
}

void ExpectMessagesEqual(const PipeMessage& got, const PipeMessage& want) {
  EXPECT_EQ(got.minibatch, want.minibatch);
  EXPECT_EQ(got.type, want.type);
  EXPECT_EQ(got.input_version, want.input_version);
  EXPECT_EQ(got.checksum, want.checksum);
  ASSERT_EQ(got.payload.shape(), want.payload.shape());
  ASSERT_EQ(got.targets.shape(), want.targets.shape());
  if (want.payload.numel() > 0) {
    EXPECT_EQ(std::memcmp(got.payload.data(), want.payload.data(),
                          static_cast<size_t>(want.payload.SizeBytes())),
              0);
  }
  if (want.targets.numel() > 0) {
    EXPECT_EQ(std::memcmp(got.targets.data(), want.targets.data(),
                          static_cast<size_t>(want.targets.SizeBytes())),
              0);
  }
  EXPECT_TRUE(VerifyChecksum(got));
}

// Serializes `messages` into one contiguous framed stream.
std::vector<uint8_t> FrameAll(const std::vector<PipeMessage>& messages) {
  std::vector<uint8_t> stream;
  for (const PipeMessage& m : messages) {
    AppendFrame(m, &stream);
  }
  return stream;
}

TEST(MessageSerializationTest, RoundTripIsExact) {
  Rng rng(11);
  for (int64_t id = 0; id < 32; ++id) {
    const PipeMessage original = MakeMessage(id, &rng);
    const std::vector<uint8_t> body = SerializeMessage(original);
    const Result<PipeMessage> decoded = DeserializeMessage(body.data(), body.size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectMessagesEqual(*decoded, original);
  }
}

// One small forward message whose complete PDM1 frame is pinned below.
PipeMessage PinnedMessage() {
  PipeMessage m;
  m.minibatch = 7;
  m.type = WorkType::kForward;
  m.payload = Tensor({2, 3});
  for (int64_t i = 0; i < 6; ++i) {
    m.payload.data()[i] = 0.5f * static_cast<float>(i) - 1.0f;
  }
  m.targets = Tensor({2});
  m.targets.data()[0] = 1.0f;
  m.targets.data()[1] = 3.0f;
  m.input_version = 4;
  m.trace_id = 7;
  StampChecksum(&m);
  return m;
}

// PinnedMessage()'s frame, byte for byte: magic, body length, the v2 body (version, type,
// minibatch, input_version, trace_id, checksum, payload [2, 3], targets [2]) and the body
// CRC.
constexpr const char* kPinnedFrameHex =
    "50444d31" "5e000000"                                  // magic, body length 94
    "02" "00" "0700000000000000" "0400000000000000"        // version, type, mb, iv
    "0700000000000000" "b746c2a1"                          // trace_id, checksum
    "02000000" "0200000000000000" "0300000000000000"       // payload rank, dims
    "000080bf" "000000bf" "00000000" "0000003f" "0000803f" "0000c03f"
    "01000000" "0200000000000000" "0000803f" "00004040"    // targets
    "ba8afbf1";                                            // body CRC

std::string Hex(const std::vector<uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const uint8_t b : bytes) {
    hex += kDigits[b >> 4];
    hex += kDigits[b & 0xF];
  }
  return hex;
}

TEST(MessageSerializationTest, FrameBytesArePinned) {
  // Any change to the encoder or to Crc32 that moves a wire byte fails here.
  const PipeMessage m = PinnedMessage();
  std::vector<uint8_t> frame;
  AppendFrame(m, &frame);
  EXPECT_EQ(Hex(frame), kPinnedFrameHex);
  EXPECT_EQ(frame.capacity(), frame.size());
  const std::vector<uint8_t> body = SerializeMessage(m);
  EXPECT_EQ(body.capacity(), body.size());
  EXPECT_TRUE(std::equal(body.begin(), body.end(), frame.begin() + 8, frame.end() - 4));
}

TEST(MessageSerializationTest, GatherWriteBytesArePinned) {
  // The socket transport's writer sends the pieces straight from the tensors; what reaches
  // the other end of the socket is the same pinned frame.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const Result<size_t> written = WriteFrame(fds[0], PinnedMessage());
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  ::close(fds[0]);
  std::vector<uint8_t> received;
  uint8_t chunk[256];
  ssize_t n;
  while ((n = ::recv(fds[1], chunk, sizeof(chunk), 0)) > 0) {
    received.insert(received.end(), chunk, chunk + n);
  }
  ::close(fds[1]);
  EXPECT_EQ(*written, received.size());
  EXPECT_EQ(Hex(received), kPinnedFrameHex);
}

TEST(MessageSerializationTest, GatherWriteResumesShortWrites) {
  // A frame many socket buffers long goes out in short writes while another thread reads;
  // the reader gets exactly AppendFrame's bytes.
  Rng rng(13);
  PipeMessage m = MakeMessage(2, &rng);
  m.payload = Tensor({int64_t{1} << 20});  // 4 MB
  for (int64_t i = 0; i < m.payload.numel(); ++i) {
    m.payload.data()[i] = static_cast<float>(i % 977);
  }
  StampChecksum(&m);
  std::vector<uint8_t> want;
  AppendFrame(m, &want);

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::vector<uint8_t> received;
  std::thread reader([&] {
    std::vector<uint8_t> chunk(4096);
    ssize_t n;
    while ((n = ::recv(fds[1], chunk.data(), chunk.size(), 0)) > 0) {
      received.insert(received.end(), chunk.begin(), chunk.begin() + n);
    }
  });
  const Result<size_t> written = WriteFrame(fds[0], m);
  ::close(fds[0]);
  reader.join();
  ::close(fds[1]);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(*written, want.size());
  EXPECT_TRUE(received == want);
}

TEST(MessageSerializationTest, TruncatedBodiesErrorCleanly) {
  Rng rng(12);
  const PipeMessage original = MakeMessage(4, &rng);
  const std::vector<uint8_t> body = SerializeMessage(original);
  // Every proper prefix must error (never abort, never return a half-parsed message).
  for (size_t cut = 0; cut < body.size(); ++cut) {
    EXPECT_FALSE(DeserializeMessage(body.data(), cut).ok()) << "prefix " << cut;
  }
  // Trailing garbage is also rejected: the body length is exact by construction.
  std::vector<uint8_t> padded = body;
  padded.push_back(0);
  EXPECT_FALSE(DeserializeMessage(padded.data(), padded.size()).ok());
}

TEST(FrameDecoderFuzzTest, ArbitraryFragmentationLosesNothing) {
  // The same stream fed at every granularity — byte-by-byte, random chunks, one shot —
  // always yields exactly the original frames.
  Rng msg_rng(21);
  std::vector<PipeMessage> originals;
  for (int64_t id = 0; id < 24; ++id) {
    originals.push_back(MakeMessage(id, &msg_rng));
  }
  const std::vector<uint8_t> stream = FrameAll(originals);

  for (const uint64_t seed : {101u, 202u, 303u, 404u}) {
    Rng rng(seed);
    FrameDecoder decoder;
    std::vector<std::vector<uint8_t>> bodies;
    size_t at = 0;
    while (at < stream.size()) {
      // Chunk sizes span the interesting range: sub-header fragments to multi-frame gulps.
      const size_t chunk = 1 + static_cast<size_t>(rng.NextU64() % 257);
      const size_t n = std::min(chunk, stream.size() - at);
      decoder.Append(stream.data() + at, n, &bodies);
      at += n;
    }
    EXPECT_EQ(decoder.corrupt_frames(), 0);
    EXPECT_EQ(decoder.pending_bytes(), 0u);
    ASSERT_EQ(bodies.size(), originals.size()) << "seed " << seed;
    for (size_t i = 0; i < bodies.size(); ++i) {
      const Result<PipeMessage> decoded =
          DeserializeMessage(bodies[i].data(), bodies[i].size());
      ASSERT_TRUE(decoded.ok());
      ExpectMessagesEqual(*decoded, originals[i]);
    }
  }
}

TEST(FrameDecoderFuzzTest, TruncatedTailParksThenCompletes) {
  Rng msg_rng(31);
  std::vector<PipeMessage> originals;
  for (int64_t id = 0; id < 4; ++id) {
    originals.push_back(MakeMessage(id, &msg_rng));
  }
  const std::vector<uint8_t> stream = FrameAll(originals);

  // Cut mid-final-frame: the complete frames decode, the tail parks with no corruption.
  const size_t cut = stream.size() - 5;
  FrameDecoder decoder;
  std::vector<std::vector<uint8_t>> bodies;
  decoder.Append(stream.data(), cut, &bodies);
  EXPECT_EQ(bodies.size(), originals.size() - 1);
  EXPECT_EQ(decoder.corrupt_frames(), 0);
  EXPECT_GT(decoder.pending_bytes(), 0u);

  // The remaining bytes arrive: the parked frame completes intact.
  decoder.Append(stream.data() + cut, stream.size() - cut, &bodies);
  ASSERT_EQ(bodies.size(), originals.size());
  EXPECT_EQ(decoder.pending_bytes(), 0u);
  const Result<PipeMessage> last =
      DeserializeMessage(bodies.back().data(), bodies.back().size());
  ASSERT_TRUE(last.ok());
  ExpectMessagesEqual(*last, originals.back());
}

TEST(FrameDecoderFuzzTest, GarbagePrefixResyncsToRealFrames) {
  Rng msg_rng(41);
  std::vector<PipeMessage> originals;
  for (int64_t id = 0; id < 8; ++id) {
    originals.push_back(MakeMessage(id, &msg_rng));
  }
  const std::vector<uint8_t> frames = FrameAll(originals);

  Rng rng(42);
  std::vector<uint8_t> stream;
  for (int i = 0; i < 64; ++i) {
    stream.push_back(static_cast<uint8_t>(rng.NextU64()));
  }
  stream.insert(stream.end(), frames.begin(), frames.end());

  FrameDecoder decoder;
  std::vector<std::vector<uint8_t>> bodies;
  decoder.Append(stream.data(), stream.size(), &bodies);
  EXPECT_GE(decoder.corrupt_frames(), 1);
  ASSERT_EQ(bodies.size(), originals.size())
      << "resync must find every frame after the garbage";
  for (size_t i = 0; i < bodies.size(); ++i) {
    const Result<PipeMessage> decoded =
        DeserializeMessage(bodies[i].data(), bodies[i].size());
    ASSERT_TRUE(decoded.ok());
    ExpectMessagesEqual(*decoded, originals[i]);
  }
}

TEST(FrameDecoderFuzzTest, SingleBitFlipsNeverCorruptSilently) {
  // Flip one bit somewhere in the stream, feed the whole thing in random fragments, and
  // check the conservation law: every delivered frame is bitwise identical to an original
  // (CRC32 detects all single-bit errors within the span it covers — a flip can lose
  // frames to a drop/resync, never alter one undetected), and at least the untouched
  // majority of frames still arrives.
  Rng msg_rng(51);
  std::vector<PipeMessage> originals;
  for (int64_t id = 0; id < 12; ++id) {
    originals.push_back(MakeMessage(id, &msg_rng));
  }
  const std::vector<uint8_t> clean = FrameAll(originals);
  // Map each original's serialized body for content matching by minibatch id.
  std::vector<std::vector<uint8_t>> original_bodies;
  for (const PipeMessage& m : originals) {
    original_bodies.push_back(SerializeMessage(m));
  }

  // Per-frame stream offsets, to locate which frame a flip lands in.
  std::vector<size_t> frame_start;
  {
    size_t at = 0;
    for (const std::vector<uint8_t>& body : original_bodies) {
      frame_start.push_back(at);
      at += 8 + body.size() + 4;  // header + body + CRC
    }
    ASSERT_EQ(at, clean.size());
  }

  Rng rng(52);
  int64_t total_delivered = 0;
  int64_t total_rejected = 0;
  constexpr int kTrials = 200;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<uint8_t> stream = clean;
    const size_t bit = static_cast<size_t>(rng.NextU64() % (stream.size() * 8));
    stream[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    int hit = 0;  // index of the frame containing the flipped byte
    while (hit + 1 < static_cast<int>(frame_start.size()) &&
           frame_start[static_cast<size_t>(hit) + 1] <= bit / 8) {
      ++hit;
    }

    FrameDecoder decoder;
    std::vector<std::vector<uint8_t>> bodies;
    size_t at = 0;
    while (at < stream.size()) {
      const size_t n = std::min<size_t>(1 + (rng.NextU64() % 401), stream.size() - at);
      decoder.Append(stream.data() + at, n, &bodies);
      at += n;
    }

    int delivered_this_trial = 0;
    for (const std::vector<uint8_t>& body : bodies) {
      // No silent corruption: every CRC-accepted body is byte-identical to some original.
      bool matched = false;
      for (const std::vector<uint8_t>& original : original_bodies) {
        if (body == original) {
          matched = true;
          break;
        }
      }
      EXPECT_TRUE(matched) << "trial " << trial
                           << ": CRC accepted a body that matches no sent frame";
      ++delivered_this_trial;
    }
    // Liveness: every frame strictly before the hit one decodes before the flip is even
    // reached. (Frames after it usually survive via resync too, but a flip in a length
    // field can legitimately park the remainder as one phantom partial frame — that loss
    // is visible as pending bytes, which is the opposite of silent.)
    EXPECT_GE(delivered_this_trial, hit) << "trial " << trial;
    // Detection: the flip never simply vanishes — it must surface as a rejected frame,
    // parked bytes, or a lost (undelivered) frame. All-clean AND all-delivered would mean
    // the decoder accepted a mutated stream as intact.
    const bool all_delivered = delivered_this_trial == static_cast<int>(originals.size());
    EXPECT_TRUE(decoder.corrupt_frames() > 0 || decoder.pending_bytes() > 0 ||
                !all_delivered)
        << "trial " << trial << ": a bit flip went entirely unnoticed";
    total_delivered += delivered_this_trial;
    total_rejected += decoder.corrupt_frames();
  }
  // Sanity on the battery itself: flips actually caused rejections, and the overwhelming
  // majority of frames still flowed.
  EXPECT_GT(total_rejected, 0);
  EXPECT_GT(total_delivered, kTrials * (static_cast<int64_t>(originals.size()) - 3));
}

TEST(FrameDecoderFuzzTest, RandomStreamsNeverCrashTheDecoder) {
  // Pure noise in, nothing undecodable out: the decoder must not abort, allocate
  // unboundedly, or emit a frame from a stream containing none.
  Rng rng(61);
  for (int trial = 0; trial < 50; ++trial) {
    FrameDecoder decoder;
    std::vector<std::vector<uint8_t>> bodies;
    const size_t len = 1 + static_cast<size_t>(rng.NextU64() % 4096);
    std::vector<uint8_t> noise(len);
    for (uint8_t& b : noise) {
      b = static_cast<uint8_t>(rng.NextU64());
    }
    size_t at = 0;
    while (at < len) {
      const size_t n = std::min<size_t>(1 + (rng.NextU64() % 97), len - at);
      decoder.Append(noise.data() + at, n, &bodies);
      at += n;
    }
    for (const std::vector<uint8_t>& body : bodies) {
      // Astronomically unlikely, but if noise ever forms a CRC-valid frame it must still
      // fail structured decoding rather than become a message.
      EXPECT_FALSE(DeserializeMessage(body.data(), body.size()).ok());
    }
    EXPECT_LE(decoder.pending_bytes(), len);
  }
}

// --- end to end: the socket transport under injected faults, with bitwise recovery ---

RecoveryOptions FastRecovery() {
  RecoveryOptions options;
  options.heartbeat_timeout_ms = 1000;
  options.progress_timeout_ms = 400;
  options.worker_tick_ms = 5;
  options.watchdog_poll_ms = 2;
  return options;
}

class SocketTransportFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pd_tfuzz_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(SocketTransportFaultTest, DropAndCorruptRecoverBitwiseOverSocket) {
  // The fault_injection_test guarantee, re-proven over the real byte stream: a run whose
  // messages are dropped and corrupted in flight recovers to weights bitwise equal to an
  // undisturbed run over the same transport.
  const Dataset data = MakeGaussianMixture(3, 4, 48, 0.4, 7);
  SoftmaxCrossEntropy loss;
  Sgd sgd(0.05);
  auto make_trainer = [&] {
    Rng rng(1);
    const auto model = BuildMlpClassifier(4, {8}, 3, &rng);
    const auto plan = MakeStraightPlan(static_cast<int>(model->size()), {2});
    PipelineTrainerOptions options;
    options.transport = TransportKind::kUnixSocket;
    return std::make_unique<PipelineTrainer>(*model, plan, &loss, sgd, &data, 8,
                                             /*seed=*/5, options);
  };
  auto clean = make_trainer();
  clean->TrainEpoch();
  clean->TrainEpoch();

  auto faulty = make_trainer();
  CheckpointManager manager((dir_ / "ckpt").string());
  faulty->EnableRecovery(&manager, FastRecovery());
  const int64_t bpe = faulty->batches_per_epoch();
  FaultPlan plan;
  plan.events.push_back({FaultKind::kDropMessage, /*stage=*/0, /*replica=*/0,
                         /*minibatch=*/bpe / 3, WorkType::kForward, 0.0});
  plan.events.push_back({FaultKind::kCorruptMessage, /*stage=*/0, /*replica=*/0,
                         /*minibatch=*/bpe + bpe / 2, WorkType::kForward, 0.0});
  FaultInjector injector(plan);
  faulty->SetFaultInjector(&injector);

  const EpochStats first = faulty->TrainEpoch();
  EXPECT_GE(first.recoveries, 1);
  const EpochStats second = faulty->TrainEpoch();
  EXPECT_GE(second.failures_detected, 1);
  EXPECT_GE(faulty->failures().size(), 2u);

  const auto ma = clean->AssembleModel();
  const auto mb = faulty->AssembleModel();
  const auto pa = ma->Params();
  const auto pb = mb->Params();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(MaxAbsDiff(pa[i]->value, pb[i]->value), 0.0) << pa[i]->name;
  }
}

}  // namespace
}  // namespace pipedream
