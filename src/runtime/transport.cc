#include "src/runtime/transport.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "src/common/check.h"
#include "src/common/crc32.h"
#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/obs/metrics.h"

namespace pipedream {
namespace {

constexpr uint32_t kFrameMagic = 0x314D4450;  // "PDM1" little-endian
constexpr uint8_t kBodyVersion = 2;  // v2 added trace_id after input_version
constexpr size_t kFrameHeaderBytes = 8;   // magic + body_len
constexpr size_t kFrameTrailerBytes = 4;  // body CRC
// Implausible-length guard: a corrupted length field must not make the decoder buffer
// gigabytes while "waiting" for a frame that will never complete.
constexpr uint32_t kMaxBodyBytes = 1u << 30;
constexpr uint32_t kEmptyTensorRank = 0xFFFFFFFFu;
constexpr uint32_t kMaxTensorRank = 8;

template <typename T>
void AppendPod(std::vector<uint8_t>* out, T value) {
  const size_t at = out->size();
  out->resize(at + sizeof(T));
  std::memcpy(out->data() + at, &value, sizeof(T));
}

size_t TensorWireBytes(const Tensor& t) {
  if (t.numel() == 0) {
    return sizeof(uint32_t);
  }
  return sizeof(uint32_t) + static_cast<size_t>(t.rank()) * sizeof(int64_t) +
         static_cast<size_t>(t.SizeBytes());
}

void AppendTensor(std::vector<uint8_t>* out, const Tensor& t) {
  if (t.numel() == 0) {
    AppendPod<uint32_t>(out, kEmptyTensorRank);
    return;
  }
  AppendPod<uint32_t>(out, static_cast<uint32_t>(t.rank()));
  for (int64_t d : t.shape()) {
    AppendPod<int64_t>(out, d);
  }
  const auto* data = reinterpret_cast<const uint8_t*>(t.data());
  out->insert(out->end(), data, data + t.SizeBytes());
}

// version, type, minibatch, input_version, trace_id, checksum.
constexpr size_t kBodyHeaderBytes = 2 * sizeof(uint8_t) + 3 * sizeof(int64_t) + sizeof(uint32_t);

// Exactly the bytes AppendBody writes for `message`.
size_t BodyBytes(const PipeMessage& message) {
  return kBodyHeaderBytes + TensorWireBytes(message.payload) + TensorWireBytes(message.targets);
}

void AppendBody(const PipeMessage& message, std::vector<uint8_t>* out) {
  AppendPod<uint8_t>(out, kBodyVersion);
  AppendPod<uint8_t>(out, message.type == WorkType::kForward ? 0 : 1);
  AppendPod<int64_t>(out, message.minibatch);
  AppendPod<int64_t>(out, message.input_version);
  AppendPod<int64_t>(out, message.trace_id);
  AppendPod<uint32_t>(out, message.checksum);
  AppendTensor(out, message.payload);
  AppendTensor(out, message.targets);
}

// Bounds-checked sequential reader over a serialized body.
struct Reader {
  const uint8_t* data;
  size_t size;
  size_t at = 0;

  template <typename T>
  bool Read(T* value) {
    if (size - at < sizeof(T)) {
      return false;
    }
    std::memcpy(value, data + at, sizeof(T));
    at += sizeof(T);
    return true;
  }
};

bool ReadTensor(Reader* r, Tensor* out) {
  uint32_t rank = 0;
  if (!r->Read(&rank)) {
    return false;
  }
  if (rank == kEmptyTensorRank) {
    *out = Tensor();
    return true;
  }
  if (rank == 0 || rank > kMaxTensorRank) {
    return false;
  }
  std::vector<int64_t> shape(rank);
  int64_t numel = 1;
  for (uint32_t i = 0; i < rank; ++i) {
    if (!r->Read(&shape[i])) {
      return false;
    }
    if (shape[i] <= 0 || numel > static_cast<int64_t>(kMaxBodyBytes) / shape[i]) {
      return false;
    }
    numel *= shape[i];
  }
  const size_t bytes = static_cast<size_t>(numel) * sizeof(float);
  if (r->size - r->at < bytes) {
    return false;
  }
  Tensor t = Tensor::Uninitialized(std::move(shape));
  std::memcpy(t.data(), r->data + r->at, bytes);
  r->at += bytes;
  *out = std::move(t);
  return true;
}

}  // namespace

const char* TransportKindName(TransportKind kind) {
  switch (kind) {
    case TransportKind::kInProc:
      return "inproc";
    case TransportKind::kUnixSocket:
      return "socket";
  }
  return "unknown";
}

std::vector<uint8_t> SerializeMessage(const PipeMessage& message) {
  std::vector<uint8_t> body;
  body.reserve(BodyBytes(message));
  AppendBody(message, &body);
  return body;
}

Result<PipeMessage> DeserializeMessage(const uint8_t* data, size_t size) {
  Reader r{data, size};
  uint8_t version = 0;
  uint8_t type = 0;
  PipeMessage message;
  if (!r.Read(&version) || version != kBodyVersion) {
    return Status::InvalidArgument("bad message body version");
  }
  if (!r.Read(&type) || type > 1) {
    return Status::InvalidArgument("bad message work type");
  }
  message.type = type == 0 ? WorkType::kForward : WorkType::kBackward;
  if (!r.Read(&message.minibatch) || !r.Read(&message.input_version) ||
      !r.Read(&message.trace_id) || !r.Read(&message.checksum)) {
    return Status::InvalidArgument("truncated message header");
  }
  if (!ReadTensor(&r, &message.payload) || !ReadTensor(&r, &message.targets)) {
    return Status::InvalidArgument("malformed tensor encoding");
  }
  if (r.at != size) {
    return Status::InvalidArgument("trailing bytes after message body");
  }
  return message;
}

void AppendFrame(const PipeMessage& message, std::vector<uint8_t>* out) {
  const size_t body_bytes = BodyBytes(message);
  PD_CHECK_LE(body_bytes, static_cast<size_t>(kMaxBodyBytes));
  out->reserve(out->size() + kFrameHeaderBytes + body_bytes + kFrameTrailerBytes);
  AppendPod<uint32_t>(out, kFrameMagic);
  AppendPod<uint32_t>(out, static_cast<uint32_t>(body_bytes));
  const size_t body_at = out->size();
  AppendBody(message, out);
  AppendPod<uint32_t>(out, Crc32(out->data() + body_at, body_bytes));
}

void FrameDecoder::Resync(size_t from) {
  // Look for the next plausible frame start strictly after the rejected position; count one
  // rejection per resync, not per scanned byte.
  ++corrupt_frames_;
  const uint8_t magic0 = static_cast<uint8_t>(kFrameMagic & 0xFF);
  size_t next = from + 1;
  while (next + 4 <= buffer_.size()) {
    if (buffer_[next] == magic0) {
      uint32_t candidate = 0;
      std::memcpy(&candidate, buffer_.data() + next, 4);
      if (candidate == kFrameMagic) {
        break;
      }
    }
    ++next;
  }
  if (next + 4 > buffer_.size()) {
    // No full magic in what remains: keep at most 3 tail bytes (a magic split across
    // Append calls) and drop the rest.
    next = buffer_.size() > 3 ? buffer_.size() - 3 : buffer_.size();
  }
  buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<int64_t>(next));
}

void FrameDecoder::Append(const uint8_t* data, size_t size,
                          std::vector<std::vector<uint8_t>>* frames) {
  buffer_.insert(buffer_.end(), data, data + size);
  for (;;) {
    if (buffer_.size() < kFrameHeaderBytes) {
      return;
    }
    uint32_t magic = 0;
    uint32_t body_len = 0;
    std::memcpy(&magic, buffer_.data(), 4);
    std::memcpy(&body_len, buffer_.data() + 4, 4);
    if (magic != kFrameMagic || body_len > kMaxBodyBytes) {
      Resync(0);
      continue;
    }
    const size_t total = kFrameHeaderBytes + body_len + kFrameTrailerBytes;
    if (buffer_.size() < total) {
      return;  // torn frame: wait for more bytes (or EOF, which abandons it)
    }
    uint32_t stored_crc = 0;
    std::memcpy(&stored_crc, buffer_.data() + kFrameHeaderBytes + body_len, 4);
    const uint8_t* body = buffer_.data() + kFrameHeaderBytes;
    if (Crc32(body, body_len) != stored_crc) {
      Resync(0);
      continue;
    }
    frames->emplace_back(body, body + body_len);
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<int64_t>(total));
  }
}

namespace {

// Endpoint key: stages and replicas are small non-negative ints.
uint64_t EndpointKey(int stage, int replica) {
  PD_CHECK_GE(stage, 0);
  PD_CHECK_GE(replica, 0);
  return (static_cast<uint64_t>(static_cast<uint32_t>(stage)) << 32) |
         static_cast<uint32_t>(replica);
}

class InProcTransport : public MessageTransport {
 public:
  ~InProcTransport() override = default;

  Mailbox* AddEndpoint(int stage, int replica) override {
    PD_CHECK(!started_) << "endpoints must be added before Start()";
    auto& slot = endpoints_[EndpointKey(stage, replica)];
    PD_CHECK(slot == nullptr) << "duplicate endpoint (" << stage << ", " << replica << ")";
    slot = std::make_unique<Mailbox>();
    return slot.get();
  }

  Mailbox* endpoint(int stage, int replica) const override {
    const auto it = endpoints_.find(EndpointKey(stage, replica));
    return it == endpoints_.end() ? nullptr : it->second.get();
  }

  Status Start() override {
    started_ = true;
    return Status::Ok();
  }

  void Send(int stage, int replica, PipeMessage message) override {
    Mailbox* inbox = endpoint(stage, replica);
    PD_CHECK(inbox != nullptr) << "send to unregistered endpoint (" << stage << ", "
                               << replica << ")";
    obs::GetCounter("transport/messages_sent")->Increment();
    inbox->Deliver(std::move(message));
  }

  void Drain() override {}     // delivery is synchronous
  void Shutdown() override {}  // nothing to stop

  TransportKind kind() const override { return TransportKind::kInProc; }

 private:
  std::map<uint64_t, std::unique_ptr<Mailbox>> endpoints_;
  bool started_ = false;
};

class SocketTransport : public MessageTransport {
 public:
  ~SocketTransport() override { Shutdown(); }

  Mailbox* AddEndpoint(int stage, int replica) override {
    PD_CHECK(!started_) << "endpoints must be added before Start()";
    auto& slot = endpoints_[EndpointKey(stage, replica)];
    PD_CHECK(slot == nullptr) << "duplicate endpoint (" << stage << ", " << replica << ")";
    slot = std::make_unique<Endpoint>();
    return &slot->inbox;
  }

  Mailbox* endpoint(int stage, int replica) const override {
    const auto it = endpoints_.find(EndpointKey(stage, replica));
    return it == endpoints_.end() ? nullptr : &it->second->inbox;
  }

  Status Start() override {
    PD_CHECK(!started_);
    for (auto& [key, ep] : endpoints_) {
      int fds[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
        return Status::Internal(StrFormat("socketpair: %s", std::strerror(errno)));
      }
      ep->send_fd = fds[0];
      ep->recv_fd = fds[1];
      // Big tensors should block the sender briefly, not fragment into hundreds of
      // syscalls; best-effort (the kernel clamps to its limits).
      const int sndbuf = 1 << 20;
      (void)::setsockopt(ep->send_fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
      ep->receiver = std::thread([this, ep = ep.get()] { ReceiveLoop(ep); });
    }
    started_ = true;
    return Status::Ok();
  }

  void Send(int stage, int replica, PipeMessage message) override {
    const auto it = endpoints_.find(EndpointKey(stage, replica));
    PD_CHECK(it != endpoints_.end() && started_)
        << "send to unregistered endpoint (" << stage << ", " << replica << ")";
    Endpoint* ep = it->second.get();

    std::vector<uint8_t> wire;
    AppendFrame(message, &wire);

    std::lock_guard<std::mutex> lock(ep->send_mutex);
    if (ep->send_fd < 0) {
      return;  // shutdown raced a late sender; the message is dropped like a dead link's
    }
    size_t written = 0;
    while (written < wire.size()) {
      // MSG_NOSIGNAL: a receiver torn down mid-write must surface as EPIPE, not SIGPIPE.
      const ssize_t n = ::send(ep->send_fd, wire.data() + written, wire.size() - written,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        PD_LOG(WARNING) << "socket transport send failed: " << std::strerror(errno);
        return;
      }
      written += static_cast<size_t>(n);
    }
    ep->frames_sent.fetch_add(1, std::memory_order_release);
    obs::GetCounter("transport/messages_sent")->Increment();
    obs::GetCounter("transport/bytes_sent")->Add(static_cast<int64_t>(wire.size()));
  }

  void Drain() override {
    if (!started_) {
      return;
    }
    for (auto& [key, ep] : endpoints_) {
      int64_t target;
      {
        // The send mutex orders this snapshot after any in-progress write completes.
        std::lock_guard<std::mutex> lock(ep->send_mutex);
        target = ep->frames_sent.load(std::memory_order_acquire);
      }
      std::unique_lock<std::mutex> lock(drain_mutex_);
      drain_cv_.wait(lock, [&] {
        return ep->frames_done.load(std::memory_order_acquire) >= target;
      });
    }
  }

  void Shutdown() override {
    if (!started_ || stopped_) {
      stopped_ = true;
      return;
    }
    stopped_ = true;
    for (auto& [key, ep] : endpoints_) {
      std::lock_guard<std::mutex> lock(ep->send_mutex);
      if (ep->send_fd >= 0) {
        ::close(ep->send_fd);  // EOF: the receiver drains buffered frames, then exits
        ep->send_fd = -1;
      }
    }
    for (auto& [key, ep] : endpoints_) {
      if (ep->receiver.joinable()) {
        ep->receiver.join();
      }
      if (ep->recv_fd >= 0) {
        ::close(ep->recv_fd);
        ep->recv_fd = -1;
      }
    }
  }

  TransportKind kind() const override { return TransportKind::kUnixSocket; }

 private:
  struct Endpoint {
    Mailbox inbox;
    int send_fd = -1;
    int recv_fd = -1;
    std::mutex send_mutex;
    std::thread receiver;
    std::atomic<int64_t> frames_sent{0};
    std::atomic<int64_t> frames_done{0};  // delivered + CRC-rejected
  };

  void ReceiveLoop(Endpoint* ep) {
    FrameDecoder decoder;
    std::vector<uint8_t> chunk(64 * 1024);
    std::vector<std::vector<uint8_t>> bodies;
    int64_t seen_corrupt = 0;
    for (;;) {
      const ssize_t n = ::recv(ep->recv_fd, chunk.data(), chunk.size(), 0);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        PD_LOG(WARNING) << "socket transport recv failed: " << std::strerror(errno);
        break;
      }
      if (n == 0) {
        break;  // sender closed; every buffered frame has been consumed
      }
      bodies.clear();
      decoder.Append(chunk.data(), static_cast<size_t>(n), &bodies);
      int64_t done = 0;
      for (const std::vector<uint8_t>& body : bodies) {
        Result<PipeMessage> message = DeserializeMessage(body.data(), body.size());
        if (message.ok()) {
          ep->inbox.Deliver(std::move(*message));
        } else {
          // CRC-valid but unparseable — count like a corrupt frame so nothing is silent.
          PD_LOG(WARNING) << "rejecting undecodable frame: " << message.status().ToString();
          obs::GetCounter("transport/frames_rejected")->Increment();
        }
        ++done;
      }
      const int64_t corrupt = decoder.corrupt_frames();
      if (corrupt != seen_corrupt) {
        obs::GetCounter("transport/frames_rejected")->Add(corrupt - seen_corrupt);
        done += corrupt - seen_corrupt;
        seen_corrupt = corrupt;
      }
      if (done > 0) {
        ep->frames_done.fetch_add(done, std::memory_order_release);
        std::lock_guard<std::mutex> lock(drain_mutex_);
        drain_cv_.notify_all();
      }
    }
  }

  std::map<uint64_t, std::unique_ptr<Endpoint>> endpoints_;
  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace

std::unique_ptr<MessageTransport> MakeTransport(TransportKind kind) {
  switch (kind) {
    case TransportKind::kInProc:
      return std::make_unique<InProcTransport>();
    case TransportKind::kUnixSocket:
      return std::make_unique<SocketTransport>();
  }
  PD_CHECK(false) << "unreachable";
  return nullptr;
}

}  // namespace pipedream
