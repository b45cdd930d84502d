#include "src/runtime/transport.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>
#include <map>
#include <mutex>
#include <utility>

#include "src/common/check.h"
#include "src/common/crc32.h"
#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace pipedream {
namespace {

constexpr uint32_t kFrameMagic = 0x314D4450;  // "PDM1" little-endian
constexpr uint8_t kBodyVersion = 2;  // v2 added trace_id after input_version
constexpr size_t kFrameHeaderBytes = 8;   // magic + body_len
constexpr size_t kFrameTrailerBytes = 4;  // body CRC
// Implausible-length guard: a corrupted length field must not make the decoder buffer
// gigabytes while "waiting" for a frame that will never complete.
constexpr uint32_t kMaxBodyBytes = 1u << 30;
// Space a read is offered while no frame header is buffered: many small frames per recv.
constexpr size_t kReadChunkBytes = 64 * 1024;
// Once a header is buffered the read space covers the rest of its frame, up to this much
// at a time, so a corrupted length cannot make the decoder allocate a gigabyte up front.
constexpr size_t kMaxPresizeBytes = 16u << 20;
constexpr uint32_t kEmptyTensorRank = 0xFFFFFFFFu;
constexpr uint32_t kMaxTensorRank = 8;

// The longest tensor header on the wire: rank word plus kMaxTensorRank dims.
constexpr size_t kMaxTensorHeaderBytes = sizeof(uint32_t) + kMaxTensorRank * sizeof(int64_t);
// version, type, minibatch, input_version, trace_id, checksum.
constexpr size_t kBodyHeaderBytes = 2 * sizeof(uint8_t) + 3 * sizeof(int64_t) + sizeof(uint32_t);
// Largest piece count of one frame: header words, payload storage, targets' header words,
// targets storage, body CRC.
constexpr int kMaxFramePieces = 5;

// Sequential little-endian writer into a fixed byte array.
struct ByteWriter {
  uint8_t* at;

  template <typename T>
  void Put(T value) {
    std::memcpy(at, &value, sizeof(T));
    at += sizeof(T);
  }

  // A tensor's rank and dims (rank 0xFFFFFFFF alone for an empty tensor).
  void PutTensorHeader(const Tensor& t) {
    if (t.numel() == 0) {
      Put<uint32_t>(kEmptyTensorRank);
      return;
    }
    PD_CHECK_LE(t.rank(), static_cast<int64_t>(kMaxTensorRank));
    Put<uint32_t>(static_cast<uint32_t>(t.rank()));
    for (int64_t d : t.shape()) {
      Put<int64_t>(d);
    }
  }
};

// One frame as the pieces a gather-write sends, in wire order and with empty pieces left
// out: `head` (magic, body length, body header, the payload's rank and dims), the payload's
// storage, `targets_head` (the targets' rank and dims), the targets' storage, and `crc`.
// AppendFrame, SerializeMessage and WriteFrame all write from here, so the format is
// defined once. The pieces point into the message's tensors, which must outlive them.
struct FramePieces {
  uint8_t head[kFrameHeaderBytes + kBodyHeaderBytes + kMaxTensorHeaderBytes];
  uint8_t targets_head[kMaxTensorHeaderBytes];
  uint32_t crc = 0;
  iovec piece[kMaxFramePieces];
  int count = 0;
  size_t bytes = 0;  // the whole frame

  void Add(const void* data, size_t size) {
    if (size > 0) {
      piece[count++] = iovec{const_cast<void*>(data), size};
      bytes += size;
    }
  }
};

void BuildFramePieces(const PipeMessage& message, FramePieces* frame) {
  ByteWriter head{frame->head};
  head.Put<uint32_t>(kFrameMagic);
  head.Put<uint32_t>(0);  // body length, patched below
  head.Put<uint8_t>(kBodyVersion);
  head.Put<uint8_t>(message.type == WorkType::kForward ? 0 : 1);
  head.Put<int64_t>(message.minibatch);
  head.Put<int64_t>(message.input_version);
  head.Put<int64_t>(message.trace_id);
  head.Put<uint32_t>(message.checksum);
  head.PutTensorHeader(message.payload);
  ByteWriter targets_head{frame->targets_head};
  targets_head.PutTensorHeader(message.targets);

  frame->Add(frame->head, static_cast<size_t>(head.at - frame->head));
  frame->Add(message.payload.data(), static_cast<size_t>(message.payload.SizeBytes()));
  frame->Add(frame->targets_head, static_cast<size_t>(targets_head.at - frame->targets_head));
  frame->Add(message.targets.data(), static_cast<size_t>(message.targets.SizeBytes()));
  const size_t body_bytes = frame->bytes - kFrameHeaderBytes;
  PD_CHECK_LE(body_bytes, static_cast<size_t>(kMaxBodyBytes));
  const uint32_t body_len = static_cast<uint32_t>(body_bytes);
  std::memcpy(frame->head + sizeof(uint32_t), &body_len, sizeof(body_len));

  // The body CRC chains over the pieces: Crc32(b, Crc32(a)) == Crc32(a‖b).
  uint32_t crc = Crc32(frame->head + kFrameHeaderBytes,
                       frame->piece[0].iov_len - kFrameHeaderBytes);
  for (int i = 1; i < frame->count; ++i) {
    crc = Crc32(frame->piece[i].iov_base, frame->piece[i].iov_len, crc);
  }
  frame->crc = crc;
  frame->Add(&frame->crc, sizeof(frame->crc));
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
  FramePieces frame;
  BuildFramePieces(message, &frame);
  std::vector<uint8_t> body;
  body.reserve(frame.bytes - kFrameHeaderBytes - kFrameTrailerBytes);
  body.insert(body.end(), frame.head + kFrameHeaderBytes,
              frame.head + frame.piece[0].iov_len);
  for (int i = 1; i + 1 < frame.count; ++i) {
    const auto* data = static_cast<const uint8_t*>(frame.piece[i].iov_base);
    body.insert(body.end(), data, data + frame.piece[i].iov_len);
  }
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
  FramePieces frame;
  BuildFramePieces(message, &frame);
  out->reserve(out->size() + frame.bytes);
  for (int i = 0; i < frame.count; ++i) {
    const auto* data = static_cast<const uint8_t*>(frame.piece[i].iov_base);
    out->insert(out->end(), data, data + frame.piece[i].iov_len);
  }
}

Result<size_t> WriteFrame(int fd, const PipeMessage& message,
                          const std::function<void()>& on_full) {
  FramePieces frame;
  BuildFramePieces(message, &frame);
  iovec* next = frame.piece;
  int left = frame.count;
  while (left > 0) {
    msghdr header{};
    header.msg_iov = next;
    header.msg_iovlen = static_cast<size_t>(left);
    // MSG_NOSIGNAL: a receiver torn down mid-write must surface as EPIPE, not SIGPIPE.
    ssize_t n = ::sendmsg(fd, &header, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        return Status::Internal(StrFormat("sendmsg: %s", std::strerror(errno)));
      }
      if (on_full) {
        on_full();
      } else {
        pollfd writable{fd, POLLOUT, 0};
        (void)::poll(&writable, 1, -1);
      }
      continue;
    }
    // Resume a short write where it stopped.
    while (left > 0 && static_cast<size_t>(n) >= next->iov_len) {
      n -= static_cast<ssize_t>(next->iov_len);
      ++next;
      --left;
    }
    if (left > 0) {
      next->iov_base = static_cast<uint8_t*>(next->iov_base) + n;
      next->iov_len -= static_cast<size_t>(n);
    }
  }
  return frame.bytes;
}

void FrameDecoder::MakeRoom(size_t room) {
  if (begin_ == end_) {
    begin_ = end_ = 0;
  }
  if (buffer_.size() - end_ >= room) {
    return;
  }
  if (begin_ > 0) {
    std::memmove(buffer_.data(), buffer_.data() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
  }
  if (buffer_.size() - end_ < room) {
    buffer_.resize(end_ + room);
  }
}

uint8_t* FrameDecoder::Tail(size_t* size) {
  size_t room = kReadChunkBytes;
  const size_t pending = end_ - begin_;
  if (pending >= kFrameHeaderBytes) {
    uint32_t magic = 0;
    uint32_t body_len = 0;
    std::memcpy(&magic, buffer_.data() + begin_, 4);
    std::memcpy(&body_len, buffer_.data() + begin_ + 4, 4);
    const size_t total = kFrameHeaderBytes + body_len + kFrameTrailerBytes;
    if (magic == kFrameMagic && body_len <= kMaxBodyBytes && total > pending) {
      room = std::min(total - pending, kMaxPresizeBytes);
    }
  }
  MakeRoom(room);
  *size = buffer_.size() - end_;
  return buffer_.data() + end_;
}

void FrameDecoder::Commit(size_t size) {
  PD_CHECK_LE(size, buffer_.size() - end_);
  end_ += size;
}

void FrameDecoder::Resync() {
  // Look for the next plausible frame start strictly after the rejected position; count one
  // rejection per resync, not per scanned byte.
  ++corrupt_frames_;
  const uint8_t magic0 = static_cast<uint8_t>(kFrameMagic & 0xFF);
  size_t next = begin_ + 1;
  while (next + 4 <= end_) {
    if (buffer_[next] == magic0) {
      uint32_t candidate = 0;
      std::memcpy(&candidate, buffer_.data() + next, 4);
      if (candidate == kFrameMagic) {
        break;
      }
    }
    ++next;
  }
  if (next + 4 > end_) {
    // No full magic in what remains: keep at most 3 tail bytes (a magic split across
    // reads) and drop the rest.
    next = end_ - begin_ > 3 ? end_ - 3 : end_;
  }
  begin_ = next;
}

bool FrameDecoder::NextFrame(const uint8_t** body, size_t* size) {
  for (;;) {
    const size_t pending = end_ - begin_;
    if (pending < kFrameHeaderBytes) {
      return false;
    }
    const uint8_t* frame = buffer_.data() + begin_;
    uint32_t magic = 0;
    uint32_t body_len = 0;
    std::memcpy(&magic, frame, 4);
    std::memcpy(&body_len, frame + 4, 4);
    if (magic != kFrameMagic || body_len > kMaxBodyBytes) {
      Resync();
      continue;
    }
    const size_t total = kFrameHeaderBytes + body_len + kFrameTrailerBytes;
    if (pending < total) {
      return false;  // torn frame: wait for more bytes (or EOF, which abandons it)
    }
    uint32_t stored_crc = 0;
    std::memcpy(&stored_crc, frame + kFrameHeaderBytes + body_len, 4);
    if (Crc32(frame + kFrameHeaderBytes, body_len) != stored_crc) {
      Resync();
      continue;
    }
    begin_ += total;
    *body = frame + kFrameHeaderBytes;
    *size = body_len;
    return true;
  }
}

void FrameDecoder::Append(const uint8_t* data, size_t size,
                          std::vector<std::vector<uint8_t>>* frames) {
  if (size > 0) {
    MakeRoom(size);
    std::memcpy(buffer_.data() + end_, data, size);
    end_ += size;
  }
  const uint8_t* body = nullptr;
  size_t body_size = 0;
  while (NextFrame(&body, &body_size)) {
    frames->emplace_back(body, body + body_size);
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
    slot = std::make_unique<Endpoint>(stage);
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
      if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
        return Status::Internal(StrFormat("socketpair: %s", std::strerror(errno)));
      }
      ep->send_fd = fds[0];
      ep->recv_fd = fds[1];
      // Big tensors should block the sender briefly, not fragment into hundreds of
      // syscalls; best-effort (the kernel clamps to its limits).
      const int sndbuf = 1 << 20;
      (void)::setsockopt(ep->send_fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
      ep->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      if (ep->wake_fd < 0) {
        return Status::Internal(StrFormat("eventfd: %s", std::strerror(errno)));
      }
      ep->inbox.SetSource(ep.get());
    }
    started_ = true;
    return Status::Ok();
  }

  void Send(int stage, int replica, PipeMessage message) override {
    const auto it = endpoints_.find(EndpointKey(stage, replica));
    PD_CHECK(it != endpoints_.end() && started_)
        << "send to unregistered endpoint (" << stage << ", " << replica << ")";
    Endpoint* ep = it->second.get();

    std::lock_guard<std::mutex> lock(ep->send_mutex);
    if (ep->send_fd < 0) {
      return;  // shutdown raced a late sender; the message is dropped like a dead link's
    }
    // A full socket whose owner is busy (or dead) has nobody draining it: read it into the
    // owner's inbox ourselves. When another thread is reading it, wait for the room that
    // reader makes, re-checking now and then in case it stops before the socket drains.
    const Result<size_t> written = WriteFrame(ep->send_fd, message, [ep] {
      if (!ep->inbox.ReadIfIdle()) {
        pollfd writable{ep->send_fd, POLLOUT, 0};
        (void)::poll(&writable, 1, kFullSocketRecheckMs);
      }
    });
    if (!written.ok()) {
      PD_LOG(WARNING) << "socket transport send failed: " << written.status().ToString();
      return;
    }
    ep->frames_sent.fetch_add(1, std::memory_order_release);
    messages_sent_->Increment();
    bytes_sent_->Add(static_cast<int64_t>(*written));
  }

  void Drain() override {
    if (!started_ || stopped_) {
      return;
    }
    for (auto& [key, ep] : endpoints_) {
      int64_t target;
      {
        // The send mutex orders this snapshot after any in-progress write completes.
        std::lock_guard<std::mutex> lock(ep->send_mutex);
        target = ep->frames_sent.load(std::memory_order_acquire);
      }
      // Every counted frame is whole in the socket or already delivered, so reading (or
      // waiting for the thread that reads) reaches the target without a deadline.
      const Endpoint* e = ep.get();
      ep->inbox.WaitUntil([e, target](int64_t, int64_t) {
        return e->frames_done.load(std::memory_order_acquire) >= target ||
               e->ended.load(std::memory_order_acquire);
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
        ::close(ep->send_fd);  // EOF: the reader below drains buffered frames first
        ep->send_fd = -1;
      }
    }
    for (auto& [key, ep] : endpoints_) {
      // Read to EOF; the read that sees it detaches the source, so no thread touches the
      // descriptors once this returns.
      const Endpoint* e = ep.get();
      ep->inbox.WaitUntil(
          [e](int64_t, int64_t) { return e->ended.load(std::memory_order_acquire); });
      ::close(ep->recv_fd);
      ::close(ep->wake_fd);
      ep->recv_fd = -1;
      ep->wake_fd = -1;
    }
  }

  TransportKind kind() const override { return TransportKind::kUnixSocket; }

 private:
  // How long a sender blocked on a full socket that another thread is reading waits for
  // room before checking whether that reader has stopped.
  static constexpr int kFullSocketRecheckMs = 1;

  // One endpoint: its inbox, the socketpair feeding it, and the socket's read side, which
  // only the holder of the inbox's read turn touches.
  struct Endpoint : MailboxSource {
    explicit Endpoint(int endpoint_stage) : stage(endpoint_stage) {}

    ReadResult Read(Mailbox* box) override {
      const int64_t begin_ns = obs::TracingEnabled() ? obs::TraceClockNs() : 0;
      size_t room = 0;
      uint8_t* tail = decoder.Tail(&room);
      ssize_t n;
      do {
        n = ::recv(recv_fd, tail, room, MSG_DONTWAIT);
      } while (n < 0 && errno == EINTR);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return ReadResult::kEmpty;
      }
      if (n <= 0) {
        if (n < 0) {
          PD_LOG(WARNING) << "socket transport recv failed: " << std::strerror(errno);
        }
        ended.store(true, std::memory_order_release);  // EOF: every whole frame was read
        return ReadResult::kClosed;
      }
      decoder.Commit(static_cast<size_t>(n));
      int64_t done = 0;
      const uint8_t* body = nullptr;
      size_t size = 0;
      while (decoder.NextFrame(&body, &size)) {
        Result<PipeMessage> message = DeserializeMessage(body, size);
        if (message.ok()) {
          box->Deliver(std::move(*message));
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
        frames_done.fetch_add(done, std::memory_order_release);
      }
      if (begin_ns != 0) {
        obs::RecordSpan("recv", begin_ns, obs::TraceClockNs() - begin_ns, stage);
      }
      return ReadResult::kRead;
    }

    void Await(const WaitDeadline* deadline) override {
      timespec timeout{};
      if (deadline != nullptr) {
        const auto left = *deadline - std::chrono::steady_clock::now();
        if (left <= std::chrono::steady_clock::duration::zero()) {
          return;
        }
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(left).count();
        timeout.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
        timeout.tv_nsec = static_cast<long>(ns % 1'000'000'000);
      }
      pollfd fds[2] = {{recv_fd, POLLIN, 0}, {wake_fd, POLLIN, 0}};
      if (::ppoll(fds, 2, deadline != nullptr ? &timeout : nullptr, nullptr) > 0 &&
          (fds[1].revents & POLLIN) != 0) {
        uint64_t pokes = 0;
        (void)::read(wake_fd, &pokes, sizeof(pokes));
      }
    }

    void Wake() override {
      const uint64_t one = 1;
      (void)::write(wake_fd, &one, sizeof(one));
    }

    const int stage;
    Mailbox inbox;
    int send_fd = -1;
    int recv_fd = -1;
    int wake_fd = -1;  // eventfd: Poke() cuts a reader's poll short
    std::mutex send_mutex;
    std::atomic<int64_t> frames_sent{0};
    std::atomic<int64_t> frames_done{0};  // delivered + CRC-rejected
    std::atomic<bool> ended{false};       // a read saw EOF (or a failed socket)
    FrameDecoder decoder;                 // read-turn state
    int64_t seen_corrupt = 0;             // read-turn state
  };

  std::map<uint64_t, std::unique_ptr<Endpoint>> endpoints_;
  obs::Counter* messages_sent_ = obs::GetCounter("transport/messages_sent");
  obs::Counter* bytes_sent_ = obs::GetCounter("transport/bytes_sent");
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
