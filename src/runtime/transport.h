// Pluggable stage-to-stage message transport.
//
// The original PipeDream preprint frames inter-stage communication as an explicit transfer
// layer whose cost the planner must price; this header is that layer's runtime seam. A
// MessageTransport owns one receive endpoint (a Mailbox) per (stage, replica) and routes
// PipeMessages between them. Stage workers are written against the interface only, so the
// same 1F1B scheduling loop runs unchanged whether its neighbours live on sibling threads
// (InProcTransport) or on the far side of a byte stream (SocketTransport). Implementations:
//
//   * InProcTransport — Send() is a direct Mailbox::Deliver into the destination's inbox.
//     The zero-copy move-through path (see mailbox.h): payload storage moves end to end.
//   * SocketTransport — one AF_UNIX stream socketpair per endpoint, and no thread of its
//     own. Send() writes the message as a length-prefixed, CRC-framed record (format below
//     and in DESIGN.md §5f) with one gather-write straight from the tensors' storage, under
//     a per-endpoint mutex so frames never interleave. The endpoint's inbox is fed by its
//     socket (a MailboxSource): the thread waiting on the inbox reads the socket itself,
//     reassembles frames in place, rejects torn/corrupt ones by CRC, and delivers intact
//     messages (mailbox.h). A sender that finds the destination's socket full while no
//     thread reads it reads it into the destination's inbox, so two workers sending each
//     other more than a socket buffer cannot deadlock, and a dead worker's full socket
//     cannot wedge its senders. This is the single-host stand-in for a real network
//     transport: every failure mode of a byte stream (torn frame, flipped bit, interleaved
//     writers) is exercised for real, and the watchdog covers what the CRC drops.
//
// Wire format (all integers little-endian):
//   frame  := magic u32 ('PDM1') | body_len u32 | body | body_crc u32 (CRC32 over body)
//   body   := version u8 | type u8 | minibatch i64 | input_version i64 | trace_id i64
//             | checksum u32 | tensor(payload) | tensor(targets)
//   tensor := rank u32 | dims i64[rank] | data f32[numel]   (rank 0xFFFFFFFF = empty tensor)
//
// Body version history: v1 had no trace_id; v2 (current) inserts the causal trace id after
// input_version so cross-stage flow events line up over the wire. Decoding is strict
// same-version (a mixed-version pipeline is a deployment error, not a protocol state).
//
// The body-level `checksum` is the sender-stamped message checksum from mailbox.h — it
// travels the wire so end-to-end corruption (injected before serialization) is still caught
// by the receiving *stage*, while the frame CRC catches corruption of the byte stream
// itself. A frame whose CRC fails is dropped and counted (transport/frames_rejected); the
// resulting lost message surfaces as a wedged pipeline to the progress watchdog, which
// drives recovery exactly as for an injected drop.
#ifndef SRC_RUNTIME_TRANSPORT_H_
#define SRC_RUNTIME_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/runtime/mailbox.h"

namespace pipedream {

enum class TransportKind {
  kInProc,      // direct mailbox delivery between threads of one process
  kUnixSocket,  // length-prefixed CRC-framed records over AF_UNIX stream sockets
};

const char* TransportKindName(TransportKind kind);

// Message transports route PipeMessages between per-(stage, replica) endpoints. Lifecycle:
// AddEndpoint() for every receiver, then Start(), then any number of concurrent Send()s,
// then Shutdown() (idempotent; also run by the destructor). Endpoints cannot be added after
// Start().
class MessageTransport {
 public:
  virtual ~MessageTransport() = default;

  // Registers the receive endpoint for (stage, replica) and returns its inbox. The Mailbox
  // is owned by the transport and stays valid until destruction — receivers keep using
  // WaitUntil/WaitUntilFor/Take on it exactly as before this interface existed.
  virtual Mailbox* AddEndpoint(int stage, int replica) = 0;

  // Looks up a previously added endpoint's inbox (null when absent).
  virtual Mailbox* endpoint(int stage, int replica) const = 0;

  // Sets up whatever delivery needs (a socketpair and a wake eventfd per endpoint for
  // sockets); starts no thread. Must be called once, after all AddEndpoint calls and before
  // the first Send.
  virtual Status Start() = 0;

  // Routes one message to the endpoint's inbox. Thread-safe; callers may send to any
  // endpoint from any thread. The message is moved in. Over sockets the message becomes
  // visible when a thread waiting on the inbox reads it off the socket.
  virtual void Send(int stage, int replica, PipeMessage message) = 0;

  // Blocks until every Send accepted before the call is either visible in its destination
  // inbox or rejected by the frame CRC, reading each endpoint's socket that nobody else is
  // reading (and waiting for the thread that is). Brackets epoch attempts: a recovery must
  // not let a late frame from the aborted attempt leak into the replay.
  virtual void Drain() = 0;

  // Closes the send ends and reads every endpoint to its end, so messages already written
  // are still delivered (clean shutdown); further Sends are illegal. Idempotent.
  virtual void Shutdown() = 0;

  virtual TransportKind kind() const = 0;
  const char* name() const { return TransportKindName(kind()); }
};

// Factory: a fresh transport of `kind`, in-proc mailboxes by default.
std::unique_ptr<MessageTransport> MakeTransport(TransportKind kind = TransportKind::kInProc);

// --- wire helpers (exposed for the framing fuzz battery) ---

// Serializes a message body (no frame header/CRC).
std::vector<uint8_t> SerializeMessage(const PipeMessage& message);

// Parses a body produced by SerializeMessage. Errors (never aborts) on truncated or
// malformed input — a CRC-valid frame can still carry garbage under fuzzing.
Result<PipeMessage> DeserializeMessage(const uint8_t* data, size_t size);

// Appends `message`'s whole frame (header, the body SerializeMessage would produce, body
// CRC) to `out`, growing it once to exactly the frame's size.
void AppendFrame(const PipeMessage& message, std::vector<uint8_t>* out);

// Writes `message`'s whole frame (the bytes AppendFrame produces) to the stream socket
// `fd`: each attempt is one sendmsg over at most five pieces (header words, payload storage,
// the targets' shape words, targets storage, body CRC), so the payload is never staged in
// a buffer. Short writes resume where they stopped. When the socket is full, calls
// `on_full` (which may read the peer end to make room) and retries; without one it waits
// for room. Returns the frame's size in bytes, or the send error.
Result<size_t> WriteFrame(int fd, const PipeMessage& message,
                          const std::function<void()>& on_full = nullptr);

// Incremental frame reassembler over one buffer: bytes land at its tail (Tail/Commit, or
// Append's copy), and every complete, CRC-valid frame is handed out where it lies. Torn or
// corrupt frames are dropped and counted; the decoder resynchronizes by scanning for the
// next frame magic, so one flipped bit never poisons the rest of the stream.
class FrameDecoder {
 public:
  // Writable space for the next read, `*size` bytes at the returned pointer. Once a frame's
  // header is buffered the space covers the whole frame, so it arrives in place; the
  // partial frame moves to the front only when the buffer's end would cut it.
  uint8_t* Tail(size_t* size);
  // Marks the first `size` bytes of the last Tail() as received.
  void Commit(size_t size);
  // Returns the next complete, CRC-valid frame's body as it lies in the buffer (valid until
  // the next call to any method), or false when no complete frame is buffered. Rejected
  // frames are skipped and counted on the way.
  bool NextFrame(const uint8_t** body, size_t* size);

  // Appends `size` bytes and extracts copies of complete valid frame bodies into `frames`.
  void Append(const uint8_t* data, size_t size, std::vector<std::vector<uint8_t>>* frames);

  // Frames rejected so far (bad magic, implausible length, or CRC mismatch).
  int64_t corrupt_frames() const { return corrupt_frames_; }
  // Bytes buffered awaiting a complete frame (a truncated tail parks here harmlessly).
  size_t pending_bytes() const { return end_ - begin_; }

 private:
  // Ensures `room` writable bytes after end_, moving the pending bytes to the front first
  // when that avoids growing the buffer.
  void MakeRoom(size_t room);
  // Scans the pending bytes from `begin_ + 1` for the next magic; discards everything
  // before it.
  void Resync();

  std::vector<uint8_t> buffer_;
  size_t begin_ = 0;  // first pending byte
  size_t end_ = 0;    // one past the last received byte
  int64_t corrupt_frames_ = 0;
};

}  // namespace pipedream

#endif  // SRC_RUNTIME_TRANSPORT_H_
