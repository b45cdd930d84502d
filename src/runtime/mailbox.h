// Thread-safe per-worker mailbox: the runtime analogue of the simulator's ready queues.
//
// Upstream/downstream stage workers push forward activations and backward gradients here;
// the owning worker blocks until the message its next instruction names has arrived.
// Messages carry minibatch ids so 1F1B-RR routing and weight stashing can match forwards
// with backwards exactly.
//
// Wakeup protocol: every state change that could unblock the owner (a delivery, or any
// change to external state the owner's wait predicate consults, signalled via Poke()) bumps
// a change counter under the mailbox mutex. WaitUntil re-evaluates its predicate whenever
// the counter moves, so wakeups cannot be lost between a predicate check and the sleep.
//
// A mailbox fed by a byte stream (the socket transport's endpoints, see MailboxSource) has
// no thread that fills it. Whoever waits on it reads the stream: it claims the mailbox's one
// read turn, reads what bytes are there, delivers every complete frame, and re-checks its
// predicate; only when the stream is empty does it block, in poll() on the stream and a
// wake fd rather than on the condvar. So a hop to an idle worker costs one wakeup and a
// hop to a busy one costs none. A second waiter sleeps on the condvar; every turn ends with
// a notify, so it re-checks and can take over. Poke() also writes the wake fd while a turn
// is held, which is what lets aborts and stop flags reach a reader blocked in poll().
#ifndef SRC_RUNTIME_MAILBOX_H_
#define SRC_RUNTIME_MAILBOX_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <type_traits>

#include "src/common/crc32.h"
#include "src/obs/trace.h"
#include "src/schedule/work.h"
#include "src/tensor/tensor.h"

namespace pipedream {

// One hop's payload. Forward messages carry activations plus the minibatch's training
// targets (threaded through to the loss stage); backward messages carry the gradient with
// respect to the receiving stage's output.
struct PipeMessage {
  int64_t minibatch = 0;
  WorkType type = WorkType::kForward;
  Tensor payload;
  Tensor targets;             // forward only
  int64_t input_version = 0;  // weight version assigned at the input stage (vertical sync)
  int64_t trace_id = -1;      // causal-chain key: minibatch id (training) / request id
                              // (serving); travels the wire so flow events line up across
                              // stages even over the socket transport
  uint32_t checksum = 0;      // CRC32 over payload + targets, stamped at send time
  int64_t delivered_ns = 0;   // local metadata: TraceClockNs() at mailbox delivery. NOT
                              // serialized — single-host receive-side timestamp used for
                              // the serving latency decomposition (queue vs transport)
};

// The steady-state hop is move-through: senders move tensors into the message, Deliver
// moves the message into the queue, Take moves it out — zero payload copies end to end.
// (Receivers that *retain* a payload, e.g. recompute stashes, take a copy-on-write share;
// see tensor.h.) Nothrow moves keep the std::map emplace/extract paths from ever falling
// back to copies.
static_assert(std::is_nothrow_move_constructible_v<PipeMessage>,
              "PipeMessage moves must be noexcept for the zero-copy mailbox path");
static_assert(std::is_nothrow_move_assignable_v<PipeMessage>,
              "PipeMessage moves must be noexcept for the zero-copy mailbox path");

// CRC32 over a message's tensor contents and identifying fields. Senders stamp, receivers
// verify — a link that corrupts a payload in flight is detected at receive time instead of
// silently poisoning the gradient stream.
inline uint32_t MessageChecksum(const PipeMessage& m) {
  uint32_t crc = Crc32(&m.minibatch, sizeof(m.minibatch));
  crc = Crc32(&m.trace_id, sizeof(m.trace_id), crc);
  crc = Crc32(m.payload.data(), static_cast<size_t>(m.payload.SizeBytes()), crc);
  crc = Crc32(m.targets.data(), static_cast<size_t>(m.targets.SizeBytes()), crc);
  return crc;
}

inline void StampChecksum(PipeMessage* m) { m->checksum = MessageChecksum(*m); }

inline bool VerifyChecksum(const PipeMessage& m) { return m.checksum == MessageChecksum(m); }

class Mailbox;

using WaitDeadline = std::chrono::steady_clock::time_point;

// The byte stream behind a socket-fed mailbox. Its methods run only on the thread that holds
// the mailbox's read turn, except Wake().
class MailboxSource {
 public:
  enum class ReadResult {
    kRead,    // bytes arrived; every complete frame among them is in the inbox
    kEmpty,   // nothing was waiting
    kClosed,  // the stream ended (or failed); the source is spent
  };

  virtual ~MailboxSource() = default;

  // Reads whatever bytes are waiting, without blocking, and delivers each complete frame
  // into `inbox`.
  virtual ReadResult Read(Mailbox* inbox) = 0;

  // Blocks until bytes arrive, Wake() is called, or `deadline` passes (null: no deadline).
  virtual void Await(const WaitDeadline* deadline) = 0;

  // Cuts a concurrent Await() short. Called with the mailbox mutex held.
  virtual void Wake() = 0;
};

class Mailbox {
 public:
  // Makes `source` this mailbox's feed: from now on waiters read it (see the header
  // comment). Call before any thread uses the mailbox; `source` must outlive its reads.
  void SetSource(MailboxSource* source) {
    std::lock_guard<std::mutex> lock(mutex_);
    source_ = source;
  }

  // Delivers a message: called by senders' threads in-proc, and on a socket-fed mailbox by
  // the thread reading its stream.
  void Deliver(PipeMessage message) {
    PD_TRACE_INSTANT(message.type == WorkType::kForward ? "send_fwd" : "send_bwd", -1,
                     message.minibatch);
    message.delivered_ns = obs::TraceClockNs();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto& queue = message.type == WorkType::kForward ? forward_ : backward_;
      queue.emplace(message.minibatch, std::move(message));
      ++change_count_;
      const int64_t depth = static_cast<int64_t>(forward_.size() + backward_.size());
      if (depth > depth_hwm_) {
        depth_hwm_ = depth;
      }
    }
    cv_.notify_one();
  }

  // Signals that external state consulted by the owner's wait predicate changed (flush
  // barriers, stop flags, admission tokens). Must be called *after* that state is visible.
  void Poke() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      NoteChangeLocked();
    }
    cv_.notify_one();
  }

  // Discards all queued messages (between epoch attempts, when in-flight minibatches from an
  // aborted run must not leak into the replay).
  void Clear() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      forward_.clear();
      backward_.clear();
      NoteChangeLocked();
    }
    cv_.notify_one();
  }

  // For a sender blocked on this mailbox's full stream: reads the stream once, delivering
  // what it holds, unless another thread is reading it. Returns false when another thread
  // is (that reader makes the room) or the mailbox has no source.
  bool ReadIfIdle() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (source_ == nullptr || reading_) {
      return false;
    }
    ReadTurn turn(this, &lock);
    turn.Read(nullptr, /*await=*/false);
    return true;
  }

  // Removes and returns the lowest-minibatch-id message of the given type, if any.
  std::optional<PipeMessage> Take(WorkType type) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& queue = type == WorkType::kForward ? forward_ : backward_;
    if (queue.empty()) {
      return std::nullopt;
    }
    PipeMessage message = std::move(queue.begin()->second);
    queue.erase(queue.begin());
    PD_TRACE_INSTANT(type == WorkType::kForward ? "recv_fwd" : "recv_bwd", -1,
                     message.minibatch);
    return message;
  }

  // Largest queue occupancy (both work types) ever observed at delivery time. Survives
  // Clear() so an epoch's peak backlog is still readable after the epoch drains.
  int64_t DepthHighWater() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return depth_hwm_;
  }

  // Blocks until predicate(min_forward_id, min_backward_id) returns true, where each
  // argument is the lowest queued minibatch id of that type or -1 when none is queued.
  // Exposing ids rather than counts lets the owner consume work in its deterministic
  // round-robin order even when neighbouring replicated stages deliver out of order (a
  // message being *present* does not make it *next*). The predicate runs with the mailbox
  // locked; it may also read external state, provided every writer of that state calls
  // Poke() afterwards. On a socket-fed mailbox the waiter reads the stream itself.
  template <typename Predicate>
  void WaitUntil(Predicate predicate) {
    Wait(predicate, nullptr);
  }

  // Deadline-aware WaitUntil: returns true as soon as the predicate holds, false once
  // `timeout` elapses without it holding. Poke-safe like WaitUntil — every counter bump
  // re-evaluates the predicate, and the deadline is absolute (repeated wakeups that don't
  // satisfy the predicate cannot extend it). This is what keeps a worker from blocking
  // forever on a mailbox whose upstream died: the owner regains control every timeout tick
  // to emit a heartbeat and check for an epoch abort.
  template <typename Predicate>
  bool WaitUntilFor(Predicate predicate, std::chrono::milliseconds timeout) {
    const WaitDeadline deadline = std::chrono::steady_clock::now() + timeout;
    return Wait(predicate, &deadline);
  }

 private:
  // The read turn over a socket-fed mailbox: at most one thread reads the source at a time.
  // Claimed with the mutex held, which it releases for the read; the destructor re-locks,
  // gives the turn back (detaching a source that reported its end) and notifies, so a
  // waiter sleeping on the condvar re-checks and can take over.
  class ReadTurn {
   public:
    ReadTurn(Mailbox* box, std::unique_lock<std::mutex>* lock)
        : box_(box), lock_(lock), source_(box->source_) {
      box_->reading_ = true;
      lock_->unlock();
    }
    ~ReadTurn() {
      lock_->lock();
      box_->reading_ = false;
      if (closed_) {
        box_->source_ = nullptr;
      }
      ++box_->change_count_;
      box_->cv_.notify_all();
    }

    ReadTurn(const ReadTurn&) = delete;
    ReadTurn& operator=(const ReadTurn&) = delete;

    // Reads once; when the stream held nothing and `await` is set, blocks until bytes
    // arrive, Poke(), or `deadline`.
    void Read(const WaitDeadline* deadline, bool await) {
      const MailboxSource::ReadResult result = source_->Read(box_);
      closed_ = result == MailboxSource::ReadResult::kClosed;
      if (result == MailboxSource::ReadResult::kEmpty && await) {
        source_->Await(deadline);
      }
    }

   private:
    Mailbox* box_;
    std::unique_lock<std::mutex>* lock_;
    MailboxSource* source_;
    bool closed_ = false;
  };

  // Bumps the change counter and, when a reader may be blocked in the source's poll, wakes
  // it: a reader sleeps there, not on the condvar.
  void NoteChangeLocked() {
    ++change_count_;
    if (reading_) {
      source_->Wake();
    }
  }

  template <typename Predicate>
  bool Wait(Predicate& predicate, const WaitDeadline* deadline) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      const int64_t min_fwd = forward_.empty() ? -1 : forward_.begin()->first;
      const int64_t min_bwd = backward_.empty() ? -1 : backward_.begin()->first;
      if (predicate(min_fwd, min_bwd)) {
        return true;
      }
      if (source_ != nullptr && !reading_) {
        if (deadline != nullptr && std::chrono::steady_clock::now() >= *deadline) {
          return false;
        }
        ReadTurn turn(this, &lock);
        turn.Read(deadline, /*await=*/true);
        continue;
      }
      const uint64_t seen = change_count_;
      const auto changed = [&] { return change_count_ != seen; };
      if (deadline == nullptr) {
        cv_.wait(lock, changed);
      } else if (!cv_.wait_until(lock, *deadline, changed)) {
        return false;
      }
    }
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::map<int64_t, PipeMessage> forward_;
  std::map<int64_t, PipeMessage> backward_;
  uint64_t change_count_ = 0;
  int64_t depth_hwm_ = 0;
  MailboxSource* source_ = nullptr;  // null: in-proc, the condvar path only
  bool reading_ = false;             // a thread holds the read turn
};

}  // namespace pipedream

#endif  // SRC_RUNTIME_MAILBOX_H_
