#include "src/tensor/pool.h"

#include <cstdlib>
#include <cstring>
#include <mutex>
#include <new>
#include <vector>

#include "src/common/check.h"
#include "src/common/env.h"
#include "src/obs/metrics.h"

namespace pipedream {
namespace {

// Size classes double from kMinClassElems; requests above the largest class bypass the pool
// (they are rare — full-dataset tensors — and would pin too much memory if parked).
constexpr int64_t kMinClassElems = 64;
constexpr int kNumClasses = 22;  // largest class: 64 << 21 = 128Mi floats (512 MiB)
constexpr int kThreadCacheSlots = 8;

int32_t ClassFor(int64_t numel) {
  int64_t cap = kMinClassElems;
  for (int32_t c = 0; c < kNumClasses; ++c) {
    if (numel <= cap) {
      return c;
    }
    cap <<= 1;
  }
  return BufferPool::kBypassClass;
}

int64_t ClassCapacity(int32_t size_class) { return kMinClassElems << size_class; }

std::atomic<int> g_zero_copy_override{-1};  // -1 = follow the environment

bool ZeroCopyFromEnv() {
  static const bool value =
      !ParseEnvSwitch("PIPEDREAM_NO_POOL", std::getenv("PIPEDREAM_NO_POOL"));
  return value;
}

struct Counters {
  std::atomic<int64_t> allocations{0};
  std::atomic<int64_t> hits{0};
  std::atomic<int64_t> misses{0};
  std::atomic<int64_t> bypass{0};
  std::atomic<int64_t> releases{0};
  std::atomic<int64_t> bytes_in_flight{0};
  std::atomic<int64_t> peak_bytes_in_flight{0};
  std::atomic<int64_t> bytes_parked{0};
};

PoolBlock* FreshBlock(int64_t capacity, int32_t size_class) {
  void* mem = std::calloc(1, sizeof(PoolBlock) + static_cast<size_t>(capacity) * sizeof(float));
  PD_CHECK(mem != nullptr) << "tensor pool: out of memory allocating " << capacity << " floats";
  PoolBlock* block = new (mem) PoolBlock;
  block->capacity = capacity;
  block->size_class = size_class;
  return block;
}

void DestroyBlock(PoolBlock* block) {
  block->~PoolBlock();
  std::free(block);
}

}  // namespace

struct BufferPool::Impl {
  Counters counters;
  std::mutex mutex[kNumClasses];
  std::vector<PoolBlock*> free_lists[kNumClasses];

  // Small lock-free front cache, one per thread. The destructor runs at thread exit and
  // hands survivors to the global lists (the pool itself is leaked, so it is always alive).
  struct ThreadCache {
    Impl* impl = nullptr;
    PoolBlock* slots[kNumClasses][kThreadCacheSlots] = {};
    int counts[kNumClasses] = {};

    ~ThreadCache() { Flush(); }

    void Flush() {
      if (impl == nullptr) {
        return;
      }
      for (int c = 0; c < kNumClasses; ++c) {
        if (counts[c] == 0) {
          continue;
        }
        std::lock_guard<std::mutex> lock(impl->mutex[c]);
        for (int i = 0; i < counts[c]; ++i) {
          impl->free_lists[c].push_back(slots[c][i]);
        }
        counts[c] = 0;
      }
    }
  };

  static ThreadCache& Cache(Impl* impl) {
    thread_local ThreadCache cache;
    cache.impl = impl;
    return cache;
  }

  void NoteInFlight(int64_t bytes) {
    const int64_t now =
        counters.bytes_in_flight.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    int64_t peak = counters.peak_bytes_in_flight.load(std::memory_order_relaxed);
    while (now > peak && !counters.peak_bytes_in_flight.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
  }
};

BufferPool::Impl* BufferPool::impl() {
  static Impl* instance = new Impl;  // leaked deliberately; see class comment
  return instance;
}

BufferPool* BufferPool::Get() {
  static BufferPool* instance = new BufferPool;
  instance->impl();  // force Impl construction before any thread cache exists
  // Surface the pool's own counters in the metrics registry as dump-time callbacks (reading
  // the live atomics costs nothing until someone asks for a dump).
  static const bool metrics_registered = [] {
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::Get();
    metrics.SetCallback("pool/hits", [] {
      return static_cast<double>(BufferPool::Get()->Snapshot().hits);
    });
    metrics.SetCallback("pool/misses", [] {
      return static_cast<double>(BufferPool::Get()->Snapshot().misses);
    });
    metrics.SetCallback("pool/bypass", [] {
      return static_cast<double>(BufferPool::Get()->Snapshot().bypass);
    });
    metrics.SetCallback("pool/bytes_in_flight", [] {
      return static_cast<double>(BufferPool::Get()->Snapshot().bytes_in_flight);
    });
    metrics.SetCallback("pool/peak_bytes_in_flight", [] {
      return static_cast<double>(BufferPool::Get()->Snapshot().peak_bytes_in_flight);
    });
    metrics.SetCallback("pool/bytes_parked", [] {
      return static_cast<double>(BufferPool::Get()->Snapshot().bytes_parked);
    });
    return true;
  }();
  (void)metrics_registered;
  return instance;
}

bool BufferPool::ZeroCopyEnabled() {
  const int override_value = g_zero_copy_override.load(std::memory_order_relaxed);
  if (override_value >= 0) {
    return override_value != 0;
  }
  return ZeroCopyFromEnv();
}

void BufferPool::SetZeroCopyEnabledForTesting(int enabled) {
  g_zero_copy_override.store(enabled < 0 ? -1 : (enabled != 0 ? 1 : 0),
                             std::memory_order_relaxed);
}

PoolBlock* BufferPool::Allocate(int64_t numel, bool* zeroed) {
  PD_CHECK_GT(numel, 0);
  Impl* p = impl();
  p->counters.allocations.fetch_add(1, std::memory_order_relaxed);
  const int32_t cls = ZeroCopyEnabled() ? ClassFor(numel) : kBypassClass;
  if (cls != kBypassClass) {
    const int64_t bytes = ClassCapacity(cls) * static_cast<int64_t>(sizeof(float));
    PoolBlock* block = nullptr;
    Impl::ThreadCache& cache = Impl::Cache(p);
    if (cache.counts[cls] > 0) {
      block = cache.slots[cls][--cache.counts[cls]];
    } else {
      std::lock_guard<std::mutex> lock(p->mutex[cls]);
      if (!p->free_lists[cls].empty()) {
        block = p->free_lists[cls].back();
        p->free_lists[cls].pop_back();
      }
    }
    if (block != nullptr) {
      PD_DCHECK(block->refs.load(std::memory_order_relaxed) == 0);
      block->refs.store(1, std::memory_order_relaxed);
      p->counters.hits.fetch_add(1, std::memory_order_relaxed);
      p->counters.bytes_parked.fetch_sub(bytes, std::memory_order_relaxed);
      p->NoteInFlight(bytes);
      *zeroed = false;  // recycled payloads are dirty
      return block;
    }
    p->counters.misses.fetch_add(1, std::memory_order_relaxed);
    p->NoteInFlight(bytes);
    *zeroed = true;
    return FreshBlock(ClassCapacity(cls), cls);
  }
  p->counters.bypass.fetch_add(1, std::memory_order_relaxed);
  p->NoteInFlight(numel * static_cast<int64_t>(sizeof(float)));
  *zeroed = true;
  return FreshBlock(numel, kBypassClass);
}

void BufferPool::Release(PoolBlock* block) {
  Impl* p = impl();
  p->counters.releases.fetch_add(1, std::memory_order_relaxed);
  const int64_t bytes = block->capacity * static_cast<int64_t>(sizeof(float));
  p->counters.bytes_in_flight.fetch_sub(bytes, std::memory_order_relaxed);
  const int32_t cls = block->size_class;
  if (cls == kBypassClass) {
    DestroyBlock(block);
    return;
  }
  p->counters.bytes_parked.fetch_add(bytes, std::memory_order_relaxed);
  Impl::ThreadCache& cache = Impl::Cache(p);
  if (cache.counts[cls] < kThreadCacheSlots) {
    cache.slots[cls][cache.counts[cls]++] = block;
    return;
  }
  std::lock_guard<std::mutex> lock(p->mutex[cls]);
  p->free_lists[cls].push_back(block);
}

PoolStats BufferPool::Snapshot() const {
  Impl* p = const_cast<BufferPool*>(this)->impl();
  PoolStats s;
  s.allocations = p->counters.allocations.load(std::memory_order_relaxed);
  s.hits = p->counters.hits.load(std::memory_order_relaxed);
  s.misses = p->counters.misses.load(std::memory_order_relaxed);
  s.bypass = p->counters.bypass.load(std::memory_order_relaxed);
  s.releases = p->counters.releases.load(std::memory_order_relaxed);
  s.bytes_in_flight = p->counters.bytes_in_flight.load(std::memory_order_relaxed);
  s.peak_bytes_in_flight = p->counters.peak_bytes_in_flight.load(std::memory_order_relaxed);
  s.bytes_parked = p->counters.bytes_parked.load(std::memory_order_relaxed);
  return s;
}

void BufferPool::ResetStats() {
  Impl* p = impl();
  p->counters.allocations.store(0, std::memory_order_relaxed);
  p->counters.hits.store(0, std::memory_order_relaxed);
  p->counters.misses.store(0, std::memory_order_relaxed);
  p->counters.bypass.store(0, std::memory_order_relaxed);
  p->counters.releases.store(0, std::memory_order_relaxed);
  p->counters.peak_bytes_in_flight.store(
      p->counters.bytes_in_flight.load(std::memory_order_relaxed), std::memory_order_relaxed);
}

void BufferPool::TrimFreeLists() {
  Impl* p = impl();
  for (int c = 0; c < kNumClasses; ++c) {
    std::vector<PoolBlock*> taken;
    {
      std::lock_guard<std::mutex> lock(p->mutex[c]);
      taken.swap(p->free_lists[c]);
    }
    for (PoolBlock* block : taken) {
      p->counters.bytes_parked.fetch_sub(block->capacity * static_cast<int64_t>(sizeof(float)),
                                         std::memory_order_relaxed);
      DestroyBlock(block);
    }
  }
}

void BufferPool::FlushThreadCache() { Impl::Cache(impl()).Flush(); }

void PoolUnrefSlow(PoolBlock* block) { BufferPool::Get()->Release(block); }

PoolScratch::PoolScratch(int64_t numel, bool zero) {
  bool zeroed = false;
  block_ = BufferPool::Get()->Allocate(numel, &zeroed);
  if (zero && !zeroed) {
    std::memset(block_->data(), 0, static_cast<size_t>(numel) * sizeof(float));
  }
}

}  // namespace pipedream
