#include "src/runtime/fault.h"

#include <cstdlib>

#include "src/common/rng.h"
#include "src/common/strings.h"

namespace pipedream {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kKillWorker:
      return "kill";
    case FaultKind::kStallWorker:
      return "stall";
    case FaultKind::kDelayMessage:
      return "delay";
    case FaultKind::kDropMessage:
      return "drop";
    case FaultKind::kCorruptMessage:
      return "corrupt";
  }
  return "unknown";
}

std::string FaultEvent::ToString() const {
  std::string s = StrFormat("%s:stage=%d,replica=%d,mb=%lld,dir=%s", FaultKindName(kind),
                            stage, replica, static_cast<long long>(minibatch),
                            work == WorkType::kForward ? "fwd" : "bwd");
  if (duration_ms > 0.0) {
    s += StrFormat(",ms=%g", duration_ms);
  }
  return s;
}

std::string FaultPlan::ToString() const {
  std::string s;
  for (const FaultEvent& e : events) {
    if (!s.empty()) {
      s += ';';
    }
    s += e.ToString();
  }
  return s;
}

FaultPlan FaultPlan::Random(uint64_t seed, const PipelinePlan& plan, int64_t num_minibatches,
                            int num_faults, double max_duration_ms) {
  PD_CHECK_GE(num_minibatches, 1);
  Rng rng(seed);
  FaultPlan out;
  for (int i = 0; i < num_faults; ++i) {
    FaultEvent e;
    e.kind = static_cast<FaultKind>(rng.UniformInt(5));
    e.stage = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(plan.num_stages())));
    e.replica = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(plan.stage(e.stage).replicas)));
    e.minibatch = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(num_minibatches)));
    e.work = rng.UniformInt(2) == 0 ? WorkType::kForward : WorkType::kBackward;
    if (e.kind == FaultKind::kStallWorker || e.kind == FaultKind::kDelayMessage) {
      e.duration_ms = rng.Uniform(1.0, max_duration_ms);
    }
    out.events.push_back(e);
  }
  return out;
}

namespace {

Status MalformedSpec(const std::string& what) {
  return Status::InvalidArgument("malformed fault spec: " + what);
}

}  // namespace

Result<FaultPlan> FaultPlan::Parse(const std::string& spec) {
  FaultPlan out;
  for (const std::string& item : StrSplit(spec, ';')) {
    if (item.empty()) {
      continue;
    }
    const size_t colon = item.find(':');
    const std::string kind_name = item.substr(0, colon);
    FaultEvent e;
    if (kind_name == "kill") {
      e.kind = FaultKind::kKillWorker;
    } else if (kind_name == "stall") {
      e.kind = FaultKind::kStallWorker;
    } else if (kind_name == "delay") {
      e.kind = FaultKind::kDelayMessage;
    } else if (kind_name == "drop") {
      e.kind = FaultKind::kDropMessage;
    } else if (kind_name == "corrupt") {
      e.kind = FaultKind::kCorruptMessage;
    } else {
      return MalformedSpec("unknown kind '" + kind_name + "'");
    }
    if (colon != std::string::npos) {
      for (const std::string& kv : StrSplit(item.substr(colon + 1), ',')) {
        if (kv.empty()) {
          continue;
        }
        const size_t eq = kv.find('=');
        if (eq == std::string::npos) {
          return MalformedSpec("expected key=value, got '" + kv + "'");
        }
        const std::string key = kv.substr(0, eq);
        const std::string value = kv.substr(eq + 1);
        char* end = nullptr;
        const double num = std::strtod(value.c_str(), &end);
        const bool numeric = end != value.c_str() && *end == '\0';
        if (key == "stage" && numeric) {
          e.stage = static_cast<int>(num);
        } else if (key == "replica" && numeric) {
          e.replica = static_cast<int>(num);
        } else if (key == "mb" && numeric) {
          e.minibatch = static_cast<int64_t>(num);
        } else if (key == "ms" && numeric) {
          e.duration_ms = num;
        } else if (key == "dir") {
          if (value == "fwd") {
            e.work = WorkType::kForward;
          } else if (value == "bwd") {
            e.work = WorkType::kBackward;
          } else {
            return MalformedSpec("dir must be fwd or bwd, got '" + value + "'");
          }
        } else {
          return MalformedSpec("unknown or non-numeric field '" + kv + "'");
        }
      }
    }
    out.events.push_back(e);
  }
  return out;
}

FaultInjector::WorkerAction FaultInjector::OnWorkStart(int stage, int replica,
                                                       int64_t minibatch, WorkType work) {
  std::lock_guard<std::mutex> lock(mutex_);
  WorkerAction action;
  for (size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& e = plan_.events[i];
    if (fired_[i] ||
        (e.kind != FaultKind::kKillWorker && e.kind != FaultKind::kStallWorker) ||
        e.stage != stage || e.replica != replica || e.minibatch != minibatch ||
        e.work != work) {
      continue;
    }
    fired_[i] = true;
    action.reason = "injected " + e.ToString();
    if (e.kind == FaultKind::kKillWorker) {
      action.kill = true;
    } else {
      action.stall_ms = e.duration_ms;
    }
    return action;  // one event per work item; later duplicates stay armed
  }
  return action;
}

FaultInjector::MessageAction FaultInjector::OnSend(int from_stage, int from_replica,
                                                   int64_t minibatch, WorkType work) {
  std::lock_guard<std::mutex> lock(mutex_);
  MessageAction action;
  for (size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& e = plan_.events[i];
    if (fired_[i] ||
        (e.kind != FaultKind::kDelayMessage && e.kind != FaultKind::kDropMessage &&
         e.kind != FaultKind::kCorruptMessage) ||
        e.stage != from_stage || e.replica != from_replica || e.minibatch != minibatch ||
        e.work != work) {
      continue;
    }
    fired_[i] = true;
    action.reason = "injected " + e.ToString();
    if (e.kind == FaultKind::kDropMessage) {
      action.drop = true;
    } else if (e.kind == FaultKind::kCorruptMessage) {
      action.corrupt = true;
    } else {
      action.delay_ms = e.duration_ms;
    }
    return action;
  }
  return action;
}

int64_t FaultInjector::faults_fired() const {
  std::lock_guard<std::mutex> lock(mutex_);
  int64_t n = 0;
  for (const bool f : fired_) {
    n += f ? 1 : 0;
  }
  return n;
}

void CorruptBytes(void* data, size_t size) {
  if (size == 0) {
    return;
  }
  auto* bytes = static_cast<unsigned char*>(data);
  // Flip a spread of bits so the corruption survives any partial inspection: first byte,
  // middle byte, last byte.
  bytes[0] ^= 0xFFu;
  bytes[size / 2] ^= 0xA5u;
  bytes[size - 1] ^= 0x5Au;
}

}  // namespace pipedream
