#include "src/core/online_advisor.h"

#include <algorithm>
#include <string>
#include <string_view>

#include "src/common/check.h"
#include "src/core/ssf_runtime.h"
#include "src/sharedlog/log_record.h"

namespace halfmoon::core {

using sharedlog::LogRecordPtr;
using sharedlog::TagId;

std::optional<ProtocolKind> AdvisorDecision(int64_t reads, int64_t writes, double boundary,
                                            double margin, int64_t min_ops) {
  const int64_t total = reads + writes;
  if (total < min_ops) return std::nullopt;
  const double ratio = static_cast<double>(reads) / static_cast<double>(total);
  // §4.6 runtime criterion: above the boundary reads dominate enough that Halfmoon-read's
  // log-free reads win; below it Halfmoon-write's log-free writes win. The deadband keeps
  // sketch noise near the boundary from flapping the object.
  if (ratio >= boundary + margin) return ProtocolKind::kHalfmoonRead;
  if (ratio <= boundary - margin) return ProtocolKind::kHalfmoonWrite;
  return std::nullopt;
}

OnlineAdvisor::OnlineAdvisor(SsfRuntime* runtime, SwitchManager* switcher,
                             OnlineAdvisorConfig config)
    : runtime_(runtime),
      switcher_(switcher),
      config_(config),
      boundary_(RuntimeBoundaryReadRatio(config.profile)),
      tokens_(config.switch_burst) {
  HM_CHECK_MSG(runtime_->advisor_enabled(), "OnlineAdvisor requires a runtime in advisor mode");
  HM_CHECK_MSG(runtime_->config().default_protocol == ProtocolKind::kHalfmoonRead ||
                   runtime_->config().default_protocol == ProtocolKind::kHalfmoonWrite,
               "OnlineAdvisor steers between the Halfmoon protocols");
}

void OnlineAdvisor::Start() {
  runtime_->cluster().scheduler().Spawn(Loop());
}

sim::Task<void> OnlineAdvisor::Loop() {
  while (!stopped_) {
    co_await runtime_->cluster().scheduler().Delay(config_.tick);
    if (stopped_) break;
    RunOnce();
  }
}

sim::Task<void> OnlineAdvisor::DriveSwitch(TagId transition_tag, ProtocolKind target) {
  co_await switcher_->SwitchObject(transition_tag, target);
}

bool OnlineAdvisor::TakeToken(SimTime now) {
  tokens_ = std::min(config_.switch_burst,
                     tokens_ + ToSecondsDouble(now - last_refill_at_) * config_.switch_rate);
  last_refill_at_ = now;
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

void OnlineAdvisor::RunOnce() {
  ++stats_.ticks;
  runtime::Cluster& cluster = runtime_->cluster();
  const SimTime now = cluster.scheduler().Now();

  if (now - last_epoch_at_ >= config_.epoch) {
    runtime_->sketch().AdvanceEpoch();
    last_epoch_at_ = now;
  }

  sharedlog::LogSpace& log = cluster.log_space();
  sharedlog::TagRegistry& tags = log.tags();
  const metrics::WorkloadSketch& sketch = runtime_->sketch();
  const ProtocolKind default_protocol = runtime_->config().default_protocol;

  // One bounded slice of the dense-id keyspace per tick. The walk stops at the registry's
  // end (the next tick restarts a fresh sweep) so `sweeps` counts completed passes; ids
  // interned mid-walk — including the transition tags we intern below — are simply picked
  // up by a later slice.
  for (int examined = 0; examined < config_.ids_per_tick; ++examined) {
    if (cursor_ >= tags.size()) {
      if (cursor_ > 0) ++stats_.sweeps;
      cursor_ = 0;
      break;
    }
    const TagId id = static_cast<TagId>(cursor_++);
    std::string_view name = tags.Name(id);
    if (!name.starts_with(sharedlog::kWriteLogPrefix)) continue;

    ++stats_.objects_evaluated;
    const int64_t reads = static_cast<int64_t>(sketch.EstimateReads(id));
    const int64_t writes = static_cast<int64_t>(sketch.EstimateWrites(id));
    std::optional<ProtocolKind> decision =
        AdvisorDecision(reads, writes, boundary_, config_.margin, config_.min_ops);
    if (!decision.has_value()) {
      if (reads + writes < config_.min_ops) {
        ++stats_.suppressed_min_ops;
      } else {
        ++stats_.suppressed_deadband;
      }
      continue;
    }

    // Interning may grow the registry and invalidate `name`; copy the key suffix first.
    const std::string key(name.substr(sharedlog::kWriteLogPrefix.size()));
    const TagId ttag = tags.InternPrefixed(sharedlog::kObjectTransitionPrefix, key);

    // Current protocol, read directly off the transition stream. Like GC scans, advisor
    // inspection is charged no simulated latency — only the switches themselves append.
    ProtocolKind current = default_protocol;
    bool abandoned = false;
    if (LogRecordPtr record = log.ReadPrev(ttag, sharedlog::kMaxSeqNum); record != nullptr) {
      if (record->op == sharedlog::kOpSwitchEnd) {
        const int64_t target = record->fields.GetInt("target");
        HM_CHECK(target >= 0 && target <= static_cast<int64_t>(ProtocolKind::kTransitional));
        current = static_cast<ProtocolKind>(target);
      } else if (switcher_->ObjectSwitchInFlight(ttag)) {
        ++stats_.suppressed_busy;
        continue;
      } else {
        // BEGIN-terminated stream with nothing in flight: the previous transition was
        // abandoned mid-switch, so fire regardless of the target to complete it.
        current = ProtocolKind::kTransitional;
        abandoned = true;
      }
    }
    if (!abandoned && current == *decision) continue;

    if (auto it = last_switch_.find(ttag);
        it != last_switch_.end() && now - it->second < config_.dwell) {
      ++stats_.suppressed_dwell;
      continue;
    }
    if (!TakeToken(now)) {
      ++stats_.suppressed_tokens;
      continue;
    }

    last_switch_[ttag] = now;
    ++stats_.switches_fired;
    cluster.scheduler().Spawn(DriveSwitch(ttag, *decision));
  }
}

}  // namespace halfmoon::core
