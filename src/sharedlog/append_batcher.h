// Node-local group commit for the append path.
//
// A LogClient with group commit enabled owns one AppendBatcher per log shard: append
// requests issued while the shard's sequencer rounds are in flight — or within a
// configurable batching window — are collected and shipped as ONE batched sequencer round
// (LogSpace::AppendGroup), then the consecutive seqnums and per-request cond-append verdicts
// are demultiplexed back to the waiting coroutines. This is the group-commit idea of
// Boki/Beldi-style shims: the sequencer orders many records per round, so a node under
// concurrency pays one append latency per *round* instead of one per record.
//
// Invariant (asserted by the batched-vs-unbatched equivalence tests): because AppendGroup
// evaluates the round's requests strictly in submission order, each seeing the stream state
// left by its predecessors, the committed records, their per-tag order, and every
// protocol-visible outcome (cond-append verdicts, adopted records) are identical to the
// unbatched path. Only timing differs: requests that share a round also share its latency
// sample.
//
// One engine, pipelined (DESIGN.md §12): the batcher keeps up to pipeline_depth sequencer
// rounds in flight — round k+1's request leg overlaps round k's service and reply legs, so a
// node under sustained storm commits depth rounds per RTT instead of one. Rounds still reach
// LogSpace::AppendGroup strictly in departure order (enforced by a commit ticket and
// asserted, not assumed), so the committed records, their per-tag order, and the cond-append
// verdicts are identical at any depth. At depth 1 the dispatcher runs each round itself
// instead of spawning it, which reproduces the event sequence the golden tuples of
// sharded_equivalence_test pin.

#ifndef HALFMOON_SHAREDLOG_APPEND_BATCHER_H_
#define HALFMOON_SHAREDLOG_APPEND_BATCHER_H_

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/time.h"
#include "src/sharedlog/log_space.h"
#include "src/sim/task.h"

namespace halfmoon::sharedlog {

class LogClient;

// Group-commit knobs, plumbed from ClusterConfig into each node's LogClient.
struct AppendBatchConfig {
  bool enabled = true;
  // Extra wait before a round departs, letting near-simultaneous requests pile up. 0 keeps
  // an isolated append at exactly the unbatched latency (rounds still batch whatever arrived
  // while the previous round was in flight).
  SimDuration window = 0;
  // Cap on requests per sequencer round; arrivals beyond it ride the next round.
  size_t max_batch = 64;
  // Sequencer rounds in flight per batcher. 1 = one round at a time; K > 1 overlaps up to K
  // rounds, committed in departure order.
  int pipeline_depth = 1;
  // Nagle-style controller (active only at pipeline_depth > 1): widens the effective
  // batching window when the pipeline is saturated by under-filled rounds and raises the
  // effective depth under backlog; both decay when the queue drains, so isolated appends
  // keep the unbatched latency. Off = fixed window/depth.
  bool adaptive = true;
  // Ceiling for the controller's widened window.
  SimDuration max_window = Microseconds(200);
};

class AppendBatcher {
 public:
  // `shard` is the log shard whose sequencer this batcher's rounds go through. The owner
  // holds one batcher per shard, so rounds bound for different shards are independent
  // queues with independently in-flight rounds — that is the source of the shard-scaling
  // throughput (DESIGN.md §9).
  AppendBatcher(LogClient* owner, AppendBatchConfig config, uint32_t shard)
      : owner_(owner),
        config_(config),
        shard_(shard),
        effective_window_(config.window),
        // Adaptive mode ramps the depth up under backlog; fixed mode opens every slot
        // immediately.
        effective_depth_(config.adaptive ? 1 : std::max(config.pipeline_depth, 1)) {}
  AppendBatcher(const AppendBatcher&) = delete;
  AppendBatcher& operator=(const AppendBatcher&) = delete;

  // Awaitable handed out by Submit. It lives in the submitting coroutine's frame (stable
  // while suspended), so the pending queue is an intrusive list — no allocation per request.
  struct Submission {
    AppendBatcher* batcher;
    LogSpace::GroupRequest request;
    // Fault-injection eligibility: true only for protocol-class appends, whose submitting
    // coroutine runs inside an SSF attempt with crash-retry handling. Control appends
    // (init/invoke/switch/GC) run in detached service tasks and must never crash here.
    bool crashable = false;
    LogSpace::GroupVerdict verdict{};
    // Armed by the batcher's crash probe; await_resume raises the runtime's crash exception
    // through the owner's installed thrower.
    const char* crash_site = nullptr;
    Submission* next = nullptr;
    std::coroutine_handle<> waiter = nullptr;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> handle) {
      waiter = handle;
      batcher->Enqueue(this);
    }
    LogSpace::GroupVerdict await_resume() const {
      if (crash_site != nullptr) batcher->RaiseCrash(crash_site);
      return verdict;
    }
  };

  // Files a request for the next departing round; resumes with its verdict once that round
  // commits. Waiters resume in submission order (FIFO), all at the round's reply time.
  Submission Submit(LogSpace::GroupRequest request, bool crashable = false) {
    return Submission{this, std::move(request), crashable};
  }

  const AppendBatchConfig& config() const { return config_; }

  // Controller observability (tests, benches).
  SimDuration effective_window() const { return effective_window_; }
  int effective_depth() const { return effective_depth_; }

 private:
  // Waits until the pipeline has a free slot. Only the dispatcher ever waits here, so a
  // single handle suffices.
  struct SlotFree {
    AppendBatcher* b;
    bool await_ready() const noexcept { return b->in_flight_ < b->effective_depth_; }
    void await_suspend(std::coroutine_handle<> handle) noexcept { b->slot_waiter_ = handle; }
    void await_resume() const noexcept {}
  };

  // Waits until it is `ticket`'s turn to commit. Rounds can finish sequencer service out of
  // departure order (the station is multi-server); this is the FIFO re-ordering stage.
  struct CommitTurn {
    AppendBatcher* b;
    uint64_t ticket;
    bool await_ready() const noexcept { return b->commit_ticket_ == ticket; }
    void await_suspend(std::coroutine_handle<> handle) {
      b->commit_waiters_.push_back({ticket, handle});
    }
    void await_resume() const noexcept {}
  };

  // Appends `submission` to the pending queue and starts the dispatcher if idle.
  void Enqueue(Submission* submission);

  // The dispatcher detaches rounds and runs RunOneRound for each, keeping up to
  // effective_depth_ rounds in flight: at depth 1 it awaits the round inline, deeper it
  // spawns it.
  sim::Task<void> RunPipeline();
  sim::Task<void> RunOneRound(std::vector<Submission*> round,
                              std::vector<LogSpace::GroupRequest> requests, SimDuration total,
                              uint64_t ticket);

  // Detaches up to max_batch pending submissions in FIFO order into `round`/`requests`.
  void DetachRound(std::vector<Submission*>* round,
                   std::vector<LogSpace::GroupRequest>* requests);

  // Commits a serviced round: AppendGroup in ticket order, verdict demux, index advance.
  void CommitRound(std::vector<Submission*>& round,
                   std::vector<LogSpace::GroupRequest> requests);

  // Crash probes (no-ops unless the runtime installed hooks AND the round carries a
  // crashable submission). Depart: the victim's request still departs with the round — the
  // function died after handing it off — but the submitter is resumed immediately and
  // raises, racing its retry against the in-flight round. Reply: the round commits, then the
  // victim raises at reply time.
  void ProbeDepartCrash(std::vector<Submission*>& round);
  void ProbeReplyCrash(std::vector<Submission*>& round);
  [[noreturn]] void RaiseCrash(const char* site) const;

  // Adaptive window/depth controller, consulted once per departing round (a no-op at depth
  // 1, where there is nothing to widen into).
  void UpdateController(size_t occupancy, bool backlog);

  void WakeSlotWaiter();
  void WakeCommitWaiter();

  LogClient* owner_;
  AppendBatchConfig config_;
  uint32_t shard_;
  Submission* head_ = nullptr;
  Submission* tail_ = nullptr;
  bool round_loop_active_ = false;

  // Pipeline state.
  int in_flight_ = 0;
  uint64_t next_ticket_ = 0;
  uint64_t commit_ticket_ = 0;
  std::coroutine_handle<> slot_waiter_ = nullptr;
  std::vector<std::pair<uint64_t, std::coroutine_handle<>>> commit_waiters_;

  // Controller state. effective_window_ starts at the configured window and never drops
  // below it; effective_depth_ stays within [1, max(pipeline_depth, 1)] (1 at depth 1, where
  // the controller is off).
  SimDuration effective_window_;
  int effective_depth_ = 1;
};

}  // namespace halfmoon::sharedlog

#endif  // HALFMOON_SHAREDLOG_APPEND_BATCHER_H_
