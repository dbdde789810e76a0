#include "src/sharedlog/append_batcher.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/sharedlog/log_client.h"

namespace halfmoon::sharedlog {

void AppendBatcher::Enqueue(Submission* submission) {
  if (head_ == nullptr) {
    head_ = submission;
  } else {
    tail_->next = submission;
  }
  tail_ = submission;
  if (!round_loop_active_) {
    // The dispatcher starts via Spawn at delay 0, so an isolated request departs at the time
    // it was submitted — same latency as the unbatched path. Requests submitted while a round
    // is in flight accumulate here and depart together in a later round.
    round_loop_active_ = true;
    owner_->scheduler_->Spawn(RunPipeline());
  }
}

void AppendBatcher::DetachRound(std::vector<Submission*>* round,
                                std::vector<LogSpace::GroupRequest>* requests) {
  while (head_ != nullptr && round->size() < config_.max_batch) {
    Submission* s = head_;
    head_ = s->next;
    if (head_ == nullptr) tail_ = nullptr;
    round->push_back(s);
    requests->push_back(std::move(s->request));
  }
  ++owner_->stats_.append_rounds;
  owner_->stats_.batched_requests += static_cast<int64_t>(round->size());
  if (static_cast<int64_t>(round->size()) > owner_->stats_.max_round_occupancy) {
    owner_->stats_.max_round_occupancy = static_cast<int64_t>(round->size());
  }
}

void AppendBatcher::CommitRound(std::vector<Submission*>& round,
                                std::vector<LogSpace::GroupRequest> requests) {
  LogSpace* log = owner_->log_;
  std::vector<LogSpace::GroupVerdict> verdicts =
      log->AppendGroup(owner_->scheduler_->Now(), std::move(requests));
  HM_CHECK(verdicts.size() == round.size());
  bool any_committed = false;
  for (size_t i = 0; i < round.size(); ++i) {
    if (verdicts[i].ok) any_committed = true;
    if (round[i] == nullptr) continue;  // Depart-crash victim: record departed, nobody waits.
    round[i]->verdict = verdicts[i];
  }
  if (any_committed) {
    // The node learns the round's seqnums with the reply (AppendGroup ran synchronously,
    // so next_seqnum() - 1 is exactly the round's last committed record).
    owner_->AdvanceIndex(log->next_seqnum() - 1);
  }
}

void AppendBatcher::ProbeDepartCrash(std::vector<Submission*>& round) {
  if (!owner_->crash_probe_) return;
  size_t victim = round.size();
  for (size_t i = 0; i < round.size(); ++i) {
    if (round[i] != nullptr && round[i]->crashable) {
      victim = i;
      break;
    }
  }
  if (victim == round.size()) return;
  if (!owner_->crash_probe_("batch.depart")) return;
  // The request already left with the round (it may still commit — the retry has to cope
  // with the duplicate, exactly the hazard class of the post-append protocol sites). The
  // submitter crashes NOW, so its retry races the in-flight round.
  Submission* s = round[victim];
  round[victim] = nullptr;
  s->crash_site = "batch.depart";
  owner_->scheduler_->PostResume(0, s->waiter);
}

void AppendBatcher::ProbeReplyCrash(std::vector<Submission*>& round) {
  if (!owner_->crash_probe_) return;
  for (Submission* s : round) {
    if (s == nullptr || !s->crashable) continue;
    if (owner_->crash_probe_("batch.reply")) {
      // Round committed and the reply arrived; the function dies processing it. The victim
      // resumes with the others below and raises from await_resume.
      s->crash_site = "batch.reply";
    }
    return;  // One probe per round, mirroring the depart site.
  }
}

void AppendBatcher::RaiseCrash(const char* site) const {
  HM_CHECK(owner_->crash_thrower_ != nullptr);
  owner_->crash_thrower_(site);
  HM_CHECK(false);  // The thrower must not return.
}

void AppendBatcher::UpdateController(size_t occupancy, bool backlog) {
  if (!config_.adaptive || config_.pipeline_depth <= 1) return;
  LogClientStats& stats = owner_->stats_;
  if (occupancy <= 1 && in_flight_ <= 1) {
    // Isolated traffic: this singleton round is the only thing in flight. Decay toward the
    // configured floor so isolated appends stop paying the widened window / pipeline churn.
    if (effective_window_ > config_.window) {
      // Halve the widened excess, snapping to the floor once it is negligible so a finite
      // idle tail really does restore the exact unbatched latency.
      SimDuration excess = (effective_window_ - config_.window) / 2;
      if (excess <= config_.max_window / 64) excess = 0;
      effective_window_ = config_.window + excess;
      ++stats.ctrl_window_narrowed;
    }
    if (effective_depth_ > 1) {
      --effective_depth_;
      ++stats.ctrl_depth_lowered;
    }
    return;
  }
  if (backlog && effective_depth_ < config_.pipeline_depth) {
    // The queue held more than one full round: open another pipeline slot.
    ++effective_depth_;
    ++stats.ctrl_depth_raised;
  }
  if (in_flight_ >= effective_depth_ && occupancy * 2 < config_.max_batch) {
    // Every slot is busy yet rounds depart under-filled — the arrival rate is round-limited,
    // not batch-limited. Hold departures open a little longer so each round carries more
    // (classic Nagle widening); capped so latency stays bounded.
    SimDuration next = effective_window_ == 0 ? config_.max_window / 8 : effective_window_ * 2;
    next = std::min(next, config_.max_window);
    if (next != effective_window_) {
      effective_window_ = next;
      ++stats.ctrl_window_widened;
    }
  }
}

void AppendBatcher::WakeSlotWaiter() {
  if (slot_waiter_ == nullptr) return;
  std::coroutine_handle<> h = std::exchange(slot_waiter_, nullptr);
  owner_->scheduler_->PostResume(0, h);
}

void AppendBatcher::WakeCommitWaiter() {
  for (size_t i = 0; i < commit_waiters_.size(); ++i) {
    if (commit_waiters_[i].first != commit_ticket_) continue;
    std::coroutine_handle<> h = commit_waiters_[i].second;
    commit_waiters_.erase(commit_waiters_.begin() + static_cast<ptrdiff_t>(i));
    owner_->scheduler_->PostResume(0, h);
    return;
  }
}

// Dispatcher: detaches rounds in FIFO order and runs each as its own task, keeping up to
// effective_depth_ rounds in flight. The latency sample is drawn HERE, in departure order, so
// the stream of draws is deterministic regardless of how the in-flight rounds interleave.
sim::Task<void> AppendBatcher::RunPipeline() {
  while (head_ != nullptr) {
    if (effective_window_ > 0) {
      co_await owner_->scheduler_->Delay(effective_window_);
    }
    while (in_flight_ >= effective_depth_) {
      co_await SlotFree{this};
    }

    std::vector<Submission*> round;
    std::vector<LogSpace::GroupRequest> requests;
    DetachRound(&round, &requests);
    ++in_flight_;
    LogClientStats& stats = owner_->stats_;
    int bucket = std::min(in_flight_, LogClientStats::kPipelineHistBuckets - 1);
    ++stats.pipeline_inflight_hist[bucket];
    if (in_flight_ > 1) ++stats.pipeline_rounds_overlapped;
    if (in_flight_ > stats.pipeline_max_inflight) stats.pipeline_max_inflight = in_flight_;
    UpdateController(round.size(), head_ != nullptr);
    ProbeDepartCrash(round);

    SimDuration total = owner_->models_->log_append.Sample(*owner_->rng_);
    uint64_t ticket = next_ticket_++;
    if (config_.pipeline_depth <= 1) {
      // One round at a time: the next round departs only after this one's reply.
      co_await RunOneRound(std::move(round), std::move(requests), total, ticket);
    } else {
      owner_->scheduler_->Spawn(
          RunOneRound(std::move(round), std::move(requests), total, ticket));
    }
  }
  // Rounds may still be in flight; a new arrival restarts the dispatcher (Enqueue), and the
  // ticket/in-flight state lives on the batcher, so the pipeline drains independently.
  round_loop_active_ = false;
}

sim::Task<void> AppendBatcher::RunOneRound(std::vector<Submission*> round,
                                           std::vector<LogSpace::GroupRequest> requests,
                                           SimDuration total, uint64_t ticket) {
  auto leg = static_cast<SimDuration>(static_cast<double>(total) * kRequestLegFraction);
  co_await owner_->scheduler_->Delay(leg);
  co_await owner_->SequencerRound(shard_, total);
  // FIFO commit: the sequencer station is multi-server, so rounds can finish service out of
  // departure order. Hold each round until its ticket comes up — this is what makes the
  // committed content identical at any depth.
  if (commit_ticket_ != ticket) {
    co_await CommitTurn{this, ticket};
  }
  HM_CHECK(commit_ticket_ == ticket);
  CommitRound(round, std::move(requests));
  ++commit_ticket_;
  WakeCommitWaiter();
  co_await owner_->scheduler_->Delay(leg);  // Reply leg.
  ProbeReplyCrash(round);
  for (Submission* s : round) {
    if (s == nullptr) continue;
    owner_->scheduler_->PostResume(0, s->waiter);
  }
  --in_flight_;
  WakeSlotWaiter();
}

}  // namespace halfmoon::sharedlog
