// Exact latency statistics: the recorder keeps every sample (simulated runs are short enough)
// and computes percentiles on demand from a lazily sorted copy, cached until the next Record.
// This mirrors how the paper reports median and 99th-percentile latency bars. Percentiles use
// the ceil-based nearest-rank definition, so the tail never rounds *down* (p99 of 100 samples
// is the 100th order statistic, not the 99th).
//
// Ownership contract: a recorder is single-owner — it holds no lock, and the const
// percentile accessors rebuild a mutable cache. Callers that record from several owners give
// each its own recorder and fold them with Merge afterwards; never share one instance across
// live threads, not even for reads. The sorted cache is invalidated structurally (it is
// stale iff its length differs from samples_, and every mutation changes the length), so no
// mutation path — Record, Merge, Clear, in any order with percentile reads — can serve a
// stale percentile by forgetting a dirty bit.

#ifndef HALFMOON_METRICS_LATENCY_RECORDER_H_
#define HALFMOON_METRICS_LATENCY_RECORDER_H_

#include <cstddef>
#include <vector>

#include "src/common/time.h"

namespace halfmoon::metrics {

class LatencyRecorder {
 public:
  void Record(SimDuration latency) { samples_.push_back(latency); }

  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  void Clear() {
    samples_.clear();
    sorted_.clear();
  }

  // Folds another recorder's samples into this one (per-shard / per-node / per-run recorders
  // combined for cluster-wide percentiles; the caller must own both). Equivalent to replaying
  // other's Record calls: percentiles afterwards are computed over the union of both sample
  // sets, including after a Percentile call already built this recorder's sorted cache.
  void Merge(const LatencyRecorder& other) {
    if (other.samples_.empty()) return;
    // Drop any warm sorted cache up front rather than leaning on the length heuristic alone:
    // a merge is a structural mutation, and the invalidation must not depend on how many
    // samples the other side happens to carry (the PR 6 length-mismatch contract, made
    // explicit at the one entry point that bulk-grows samples_).
    sorted_.clear();
    if (&other == this) {
      // Self-merge: inserting from the vector being grown would invalidate the source range.
      std::vector<SimDuration> copy = samples_;
      samples_.insert(samples_.end(), copy.begin(), copy.end());
    } else {
      samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
    }
  }

  // Percentile in [0, 100]. Returns 0 on an empty recorder.
  SimDuration Percentile(double pct) const;

  SimDuration Median() const { return Percentile(50.0); }
  SimDuration P99() const { return Percentile(99.0); }
  double MeanMs() const;

  double MedianMs() const { return ToMillisDouble(Median()); }
  double P99Ms() const { return ToMillisDouble(P99()); }

  const std::vector<SimDuration>& samples() const { return samples_; }

 private:
  // The sorted view, rebuilt at most once per batch of mutations no matter how many
  // percentiles are read. Staleness is structural — length mismatch — rather than a dirty
  // bit a future mutation path could forget to set: Record and Merge only ever grow
  // samples_, Clear empties both, so equal lengths imply equal contents.
  const std::vector<SimDuration>& Sorted() const;

  std::vector<SimDuration> samples_;
  mutable std::vector<SimDuration> sorted_;
};

}  // namespace halfmoon::metrics

#endif  // HALFMOON_METRICS_LATENCY_RECORDER_H_
