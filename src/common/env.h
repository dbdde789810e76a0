// Centralized HM_* environment-variable parsing.
//
// Runtime knobs (HM_SHARDS, HM_PIPELINE, HM_ADVISOR, HM_FAULTCHECK_FULL, ...) used to
// hand-roll getenv+parse at each consumer; these helpers are the single implementation.
// Header-only and dependency-free so every layer (sim, sharedlog, runtime, core, tests)
// can include it without cycles — core/env.h, for example, includes runtime/cluster.h,
// which itself needs EnvInt for its shard-count default.

#ifndef HALFMOON_COMMON_ENV_H_
#define HALFMOON_COMMON_ENV_H_

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>

namespace halfmoon {

// A malformed HM_* variable is a hard configuration error, never a silent fallback: atoi
// used to turn HM_PIPELINE=4x into 4 and the min-clamp turned HM_SHARDS=-1 into 1, both of
// which ran a DIFFERENT simulation than the one the user asked for.
[[noreturn]] inline void EnvParseError(const char* name, const char* raw, const char* why) {
  std::fprintf(stderr, "fatal: %s=\"%s\" is invalid: %s\n", name, raw, why);
  std::abort();
}

// Integer-valued knob: unset or empty -> fallback. Anything else must parse COMPLETELY as a
// base-10 integer >= min_value; trailing garbage, overflow, and out-of-range values abort
// with the offending variable named.
inline int EnvInt(const char* name, int min_value, int fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  errno = 0;
  char* end = nullptr;
  long value = std::strtol(raw, &end, 10);
  if (end == raw || *end != '\0') {
    EnvParseError(name, raw, "not an integer (trailing garbage rejected)");
  }
  if (errno == ERANGE || value < INT_MIN || value > INT_MAX) {
    EnvParseError(name, raw, "out of integer range");
  }
  if (value < min_value) {
    EnvParseError(name, raw, "below the knob's minimum value");
  }
  return static_cast<int>(value);
}

// Boolean knob: on when set to anything non-empty not starting with '0'.
inline bool EnvFlag(const char* name) {
  const char* raw = std::getenv(name);
  return raw != nullptr && *raw != '\0' && *raw != '0';
}

// Environment defaults that ClusterConfig inherits, so CI can sweep the append path and the
// storage tier without code changes (DESIGN.md §12-§14).

// HM_PIPELINE: sequencer rounds in flight per node-shard batcher. 1 (the default) is the
// serial engine, bit-identical to the pre-pipelining implementation.
inline int DefaultAppendPipelineDepth() { return EnvInt("HM_PIPELINE", 1, 1); }

// HM_DURABLE: attach the simulated durable medium (DESIGN.md §13) under the shared log and
// KV store. Off (the default) constructs no storage engine at all — bit-identical to the
// pre-storage simulation, pinned by the golden checksums.
inline bool DefaultDurableMode() { return EnvFlag("HM_DURABLE"); }

// HM_CHECKPOINT: attach the incremental checkpoint + journal-compaction tier (DESIGN.md
// §14) on top of the durable medium. Only effective with HM_DURABLE=1 (there is no journal
// to compact otherwise). Off (the default) constructs no checkpoint service at all —
// bit-identical to the PR 9 durable engine.
inline bool DefaultCheckpointMode() { return EnvFlag("HM_CHECKPOINT"); }

}  // namespace halfmoon

#endif  // HALFMOON_COMMON_ENV_H_
