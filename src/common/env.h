// Centralized HM_* environment-variable parsing.
//
// The test harness and the benches read a few HM_* knobs (the CI matrix in
// tests/testing/config_from_env.h, HM_FAULTCHECK_FULL, HM_BENCH_SCALE); these helpers are
// the single parser. Nothing under src/ reads the environment: ClusterConfig and
// RuntimeConfig defaults are constants, and scripts/check.sh rejects a getenv there.

#ifndef HALFMOON_COMMON_ENV_H_
#define HALFMOON_COMMON_ENV_H_

#include <cerrno>
#include <climits>
#include <cmath>
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

// Positive real-valued knob (a scale factor): unset or empty -> fallback. Anything else must
// parse COMPLETELY as a finite number > 0; "abc", "0", "-1" and "0.2x" abort.
inline double EnvPositiveDouble(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(raw, &end);
  if (end == raw || *end != '\0') {
    EnvParseError(name, raw, "not a number (trailing garbage rejected)");
  }
  if (errno == ERANGE || !std::isfinite(value)) EnvParseError(name, raw, "out of range");
  if (value <= 0.0) EnvParseError(name, raw, "must be positive");
  return value;
}

// Boolean knob: on when set to anything non-empty not starting with '0'.
inline bool EnvFlag(const char* name) {
  const char* raw = std::getenv(name);
  return raw != nullptr && *raw != '\0' && *raw != '0';
}

}  // namespace halfmoon

#endif  // HALFMOON_COMMON_ENV_H_
