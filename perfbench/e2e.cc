// End-to-end benchmark binary: one full-protocol application workload per process, on one
// thread.
//
// A root invocation runs gateway -> core::SsfRuntime -> sharedlog / kvstore / storage on the
// sim scheduler. Roots arrive open-loop (Poisson in virtual time) and are timed from their
// due time to their result. Two currencies are reported:
//   * simulated metrics, what a Halfmoon user sees: a pure function of the seed;
//   * host metrics, what simulating costs: wall-clock time and peak RSS.
// One "rep" is a full set-up (cluster, dataset, warm-up) plus the measured window. A run
// repeats reps until --seconds of host time are spent, checks that every rep simulated the
// identical execution, and reports host metrics as medians over reps.
//
// With --trace 1 the run alternates untraced and traced reps instead. The traced rep reads
// every layer's public stats between virtual-time slices and keeps host spans in memory; it
// schedules no event and draws no random number, so it must reproduce the untraced rep
// exactly (checked), and the host-time difference is the tracing overhead.
//
// Usage:
//   e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//       [--out <dir>] [--short] [--protocol unsafe]
// Prints one JSON object on the last line of stdout; perfbench/README.md lists its fields.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/core/gc_service.h"
#include "src/core/ssf_runtime.h"
#include "src/metrics/latency_recorder.h"
#include "src/runtime/cluster.h"
#include "src/workloads/applications.h"
#include "src/workloads/args.h"

namespace halfmoon::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Host-speed probe
// ---------------------------------------------------------------------------

// A shared host's speed drifts: on a 4-vCPU Xeon VM it moved by +-20 % over seconds to
// minutes, on-CPU (thread CPU time drifted with wall time). Host times are therefore reported
// normalized: a fixed unit of benchmark-owned work runs between virtual-time slices, and
// each rep's host seconds are scaled by kProbeNominalS / (its mean probe time), i.e. to a
// host on which one probe takes kProbeNominalS. The probe is a pointer chase over a 16 KiB
// ring plus small hash-map lookups, run twice with only the second, cache-warm pass timed,
// so the program's own cache footprint cannot change the probe's time. It draws nothing
// from the simulation's random streams and schedules no event.
constexpr double kProbeNominalS = 50e-6;

class SpeedProbe {
 public:
  SpeedProbe() : ring_(4096) {
    std::mt19937_64 rng(7);
    std::vector<uint32_t> order(ring_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<uint32_t>(i);
    std::shuffle(order.begin() + 1, order.end(), rng);
    for (size_t i = 0; i < order.size(); ++i) ring_[order[i]] = order[(i + 1) % order.size()];
    for (uint64_t i = 0; i < 64; ++i) map_[i * kMix] = i;
  }
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  // Host seconds of one cache-warm pass.
  double Run() {
    Work();
    Clock::time_point begin = Clock::now();
    Work();
    return SecondsBetween(begin, Clock::now());
  }

  uint64_t checksum() const { return checksum_; }

 private:
  static constexpr uint64_t kMix = 0x9E3779B97F4A7C15ull;

  void Work() {
    uint32_t at = pos_;
    uint64_t h = at;
    for (int i = 0; i < 3000; ++i) {
      at = ring_[at];
      h = (h ^ at) * 0x100000001B3ull;
      auto it = map_.find((h & 63) * kMix);
      if (it != map_.end() && (h >> 61) == 0) h += it->second;
    }
    pos_ = at;
    checksum_ += h;  // Keeps the work observable so it is not optimized away.
  }

  std::vector<uint32_t> ring_;  // One cycle through all slots, in shuffled order.
  std::unordered_map<uint64_t, uint64_t> map_;
  uint32_t pos_ = 0;
  uint64_t checksum_ = 0;
};

// ---------------------------------------------------------------------------
// Workloads and their pinned configuration
// ---------------------------------------------------------------------------

struct WorkloadSpec {
  const char* name;
  const char* app;  // Name in workloads::AllApplications().
  core::ProtocolKind protocol;
  bool durable;
  bool checkpoint;
  int64_t checkpoint_trigger_bytes;
  double rate;        // Offered roots per virtual second.
  int users;          // AppDataset::users.
  double fault_p;     // Crash and duplicate-instance probability per site.
  SimDuration window;  // Measured virtual window (after the warm-up).
};

// Why each workload exists is recorded in perfbench/README.md. Rates sit below the knee of
// each app's Fig. 11 curve with db_servers = 4. Retwis runs at ~2/3 of its knee: closer to
// it the tail moved too much from seed to seed to gate on (p99 by ~20 % at 1800 roots/s,
// p99.9 by ~9 % at 1500).
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec>* specs = new std::vector<WorkloadSpec>{
      {"travel-hmread", "travel", core::ProtocolKind::kHalfmoonRead, false, false, 0, 600.0,
       500, 0.0, Seconds(20)},
      {"movie-hmwrite-durable", "movie", core::ProtocolKind::kHalfmoonWrite, true, true,
       4 << 20, 400.0, 500, 0.0, Seconds(25)},
      {"retwis-boki-faults", "retwis", core::ProtocolKind::kBoki, false, false, 0, 1400.0,
       100000, 0.01, Seconds(40)},
  };
  return *specs;
}

constexpr SimDuration kWarmup = Seconds(2);
constexpr SimDuration kSlice = Milliseconds(20);
// Virtual time allowed after the window closes for in-flight roots to finish; a root still
// running after it counts as failed.
constexpr SimDuration kDrainCap = Seconds(30);
constexpr SimDuration kGcInterval = Seconds(10);

// Every ClusterConfig field whose default reads an HM_* variable is set explicitly, so no
// environment can change the measured program.
runtime::ClusterConfig MakeClusterConfig(const WorkloadSpec& w, uint64_t seed) {
  if (w.checkpoint && !w.durable) {
    std::fprintf(stderr, "error: workload %s: checkpoint=1 requires durable=1\n", w.name);
    std::exit(2);
  }
  runtime::ClusterConfig c;
  c.function_nodes = 8;
  c.workers_per_node = 16;
  c.sequencer_servers = 12;
  c.storage_servers = 12;
  c.log_shards = 1;
  c.log_read_cache = false;
  c.db_servers = 4;  // As in Fig. 11: the external store binds capacity.
  c.model_queueing = true;
  c.coalesce_index_propagation = true;
  c.group_commit_appends = true;
  c.append_batch_window = 0;
  c.append_batch_max = 64;
  c.append_batch_pipeline = 1;
  c.queue_mode = sim::QueueMode::kTimerWheel;
  c.durable = w.durable;
  c.checkpoint = w.checkpoint;
  c.checkpoint_slice = 4096;
  c.checkpoint_trigger_bytes = w.checkpoint_trigger_bytes;
  c.seed = seed;
  return c;
}

core::RuntimeConfig MakeRuntimeConfig(core::ProtocolKind protocol) {
  core::RuntimeConfig r;
  r.default_protocol = protocol;
  r.enable_switching = false;
  r.advisor = false;
  return r;
}

// ---------------------------------------------------------------------------
// Root functions and the expected shape of their results
// ---------------------------------------------------------------------------

struct RootFn {
  const char* name;
  bool writes;  // Write flow (mutates state) or read flow.
};

const std::vector<RootFn>& RootFns(const std::string& app) {
  static const std::map<std::string, std::vector<RootFn>>* fns =
      new std::map<std::string, std::vector<RootFn>>{
          {"travel",
           {{"travel.search_hotels", false}, {"travel.recommend", false},
            {"travel.reserve", true}}},
          {"movie",
           {{"movie.compose_review", true}, {"movie.read_movie_info", false},
            {"movie.register_movie", true}}},
          {"retwis",
           {{"retwis.get_timeline", false}, {"retwis.get_profile", false},
            {"retwis.post", true}, {"retwis.follow", true}}},
      };
  return fns->at(app);
}

std::vector<std::string> SplitList(const Value& list) {
  std::vector<std::string> items;
  size_t pos = 0;
  while (pos < list.size()) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    items.push_back(list.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return items;
}

// Parses "<prefix><digits>" (the apps' object ids).
std::optional<int64_t> IdNumber(const std::string& id, char prefix) {
  if (id.size() < 2 || id[0] != prefix) return std::nullopt;
  int64_t n = 0;
  for (size_t i = 1; i < id.size(); ++i) {
    if (id[i] < '0' || id[i] > '9' || n > (INT64_MAX - 9) / 10) return std::nullopt;
    n = n * 10 + (id[i] - '0');
  }
  return n;
}

bool IsIdList(const Value& list, char prefix, size_t max_items) {
  std::vector<std::string> items = SplitList(list);
  if (items.size() > max_items) return false;
  for (const std::string& item : items) {
    if (!IdNumber(item, prefix)) return false;
  }
  return true;
}

bool ExpectedShape(const std::string& fn, const workloads::Args& args, const Value& result) {
  if (fn == "travel.search_hotels") {
    // The four candidate hotels starting at the requested one.
    std::vector<std::string> items = SplitList(result);
    if (items.size() != 4) return false;
    for (size_t i = 0; i < items.size(); ++i) {
      if (IdNumber(items[i], 'h') != args.GetInt("hotel") + static_cast<int64_t>(i)) {
        return false;
      }
    }
    return true;
  }
  if (fn == "travel.recommend") return IdNumber(result, 'h') == args.GetInt("hotel");
  if (fn == "travel.reserve") return result == "ok" || result == "sold-out";
  if (fn == "movie.compose_review") return result == args.Get("rid");
  if (fn == "movie.read_movie_info") return !result.empty();
  if (fn == "movie.register_movie") return result.empty();
  if (fn == "retwis.post") return result == args.Get("tweet");
  if (fn == "retwis.get_timeline") return IsIdList(result, 't', 10);
  if (fn == "retwis.get_profile") return !result.empty();
  if (fn == "retwis.follow") return result.empty();
  return false;
}

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}
template <typename T>
uint64_t FnvValue(uint64_t h, const T& v) {
  return Fnv(h, &v, sizeof(v));
}
constexpr uint64_t kFnvBasis = 14695981039346656037ull;

// ---------------------------------------------------------------------------
// Stats snapshots: every public stats source, summed across nodes
// ---------------------------------------------------------------------------

struct Snapshot {
  SimTime now = 0;
  int64_t events = 0;
  sharedlog::LogClientStats log;
  kvstore::KvClientStats kv;
  core::RuntimeStats rt;
  core::GcStats gc;
  int64_t journal_frames = 0;
  int64_t journal_bytes = 0;
  int64_t journal_flushes = 0;
  int64_t device_bytes = 0;
  storage::CheckpointService::Stats ckpt;
  int64_t prop_ticks = 0;
  int64_t prop_commits = 0;
  int64_t tracking_entries = 0;
  int64_t worker_queue_max = 0;  // Longest worker-slot queue on any node.
};

Snapshot TakeSnapshot(runtime::Cluster& cluster, core::SsfRuntime& runtime,
                      core::GcService& gc) {
  Snapshot s;
  s.now = cluster.scheduler().Now();
  s.events = static_cast<int64_t>(cluster.scheduler().events_processed());
  for (int i = 0; i < cluster.node_count(); ++i) {
    runtime::FunctionNode& node = cluster.node(i);
    s.log.Add(node.log().stats());
    const kvstore::KvClientStats& kv = node.kv().stats();
    s.kv.reads += kv.reads;
    s.kv.plain_writes += kv.plain_writes;
    s.kv.cond_writes += kv.cond_writes;
    s.kv.cond_write_rejects += kv.cond_write_rejects;
    s.kv.versioned_reads += kv.versioned_reads;
    s.kv.versioned_writes += kv.versioned_writes;
    s.kv.deletes += kv.deletes;
    s.worker_queue_max =
        std::max(s.worker_queue_max, static_cast<int64_t>(node.workers().queue_length()));
  }
  s.rt = runtime.stats();
  s.gc = gc.stats();
  for (storage::DurabilityService* d : {cluster.log_durability(), cluster.kv_durability()}) {
    if (d == nullptr) continue;
    s.journal_frames += d->stats().frames;
    s.journal_bytes += d->stats().appended_bytes;
    s.journal_flushes += d->stats().flushes;
    s.device_bytes += d->device().stats().bytes_written;
  }
  if (cluster.checkpoint_service() != nullptr) s.ckpt = cluster.checkpoint_service()->stats();
  s.prop_ticks = cluster.index_propagation_ticks();
  s.prop_commits = cluster.index_propagation_commits();
  s.tracking_entries = static_cast<int64_t>(cluster.live_tracking_entries());
  return s;
}

int64_t KvReads(const kvstore::KvClientStats& kv) { return kv.reads + kv.versioned_reads; }
int64_t KvWrites(const kvstore::KvClientStats& kv) {
  return kv.plain_writes + kv.cond_writes + kv.versioned_writes;
}
int64_t LogReads(const sharedlog::LogClientStats& log) {
  return log.reads_index_local + log.reads_storage;
}
int64_t ProtocolBytes(const sharedlog::LogClientStats& log) {
  int64_t total = 0;
  for (int cls = 1; cls < sharedlog::LogClientStats::kAppendClasses; ++cls) {
    total += log.appended_bytes_by_class[cls];
  }
  return total;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// ---------------------------------------------------------------------------
// Tracer: host spans, per-slice counters and root spans, kept in memory
// ---------------------------------------------------------------------------

struct HostSpan {
  std::string name;
  double begin_s;
  double end_s;
};

// Resident set size now, from /proc/self/statm (0 where it is unavailable).
double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  long long pages_total = 0, pages_resident = 0;
  if (!(statm >> pages_total >> pages_resident)) return 0;
  return static_cast<double>(pages_resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

struct CounterRow {
  SimTime now;
  int64_t events;
  int64_t inflight_roots;
  int64_t log_appends;
  int64_t log_reads;
  int64_t kv_reads;
  int64_t kv_writes;
  int64_t journal_bytes;
  int64_t tracking_entries;
  int64_t worker_queue_max;
  double rss_mb;
};

struct Tracer {
  Clock::time_point origin = Clock::now();
  std::vector<HostSpan> host_spans;
  std::vector<CounterRow> rows;
  int64_t tracking_entries_max = 0;
  int64_t worker_queue_max = 0;

  void Span(const char* name, Clock::time_point begin, Clock::time_point end) {
    host_spans.push_back({name, SecondsBetween(origin, begin), SecondsBetween(origin, end)});
  }
};

// ---------------------------------------------------------------------------
// One rep: set-up, warm-up, measured window, drain, checks
// ---------------------------------------------------------------------------

struct Root {
  int fn = 0;
  SimTime due = 0;
  SimTime end = -1;  // -1 until the result arrived.
  bool measured = false;
  bool ok = false;  // Completed with the expected shape and passed the final-state checks.
  uint64_t result_hash = kFnvBasis;
  Value input;  // Encoded workloads::Args of the request.
};

struct Checks {
  int64_t incomplete = 0;
  int64_t bad_shape = 0;
  int64_t duplicate_ids = 0;   // Ids listed twice in one timeline / review list.
  int64_t missing_objects = 0;  // Acknowledged posts / reviews whose object is absent.
};

struct RepResult {
  // Normalized host seconds per phase (see SpeedProbe), probe time excluded. The window runs
  // from window open until the last measured root ended.
  double cluster_s = 0;
  double populate_s = 0;
  double warmup_s = 0;
  double window_s = 0;
  double setup_s() const { return cluster_s + populate_s + warmup_s; }
  double speed = 0;     // kProbeNominalS / mean probe time: normalized per raw host second.
  double probe_s = 0;   // Mean probe time.

  // FNV-1a over every root's function, due time, end time, outcome and result, plus the
  // event counts at window open and close and the window's logged bytes. Reps of one seed
  // must agree on it, which covers sim.events_per_inv and every sim_* value.
  uint64_t fingerprint = 0;
  int64_t roots_total = 0;
  int64_t roots_measured = 0;
  int64_t failed_measured = 0;
  int64_t failed_total = 0;
  int64_t keyspace_objects = 0;
  Checks checks;
  Snapshot s0;  // At window open.
  Snapshot s1;  // After the drain.
  int64_t logged_bytes = 0;  // Committed log bytes over the window.

  std::map<std::string, double> sim;  // Simulated end-to-end metrics.
  std::map<std::string, metrics::LatencyRecorder> per_fn;
  metrics::LatencyRecorder read_flow;
  metrics::LatencyRecorder write_flow;
  std::vector<Root> roots;  // Kept only for the trace file.
};

class Rep {
 public:
  Rep(const WorkloadSpec& spec, core::ProtocolKind protocol, uint64_t seed, SimDuration window,
      SimDuration warmup, SpeedProbe* probe, Tracer* tracer)
      : spec_(spec),
        protocol_(protocol),
        seed_(seed),
        probe_(probe),
        tracer_(tracer),
        open_(warmup),
        close_(warmup + window),
        arrivals_(seed ^ 0x5DEECE66DA3B1F27ull) {
    for (const workloads::AppDescriptor& a : workloads::AllApplications()) {
      if (a.name == spec.app) app_ = &a;
    }
    HM_CHECK(app_ != nullptr);
    for (const RootFn& fn : RootFns(spec.app)) fn_names_.push_back(fn.name);
  }

  RepResult Execute();

 private:
  int FnIndex(const std::string& name) const {
    auto it = std::find(fn_names_.begin(), fn_names_.end(), name);
    HM_CHECK_MSG(it != fn_names_.end(), "root function missing from the benchmark's table");
    return static_cast<int>(it - fn_names_.begin());
  }
  std::vector<SimTime> DueTimes();
  sim::Task<void> Generate();
  sim::Task<void> Fire(size_t index, std::string fn, Value input);
  void RunSlice();
  void CheckFinalState(Checks* checks);

  const WorkloadSpec& spec_;
  core::ProtocolKind protocol_;
  uint64_t seed_;
  SpeedProbe* probe_;
  double probe_total_s_ = 0;
  int64_t probes_ = 0;
  Tracer* tracer_;  // Null in untraced reps.
  const SimTime open_;
  const SimTime close_;
  Rng arrivals_;  // The open-loop arrival process; independent of the cluster's stream.
  const workloads::AppDescriptor* app_ = nullptr;
  std::vector<std::string> fn_names_;
  workloads::RequestFactory factory_;
  std::deque<Root> roots_;
  size_t completed_ = 0;
  bool generating_ = true;

  // Declared last: destroyed first, together with every coroutine frame still parked.
  std::unique_ptr<runtime::Cluster> cluster_;
  std::unique_ptr<core::SsfRuntime> runtime_;
  std::unique_ptr<core::GcService> gc_;
};

// Open-loop Poisson arrivals conditioned on their count: exactly rate x duration roots are
// due in the warm-up and in the window, each at a uniform random time. Fixing the count keeps
// the offered load identical across seeds; near a knee, the +-0.5 % swing of a free Poisson
// count moves the tail latency by several percent.
std::vector<SimTime> Rep::DueTimes() {
  std::vector<SimTime> due;
  for (auto [begin, end] : {std::pair<SimTime, SimTime>{0, open_}, {open_, close_}}) {
    auto count = static_cast<int64_t>(std::llround(spec_.rate * ToSecondsDouble(end - begin)));
    size_t first = due.size();
    for (int64_t i = 0; i < count; ++i) {
      due.push_back(begin + static_cast<SimTime>(arrivals_.UniformDouble() *
                                                 static_cast<double>(end - begin)));
    }
    std::sort(due.begin() + static_cast<std::ptrdiff_t>(first), due.end());
  }
  return due;
}

sim::Task<void> Rep::Generate() {
  sim::Scheduler& scheduler = cluster_->scheduler();
  for (SimTime due : DueTimes()) {
    co_await scheduler.Delay(due - scheduler.Now());
    auto [fn, input] = factory_();
    Root root;
    root.fn = FnIndex(fn);
    root.due = due;
    root.measured = due >= open_;
    root.input = input;
    roots_.push_back(std::move(root));
    scheduler.Spawn(Fire(roots_.size() - 1, std::move(fn), std::move(input)));
  }
  generating_ = false;
}

sim::Task<void> Rep::Fire(size_t index, std::string fn, Value input) {
  Value result = co_await runtime_->InvokeSsf(fn, std::move(input));
  Root& root = roots_[index];
  root.end = cluster_->scheduler().Now();
  root.ok = ExpectedShape(fn, workloads::Args::Parse(root.input), result);
  root.result_hash = Fnv(kFnvBasis, result.data(), result.size());
  ++completed_;
}

void Rep::RunSlice() {
  sim::Scheduler& scheduler = cluster_->scheduler();
  Clock::time_point begin = Clock::now();
  scheduler.RunUntil(scheduler.Now() + kSlice);
  probe_total_s_ += probe_->Run();
  ++probes_;
  if (tracer_ == nullptr) return;
  tracer_->Span("slice", begin, Clock::now());
  Snapshot s = TakeSnapshot(*cluster_, *runtime_, *gc_);
  tracer_->tracking_entries_max = std::max(tracer_->tracking_entries_max, s.tracking_entries);
  tracer_->worker_queue_max = std::max(tracer_->worker_queue_max, s.worker_queue_max);
  tracer_->rows.push_back(CounterRow{
      s.now, s.events, static_cast<int64_t>(roots_.size() - completed_),
      s.log.appends + s.log.cond_appends, LogReads(s.log), KvReads(s.kv), KvWrites(s.kv),
      s.journal_bytes, s.tracking_entries, s.worker_queue_max, CurrentRssMb()});
}

// The exactly-once invariants, read from the final state through KvState::Get:
//   * no tweet / review id appears twice in any timeline or review list;
//   * every acknowledged post / review has its object.
// A violation fails the root that produced the id. Travel runs Halfmoon-read, which keeps
// versions rather than the LATEST slot, so only its result shapes are checked.
void Rep::CheckFinalState(Checks* checks) {
  std::string id_field;
  std::string object_prefix;
  std::vector<std::pair<std::string, std::string>> lists;  // (list key prefix, args field)
  int acking_fn = -1;
  if (std::string(spec_.app) == "retwis") {
    id_field = "tweet";
    object_prefix = "tweet:";
    lists = {{"timeline:", "user"}};
    acking_fn = FnIndex("retwis.post");
  } else if (std::string(spec_.app) == "movie") {
    id_field = "rid";
    object_prefix = "review:";
    lists = {{"user-reviews:", "user"}, {"movie-reviews:", "movie"}};
    acking_fn = FnIndex("movie.compose_review");
  } else {
    return;
  }
  const kvstore::KvState& kv = cluster_->kv_state();
  std::unordered_map<std::string, size_t> producer;  // id -> root index
  std::set<std::string> list_keys;
  for (size_t i = 0; i < roots_.size(); ++i) {
    const Root& root = roots_[i];
    if (root.fn != acking_fn) continue;
    workloads::Args args = workloads::Args::Parse(root.input);
    producer[args.Get(id_field)] = i;
    for (const auto& [prefix, field] : lists) list_keys.insert(prefix + args.Get(field));
    if (root.end >= 0 && root.ok && !kv.Get(object_prefix + args.Get(id_field))) {
      ++checks->missing_objects;
      roots_[i].ok = false;
    }
  }
  for (const std::string& key : list_keys) {
    std::optional<Value> list = kv.Get(key);
    if (!list) continue;
    std::set<std::string> seen;
    for (const std::string& id : SplitList(*list)) {
      if (seen.insert(id).second) continue;
      ++checks->duplicate_ids;
      auto it = producer.find(id);
      if (it != producer.end()) roots_[it->second].ok = false;
    }
  }
}

RepResult Rep::Execute() {
  RepResult r;
  Clock::time_point t0 = Clock::now();
  cluster_ = std::make_unique<runtime::Cluster>(MakeClusterConfig(spec_, seed_));
  runtime_ = std::make_unique<core::SsfRuntime>(cluster_.get(), MakeRuntimeConfig(protocol_));
  gc_ = std::make_unique<core::GcService>(cluster_.get(), kGcInterval);
  gc_->Start();
  Clock::time_point t1 = Clock::now();

  workloads::AppDataset data;
  data.users = spec_.users;
  app_->register_fn(*runtime_, data);
  factory_ = app_->factory_fn(*runtime_, data);
  r.keyspace_objects = static_cast<int64_t>(std::max(
      cluster_->kv_state().key_count(), cluster_->kv_state().versioned_object_count()));
  Clock::time_point t2 = Clock::now();

  cluster_->failure_injector().SetCrashProbability(spec_.fault_p);
  cluster_->failure_injector().SetDuplicateProbability(spec_.fault_p);
  sim::Scheduler& scheduler = cluster_->scheduler();
  scheduler.Spawn(Generate());
  while (scheduler.Now() < open_) RunSlice();
  Clock::time_point t3 = Clock::now();
  const double warmup_probe_s = probe_total_s_;

  r.s0 = TakeSnapshot(*cluster_, *runtime_, *gc_);
  int64_t logged0 = cluster_->TotalLoggedBytes();
  while ((generating_ || completed_ < roots_.size()) && scheduler.Now() < close_ + kDrainCap &&
         !scheduler.empty()) {
    RunSlice();
  }
  Clock::time_point t4 = Clock::now();
  r.s1 = TakeSnapshot(*cluster_, *runtime_, *gc_);
  r.logged_bytes = cluster_->TotalLoggedBytes() - logged0;

  if (tracer_ != nullptr) {
    tracer_->Span("setup.cluster", t0, t1);
    tracer_->Span("setup.populate", t1, t2);
    tracer_->Span("setup.warmup", t2, t3);
    tracer_->Span("window", t3, t4);
  }
  r.probe_s = probe_total_s_ / static_cast<double>(probes_);
  r.speed = kProbeNominalS / r.probe_s;
  r.cluster_s = SecondsBetween(t0, t1) * r.speed;
  r.populate_s = SecondsBetween(t1, t2) * r.speed;
  r.warmup_s = (SecondsBetween(t2, t3) - warmup_probe_s) * r.speed;
  r.window_s = (SecondsBetween(t3, t4) - (probe_total_s_ - warmup_probe_s)) * r.speed;

  for (Root& root : roots_) {
    if (root.end < 0) {
      ++r.checks.incomplete;
    } else if (!root.ok) {
      ++r.checks.bad_shape;
    }
  }
  CheckFinalState(&r.checks);

  const std::vector<RootFn>& fns = RootFns(spec_.app);
  metrics::LatencyRecorder all;
  int64_t ok_measured = 0;
  uint64_t h = kFnvBasis;
  for (const Root& root : roots_) {
    h = FnvValue(h, root.fn);
    h = FnvValue(h, root.due);
    h = FnvValue(h, root.end);
    h = FnvValue(h, root.ok);
    h = FnvValue(h, root.result_hash);
    ++r.roots_total;
    if (!root.ok) ++r.failed_total;
    if (!root.measured) continue;
    ++r.roots_measured;
    if (!root.ok) {
      ++r.failed_measured;
      continue;
    }
    ++ok_measured;
    SimDuration latency = root.end - root.due;
    all.Record(latency);
    r.per_fn[fns[root.fn].name].Record(latency);
    (fns[root.fn].writes ? r.write_flow : r.read_flow).Record(latency);
  }
  h = FnvValue(h, r.s0.events);
  h = FnvValue(h, r.s1.events);
  h = FnvValue(h, r.logged_bytes);
  r.fingerprint = h;

  double window_virtual_s = ToSecondsDouble(close_ - open_);
  r.sim["sim_p50_ms"] = ToMillisDouble(all.Percentile(50.0));
  r.sim["sim_p99_ms"] = ToMillisDouble(all.Percentile(99.0));
  r.sim["sim_p999_ms"] = ToMillisDouble(all.Percentile(99.9));
  r.sim["sim_goodput_rps"] = static_cast<double>(ok_measured) / window_virtual_s;
  r.sim["ok_frac"] =
      Ratio(static_cast<double>(ok_measured), static_cast<double>(r.roots_measured));
  r.sim["logged_bytes_per_inv"] =
      Ratio(static_cast<double>(r.logged_bytes), static_cast<double>(r.roots_measured));
  if (tracer_ != nullptr) r.roots.assign(roots_.begin(), roots_.end());
  return r;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

double Median(std::vector<double> v) {
  HM_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux.
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

class MetricSet {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.push_back(Quote(name) + ":{\"value\":" + Num(value) + ",\"unit\":" + Quote(unit) +
                       "}");
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) out += (i ? "," : "") + entries_[i];
    return out + "}";
  }

 private:
  std::vector<std::string> entries_;
};

std::string ConfigJson(const WorkloadSpec& w, core::ProtocolKind protocol, uint64_t seed,
                       SimDuration window, SimDuration warmup) {
  runtime::ClusterConfig c = MakeClusterConfig(w, seed);
  core::RuntimeConfig rc = MakeRuntimeConfig(protocol);
  std::string out = "{";
  auto field = [&out](const char* name, const std::string& value) {
    if (out.size() > 1) out += ",";
    out += Quote(name) + ":" + value;
  };
  field("app", Quote(w.app));
  field("protocol", Quote(core::ProtocolName(protocol)));
  field("rate_rps", Num(w.rate));
  field("users", Num(w.users));
  field("fault_p", Num(w.fault_p));
  field("warmup_s", Num(ToSecondsDouble(warmup)));
  field("window_s", Num(ToSecondsDouble(window)));
  field("slice_ms", Num(ToMillisDouble(kSlice)));
  field("gc_interval_s", Num(ToSecondsDouble(kGcInterval)));
  field("function_nodes", Num(c.function_nodes));
  field("workers_per_node", Num(c.workers_per_node));
  field("sequencer_servers", Num(c.sequencer_servers));
  field("storage_servers", Num(c.storage_servers));
  field("db_servers", Num(c.db_servers));
  field("log_shards", Num(c.log_shards));
  field("log_read_cache", c.log_read_cache ? "true" : "false");
  field("append_batch_window_us", Num(static_cast<double>(c.append_batch_window) / 1e3));
  field("append_batch_max", Num(c.append_batch_max));
  field("append_batch_pipeline", Num(c.append_batch_pipeline));
  field("durable", c.durable ? "true" : "false");
  field("checkpoint", c.checkpoint ? "true" : "false");
  field("checkpoint_slice", Num(static_cast<double>(c.checkpoint_slice)));
  field("checkpoint_trigger_bytes", Num(static_cast<double>(c.checkpoint_trigger_bytes)));
  field("advisor", rc.advisor ? "true" : "false");
  field("switching", rc.enable_switching ? "true" : "false");
  field("seed", Num(static_cast<double>(seed)));
  return out + "}";
}

std::string BuildJson() {
#ifdef __clang__
  const std::string compiler = std::string("clang ") + __clang_version__;
#else
  const std::string compiler = std::string("gcc ") + __VERSION__;
#endif
  return "{\"compiler\":" + Quote(compiler) + ",\"build_type\":" +
         Quote(HM_BENCH_BUILD_TYPE) +
         ",\"nproc\":" + Num(std::thread::hardware_concurrency()) + "}";
}

std::string ChecksJson(const Checks& c, bool deterministic, const char* determinism_name) {
  return "{\"incomplete_roots\":" + Num(static_cast<double>(c.incomplete)) +
         ",\"bad_shape\":" + Num(static_cast<double>(c.bad_shape)) +
         ",\"duplicate_ids\":" + Num(static_cast<double>(c.duplicate_ids)) +
         ",\"missing_objects\":" + Num(static_cast<double>(c.missing_objects)) + ",\"" +
         determinism_name + "\":" + (deterministic ? "true" : "false") + "}";
}

std::string OpsJson(const RepResult& r) {
  std::string out = "{";
  for (const auto& [name, rec] : r.per_fn) {
    if (out.size() > 1) out += ",";
    out += Quote(name) + ":{\"count\":" + Num(static_cast<double>(rec.count())) +
           ",\"p50_ms\":" + Num(ToMillisDouble(rec.Percentile(50.0))) +
           ",\"p99_ms\":" + Num(ToMillisDouble(rec.Percentile(99.0))) + "}";
  }
  return out + "}";
}

// Chrome trace-event JSON (chrome://tracing or ui.perfetto.dev). pid 1 is host time, pid 2
// virtual time: one async span per root and the per-slice counters.
void WriteTrace(const std::string& path, const Tracer& t, const RepResult& r,
                const std::vector<RootFn>& fns) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out << "{\"traceEvents\":[\n";
  out << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"host\"}},\n";
  out << "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\",\"args\":{\"name\":\"virtual\"}}";
  for (const HostSpan& s : t.host_spans) {
    out << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":" << Quote(s.name)
        << ",\"ts\":" << Num(s.begin_s * 1e6) << ",\"dur\":" << Num((s.end_s - s.begin_s) * 1e6)
        << "}";
  }
  for (size_t i = 0; i < r.roots.size(); ++i) {
    const Root& root = r.roots[i];
    const char* outcome = root.end < 0 ? "incomplete" : (root.ok ? "ok" : "failed");
    SimTime end = root.end < 0 ? r.s1.now : root.end;
    std::string common = ",\"cat\":\"root\",\"pid\":2,\"tid\":1,\"id\":" + Num(i) +
                         ",\"name\":" + Quote(fns[root.fn].name);
    out << ",\n{\"ph\":\"b\"" << common << ",\"ts\":" << Num(ToSecondsDouble(root.due) * 1e6)
        << ",\"args\":{\"outcome\":\"" << outcome
        << "\",\"measured\":" << (root.measured ? "true" : "false") << "}}";
    out << ",\n{\"ph\":\"e\"" << common << ",\"ts\":" << Num(ToSecondsDouble(end) * 1e6)
        << "}";
  }
  for (const CounterRow& c : t.rows) {
    out << ",\n{\"ph\":\"C\",\"pid\":2,\"name\":\"layers\",\"ts\":"
        << Num(ToSecondsDouble(c.now) * 1e6) << ",\"args\":{\"events\":" << c.events
        << ",\"inflight_roots\":" << c.inflight_roots << ",\"log_appends\":" << c.log_appends
        << ",\"log_reads\":" << c.log_reads << ",\"kv_reads\":" << c.kv_reads
        << ",\"kv_writes\":" << c.kv_writes << ",\"journal_bytes\":" << c.journal_bytes
        << ",\"tracking_entries\":" << c.tracking_entries
        << ",\"worker_queue_max\":" << c.worker_queue_max << ",\"rss_mb\":" << Num(c.rss_mb)
        << "}}";
  }
  out << "\n]}\n";
}

void AddPerLayer(MetricSet& m, const RepResult& r, const Tracer& t,
                 const std::vector<RepResult>& untraced, const std::vector<RepResult>& all,
                 double overhead_pct) {
  const Snapshot& a = r.s0;
  const Snapshot& b = r.s1;
  const double roots = static_cast<double>(r.roots_measured);
  auto per_inv = [roots](int64_t delta) { return Ratio(static_cast<double>(delta), roots); };
  const int64_t events = b.events - a.events;

  std::vector<double> ns_per_event;
  for (const RepResult& u : untraced) {
    ns_per_event.push_back(u.window_s * 1e9 / static_cast<double>(u.s1.events - u.s0.events));
  }
  m.Add("sim.events_per_inv", per_inv(events), "count/inv");
  m.Add("sim.host_ns_per_event", Median(ns_per_event), "ns");

  m.Add("core.attempts_per_inv", per_inv(b.rt.attempts - a.rt.attempts), "count/inv");
  m.Add("core.crashes_per_inv", per_inv(b.rt.crashes - a.rt.crashes), "count/inv");
  m.Add("core.peers_per_inv", per_inv(b.rt.peer_instances - a.rt.peer_instances), "count/inv");
  m.Add("core.gc_scans", static_cast<double>(b.gc.scans - a.gc.scans), "count");
  m.Add("core.gc_trimmed_per_inv",
        per_inv((b.gc.step_logs_trimmed - a.gc.step_logs_trimmed) +
                (b.gc.write_records_trimmed - a.gc.write_records_trimmed) +
                (b.gc.init_records_trimmed - a.gc.init_records_trimmed) +
                (b.gc.versions_deleted - a.gc.versions_deleted)),
        "count/inv");

  m.Add("runtime.tracking_entries_max", static_cast<double>(t.tracking_entries_max), "count");
  m.Add("runtime.worker_queue_max", static_cast<double>(t.worker_queue_max), "count");
  m.Add("runtime.prop_commits_per_tick",
        Ratio(static_cast<double>(b.prop_commits - a.prop_commits),
              static_cast<double>(b.prop_ticks - a.prop_ticks)),
        "count");

  const int64_t cond = b.log.cond_appends - a.log.cond_appends;
  const int64_t reads = LogReads(b.log) - LogReads(a.log);
  m.Add("sharedlog.appends_per_inv", per_inv(b.log.appends - a.log.appends), "count/inv");
  m.Add("sharedlog.cond_appends_per_inv", per_inv(cond), "count/inv");
  m.Add("sharedlog.cond_conflict_frac",
        Ratio(static_cast<double>(b.log.cond_append_conflicts - a.log.cond_append_conflicts),
              static_cast<double>(cond)),
        "frac");
  m.Add("sharedlog.reads_per_inv", per_inv(reads), "count/inv");
  m.Add("sharedlog.storage_read_frac",
        Ratio(static_cast<double>(b.log.reads_storage - a.log.reads_storage),
              static_cast<double>(reads)),
        "frac");
  m.Add("sharedlog.batch_occupancy",
        Ratio(static_cast<double>(b.log.batched_requests - a.log.batched_requests),
              static_cast<double>(b.log.append_rounds - a.log.append_rounds)),
        "count");
  m.Add("sharedlog.protocol_bytes_per_inv", per_inv(ProtocolBytes(b.log) - ProtocolBytes(a.log)),
        "B/inv");
  m.Add("sharedlog.control_bytes_per_inv",
        per_inv(b.log.appended_bytes_by_class[0] - a.log.appended_bytes_by_class[0]), "B/inv");

  const int64_t kv_reads = KvReads(b.kv) - KvReads(a.kv);
  const int64_t kv_writes = KvWrites(b.kv) - KvWrites(a.kv);
  m.Add("kvstore.reads_per_inv", per_inv(kv_reads), "count/inv");
  m.Add("kvstore.writes_per_inv", per_inv(kv_writes), "count/inv");
  m.Add("kvstore.cond_reject_frac",
        Ratio(static_cast<double>(b.kv.cond_write_rejects - a.kv.cond_write_rejects),
              static_cast<double>(b.kv.cond_writes - a.kv.cond_writes)),
        "frac");

  const int64_t journal_bytes = b.journal_bytes - a.journal_bytes;
  const int64_t flushes = b.journal_flushes - a.journal_flushes;
  m.Add("storage.journal_bytes_per_inv", per_inv(journal_bytes), "B/inv");
  m.Add("storage.flushes_per_inv", per_inv(flushes), "count/inv");
  m.Add("storage.frames_per_flush",
        Ratio(static_cast<double>(b.journal_frames - a.journal_frames),
              static_cast<double>(flushes)),
        "count");
  m.Add("storage.write_amp",
        Ratio(static_cast<double>(b.device_bytes - a.device_bytes),
              static_cast<double>(journal_bytes)),
        "ratio");
  m.Add("storage.ckpt_rounds",
        static_cast<double>(b.ckpt.rounds_completed - a.ckpt.rounds_completed), "count");
  m.Add("storage.ckpt_bytes_truncated",
        static_cast<double>(b.ckpt.journal_bytes_truncated - a.ckpt.journal_bytes_truncated),
        "B");

  m.Add("op.read.p50_ms", ToMillisDouble(r.read_flow.Percentile(50.0)), "ms");
  m.Add("op.read.p99_ms", ToMillisDouble(r.read_flow.Percentile(99.0)), "ms");
  m.Add("op.write.p50_ms", ToMillisDouble(r.write_flow.Percentile(50.0)), "ms");
  m.Add("op.write.p99_ms", ToMillisDouble(r.write_flow.Percentile(99.0)), "ms");
  m.Add("workloads.roots_measured", roots, "count");

  // Workload property census. Instances per root counts SSF instances (root plus callees):
  // attempts minus peers minus crash retries. It is exact when no peer crashes, which
  // holds except for rare cases on the faulted workload.
  const double census_reads = static_cast<double>(kv_reads);
  m.Add("census.read_share", Ratio(census_reads, census_reads + static_cast<double>(kv_writes)),
        "frac");
  m.Add("census.instances_per_root",
        per_inv((b.rt.attempts - a.rt.attempts) - (b.rt.peer_instances - a.rt.peer_instances) -
                (b.rt.crashes - a.rt.crashes)),
        "count/inv");
  m.Add("census.keyspace_objects", static_cast<double>(r.keyspace_objects), "count");

  std::vector<double> cluster_s, populate_s, warmup_s;
  for (const RepResult& x : all) {
    cluster_s.push_back(x.cluster_s);
    populate_s.push_back(x.populate_s);
    warmup_s.push_back(x.warmup_s);
  }
  m.Add("setup.cluster_s", Median(cluster_s), "s");
  m.Add("setup.populate_s", Median(populate_s), "s");
  m.Add("setup.warmup_s", Median(warmup_s), "s");
  m.Add("trace.overhead_pct", overhead_pct, "%");
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;
  bool short_mode = false;
  std::optional<core::ProtocolKind> protocol;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: e2e --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out <dir>] [--short] [--protocol unsafe]\n",
               why);
  std::exit(2);
}

uint64_t ParseUnsigned(const char* s, const char* what) {
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno != 0 || s[0] == '-') Usage(what);
  return v;
}

Options ParseOptions(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = ParseUnsigned(value(), "--seed must be a non-negative integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(ParseUnsigned(value(), "--seconds must be an integer"));
      if (o.seconds < 1) Usage("--seconds must be at least 1");
      have_seconds = true;
    } else if (flag == "--trace") {
      std::string v = value();
      if (v != "0" && v != "1") Usage("--trace must be 0 or 1");
      o.trace = v == "1";
      have_trace = true;
    } else if (flag == "--out") {
      o.out_dir = value();
    } else if (flag == "--short") {
      o.short_mode = true;
    } else if (flag == "--protocol") {
      if (std::string(value()) != "unsafe") Usage("--protocol accepts only 'unsafe'");
      o.protocol = core::ProtocolKind::kUnsafe;
    } else {
      Usage(("unknown argument " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  return o;
}

int Main(int argc, char** argv) {
  Options opt = ParseOptions(argc, argv);
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : Workloads()) {
    if (opt.workload == w.name) spec = &w;
  }
  if (spec == nullptr) Usage(("unknown workload " + opt.workload).c_str());
  const core::ProtocolKind protocol = opt.protocol.value_or(spec->protocol);
  // Short mode (the benchmark's own test) shrinks the window tenfold.
  const SimDuration window = opt.short_mode ? spec->window / 10 : spec->window;
  const SimDuration warmup = opt.short_mode ? kWarmup / 4 : kWarmup;

  SpeedProbe probe;
  const Clock::time_point start = Clock::now();
  auto elapsed = [&start]() { return SecondsBetween(start, Clock::now()); };
  std::vector<RepResult> untraced;
  std::vector<RepResult> traced;
  std::vector<double> overhead;
  Tracer tracer;
  // Peak RSS of one workload execution: later reps reuse freed memory, and allocator
  // fragmentation across reps would only add noise to the peak.
  double first_rep_peak_rss_mb = 0;
  auto run_rep = [&](bool with_trace) {
    Tracer* t = nullptr;
    if (with_trace) {
      tracer = Tracer{};
      t = &tracer;
    }
    RepResult r = Rep(*spec, protocol, opt.seed, window, warmup, &probe, t).Execute();
    std::fprintf(stderr,
                 "rep %zu%s: probe %.1f us; normalized setup %.4f s, window %.4f s, "
                 "%.0f roots/s\n",
                 untraced.size() + traced.size(), with_trace ? " (traced)" : "",
                 r.probe_s * 1e6, r.setup_s(), r.window_s,
                 static_cast<double>(r.roots_measured) / r.window_s);
    if (untraced.empty() && traced.empty()) first_rep_peak_rss_mb = PeakRssMb();
    (with_trace ? traced : untraced).push_back(std::move(r));
  };
  // Reps continue while another one is expected to fit in the time budget.
  if (!opt.trace) {
    do {
      run_rep(false);
    } while (elapsed() * (untraced.size() + 1) / untraced.size() <= opt.seconds);
  } else {
    // Untraced/traced pairs, alternating which runs first.
    do {
      bool traced_first = traced.size() % 2 == 1;
      run_rep(traced_first);
      run_rep(!traced_first);
      overhead.push_back((traced.back().window_s / untraced.back().window_s - 1.0) * 100.0);
    } while (elapsed() * (traced.size() + 1) / traced.size() <= opt.seconds);
  }

  std::vector<RepResult> all = untraced;
  all.insert(all.end(), traced.begin(), traced.end());
  const RepResult& first = untraced.front();
  bool deterministic = true;
  for (const RepResult& r : all) {
    if (r.fingerprint != first.fingerprint || r.sim != first.sim) deterministic = false;
  }
  if (!deterministic) {
    std::fprintf(stderr, "error: reps of one seed did not simulate the identical execution\n");
  }
  const bool correct = deterministic && first.failed_total == 0;

  MetricSet m;
  if (!opt.trace) {
    m.Add("sim_p50_ms", first.sim.at("sim_p50_ms"), "ms");
    m.Add("sim_p99_ms", first.sim.at("sim_p99_ms"), "ms");
    m.Add("sim_p999_ms", first.sim.at("sim_p999_ms"), "ms");
    m.Add("sim_goodput_rps", first.sim.at("sim_goodput_rps"), "1/s");
    m.Add("ok_frac", first.sim.at("ok_frac"), "frac");
    m.Add("logged_bytes_per_inv", first.sim.at("logged_bytes_per_inv"), "B/inv");
    std::vector<double> inv_per_s, setup_s;
    for (const RepResult& r : untraced) {
      inv_per_s.push_back(static_cast<double>(r.roots_measured) / r.window_s);
      setup_s.push_back(r.setup_s());
    }
    m.Add("host_inv_per_s", Median(inv_per_s), "1/s");
    m.Add("peak_rss_mb", first_rep_peak_rss_mb, "MB");
    m.Add("setup_s", Median(setup_s), "s");
  } else {
    AddPerLayer(m, traced.back(), tracer, untraced, all, Median(overhead));
    if (!opt.out_dir.empty()) {
      std::string path = opt.out_dir + "/trace-" + spec->name + ".json";
      WriteTrace(path, tracer, traced.back(), RootFns(spec->app));
      std::fprintf(stderr, "trace written to %s\n", path.c_str());
    }
  }

  // Raw host figures next to the normalized metrics, for reading them on another host.
  std::vector<double> probe_us, raw_inv_per_s;
  for (const RepResult& r : all) {
    probe_us.push_back(r.probe_s * 1e6);
    raw_inv_per_s.push_back(static_cast<double>(r.roots_measured) * r.speed / r.window_s);
  }
  const std::string host = "{\"probe_us\":" + Num(Median(probe_us)) +
                           ",\"raw_inv_per_s\":" + Num(Median(raw_inv_per_s)) +
                           ",\"probe_nominal_us\":" + Num(kProbeNominalS * 1e6) +
                           ",\"probe_checksum\":" + Num(static_cast<double>(probe.checksum())) +
                           "}";

  std::printf(
      "{\"workload\":%s,\"seed\":%s,\"trace\":%d,\"reps\":%zu,\"correct\":%s,"
      "\"attempted\":%lld,\"failed\":%lld,\"metrics\":%s,\"checks\":%s,\"ops\":%s,"
      "\"fingerprint\":\"%016llx\",\"host\":%s,\"config\":%s,\"build\":%s}\n",
      Quote(spec->name).c_str(), Num(static_cast<double>(opt.seed)).c_str(), opt.trace ? 1 : 0,
      all.size(), correct ? "true" : "false", static_cast<long long>(first.roots_measured),
      static_cast<long long>(first.failed_measured), m.Json().c_str(),
      ChecksJson(first.checks, deterministic,
                 opt.trace ? "traced_identical" : "reps_identical")
          .c_str(),
      OpsJson(first).c_str(), static_cast<unsigned long long>(first.fingerprint), host.c_str(),
      ConfigJson(*spec, protocol, opt.seed, window, warmup).c_str(), BuildJson().c_str());
  return 0;
}

}  // namespace
}  // namespace halfmoon::perfbench

int main(int argc, char** argv) { return halfmoon::perfbench::Main(argc, argv); }
