// perfbench: measurement driver of the repository benchmark.
//
//   perfbench --workload <restore-matrix|burst|cluster> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Runs one workload through the simulator's public API, times it from outside
// with steady_clock, checks the simulated outputs, and prints one JSON
// document of raw measurements on stdout. perfbench/run.py builds this binary
// and turns the document into named metrics; perfbench/README.md describes the
// workloads and every metric.
//
// Two kinds of time are kept apart: host wall-clock (what the simulator costs
// to run) and simulated virtual time (the model's output, fields prefixed
// `sim`), which is deterministic per seed.
//
// Phases of a run:
//   set-up    a fresh world is built from the seed and timed, kSetupReps
//             times before the timed phase and kSetupReps times after it, so
//             the set-up times sample more than one moment of the run. The
//             first world also runs the reference: one untimed pass whose
//             simulated digest every later replay must reproduce.
//   timed     whole passes over the last world built before it, until
//             --seconds elapse and at least MinPasses() passes ran. Pass
//             1 gives the simulated statistics and the digest. With --trace 1
//             every second pass records spans around every public call, and
//             the untraced passes between them give the tracing overhead.
// A round of the calibration kernel runs before and after every set-up and
// after every kCalSegmentS of timed iterations, so run.py can follow the
// speed of a shared machine.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/json_writer.h"
#include "src/common/rng.h"
#include "src/runtime/platform.h"
#include "src/workloads/arrival_mix.h"
#include "src/workloads/function_spec.h"
#include "src/workloads/trace_generator.h"

namespace faasnap {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetupReps = 5;  // before and again after the timed phase
// Longest stretch of timed iterations between two calibration rounds.
constexpr double kCalSegmentS = 0.5;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Independent sub-seed number `stream` of `seed`.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return Rng(seed + 0x9e3779b97f4a7c15ULL * stream).NextU64();
}

// FNV-1a over the simulated results, so two commits can be compared by one
// number: a change to the simulator alone must leave it unchanged.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  void Add(std::string_view s) {
    for (char c : s) {
      hash_ = (hash_ ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    Add(static_cast<uint64_t>(s.size()));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Calibration kernel: a fixed amount of work that shares no code with the
// simulator but resembles its mix: sorting, a hash map, a binary heap,
// dependent loads over tables the size of a core's L2, and independent integer
// streams. On a shared host other tenants slow the simulator by up to 2x for
// seconds to minutes at a time; the kernel, timed between stretches of
// iterations on as many threads as they use, slows with it. run.py scales every timed-phase and set-up wall
// time by how fast the kernel ran next to it.

class Calibrator {
 public:
  // `max_threads` workspaces are allocated up front, so rounds allocate
  // nothing and do not add to the peak resident set from run to run.
  explicit Calibrator(int max_threads) : workspaces_(static_cast<size_t>(max_threads)) {
    Rng rng(0x5eed);
    for (size_t kib : {1024, 2048}) {
      // One random cycle through every 64-byte line of the table.
      const size_t lines = kib * 1024 / 64;
      std::vector<uint32_t> order(lines);
      for (size_t i = 0; i < lines; ++i) {
        order[i] = static_cast<uint32_t>(i);
      }
      for (size_t i = lines - 1; i > 0; --i) {
        std::swap(order[i], order[rng.NextU64() % i]);
      }
      std::vector<uint32_t> next(lines * kLineWords);
      for (size_t i = 0; i < lines; ++i) {
        next[order[i] * kLineWords] = order[(i + 1) % lines] * kLineWords;
      }
      tables_.push_back(std::move(next));
    }
    for (Workspace& w : workspaces_) {
      w.keys.resize(kKeys);
      w.slots.resize(kSlots);
      w.heap.reserve(kHeapPushes);
    }
  }

  // Wall seconds of one round of the kernel, run on `threads` threads at once
  // and averaged over them.
  double Measure(int threads) {
    if (threads <= 1) {
      return Round(&workspaces_[0]);
    }
    std::vector<double> seconds(static_cast<size_t>(threads));
    std::vector<std::thread> workers;
    for (size_t t = 0; t < seconds.size(); ++t) {
      workers.emplace_back([this, &seconds, t] { seconds[t] = Round(&workspaces_[t]); });
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
    double sum = 0;
    for (double s : seconds) {
      sum += s;
    }
    return sum / static_cast<double>(seconds.size());
  }

 private:
  static constexpr size_t kLineWords = 64 / sizeof(uint32_t);
  static constexpr size_t kKeys = 200000;
  static constexpr size_t kSlots = size_t{1} << 17;  // open-addressing table
  static constexpr size_t kHeapPushes = 100000;

  struct Workspace {
    std::vector<uint64_t> keys;
    std::vector<std::pair<uint64_t, uint64_t>> slots;
    std::vector<uint64_t> heap;
  };

  double Round(Workspace* w) {
    const auto start = Clock::now();
    Rng rng(0x5eed);
    for (uint64_t& key : w->keys) {
      key = rng.NextU64() | 1;  // 0 marks an empty slot
    }
    std::sort(w->keys.begin(), w->keys.end());
    uint64_t acc = 0;

    std::fill(w->slots.begin(), w->slots.end(), std::pair<uint64_t, uint64_t>{0, 0});
    const auto slot_of = [w](uint64_t key) {
      size_t i = (key * 0x9e3779b97f4a7c15ULL) >> 47;
      while (w->slots[i].first != 0 && w->slots[i].first != key) {
        i = (i + 1) % kSlots;
      }
      return i;
    };
    for (size_t i = 0; i < 60000; ++i) {
      const uint64_t key = w->keys[(i * 7919) % kKeys];
      w->slots[slot_of(key)] = {key, i};
    }
    for (size_t i = 0; i < 120000; ++i) {
      acc += w->slots[slot_of(w->keys[(i * 104729) % kKeys])].second;
    }

    w->heap.clear();
    for (size_t i = 0; i < kHeapPushes; ++i) {
      w->heap.push_back(w->keys[(i * 31) % kKeys] ^ i);
      std::push_heap(w->heap.begin(), w->heap.end(), std::greater<>());
      if (i % 3 == 2) {
        std::pop_heap(w->heap.begin(), w->heap.end(), std::greater<>());
        w->heap.pop_back();
      }
    }
    for (; !w->heap.empty(); w->heap.pop_back()) {
      acc += w->heap.front();
      std::pop_heap(w->heap.begin(), w->heap.end(), std::greater<>());
    }

    for (const std::vector<uint32_t>& table : tables_) {
      uint32_t at = 0;
      for (size_t i = 0; i < table.size() / kLineWords + 100000; ++i) {
        at = table[at];
      }
      acc += at;
    }

    uint64_t streams[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    for (int i = 0; i < 400000; ++i) {
      for (uint64_t& x : streams) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
      }
    }
    for (uint64_t x : streams) {
      acc += x;
    }
    sink_ += acc;
    return SecondsSince(start);
  }

  std::vector<std::vector<uint32_t>> tables_;
  std::vector<Workspace> workspaces_;
  std::atomic<uint64_t> sink_{0};  // keeps the results alive
};

// ---------------------------------------------------------------------------
// Span recorder: the benchmark's own spans around each public call. Spans are
// kept in memory and written out with the result document at exit. Disabled,
// it costs one branch per call site.

struct SpanRecord {
  int name = 0;
  int parent = -1;  // index into the record vector, -1 for a root span
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t iteration = 0;
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_iteration(int64_t iteration) { iteration_ = iteration; }

  int Begin(std::string_view name) {
    if (!enabled_) {
      return -1;
    }
    SpanRecord span;
    span.name = Intern(name);
    span.parent = open_.empty() ? -1 : open_.back();
    span.iteration = iteration_;
    span.start_ns = NowNs();
    records_.push_back(span);
    open_.push_back(static_cast<int>(records_.size()) - 1);
    return open_.back();
  }

  void End(int index) {
    if (index < 0) {
      return;
    }
    records_[index].end_ns = NowNs();
    FAASNAP_CHECK(!open_.empty() && open_.back() == index);
    open_.pop_back();
  }

  void AppendJson(JsonWriter* w) const {
    w->BeginObject();
    w->Key("names").BeginArray();
    for (const std::string& name : names_) {
      w->Value(name);
    }
    w->EndArray();
    // [name, parent, start_ns, end_ns, iteration] per span.
    w->Key("records").BeginArray();
    for (const SpanRecord& r : records_) {
      w->BeginArray()
          .Value(static_cast<int64_t>(r.name))
          .Value(static_cast<int64_t>(r.parent))
          .Value(r.start_ns)
          .Value(r.end_ns)
          .Value(r.iteration)
          .EndArray();
    }
    w->EndArray();
    w->EndObject();
  }

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }
  int Intern(std::string_view name) {
    for (size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) {
        return static_cast<int>(i);
      }
    }
    names_.emplace_back(name);
    return static_cast<int>(names_.size()) - 1;
  }

  Clock::time_point origin_;
  bool enabled_ = false;
  int64_t iteration_ = 0;
  std::vector<std::string> names_;
  std::vector<SpanRecord> records_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string_view name)
      : recorder_(recorder), index_(recorder->Begin(name)) {}
  ~ScopedSpan() { recorder_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

// ---------------------------------------------------------------------------
// Simulated statistics of pass 1 (deterministic per seed), read from public
// accessors only: InvocationReport, BlockDevice::stats, processed_events and
// ClusterStats.

struct SimStats {
  int64_t invocations = 0;
  std::vector<double> latency_ms;  // per invocation (restore-matrix, burst)
  uint64_t events = 0;
  uint64_t traces = 0;     // generated invocation traces
  uint64_t trace_ops = 0;  // page accesses in them
  int64_t faults[static_cast<int>(FaultClass::kClassCount)] = {};
  double fault_wait_ms = 0;
  double fetch_ms = 0;
  double setup_ms = 0;
  uint64_t mmap_calls = 0;
  uint64_t read_requests = 0;
  uint64_t merged_requests = 0;
  double demand_wait_ms = 0;
  // cluster, summed over the scenarios of pass 1
  int64_t scenarios = 0;
  int64_t misses = 0;
  int64_t epochs = 0;
  RouterStats routing;
  Log2Histogram accepted_latency{Duration::Micros(1), /*num_buckets=*/21};

  void AddReport(const InvocationReport& r) {
    ++invocations;
    latency_ms.push_back(r.total_time().millis());
    for (int c = 0; c < static_cast<int>(FaultClass::kClassCount); ++c) {
      faults[c] += r.faults.counts[c];
    }
    fault_wait_ms += r.faults.total_wait_time.millis();
    fetch_ms += r.fetch_time.millis();
    setup_ms += r.setup_time.millis();
    mmap_calls += r.mmap_calls;
  }

  void AddDisk(const BlockDeviceStats& delta) {
    read_requests += delta.read_requests;
    merged_requests += delta.merged_requests;
    demand_wait_ms += delta.demand_wait_ns.millis();
  }

  void AppendJson(JsonWriter* w) const {
    std::vector<double> sorted = latency_ms;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = [&sorted](double q) {
      if (sorted.empty()) {
        return 0.0;
      }
      // Nearest-rank quantile: an actual sample, so it is exact per seed.
      const size_t i = static_cast<size_t>(q * static_cast<double>(sorted.size()));
      return sorted[std::min(i, sorted.size() - 1)];
    };
    // Cluster latencies come from the merged histogram of accepted work;
    // every restore-matrix/burst invocation is a restore, i.e. a cold start.
    const bool cluster = scenarios > 0;
    w->BeginObject()
        .Field("invocations", invocations)
        .Field("latency_ms_p50",
               cluster ? accepted_latency.EstimateQuantile(0.50).millis() : rank(0.50))
        .Field("latency_ms_p99",
               cluster ? accepted_latency.EstimateQuantile(0.99).millis() : rank(0.99))
        .Field("cold_start_rate",
               cluster && invocations > 0
                   ? static_cast<double>(misses) / static_cast<double>(invocations)
                   : 1.0)
        .Field("events", events)
        .Field("traces", traces)
        .Field("trace_ops", trace_ops);
    w->Key("faults").BeginObject();
    for (int c = 0; c < static_cast<int>(FaultClass::kClassCount); ++c) {
      w->Field(std::string(FaultClassName(static_cast<FaultClass>(c))), faults[c]);
    }
    w->EndObject();
    w->Field("fault_wait_ms", fault_wait_ms)
        .Field("fetch_ms", fetch_ms)
        .Field("setup_ms", setup_ms)
        .Field("mmap_calls", mmap_calls)
        .Field("read_requests", read_requests)
        .Field("merged_requests", merged_requests)
        .Field("demand_wait_ms", demand_wait_ms)
        .Field("scenarios", scenarios)
        .Field("epochs", epochs)
        .Field("routed", routing.routed)
        .Field("warm_routes", routing.warm_routes)
        .Field("cached_routes", routing.cached_routes)
        .Field("spills", routing.spills)
        .EndObject();
  }
};

void DigestReport(Digest* d, const InvocationReport& r) {
  d->Add(r.function);
  d->Add(r.mode);
  d->Add(r.OutcomeTag());
  d->Add(static_cast<uint64_t>(r.setup_time.nanos()));
  d->Add(static_cast<uint64_t>(r.invocation_time.nanos()));
  for (int64_t count : r.faults.counts) {
    d->Add(static_cast<uint64_t>(count));
  }
  d->Add(static_cast<uint64_t>(r.faults.total_wait_time.nanos()));
  d->Add(static_cast<uint64_t>(r.fetch_time.nanos()));
  d->Add(r.fetch_bytes.value());
  d->Add(r.mmap_calls);
  d->Add(r.disk.read_requests);
  d->Add(r.disk.bytes_read);
}

// What one iteration did, for the wall-clock metrics and the output checks.
struct IterationResult {
  int64_t attempted = 0;    // invocations offered
  int64_t completed = 0;    // simulated invocations that ran to completion
  int64_t failed = 0;       // shed or non-ok
  uint64_t events = 0;      // simulation events fired (0 when not observable)
  std::string violation;    // non-empty: an output check failed
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds a fresh world from the seed (the timed set-up).
  virtual void Setup() = 0;
  virtual size_t IterationsPerPass() const = 0;
  // Passes every untraced run makes at least. run.py picks the tail
  // percentile for this many passes, so the percentile does not depend on
  // the speed of the machine.
  virtual size_t MinPasses() const = 0;
  // Runs iteration `index` of a pass on the current world. With `stats`
  // non-null (pass 1) the simulated results are also accumulated there and
  // into `digest`.
  virtual IterationResult Iterate(size_t index, SimStats* stats, Digest* digest) = 0;
  // Called after the first set-up: records what same-seed replays must
  // reproduce. By default, the digest of one untimed pass.
  virtual void RecordReference() {
    Digest digest;
    SimStats scratch;
    for (size_t i = 0; i < IterationsPerPass(); ++i) {
      const IterationResult r = Iterate(i, &scratch, &digest);
      if (!r.violation.empty() && reference_violation_.empty()) {
        reference_violation_ = "reference pass: " + r.violation;
      }
    }
    reference_ = digest.value();
  }
  // Empty, or why pass 1 of the timed phase did not reproduce the reference.
  virtual std::string ReplayViolation(uint64_t pass1_digest) const {
    if (!reference_violation_.empty() || pass1_digest == reference_) {
      return reference_violation_;
    }
    return "pass 1 digest " + Hex(pass1_digest) + " differs from the reference replay " +
           Hex(reference_);
  }
  // Wall seconds of each serial reference scenario (cluster only).
  virtual std::vector<double> serial_scenario_s() const { return {}; }
  // Traced runs only: per-iteration replay of public calls the library makes
  // internally, where the benchmark cannot wrap them (cluster only). With
  // `stats` non-null the generated traces are also counted there.
  virtual void Probe(SimStats* /*stats*/) {}
  virtual int threads() const { return 1; }

 private:
  uint64_t reference_ = 0;
  std::string reference_violation_;
};

WorkloadInput SeededInput(const FunctionSpec& spec, const InputProfile& profile,
                          uint64_t content_seed) {
  WorkloadInput input = MakeInputA(spec);
  input.profile = profile;
  if (!spec.fixed_input) {
    input.content_seed = content_seed;
  }
  return input;
}

// ---------------------------------------------------------------------------
// restore-matrix: one host, closed loop, one invocation at a time. Every
// Table 2 function is recorded with input A in set-up; each iteration drops
// the page cache and invokes one (function, mode) cell with input B.

constexpr RestoreMode kMatrixModes[] = {RestoreMode::kFirecracker, RestoreMode::kReap,
                                        RestoreMode::kFaasnap, RestoreMode::kCached};

class RestoreMatrix : public Workload {
 public:
  RestoreMatrix(uint64_t seed, SpanRecorder* spans) : seed_(seed), spans_(spans) {}

  void Setup() override {
    PlatformConfig config;
    config.seed = SubSeed(seed_, 1);
    platform_ = std::make_unique<Platform>(config);
    functions_.clear();
    const std::vector<FunctionSpec>& catalog = FunctionCatalog();
    for (size_t f = 0; f < catalog.size(); ++f) {
      const FunctionSpec& spec = catalog[f];
      auto fn = std::make_unique<Function>(spec, config.layout);
      fn->test_input = SeededInput(spec, spec.input_b, SubSeed(seed_, 100 + 2 * f + 1));
      const WorkloadInput record_input =
          SeededInput(spec, spec.input_a, SubSeed(seed_, 100 + 2 * f));
      ScopedSpan span(spans_, "core.record");
      fn->snapshot = platform_->Record(fn->generator, record_input);
      functions_.push_back(std::move(fn));
    }
  }

  size_t IterationsPerPass() const override {
    return functions_.size() * std::size(kMatrixModes);
  }
  size_t MinPasses() const override { return 5; }  // p90 over >= 240

  IterationResult Iterate(size_t index, SimStats* stats, Digest* digest) override {
    const Function& fn = *functions_[index / std::size(kMatrixModes)];
    const RestoreMode mode = kMatrixModes[index % std::size(kMatrixModes)];
    {
      ScopedSpan span(spans_, "mem.drop_caches");
      platform_->DropCaches();
    }
    InvocationTrace trace;
    {
      ScopedSpan span(spans_, "workloads.generate");
      trace = fn.generator.Generate(fn.test_input);
    }
    const uint64_t trace_ops = trace.access_count();
    const uint64_t events_before = platform_->sim()->processed_events();
    const BlockDeviceStats disk_before = platform_->disk()->stats();
    InvocationReport report;
    bool done = false;
    {
      ScopedSpan span(spans_, "runtime.invoke");
      platform_->InvokeAsync(fn.snapshot, mode, std::move(trace), [&](InvocationReport r) {
        report = std::move(r);
        done = true;
      });
      platform_->sim()->Run();
    }
    IterationResult result;
    result.attempted = 1;
    result.events = platform_->sim()->processed_events() - events_before;
    if (!done) {
      result.violation = fn.generator.spec().name + ": invocation did not complete";
      return result;
    }
    result.completed = 1;
    if (report.outcome != InvocationOutcome::kOk) {
      result.failed = 1;
      result.violation = fn.generator.spec().name + "/" + std::string(RestoreModeName(mode)) +
                         ": report is " + report.OutcomeTag() + ", not ok";
    }
    if (stats != nullptr) {
      stats->AddReport(report);
      stats->AddDisk(platform_->disk()->stats() - disk_before);
      stats->events += result.events;
      stats->traces += 1;
      stats->trace_ops += trace_ops;
      DigestReport(digest, report);
    }
    return result;
  }

 private:
  struct Function {
    Function(const FunctionSpec& spec, const GuestLayout& layout) : generator(spec, layout) {}
    TraceGenerator generator;
    FunctionSnapshot snapshot;
    WorkloadInput test_input;
  };

  uint64_t seed_;
  SpanRecorder* spans_;
  std::unique_ptr<Platform> platform_;
  std::vector<std::unique_ptr<Function>> functions_;
};

// ---------------------------------------------------------------------------
// burst: one host, Figure 10 style. Each iteration takes one function,
// snapshot sharing and mode, fires a 16-way burst of simultaneous InvokeAsync
// calls, drives the simulation until all complete, then does the same 64-way.
// "same" bursts share one snapshot (and so page-cache reads); "different"
// bursts restore one snapshot per request. Pairing the two sizes in one
// iteration keeps the iteration-time median inside one population instead of
// on the gap between the 16-way and 64-way ones.

constexpr RestoreMode kBurstModes[] = {RestoreMode::kFirecracker, RestoreMode::kReap,
                                       RestoreMode::kFaasnap};
constexpr size_t kBurstSizes[] = {16, 64};
constexpr size_t kMaxBurst = 64;

class Burst : public Workload {
 public:
  Burst(uint64_t seed, SpanRecorder* spans) : seed_(seed), spans_(spans) {}

  void Setup() override {
    PlatformConfig config;
    config.seed = SubSeed(seed_, 2);
    platform_ = std::make_unique<Platform>(config);
    groups_.clear();
    for (const char* name : {"json", "hello-world"}) {
      Result<FunctionSpec> spec = FindFunction(name);
      FAASNAP_CHECK_OK(spec.status());
      for (bool same : {true, false}) {
        auto group = std::make_unique<Group>(*spec, config.layout);
        const WorkloadInput record_input = MakeInputA(*spec);
        for (size_t i = 0; i < (same ? 1 : kMaxBurst); ++i) {
          ScopedSpan span(spans_, "core.record");
          group->snapshots.push_back(platform_->Record(group->generator, record_input));
        }
        const uint64_t group_seed = SubSeed(seed_, 200 + groups_.size());
        for (size_t i = 0; i < kMaxBurst; ++i) {
          group->inputs.push_back(SeededInput(*spec, spec->input_a, SubSeed(group_seed, i)));
        }
        groups_.push_back(std::move(group));
      }
    }
  }

  size_t IterationsPerPass() const override { return groups_.size() * std::size(kBurstModes); }
  size_t MinPasses() const override { return 9; }  // p90 over >= 108

  IterationResult Iterate(size_t index, SimStats* stats, Digest* digest) override {
    const Group& group = *groups_[index / std::size(kBurstModes)];
    const RestoreMode mode = kBurstModes[index % std::size(kBurstModes)];
    IterationResult result;
    for (size_t size : kBurstSizes) {
      RunBurst(group, mode, size, stats, digest, &result);
    }
    return result;
  }

 private:
  struct Group {
    Group(const FunctionSpec& spec, const GuestLayout& layout) : generator(spec, layout) {}
    TraceGenerator generator;
    std::vector<FunctionSnapshot> snapshots;  // 1 (same) or kMaxBurst (different)
    std::vector<WorkloadInput> inputs;        // kMaxBurst; smaller bursts use a prefix
  };

  void RunBurst(const Group& group, RestoreMode mode, size_t size, SimStats* stats,
                Digest* digest, IterationResult* result) {
    {
      ScopedSpan span(spans_, "mem.drop_caches");
      platform_->DropCaches();
    }
    std::vector<InvocationTrace> traces;
    traces.reserve(size);
    uint64_t trace_ops = 0;
    for (size_t i = 0; i < size; ++i) {
      {
        ScopedSpan span(spans_, "workloads.generate");
        traces.push_back(group.generator.Generate(group.inputs[i]));
      }
      trace_ops += traces.back().access_count();
    }
    const uint64_t events_before = platform_->sim()->processed_events();
    const BlockDeviceStats disk_before = platform_->disk()->stats();
    std::vector<InvocationReport> reports(size);
    std::vector<bool> done(size, false);
    {
      ScopedSpan span(spans_, "runtime.invoke");
      for (size_t i = 0; i < size; ++i) {
        const FunctionSnapshot& snapshot = group.snapshots[i % group.snapshots.size()];
        platform_->InvokeAsync(snapshot, mode, std::move(traces[i]),
                               [&reports, &done, i](InvocationReport r) {
                                 reports[i] = std::move(r);
                                 done[i] = true;
                               });
      }
      platform_->sim()->Run();
    }
    const uint64_t events = platform_->sim()->processed_events() - events_before;
    result->attempted += static_cast<int64_t>(size);
    result->events += events;
    for (size_t i = 0; i < size; ++i) {
      if (!done[i]) {
        result->failed++;
        result->violation = "a burst did not complete all invocations";
        continue;
      }
      result->completed++;
      if (reports[i].outcome != InvocationOutcome::kOk) {
        result->failed++;
        result->violation = "a burst invocation is " + reports[i].OutcomeTag() + ", not ok";
      }
    }
    if (stats != nullptr) {
      for (const InvocationReport& r : reports) {
        stats->AddReport(r);
        DigestReport(digest, r);
      }
      stats->AddDisk(platform_->disk()->stats() - disk_before);
      stats->events += events;
      stats->traces += size;
      stats->trace_ops += trace_ops;
    }
  }

  uint64_t seed_;
  SpanRecorder* spans_;
  std::unique_ptr<Platform> platform_;
  std::vector<std::unique_ptr<Group>> groups_;
};

// ---------------------------------------------------------------------------
// cluster: open-loop Poisson/Zipf arrivals over 8 functions on 4 hosts with
// locality routing. Each iteration builds the cluster, records per shard and
// serves one schedule; a pass serves kClusterSchedules seeded schedules, so
// the simulated statistics of pass 1 average over enough arrivals to be
// steady from seed to seed. Set-up samples the schedules and runs the serial
// (1-thread) reference of schedule 0; every later run of a schedule, at any
// thread count, must reproduce the first byte for byte.

constexpr size_t kClusterHosts = 4;
constexpr size_t kClusterSchedules = 16;
constexpr int kClusterArrivals = 160;  // per schedule
constexpr double kClusterZipfS = 1.2;

// Least popular last: Zipf ranks follow this order.
const std::vector<std::string>& ClusterFunctions() {
  static const std::vector<std::string> kFunctions = {
      "hello-world", "json", "pyaes", "compression", "image", "chameleon", "matmul", "pagerank"};
  return kFunctions;
}

class Cluster : public Workload {
 public:
  Cluster(uint64_t seed, SpanRecorder* spans)
      : seed_(seed),
        spans_(spans),
        threads_(static_cast<int>(std::min<size_t>(
            kClusterHosts, std::max(1u, std::thread::hardware_concurrency())))),
        pass1_jsons_(kClusterSchedules) {}

  void Setup() override {
    specs_.clear();
    for (const std::string& name : ClusterFunctions()) {
      Result<FunctionSpec> spec = FindFunction(name);
      FAASNAP_CHECK_OK(spec.status());
      specs_.push_back(*spec);
    }
    ArrivalMixConfig mix;
    mix.process = ArrivalProcess::kPoisson;
    mix.mean_gap = Duration::Millis(20);
    mix.zipf_s = kClusterZipfS;
    schedules_.clear();
    for (size_t k = 0; k < kClusterSchedules; ++k) {
      schedules_.push_back(
          SampleArrivalMix(specs_.size(), kClusterArrivals, mix, SubSeed(seed_, 1000 + k)));
    }
    const auto start = Clock::now();
    const std::string reference = Summary(Scenario(/*threads=*/1, schedules_[0]));
    serial_s_.push_back(SecondsSince(start));
    if (!reference_json_.empty() && reference != reference_json_) {
      setups_differ_ = true;
    }
    reference_json_ = reference;
  }

  size_t IterationsPerPass() const override { return kClusterSchedules; }
  size_t MinPasses() const override { return 3; }  // p75 over >= 48

  IterationResult Iterate(size_t index, SimStats* stats, Digest* digest) override {
    const ClusterStats cluster = Scenario(threads_, schedules_[index]);
    const std::string json = Summary(cluster);
    IterationResult result;
    result.attempted = cluster.arrivals;
    result.completed = cluster.invocations;
    result.failed = cluster.shed();
    for (const HostSchedulerStats& host : cluster.per_host) {
      result.failed += host.restore_failures;
    }
    if (stats != nullptr) {
      pass1_jsons_[index] = json;
    }
    if (cluster.arrivals != cluster.invocations + cluster.shed()) {
      result.violation = "arrivals != invocations + sheds";
    } else if (index == 0 && json != reference_json_) {
      result.violation = "parallel scenario differs from its serial replay";
    } else if (json != pass1_jsons_[index]) {
      result.violation = "a same-seed replay of a schedule differs from pass 1";
    }
    if (stats != nullptr) {
      stats->invocations += cluster.invocations;
      stats->misses += cluster.misses;
      stats->accepted_latency.Merge(cluster.accepted_latency);
      stats->epochs += static_cast<int64_t>(cluster.epochs);
      stats->scenarios += 1;
      stats->routing.routed += cluster.routing.routed;
      stats->routing.warm_routes += cluster.routing.warm_routes;
      stats->routing.cached_routes += cluster.routing.cached_routes;
      stats->routing.spills += cluster.routing.spills;
      digest->Add(json);
    }
    return result;
  }

  // Every set-up runs the serial reference of schedule 0, and Iterate
  // compares each scenario with it or with the schedule's pass-1 run.
  void RecordReference() override {}
  std::string ReplayViolation(uint64_t /*pass1_digest*/) const override {
    return setups_differ_ ? "same-seed serial set-up scenarios differ" : "";
  }
  std::vector<double> serial_scenario_s() const override { return serial_s_; }

  // Record and trace generation run inside ClusterSimulator, out of the
  // benchmark's reach. The probe makes the same public calls with the same
  // input profiles beside the scenario: one shard's records and one trace per
  // arrival of a schedule.
  void Probe(SimStats* stats) override {
    ScopedSpan root(spans_, "probe");
    ClusterConfig config = Config(1);
    Platform platform(config.platform);
    std::vector<TraceGenerator> generators;
    generators.reserve(specs_.size());
    for (const FunctionSpec& spec : specs_) {
      generators.emplace_back(spec, config.platform.layout);
      ScopedSpan span(spans_, "core.record");
      const FunctionSnapshot snapshot = platform.Record(generators.back(), MakeInputA(spec));
    }
    const std::vector<Arrival>& arrivals = schedules_[0];
    for (size_t i = 0; i < arrivals.size(); ++i) {
      const FunctionSpec& spec = specs_[arrivals[i].function_index];
      const WorkloadInput input = SeededInput(spec, spec.input_a, SubSeed(seed_, 300 + i));
      InvocationTrace trace;
      {
        ScopedSpan span(spans_, "workloads.generate");
        trace = generators[arrivals[i].function_index].Generate(input);
      }
      if (stats != nullptr) {
        stats->traces += 1;
        stats->trace_ops += trace.access_count();
      }
    }
  }

  int threads() const override { return threads_; }

 private:
  ClusterConfig Config(int threads) const {
    ClusterConfig config;
    config.hosts = kClusterHosts;
    config.worker_threads = threads;
    config.sync_quantum = Duration::Millis(5);
    // The larger functions do not fit a 64 MiB pool next to the small ones,
    // so placement decides how often the cluster cold-starts.
    config.host.warm_pool_budget_bytes = MiB(64);
    config.host.admission.max_concurrency = 4;
    config.host.admission.queue_capacity = 32;
    config.host.admission.queue_deadline = Duration::Seconds(5);
    config.router.policy = RoutingPolicy::kLocality;
    config.platform.seed = SubSeed(seed_, 4);
    return config;
  }

  ClusterStats Scenario(int threads, const std::vector<Arrival>& arrivals) {
    std::unique_ptr<ClusterSimulator> cluster;
    {
      ScopedSpan span(spans_, "cluster.build");
      cluster = std::make_unique<ClusterSimulator>(Config(threads));
    }
    for (const FunctionSpec& spec : specs_) {
      ScopedSpan span(spans_, "cluster.add_function");
      cluster->AddFunction(spec);
    }
    ScopedSpan span(spans_, "cluster.run");
    return cluster->Run(arrivals);
  }

  static std::string Summary(const ClusterStats& stats) {
    JsonWriter w;
    stats.AppendJson(&w);
    return w.TakeString();
  }

  uint64_t seed_;
  SpanRecorder* spans_;
  int threads_;
  std::vector<FunctionSpec> specs_;
  std::vector<std::vector<Arrival>> schedules_;
  std::string reference_json_;  // schedule 0, serial
  bool setups_differ_ = false;
  std::vector<std::string> pass1_jsons_;
  std::vector<double> serial_s_;
};

// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    char* end = nullptr;
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      options->trace = std::strcmp(value, "1") == 0;
      if (!options->trace && std::strcmp(value, "0") != 0) {
        return false;
      }
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      return false;
    }
  }
  return argc % 2 == 1 && !options->workload.empty() && options->seconds > 0;
}

struct Phase {
  std::vector<double> iter_ms;
  std::vector<double> pass_s;
  std::vector<int64_t> pass_completed;
  std::vector<double> iter_cal_s;  // calibration round time next to each iteration
  int64_t completed = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  uint64_t events = 0;
};

int Run(const Options& options) {
  SpanRecorder spans;
  std::unique_ptr<Workload> workload;
  if (options.workload == "restore-matrix") {
    workload = std::make_unique<RestoreMatrix>(options.seed, &spans);
  } else if (options.workload == "burst") {
    workload = std::make_unique<Burst>(options.seed, &spans);
  } else if (options.workload == "cluster") {
    workload = std::make_unique<Cluster>(options.seed, &spans);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }

  std::vector<std::string> violations;
  const auto check = [&violations](bool ok, const std::string& what) {
    if (!ok) {
      violations.push_back(what);
    }
  };

  // Calibration rounds before and after each set-up and each segment of
  // timed iterations; the document holds their mean per set-up and per
  // iteration. Set-up runs on one thread, the timed phase on
  // workload->threads().
  Calibrator calibrator(workload->threads());
  std::vector<double> setup_cal_s;

  // Set-up, traced like the timed phase so records get spans in traced runs.
  std::vector<double> setup_s;
  const auto set_up = [&] {
    const double cal_before = calibrator.Measure(1);
    spans.set_enabled(options.trace);
    spans.set_iteration(-1 - static_cast<int64_t>(setup_s.size()));
    const auto start = Clock::now();
    {
      ScopedSpan root(&spans, "setup");
      workload->Setup();
    }
    setup_s.push_back(SecondsSince(start));
    spans.set_enabled(false);
    setup_cal_s.push_back((cal_before + calibrator.Measure(1)) / 2);
  };
  for (int rep = 0; rep < kSetupReps; ++rep) {
    set_up();
    if (rep == 0) {
      workload->RecordReference();
    }
  }

  // Timed phase: whole passes until the budget is spent. Traced runs
  // alternate untraced and traced passes, so drift in machine speed hits both
  // alike and their difference is the tracing overhead.
  SimStats sim;
  Digest digest;
  Phase untraced;
  Phase traced;
  int64_t iteration = 0;
  bool probed = false;
  const size_t min_passes = options.trace ? 2 : workload->MinPasses();
  double cal_before = calibrator.Measure(workload->threads());
  const auto start = Clock::now();
  for (size_t pass = 0; pass < min_passes || SecondsSince(start) < options.seconds; ++pass) {
    const bool trace_pass = options.trace && pass % 2 == 1;
    Phase& phase = trace_pass ? traced : untraced;
    spans.set_enabled(trace_pass);
    const auto pass_start = Clock::now();
    const int64_t completed_before = phase.completed;
    auto segment_start = pass_start;
    double cal_in_pass_s = 0;
    for (size_t i = 0; i < workload->IterationsPerPass(); ++i) {
      spans.set_iteration(iteration++);
      const auto iter_start = Clock::now();
      IterationResult r;
      {
        ScopedSpan root(&spans, "iter");
        r = workload->Iterate(i, pass == 0 ? &sim : nullptr, &digest);
      }
      phase.iter_ms.push_back(SecondsSince(iter_start) * 1e3);
      check(r.violation.empty(), r.violation);
      phase.attempted += r.attempted;
      phase.completed += r.completed;
      phase.failed += r.failed;
      phase.events += r.events;
      if (trace_pass) {
        workload->Probe(probed ? nullptr : &sim);
        probed = true;
      }
      // Close the calibration segment after kCalSegmentS of iterations and
      // at the end of the pass; its iterations get the mean of the rounds at
      // its two ends. Rounds run outside the iteration and pass timers.
      if (i + 1 == workload->IterationsPerPass() || SecondsSince(segment_start) >= kCalSegmentS) {
        const auto cal_start = Clock::now();
        const double cal_after = calibrator.Measure(workload->threads());
        phase.iter_cal_s.resize(phase.iter_ms.size(), (cal_before + cal_after) / 2);
        cal_before = cal_after;
        cal_in_pass_s += SecondsSince(cal_start);
        segment_start = Clock::now();
      }
    }
    phase.pass_s.push_back(SecondsSince(pass_start) - cal_in_pass_s);
    phase.pass_completed.push_back(phase.completed - completed_before);
  }
  spans.set_enabled(false);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    set_up();
  }
  const std::string replay = workload->ReplayViolation(digest.value());
  check(replay.empty(), replay);
  // Keep the first instance of each violation; repeated ones only add noise.
  std::sort(violations.begin(), violations.end());
  violations.erase(std::unique(violations.begin(), violations.end()), violations.end());

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  JsonWriter w;
  w.BeginObject()
      .Field("workload", options.workload)
      .Field("seed", options.seed)
      .Field("trace", options.trace)
      .Field("threads", static_cast<int64_t>(workload->threads()))
      .Field("iterations_per_pass", static_cast<int64_t>(workload->IterationsPerPass()))
      .Field("min_passes", static_cast<int64_t>(workload->MinPasses()))
      .Field("digest", Hex(digest.value()))
      .Field("peak_rss_kib", static_cast<int64_t>(usage.ru_maxrss));
  w.Key("setup_s").BeginArray();
  for (double s : setup_s) {
    w.Value(s);
  }
  w.EndArray();
  const auto array_json = [&w](const char* key, const std::vector<double>& values) {
    w.Key(key).BeginArray();
    for (double v : values) {
      w.Value(v);
    }
    w.EndArray();
  };
  array_json("setup_cal_s", setup_cal_s);
  w.Key("serial_scenario_s").BeginArray();
  for (double s : workload->serial_scenario_s()) {
    w.Value(s);
  }
  w.EndArray();
  const auto phase_json = [&w](const char* key, const Phase& phase) {
    w.Key(key).BeginObject();
    w.Key("iter_ms").BeginArray();
    for (double ms : phase.iter_ms) {
      w.Value(ms);
    }
    w.EndArray();
    w.Key("pass_s").BeginArray();
    for (double sec : phase.pass_s) {
      w.Value(sec);
    }
    w.EndArray();
    w.Key("iter_cal_s").BeginArray();
    for (double sec : phase.iter_cal_s) {
      w.Value(sec);
    }
    w.EndArray();
    w.Key("pass_completed").BeginArray();
    for (int64_t n : phase.pass_completed) {
      w.Value(n);
    }
    w.EndArray();
    w.Field("attempted", phase.attempted)
        .Field("completed", phase.completed)
        .Field("failed", phase.failed)
        .Field("events", phase.events)
        .EndObject();
  };
  phase_json("timed", untraced);
  phase_json("traced", traced);
  w.Key("sim");
  sim.AppendJson(&w);
  w.Key("violations").BeginArray();
  for (const std::string& v : violations) {
    w.Value(v);
  }
  w.EndArray();
  w.Key("spans");
  spans.AppendJson(&w);
  w.EndObject();
  std::printf("%s\n", w.TakeString().c_str());
  return violations.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace faasnap

int main(int argc, char** argv) {
  faasnap::perfbench::Options options;
  if (!faasnap::perfbench::ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <restore-matrix|burst|cluster> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  return faasnap::perfbench::Run(options);
}
