#include "src/daemon/scenario.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <utility>

#include "src/common/json_writer.h"
#include "src/workloads/trace_generator.h"

namespace faasnap {

namespace {

// Typed reads of one JSON object's members. An absent key leaves its target
// unchanged. A present key of the wrong JSON type or outside the accepted
// range leaves it unchanged too and records InvalidArgument naming the key by
// its dotted path. Readers of nested objects share the first recorded error,
// so a parse reads every key and checks the error once. Each reader remembers
// the keys it looked up, so RejectUnknownKeys can name a misspelt one.
class FieldReader {
 public:
  FieldReader(const JsonValue& node, std::string path, Status* error)
      : node_(node), path_(std::move(path)), error_(error) {}

  void Fail(const std::string& key, const std::string& message) {
    if (error_->ok()) {
      *error_ = InvalidArgumentError(path_ + key + ": " + message);
    }
  }

  // This object's members.
  const JsonObject& members() const { return node_.object(); }

  bool Has(const char* key) { return Find(key) != nullptr; }

  // Fails on the first member no read has looked up: without this check a
  // misspelt key would run silently as its default.
  void RejectUnknownKeys() {
    for (const auto& [key, value] : members()) {
      if (looked_up_.count(key) == 0) {
        return Fail(key, "unknown key");
      }
    }
  }

  // A reader of `node` at this reader's path, sharing its error.
  FieldReader Over(const JsonValue& node) const { return FieldReader(node, path_, error_); }

  // The nested object at `key`; nullopt when absent or not an object.
  std::optional<FieldReader> Object(const char* key) {
    const JsonValue* v = Find(key);
    if (v == nullptr) {
      return std::nullopt;
    }
    if (!v->is_object()) {
      Fail(key, "must be an object");
      return std::nullopt;
    }
    return FieldReader(*v, path_ + key + ".", error_);
  }

  void Bool(const char* key, bool* out) {
    if (const JsonValue* v = Find(key)) {
      if (v->is_bool()) {
        *out = *v->AsBool();
      } else {
        Fail(key, "must be true or false");
      }
    }
  }

  void String(const char* key, std::string* out) {
    if (const JsonValue* v = Find(key)) {
      if (v->is_string()) {
        *out = *v->AsString();
      } else {
        Fail(key, "must be a string");
      }
    }
  }

  void Number(const char* key, double* out, double lo = -kInf, double hi = kInf) {
    if (const JsonValue* v = Find(key)) {
      if (v->is_number() && *v->AsDouble() >= lo && *v->AsDouble() <= hi) {
        *out = *v->AsDouble();
      } else {
        char range[64];
        std::snprintf(range, sizeof(range), "[%g, %g]", lo, hi);
        Fail(key, std::string("must be a number in ") + range);
      }
    }
  }

  // An integer in [lo, hi]; the default range is everything T holds.
  template <typename T>
  void Int(const char* key, T* out, int64_t lo = std::numeric_limits<T>::lowest(),
           int64_t hi = static_cast<int64_t>(
               std::min<uint64_t>(std::numeric_limits<T>::max(), INT64_MAX))) {
    if (std::optional<int64_t> i = Integer(key, lo, hi)) {
      *out = static_cast<T>(*i);
    }
  }

  // Unit-suffixed integers, bounded so the conversion cannot overflow.
  void Micros(const char* key, Duration* out, int64_t lo = 0) {
    if (std::optional<int64_t> i = Integer(key, lo, INT64_MAX / 1000)) {
      *out = Duration::Micros(*i);
    }
  }
  void Bytes(const char* key, ByteCount* out, uint64_t unit, int64_t lo = 0) {
    if (std::optional<int64_t> i = Integer(key, lo, static_cast<int64_t>(UINT64_MAX / unit))) {
      *out = ByteCount::FromBytes(static_cast<uint64_t>(*i) * unit);
    }
  }
  void Pages(const char* key, PageCount* out, int64_t lo = 0) {
    if (std::optional<int64_t> i = Integer(key, lo, UINT64_MAX / kPageSize)) {
      *out = PageCount::FromPages(static_cast<uint64_t>(*i));
    }
  }

  // A non-empty array of integers at `key`, each in [lo, hi].
  template <typename T>
  void IntList(const char* key, std::vector<T>* out, int64_t lo, int64_t hi) {
    const JsonValue* v = Find(key);
    if (v == nullptr) {
      return;
    }
    const std::string expected = "must be a non-empty array of integers in " + Range(lo, hi);
    if (!v->is_array() || v->array().empty()) {
      return Fail(key, expected);
    }
    std::vector<T> items;
    for (const JsonValue& item : v->array()) {
      std::optional<int64_t> i = InRange(item, lo, hi);
      if (!i.has_value()) {
        return Fail(key, expected);
      }
      items.push_back(static_cast<T>(*i));
    }
    *out = std::move(items);
  }

  // A string at `key` converted by `parse` (string -> Result<T>).
  template <typename T, typename ParseFn>
  void Parse(const char* key, T* out, ParseFn parse) {
    if (const JsonValue* v = Find(key)) {
      ParseItem(key, *v, out, parse);
    }
  }

  // A non-empty array of strings at `key`, each converted by `parse`.
  template <typename T, typename ParseFn>
  void List(const char* key, std::vector<T>* out, ParseFn parse) {
    const JsonValue* v = Find(key);
    if (v == nullptr) {
      return;
    }
    if (!v->is_array() || v->array().empty()) {
      return Fail(key, "must be a non-empty array");
    }
    std::vector<T> items(v->array().size());
    for (size_t i = 0; i < items.size(); ++i) {
      if (!ParseItem(key, v->array()[i], &items[i], parse)) {
        return;
      }
    }
    *out = std::move(items);
  }

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  const JsonValue* Find(const char* key) {
    looked_up_.insert(key);
    const JsonObject& members = node_.object();
    auto it = members.find(key);
    return it == members.end() ? nullptr : &it->second;
  }

  static std::string Range(int64_t lo, int64_t hi) {
    return "[" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
  }

  static std::optional<int64_t> InRange(const JsonValue& v, int64_t lo, int64_t hi) {
    Result<int64_t> i = v.AsInt();
    if (!i.ok() || *i < lo || *i > hi) {
      return std::nullopt;
    }
    return *i;
  }

  std::optional<int64_t> Integer(const char* key, int64_t lo, int64_t hi) {
    const JsonValue* v = Find(key);
    if (v == nullptr) {
      return std::nullopt;
    }
    std::optional<int64_t> i = InRange(*v, lo, hi);
    if (!i.has_value()) {
      Fail(key, "must be an integer in " + Range(lo, hi));
    }
    return i;
  }

  template <typename T, typename ParseFn>
  bool ParseItem(const char* key, const JsonValue& v, T* out, ParseFn parse) {
    if (!v.is_string()) {
      Fail(key, "must be a string");
      return false;
    }
    Result<T> parsed = parse(*v.AsString());
    if (!parsed.ok()) {
      Fail(key, parsed.status().message());
      return false;
    }
    *out = std::move(parsed).value();
    return true;
  }

  const JsonValue& node_;
  std::string path_;
  Status* error_;
  std::set<std::string> looked_up_;
};

Result<TestInputSpec> ParseTestInput(const std::string& text) {
  TestInputSpec spec;
  spec.label = text;
  if (text == "A" || text == "a") {
    spec.kind = TestInputSpec::Kind::kInputA;
    return spec;
  }
  if (text == "B" || text == "b") {
    spec.kind = TestInputSpec::Kind::kInputB;
    return spec;
  }
  // "0.5x", "2x", "4x": a Figure 8 ratio relative to input A.
  if (!text.empty() && (text.back() == 'x' || text.back() == 'X')) {
    const std::string number = text.substr(0, text.size() - 1);
    char* end = nullptr;
    const double ratio = std::strtod(number.c_str(), &end);
    if (end != nullptr && *end == '\0' && !number.empty()) {
      // Rejects NaN and infinity too.
      if (!(ratio > 0 && ratio <= kMaxInputRatio)) {
        char message[96];
        std::snprintf(message, sizeof(message), "input ratio %s must be in (0, %g]",
                      number.c_str(), kMaxInputRatio);
        return InvalidArgumentError(message);
      }
      spec.kind = TestInputSpec::Kind::kRatio;
      spec.ratio = ratio;
      return spec;
    }
  }
  return InvalidArgumentError("unknown input spec: " + text + " (use A, B, or e.g. 2x)");
}

Result<bool> ParseSnapshots(const std::string& text) {
  if (text == "shared" || text == "distinct") {
    return text == "distinct";
  }
  return InvalidArgumentError("must be shared or distinct");
}

Result<BlockDeviceProfile> ParseDevice(const std::string& name) {
  if (name == "nvme") {
    return NvmeSsdProfile();
  }
  if (name == "ebs") {
    return EbsIo2Profile();
  }
  return InvalidArgumentError("must be nvme or ebs");
}

Result<StorageTier> ParseTier(const std::string& name) {
  if (name == "local") {
    return StorageTier::kLocal;
  }
  if (name == "remote") {
    return StorageTier::kRemote;
  }
  return InvalidArgumentError("must be local or remote");
}

bool AnyRemote(const SnapshotPlacement& placement) {
  return placement.memory_files == StorageTier::kRemote ||
         placement.loading_set == StorageTier::kRemote ||
         placement.reap_ws == StorageTier::kRemote;
}

// Device, cores, guest vCPUs, FaaSnap tunables, disk scheduler, loader,
// readahead, fault path, snapshot placement and chaos.
void ReadPlatform(FieldReader& in, uint64_t base_seed, PlatformConfig* out) {
  in.Parse("device", &out->disk, ParseDevice);
  in.Int("host_cores", &out->host_cores, 1);
  in.Int("vcpus", &out->guest.vcpus, 1, kMaxGuestVcpus);
  in.Int("ws_group_size", &out->ws_group_size, 1);
  in.Pages("merge_gap_pages", &out->loading_set.merge_gap_pages);
  out->seed = base_seed;

  // disk_max_merge_kib = 0 disables coalescing.
  DiskSchedConfig& sched = out->disk.sched;
  in.Int("disk_queue_depth", &sched.queue_depth, 1);
  in.Int("disk_prefetch_slots", &sched.prefetch_slots, 1);
  in.Micros("prefetch_aging_us", &sched.prefetch_aging_bound);
  in.Bytes("disk_max_merge_kib", &sched.max_merge_bytes, kKiB);

  PrefetchConfig& loader = out->loader;
  in.Pages("loader_chunk_pages", &loader.chunk_pages, 1);
  in.Int("loader_pipeline_depth", &loader.pipeline_depth, 1);
  in.Bool("loader_adaptive_depth", &loader.adaptive_depth);
  in.Int("loader_min_depth", &loader.min_pipeline_depth, 1);
  in.Micros("loader_ramp_quiet_us", &loader.depth_ramp_quiet);
  if (loader.min_pipeline_depth > loader.pipeline_depth) {
    in.Fail("loader_min_depth", "must be <= loader_pipeline_depth");
  }
  in.Int("readahead_max_streams", &out->readahead.max_streams);

  // Every lever defaults to off, so an absent block reproduces the pre-lever
  // fault path exactly.
  if (std::optional<FieldReader> fault_path = in.Object("fault_path")) {
    FaultPathConfig& fp = out->fault_path;
    fault_path->Bool("batched_uffd_install", &fp.batched_uffd_install);
    fault_path->Bool("huge_pages", &fp.huge_pages);
    fault_path->Bool("fault_coalescing", &fp.fault_coalescing);
    fault_path->Pages("uffd_batch_max_pages", &fp.uffd_batch_max_pages, 1);
    fault_path->Pages("huge_region_pages", &fp.huge_region_pages, 1);
    fault_path->Number("huge_density_threshold", &fp.huge_density_threshold, 0.0, 1.0);
    if (fp.huge_density_threshold == 0.0) {
      fault_path->Fail("huge_density_threshold", "must be in (0, 1]");
    }
    fault_path->RejectUnknownKeys();
  }

  if (std::optional<FieldReader> placement = in.Object("placement")) {
    SnapshotPlacement& p = out->placement;
    placement->Parse("memory_files", &p.memory_files, ParseTier);
    placement->Parse("loading_set", &p.loading_set, ParseTier);
    placement->Parse("reap_ws", &p.reap_ws, ParseTier);
    placement->RejectUnknownKeys();
  }

  if (std::optional<FieldReader> chaos = in.Object("chaos")) {
    ChaosConfig& c = out->chaos;
    c.enabled = true;
    chaos->Bool("enabled", &c.enabled);
    chaos->Int("seed", &c.seed);
    chaos->Number("read_error_rate", &c.read_error_rate, 0.0, 1.0);
    chaos->Number("read_delay_rate", &c.read_delay_rate, 0.0, 1.0);
    chaos->Micros("read_delay_us", &c.read_delay);
    chaos->Number("corrupt_file_rate", &c.corrupt_file_rate, 0.0, 1.0);
    chaos->Number("loader_stall_rate", &c.loader_stall_rate, 0.0, 1.0);
    chaos->Micros("loader_stall_us", &c.loader_stall);
    chaos->Micros("remote_outage_mean_gap_us", &c.remote_outage_mean_gap);
    chaos->Micros("remote_outage_duration_us", &c.remote_outage_duration);
    chaos->Bool("spare_record_phase", &c.spare_record_phase);
    StorageFaultPolicy& p = out->storage_faults;
    chaos->Int("max_attempts", &p.max_attempts, 1);
    chaos->Micros("read_deadline_us", &p.read_deadline);
    chaos->Int("breaker_failure_threshold", &p.breaker_failure_threshold, 1);
    chaos->Micros("breaker_open_for_us", &p.breaker_open_for);
    chaos->RejectUnknownKeys();
  }

  // Any remote tier lives on the EBS io2 device (section 6.7); one set of
  // scheduler knobs governs both tiers. Without one there is no remote device.
  out->remote_disk.reset();
  if (AnyRemote(out->placement)) {
    out->remote_disk = EbsIo2Profile();
    out->remote_disk->sched = sched;
  } else if (out->chaos.enabled && out->chaos.remote_outage_mean_gap > Duration::Zero()) {
    in.Fail("chaos.remote_outage_mean_gap_us",
            "outages need a remote tier (set placement.memory_files, loading_set or reap_ws "
            "to remote)");
  }
}

// Compact JSON text of `value`: no whitespace, object keys in sorted order,
// integers without a fraction and other numbers in the fewest digits that
// read back exactly.
std::string CompactJson(const JsonValue& value) {
  switch (value.type()) {
    case JsonValue::Type::kNull:
      return "null";
    case JsonValue::Type::kBool:
      return *value.AsBool() ? "true" : "false";
    case JsonValue::Type::kNumber: {
      char text[32];
      if (Result<int64_t> i = value.AsInt(); i.ok()) {
        std::snprintf(text, sizeof(text), "%lld", static_cast<long long>(*i));
      } else {
        const double d = *value.AsDouble();
        std::snprintf(text, sizeof(text), "%.15g", d);
        if (std::strtod(text, nullptr) != d) {
          std::snprintf(text, sizeof(text), "%.17g", d);
        }
      }
      return text;
    }
    case JsonValue::Type::kString:
      return "\"" + JsonEscape(*value.AsString()) + "\"";
    case JsonValue::Type::kArray: {
      std::string text = "[";
      for (const JsonValue& item : value.array()) {
        text += (text.size() > 1 ? "," : "") + CompactJson(item);
      }
      return text + "]";
    }
    case JsonValue::Type::kObject: {
      std::string text = "{";
      for (const auto& [key, member] : value.object()) {
        text += (text.size() > 1 ? ",\"" : "\"") + JsonEscape(key) + "\":" + CompactJson(member);
      }
      return text + "}";
    }
  }
  return "";
}

// "sweep": one platform key and its values. ReadPlatform reads each value as
// the top-level key onto a copy of `base`, so a value means what it would mean
// there and is checked the same way.
void ReadSweep(FieldReader& in, const PlatformConfig& base, uint64_t base_seed,
               std::vector<SweepValue>* out) {
  std::optional<FieldReader> sweep = in.Object("sweep");
  if (!sweep.has_value()) {
    return;
  }
  if (sweep->members().size() != 1) {
    return in.Fail("sweep", "must have exactly one key");
  }
  const auto& [key, values] = *sweep->members().begin();
  if (key != "ws_group_size" && key != "merge_gap_pages" && key != "fault_path" &&
      key != "placement") {
    return sweep->Fail(
        key, "cannot be swept (use ws_group_size, merge_gap_pages, fault_path or placement)");
  }
  if (!values.is_array() || values.array().empty()) {
    return sweep->Fail(key, "must be a non-empty array");
  }
  std::vector<SweepValue> points;
  std::set<std::string> labels;
  for (const JsonValue& value : values.array()) {
    SweepValue point{CompactJson(value), base};
    if (!labels.insert(point.label).second) {
      return sweep->Fail(key, "lists " + point.label + " twice");
    }
    const JsonValue one(JsonObject{{key, value}});
    FieldReader reader = sweep->Over(one);
    ReadPlatform(reader, base_seed, &point.platform);
    points.push_back(std::move(point));
  }
  *out = std::move(points);
}

void ReadCluster(FieldReader& in, ClusterScenario* out) {
  ClusterConfig& config = out->config;
  in.Int("hosts", &config.hosts, 1);
  in.Int("worker_threads", &config.worker_threads);
  in.Micros("sync_quantum_us", &config.sync_quantum, 1);
  if (std::optional<FieldReader> router = in.Object("router")) {
    router->Parse("policy", &config.router.policy, ParseRoutingPolicy);
    router->Int("seed", &config.router.seed);
    router->Int("spill_outstanding", &config.router.spill_outstanding, 1);
    router->RejectUnknownKeys();
  }
  if (std::optional<FieldReader> host = in.Object("host")) {
    host->Bytes("warm_pool_budget_mib", &config.host.warm_pool_budget_bytes, kMiB, 1);
    host->Micros("keep_warm_us", &config.host.keep_warm);
    host->RejectUnknownKeys();
  }
  if (std::optional<FieldReader> workload = in.Object("workload")) {
    ArrivalMixConfig& mix = out->mix;
    workload->Int("count", &out->arrival_count, 1);
    workload->Int("seed", &out->workload_seed);
    workload->Parse("process", &mix.process, ParseArrivalProcess);
    workload->Micros("mean_gap_us", &mix.mean_gap, 1);
    workload->Number("zipf_s", &mix.zipf_s);
    workload->Number("burst_multiplier", &mix.burst_multiplier);
    workload->Micros("burst_mean_on_us", &mix.burst_mean_on, 1);
    workload->Micros("burst_mean_off_us", &mix.burst_mean_off, 1);
    workload->Number("diurnal_amplitude", &mix.diurnal_amplitude);
    workload->Micros("diurnal_period_us", &mix.diurnal_period, 1);
    // The schedule starts where the records end and its last arrival lands
    // the sum of `count` gaps later. Half of SimTime's range for that sum
    // leaves the other half for the records before it and the drain after.
    constexpr double kMaxScheduleSpanNanos = 4611686018427387904.0;  // 2^62
    if (!(MaxArrivalMixSpanNanos(mix, out->arrival_count) <= kMaxScheduleSpanNanos)) {
      char message[160];
      std::snprintf(message, sizeof(message),
                    "%d arrivals of up to %g mean gaps each (more under a diurnal amplitude) "
                    "could pass 2^62 ns of simulated time",
                    out->arrival_count, kMaxArrivalGapPerMean);
      workload->Fail("mean_gap_us", message);
    }
    workload->RejectUnknownKeys();
  }
  in.RejectUnknownKeys();
}

}  // namespace

Result<Scenario> ParseScenario(const JsonValue& root) {
  if (!root.is_object()) {
    return InvalidArgumentError("scenario root must be a JSON object");
  }
  Scenario s;
  Status error;
  FieldReader in(root, "", &error);
  in.String("name", &s.name);
  in.List("functions", &s.functions, FindFunction);
  if (s.functions.empty()) {
    in.Fail("functions", "required");
  }
  in.Int("base_seed", &s.base_seed);
  ReadPlatform(in, s.base_seed, &s.platform);

  // Only a cluster's hosts admit through an AdmissionController; every
  // invocation of a restore-matrix cell runs.
  if (!in.Has("cluster") && in.Has("admission")) {
    in.Fail("admission", "is only supported in a cluster scenario");
  } else if (std::optional<FieldReader> admission = in.Object("admission")) {
    admission->Int("max_concurrency", &s.admission.max_concurrency, 1);
    admission->Int("queue_capacity", &s.admission.queue_capacity, 0);
    admission->Micros("queue_deadline_us", &s.admission.queue_deadline);
    admission->Bytes("memory_budget_mib", &s.admission.memory_budget_bytes, kMiB);
    admission->Number("fairness_share", &s.admission.fairness_share, 0.0, 1.0);
    admission->RejectUnknownKeys();
  }

  in.List("systems", &s.systems, ParseRestoreMode);
  in.Parse("record_input", &s.record_input, ParseTestInput);
  in.List("test_inputs", &s.test_inputs, ParseTestInput);
  in.Int("reps", &s.reps, 1);
  in.IntList("parallelism", &s.parallelism, 1, std::numeric_limits<int>::max());
  in.Parse("snapshots", &s.distinct_snapshots, ParseSnapshots);

  in.String("trace_out", &s.trace_out);
  in.String("metrics_out", &s.metrics_out);
  in.String("timeline_out", &s.timeline_out);
  in.Micros("timeline_window_us", &s.timeline_window);
  in.String("forensics_out", &s.forensics_out);
  // A forensics output with no config block implies default-configured
  // forensics; with a block, an explicit "enabled": false wins.
  s.forensics = !s.forensics_out.empty();
  if (std::optional<FieldReader> forensics = in.Object("forensics")) {
    s.forensics = true;
    forensics->Bool("enabled", &s.forensics);
    forensics->Int("slowest_k", &s.forensics_config.slowest_k);
    forensics->Int("max_non_ok", &s.forensics_config.max_non_ok);
    forensics->Int("buffer_capacity", &s.forensics_config.buffer_capacity, 1);
    forensics->RejectUnknownKeys();
  }

  if (std::optional<FieldReader> cluster = in.Object("cluster")) {
    ReadCluster(*cluster, &s.cluster.emplace());
  }
  if (s.cluster.has_value() && in.Has("sweep")) {
    in.Fail("sweep", "is not supported in a cluster scenario");
  } else {
    ReadSweep(in, s.platform, s.base_seed, &s.sweep);
  }
  in.RejectUnknownKeys();
  RETURN_IF_ERROR(error);
  return s;
}

Result<Scenario> LoadScenario(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    return NotFoundError("cannot open scenario file: " + path);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  ASSIGN_OR_RETURN(JsonValue root, ParseJson(buffer.str()));
  return ParseScenario(root);
}

}  // namespace faasnap
