// SpanTracer: span-based structured tracing for every actor in the simulation.
//
// The paper's analysis (Figure 1's time breakdown, Figure 2's fault-latency
// distribution, Table 3's fault/wait accounting) was gathered with bpftrace and
// perf probes over the guest, the daemon's loader thread, the userfaultfd
// monitor, and the block layer (sections 3.3, 6.4-6.5). This tracer is the
// simulation's equivalent: components record begin/end *spans* with parent
// links on per-actor lanes, so one invocation becomes a tree of intervals —
// "the guest blocked on fault X, which waited on disk read Y issued by loader
// chunk Z". The trace exports to Chrome/Perfetto JSON (obs/trace_export.h) and
// feeds the cold-start critical-path analyzer (obs/critical_path.h).
//
// Cost model: tracing is off by default; every emission site is guarded by one
// pointer null-check. Recording is strictly passive — it never schedules
// simulation events or reads the clock — so enabling tracing cannot change
// simulated timestamps or event order (pinned by obs_determinism_test).
//
// Thread safety: emission (Begin/End/Complete/Instant/InternName/BeginTrack/
// Clear) is mutex-protected, so real OS threads — the native snapshot loader
// thread — can record spans concurrently with the main thread. Read accessors
// (records(), record(), name(), track_names()) return references into tracer
// storage and require the tracer to be quiescent: call them only after the
// run, once worker threads are joined. Interned names have stable storage, so
// ids cached at attachment time stay valid across growth.
//
// Storage is a flat vector with a hard capacity: when full, new records are
// dropped (and counted) in O(1) rather than evicted, because analysis needs
// span trees from the *start* of a run, not its tail. Per-name counters keep
// counting past the cap.

#ifndef FAASNAP_SRC_OBS_SPAN_TRACER_H_
#define FAASNAP_SRC_OBS_SPAN_TRACER_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/sim_time.h"
#include "src/common/thread_annotations.h"

namespace faasnap {

// One lane per actor kind, matching the actors of the paper's timelines. A lane
// renders as one Perfetto "thread" track per trace track (see SpanTracer::
// BeginTrack).
enum class ObsLane : uint8_t {
  kVcpu = 0,    // guest vCPU: invocation spans, fault spans
  kLoader,      // the daemon's prefetch loader thread
  kUffd,        // userspace userfaultfd handler (REAP's monitor)
  kDisk,        // block device service intervals
  kDaemon,      // daemon dispatch/setup, experiment phases
  kScheduler,   // host scheduler / keep-alive policy decisions
  kNative,      // native (real-kernel) snapshot sessions
  kLaneCount,
};

std::string_view ObsLaneName(ObsLane lane);

// Index+1 into the tracer's record vector; 0 means "no span" (also used as the
// null parent). Ids are never recycled within a trace.
using SpanId = uint64_t;
inline constexpr SpanId kNoSpan = 0;

struct SpanRecord {
  SimTime start;
  SimTime end;         // == start for instants; == start while still open
  SpanId parent = kNoSpan;
  uint64_t arg0 = 0;
  uint64_t arg1 = 0;
  uint32_t name = 0;   // interned name id (SpanTracer::name())
  uint32_t track = 0;  // trace track (one per platform/run), see BeginTrack
  ObsLane lane = ObsLane::kVcpu;
  bool instant = false;
  bool open = true;    // still awaiting End (always false for instants)
};

class SpanTracer {
 public:
  // `capacity` bounds the number of retained records; further emissions are
  // dropped in O(1) and counted in dropped_records().
  explicit SpanTracer(size_t capacity = size_t{1} << 20) : capacity_(capacity) {}
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  // Interns `name`, returning a stable id valid until Clear(). Emission sites
  // may pass the string each time (one hash lookup) or pre-intern and use the
  // id overloads below on hot paths.
  uint32_t InternName(std::string_view name) FAASNAP_EXCLUDES(mu_);
  // Quiescent accessor: interned strings have stable storage (deque), but the
  // id must have been published before the last worker thread was joined.
  std::string_view name(uint32_t id) const FAASNAP_NO_THREAD_SAFETY_ANALYSIS {
    return names_[id];
  }

  // Opens a span. Returns kNoSpan when capacity is exhausted (End on the result
  // is then a no-op), so call sites never need to check.
  SpanId Begin(SimTime start, ObsLane lane, std::string_view name, uint64_t arg0 = 0,
               uint64_t arg1 = 0, SpanId parent = kNoSpan) FAASNAP_EXCLUDES(mu_);
  SpanId BeginId(SimTime start, ObsLane lane, uint32_t name_id, uint64_t arg0 = 0,
                 uint64_t arg1 = 0, SpanId parent = kNoSpan) FAASNAP_EXCLUDES(mu_);

  // Closes a span. End(kNoSpan, ...) is a no-op. The arg1 overload additionally
  // stores a value only known at completion (e.g. the resolved fault class).
  void End(SpanId id, SimTime end) FAASNAP_EXCLUDES(mu_);
  void End(SpanId id, SimTime end, uint64_t arg1) FAASNAP_EXCLUDES(mu_);

  // Records a span whose completion time is already known (e.g. a block-device
  // read whose service time is computed at issue).
  SpanId Complete(SimTime start, SimTime end, ObsLane lane, std::string_view name,
                  uint64_t arg0 = 0, uint64_t arg1 = 0, SpanId parent = kNoSpan)
      FAASNAP_EXCLUDES(mu_);
  SpanId CompleteId(SimTime start, SimTime end, ObsLane lane, uint32_t name_id,
                    uint64_t arg0 = 0, uint64_t arg1 = 0, SpanId parent = kNoSpan)
      FAASNAP_EXCLUDES(mu_);

  // Records a zero-duration marker.
  SpanId Instant(SimTime time, ObsLane lane, std::string_view name, uint64_t arg0 = 0,
                 uint64_t arg1 = 0, SpanId parent = kNoSpan) FAASNAP_EXCLUDES(mu_);

  // Starts a new track and makes it current: all subsequent records are tagged
  // with it. Tracks separate runs that share a tracer but not a clock (one
  // simulated Platform per experiment repetition restarts at t=0); the exporter
  // renders each track as its own Perfetto process. Track 0 exists by default.
  uint32_t BeginTrack(std::string name) FAASNAP_EXCLUDES(mu_);
  uint32_t current_track() const FAASNAP_EXCLUDES(mu_);

  // Total emissions of `name` (spans + instants), counted even past capacity.
  int64_t count(std::string_view name) const FAASNAP_EXCLUDES(mu_);

  uint64_t dropped_records() const FAASNAP_EXCLUDES(mu_);
  size_t capacity() const { return capacity_; }

  // Spans begun but not yet ended (instants never count). The flight recorder
  // recycles its buffer only at open_spans() == 0: a Clear with a span still
  // open would leave its holder with a dangling id.
  size_t open_spans() const FAASNAP_EXCLUDES(mu_);

  // Quiescent accessors: valid only while no other thread is emitting (after
  // the run / after worker threads are joined); exporters and tests.
  const std::vector<SpanRecord>& records() const FAASNAP_NO_THREAD_SAFETY_ANALYSIS {
    return records_;
  }
  const SpanRecord& record(SpanId id) const FAASNAP_NO_THREAD_SAFETY_ANALYSIS {
    return records_[id - 1];
  }
  const std::vector<std::string>& track_names() const FAASNAP_NO_THREAD_SAFETY_ANALYSIS {
    return track_names_;
  }

  void Clear() FAASNAP_EXCLUDES(mu_);

 private:
  uint32_t InternNameLocked(std::string_view name) FAASNAP_REQUIRES(mu_);
  SpanId BeginIdLocked(SimTime start, ObsLane lane, uint32_t name_id, uint64_t arg0,
                       uint64_t arg1, SpanId parent) FAASNAP_REQUIRES(mu_);
  void EndLocked(SpanId id, SimTime end) FAASNAP_REQUIRES(mu_);

  const size_t capacity_;
  mutable Mutex mu_;
  std::vector<SpanRecord> records_ FAASNAP_GUARDED_BY(mu_);
  // deque: interned strings keep stable addresses as the table grows, so
  // name(id) string_views stay valid while other threads intern.
  std::deque<std::string> names_ FAASNAP_GUARDED_BY(mu_);
  std::unordered_map<std::string_view, uint32_t> name_ids_ FAASNAP_GUARDED_BY(mu_);
  std::vector<int64_t> name_counts_ FAASNAP_GUARDED_BY(mu_);  // parallel to names_
  std::vector<std::string> track_names_ FAASNAP_GUARDED_BY(mu_) = {"track0"};
  uint32_t current_track_ FAASNAP_GUARDED_BY(mu_) = 0;
  uint64_t dropped_ FAASNAP_GUARDED_BY(mu_) = 0;
  size_t open_spans_ FAASNAP_GUARDED_BY(mu_) = 0;
};

}  // namespace faasnap

#endif  // FAASNAP_SRC_OBS_SPAN_TRACER_H_
