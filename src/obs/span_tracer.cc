#include "src/obs/span_tracer.h"

namespace faasnap {

std::string_view ObsLaneName(ObsLane lane) {
  switch (lane) {
    case ObsLane::kVcpu:
      return "vCPU";
    case ObsLane::kLoader:
      return "loader";
    case ObsLane::kUffd:
      return "uffd";
    case ObsLane::kDisk:
      return "disk";
    case ObsLane::kDaemon:
      return "daemon";
    case ObsLane::kScheduler:
      return "scheduler";
    case ObsLane::kNative:
      return "native";
    case ObsLane::kLaneCount:
      break;
  }
  return "unknown";
}

uint32_t SpanTracer::InternNameLocked(std::string_view name) {
  auto it = name_ids_.find(name);
  if (it != name_ids_.end()) {
    return it->second;
  }
  const uint32_t id = static_cast<uint32_t>(names_.size());
  names_.emplace_back(name);
  name_counts_.push_back(0);
  name_ids_.emplace(std::string_view(names_.back()), id);
  return id;
}

uint32_t SpanTracer::InternName(std::string_view name) {
  MutexLock lock(mu_);
  return InternNameLocked(name);
}

SpanId SpanTracer::BeginIdLocked(SimTime start, ObsLane lane, uint32_t name_id,
                                 uint64_t arg0, uint64_t arg1, SpanId parent) {
  name_counts_[name_id]++;
  if (records_.size() >= capacity_) {
    ++dropped_;
    return kNoSpan;
  }
  SpanRecord rec;
  rec.start = start;
  rec.end = start;
  rec.parent = parent;
  rec.arg0 = arg0;
  rec.arg1 = arg1;
  rec.name = name_id;
  rec.track = current_track_;
  rec.lane = lane;
  records_.push_back(rec);
  ++open_spans_;
  return static_cast<SpanId>(records_.size());
}

SpanId SpanTracer::Begin(SimTime start, ObsLane lane, std::string_view name, uint64_t arg0,
                         uint64_t arg1, SpanId parent) {
  MutexLock lock(mu_);
  return BeginIdLocked(start, lane, InternNameLocked(name), arg0, arg1, parent);
}

SpanId SpanTracer::BeginId(SimTime start, ObsLane lane, uint32_t name_id, uint64_t arg0,
                           uint64_t arg1, SpanId parent) {
  MutexLock lock(mu_);
  return BeginIdLocked(start, lane, name_id, arg0, arg1, parent);
}

void SpanTracer::EndLocked(SpanId id, SimTime end) {
  if (id > records_.size()) {
    return;  // stale id from before a Clear (see the flight recorder)
  }
  SpanRecord& rec = records_[id - 1];
  rec.end = end;
  if (rec.open) {
    rec.open = false;
    --open_spans_;
  }
}

void SpanTracer::End(SpanId id, SimTime end) {
  if (id == kNoSpan) {
    return;
  }
  MutexLock lock(mu_);
  EndLocked(id, end);
}

void SpanTracer::End(SpanId id, SimTime end, uint64_t arg1) {
  if (id == kNoSpan) {
    return;
  }
  MutexLock lock(mu_);
  if (id > records_.size()) {
    return;
  }
  records_[id - 1].arg1 = arg1;
  EndLocked(id, end);
}

SpanId SpanTracer::Complete(SimTime start, SimTime end, ObsLane lane, std::string_view name,
                            uint64_t arg0, uint64_t arg1, SpanId parent) {
  MutexLock lock(mu_);
  const SpanId id = BeginIdLocked(start, lane, InternNameLocked(name), arg0, arg1, parent);
  if (id != kNoSpan) {
    EndLocked(id, end);
  }
  return id;
}

SpanId SpanTracer::CompleteId(SimTime start, SimTime end, ObsLane lane, uint32_t name_id,
                              uint64_t arg0, uint64_t arg1, SpanId parent) {
  MutexLock lock(mu_);
  const SpanId id = BeginIdLocked(start, lane, name_id, arg0, arg1, parent);
  if (id != kNoSpan) {
    EndLocked(id, end);
  }
  return id;
}

SpanId SpanTracer::Instant(SimTime time, ObsLane lane, std::string_view name, uint64_t arg0,
                           uint64_t arg1, SpanId parent) {
  MutexLock lock(mu_);
  const SpanId id = BeginIdLocked(time, lane, InternNameLocked(name), arg0, arg1, parent);
  if (id != kNoSpan) {
    records_[id - 1].instant = true;
    records_[id - 1].open = false;
    --open_spans_;
  }
  return id;
}

uint32_t SpanTracer::BeginTrack(std::string name) {
  MutexLock lock(mu_);
  track_names_.push_back(std::move(name));
  current_track_ = static_cast<uint32_t>(track_names_.size() - 1);
  return current_track_;
}

uint32_t SpanTracer::current_track() const {
  MutexLock lock(mu_);
  return current_track_;
}

int64_t SpanTracer::count(std::string_view name) const {
  MutexLock lock(mu_);
  auto it = name_ids_.find(name);
  return it == name_ids_.end() ? 0 : name_counts_[it->second];
}

uint64_t SpanTracer::dropped_records() const {
  MutexLock lock(mu_);
  return dropped_;
}

size_t SpanTracer::open_spans() const {
  MutexLock lock(mu_);
  return open_spans_;
}

void SpanTracer::Clear() {
  MutexLock lock(mu_);
  records_.clear();
  // The intern table survives: components cache name ids at attachment time
  // (set_observability), so invalidating ids here would make spans recorded
  // after a Clear resolve to the wrong names. Only the counts reset.
  name_counts_.assign(names_.size(), 0);
  track_names_ = {"track0"};
  current_track_ = 0;
  dropped_ = 0;
  open_spans_ = 0;
}

}  // namespace faasnap
