#include "src/storage/storage_router.h"

#include <utility>

#include "src/chaos/fault_injector.h"
#include "src/obs/observability.h"
#include "src/sim/simulation.h"

namespace faasnap {

// State for one failure-aware read, shared between the attempt chain, the
// deadline timers, and (late) device completions. `generation` is bumped every
// time an attempt settles, so the loser of a completion/deadline race — and any
// event from a superseded attempt — sees a stale generation and drops out.
struct StorageRouter::PendingRead {
  FileId file = kInvalidFileId;  // merge stream for the device scheduler
  uint64_t offset = 0;
  uint64_t bytes = 0;
  ReadClass cls = ReadClass::kDemand;
  SpanId parent = kNoSpan;
  DeviceId device = kLocalDevice;
  int attempt = 1;
  bool failed_over = false;
  SimTime first_issue;
  uint64_t generation = 0;
  ReadCallback done;
};

DeviceId StorageRouter::AddDevice(BlockDevice* device) {
  FAASNAP_CHECK(device != nullptr);
  devices_.push_back(device);
  MutexLock lock(mu_);
  breakers_.push_back(Breaker{});
  return static_cast<DeviceId>(devices_.size() - 1);
}

void StorageRouter::CopyStateFrom(const StorageRouter& source) {
  FAASNAP_CHECK(devices_.size() == source.devices_.size());
  placement_ = source.placement_;
  std::vector<Breaker> breakers;
  StorageFaultStats stats;
  {
    MutexLock lock(source.mu_);
    breakers = source.breakers_;
    stats = source.fault_stats_;
  }
  MutexLock lock(mu_);
  breakers_ = std::move(breakers);
  fault_stats_ = stats;
}

StorageFaultStats StorageRouter::fault_stats() const {
  MutexLock lock(mu_);
  return fault_stats_;
}

void StorageRouter::AssignFile(FileId file, DeviceId device_id) {
  FAASNAP_CHECK(file != kInvalidFileId);
  FAASNAP_CHECK(device_id < devices_.size());
  placement_[file] = device_id;
}

DeviceId StorageRouter::DeviceFor(FileId file) const {
  auto it = placement_.find(file);
  return it == placement_.end() ? kLocalDevice : it->second;
}

BlockDevice* StorageRouter::device(DeviceId id) const {
  FAASNAP_CHECK(id < devices_.size());
  return devices_[id];
}

void StorageRouter::ConfigureFaultHandling(Simulation* sim, FaultInjector* injector,
                                           StorageFaultPolicy policy) {
  FAASNAP_CHECK(sim != nullptr);
  FAASNAP_CHECK(policy.max_attempts >= 1);
  sim_ = sim;
  injector_ = injector;
  policy_ = policy;
}

void StorageRouter::set_observability(SpanTracer* spans, MetricsRegistry* metrics) {
  for (size_t i = 0; i < devices_.size(); ++i) {
    devices_[i]->set_observability(spans, metrics);
  }
  if (metrics != nullptr) {
    routed_local_ = metrics->GetCounter("storage.routed_reads", {{"tier", "local"}});
    routed_remote_ = metrics->GetCounter("storage.routed_reads", {{"tier", "remote"}});
  } else {
    routed_local_ = nullptr;
    routed_remote_ = nullptr;
  }
  // Fault-handling series exist only under chaos, so fault-free runs keep a
  // bit-identical metrics snapshot.
  if (metrics != nullptr && injector_ != nullptr) {
    retries_metric_ = metrics->GetCounter("storage.retries");
    failovers_metric_ = metrics->GetCounter("storage.failovers");
    breaker_opens_metric_ = metrics->GetCounter("storage.breaker_opens");
    read_failures_metric_ = metrics->GetCounter("storage.read_failures");
    retry_latency_metric_ = metrics->GetHistogram("storage.retry_latency_ns");
  } else {
    retries_metric_ = nullptr;
    failovers_metric_ = nullptr;
    breaker_opens_metric_ = nullptr;
    read_failures_metric_ = nullptr;
    retry_latency_metric_ = nullptr;
  }
  spans_ = spans;
}

int StorageRouter::DemandPressure() const {
  int pressure = 0;
  for (const BlockDevice* device : devices_) {
    pressure += device->demand_pressure();
  }
  return pressure;
}

void StorageRouter::ReadWithStatus(FileId file, uint64_t offset, uint64_t bytes,
                                   ReadCallback done, SpanId parent, ReadClass cls) {
  FAASNAP_CHECK(!devices_.empty());
  const DeviceId device = DeviceFor(file);
  if (routed_local_ != nullptr) {
    (device == kLocalDevice ? routed_local_ : routed_remote_)->Add(1);
  }
  if (injector_ == nullptr) {
    // Chaos off: a single direct device read.
    devices_[device]->Read(offset, bytes, DeviceReadOptions{cls, /*stream=*/file, parent},
                           std::move(done));
    return;
  }
  auto req = std::make_shared<PendingRead>();
  req->file = file;
  req->offset = offset;
  req->bytes = bytes;
  req->cls = cls;
  req->parent = parent;
  req->device = device;
  req->first_issue = sim_->now();
  req->done = std::move(done);
  Attempt(std::move(req));
}

Duration StorageRouter::BackoffBefore(int attempt) const {
  // Backoff before attempt n (n >= 2): initial * multiplier^(n-2), capped.
  double ns = static_cast<double>(policy_.initial_backoff.nanos());
  for (int i = 2; i < attempt; ++i) {
    ns *= policy_.backoff_multiplier;
  }
  const Duration backoff = Duration::Nanos(static_cast<int64_t>(ns));
  return Min(backoff, policy_.max_backoff);
}

void StorageRouter::Attempt(std::shared_ptr<PendingRead> req) {
  const SimTime now = sim_->now();
  bool fast_fail = false;
  {
    MutexLock lock(mu_);
    const Breaker& breaker = breakers_[req->device];
    if (breaker.open && now < breaker.open_until) {
      fault_stats_.breaker_fast_fails++;
      fast_fail = true;
    }
  }
  if (fast_fail) {
    // Fail fast without touching the device; the breaker eats the attempt. The
    // retry/backoff ladder still runs, so by the time attempts are exhausted
    // the read fails over (or fails) with the breaker's verdict.
    Status verdict = UnavailableError("circuit breaker open for device " +
                                      devices_[req->device]->profile().name);
    HandleFailure(std::move(req), std::move(verdict));
    return;
  }
  // If open but past open_until, this read is the half-open probe: it reaches
  // the device; success closes the breaker, failure re-arms it.
  const uint64_t generation = ++req->generation;
  devices_[req->device]->Read(
      req->offset, req->bytes,
      DeviceReadOptions{req->cls, /*stream=*/req->file, req->parent},
      [this, req, generation](Status status) {
        OnAttemptComplete(req, generation, std::move(status));
      });
  if (policy_.read_deadline > Duration::Zero()) {
    sim_->ScheduleAfter(policy_.read_deadline, [this, req, generation] {
      OnAttemptComplete(req, generation,
                        DeadlineExceededError("read deadline exceeded on device " +
                                              devices_[req->device]->profile().name));
    });
  }
}

void StorageRouter::OnAttemptComplete(std::shared_ptr<PendingRead> req, uint64_t generation,
                                      Status status) {
  if (generation != req->generation) {
    return;  // stale: this attempt already settled (deadline/completion race)
  }
  req->generation++;  // invalidate the loser of the race
  if (status.ok()) {
    RecordDeviceSuccess(req->device);
    FinishRead(std::move(req), OkStatus());
    return;
  }
  RecordDeviceFailure(req->device);
  HandleFailure(std::move(req), std::move(status));
}

void StorageRouter::HandleFailure(std::shared_ptr<PendingRead> req, Status status) {
  if (req->attempt < policy_.max_attempts) {
    req->attempt++;
    {
      MutexLock lock(mu_);
      fault_stats_.retries++;
    }
    if (retries_metric_ != nullptr) {
      retries_metric_->Add(1);
    }
    if (spans_ != nullptr) {
      spans_->Instant(sim_->now(), ObsLane::kDisk, obsname::kStorageRetry,
                      static_cast<uint64_t>(req->attempt), req->device, req->parent);
    }
    const Duration backoff = BackoffBefore(req->attempt);
    sim_->ScheduleAfter(backoff,
                        [this, req = std::move(req)]() mutable { Attempt(std::move(req)); });
    return;
  }
  // Attempts exhausted on this device. Non-local reads get one more budget on
  // the local replica before the failure propagates.
  if (policy_.failover_to_local && req->device != kLocalDevice && !req->failed_over) {
    req->failed_over = true;
    req->device = kLocalDevice;
    req->attempt = 1;
    {
      MutexLock lock(mu_);
      fault_stats_.failovers++;
    }
    if (failovers_metric_ != nullptr) {
      failovers_metric_->Add(1);
    }
    Attempt(std::move(req));
    return;
  }
  {
    MutexLock lock(mu_);
    fault_stats_.failed_reads++;
  }
  if (read_failures_metric_ != nullptr) {
    read_failures_metric_->Add(1);
  }
  FinishRead(std::move(req), std::move(status));
}

void StorageRouter::FinishRead(std::shared_ptr<PendingRead> req, Status status) {
  if (retry_latency_metric_ != nullptr && (req->attempt > 1 || req->failed_over)) {
    retry_latency_metric_->Record(sim_->now() - req->first_issue);
  }
  ReadCallback done = std::move(req->done);
  done(std::move(status));
}

void StorageRouter::RecordDeviceSuccess(DeviceId device) {
  MutexLock lock(mu_);
  Breaker& breaker = breakers_[device];
  breaker.consecutive_failures = 0;
  breaker.open = false;
}

void StorageRouter::RecordDeviceFailure(DeviceId device) {
  const SimTime now = sim_->now();
  bool opened = false;
  {
    MutexLock lock(mu_);
    Breaker& breaker = breakers_[device];
    breaker.consecutive_failures++;
    if (breaker.open) {
      // Failed half-open probe: re-arm the open window.
      breaker.open_until = now + policy_.breaker_open_for;
      return;
    }
    if (breaker.consecutive_failures >= policy_.breaker_failure_threshold) {
      breaker.open = true;
      breaker.open_until = now + policy_.breaker_open_for;
      fault_stats_.breaker_opens++;
      opened = true;
    }
  }
  if (opened) {
    if (breaker_opens_metric_ != nullptr) {
      breaker_opens_metric_->Add(1);
    }
    if (spans_ != nullptr) {
      spans_->Instant(now, ObsLane::kDisk, obsname::kBreakerOpen, device);
    }
  }
}

}  // namespace faasnap
