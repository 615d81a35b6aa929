#include "src/storage/block_device.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/chaos/fault_injector.h"
#include "src/common/status.h"
#include "src/obs/observability.h"

namespace faasnap {

BlockDevice::BlockDevice(Simulation* sim, BlockDeviceProfile profile, uint64_t seed)
    : sim_(sim), profile_(std::move(profile)), rng_(seed) {
  FAASNAP_CHECK(sim_ != nullptr);
  FAASNAP_CHECK(profile_.bandwidth_bytes_per_s > 0);
  FAASNAP_CHECK(profile_.iops > 0);
  FAASNAP_CHECK(profile_.sched.queue_depth >= 1);
}

void BlockDevice::CopyStateFrom(const BlockDevice& source) {
  FAASNAP_CHECK(source.outstanding_ == 0 && outstanding_ == 0);
  rng_ = source.rng_;
  iops_busy_until_ = source.iops_busy_until_;
  bw_busy_until_ = source.bw_busy_until_;
  stats_ = source.stats_;
  demand_owed_ = source.demand_owed_;
}

Duration BlockDevice::TransferTime(uint64_t bytes) const {
  // ns = bytes * 1e9 / bw. Use 128-bit-safe ordering: bytes up to GiBs fits.
  return Duration::Nanos(static_cast<int64_t>(
      (static_cast<__uint128_t>(bytes) * 1000000000ull) / profile_.bandwidth_bytes_per_s));
}

Duration BlockDevice::IopsInterval() const {
  return Duration::Nanos(static_cast<int64_t>(1000000000ull / profile_.iops));
}

BlockDevice::CompletionPlan BlockDevice::PlanCompletion(uint64_t bytes, SimTime start,
                                                        bool transfers_data) const {
  CompletionPlan plan;
  plan.iops_ready = Max(iops_busy_until_, start) + IopsInterval();
  plan.bw_ready =
      transfers_data ? Max(bw_busy_until_, start) + TransferTime(bytes) : plan.iops_ready;
  plan.completion = Max(plan.iops_ready, plan.bw_ready) + profile_.base_latency;
  return plan;
}

SimTime BlockDevice::ApplyJitter(SimTime start, SimTime completion) {
  const Duration service = completion - start;
  const double factor = 1.0 + profile_.jitter * (2.0 * rng_.NextDouble() - 1.0);
  return start + Duration::Nanos(std::max<int64_t>(
                     1, static_cast<int64_t>(static_cast<double>(service.nanos()) * factor)));
}

SimTime BlockDevice::EstimateCompletion(uint64_t bytes) const {
  return PlanCompletion(bytes, sim_->now(), /*transfers_data=*/true).completion;
}

void BlockDevice::set_observability(SpanTracer* spans, MetricsRegistry* metrics) {
  spans_ = spans;
  disk_read_name_ = spans_ != nullptr ? spans_->InternName(obsname::kDiskRead) : 0;
  if (metrics != nullptr) {
    const MetricLabels labels = {{"device", profile_.name}};
    read_requests_metric_ = metrics->GetCounter("disk.read_requests", labels);
    bytes_read_metric_ = metrics->GetCounter("disk.bytes_read", labels);
    merged_metric_ = metrics->GetCounter("disk.merged_requests", labels);
    promoted_metric_ = metrics->GetCounter("disk.aged_promotions", labels);
    queue_depth_metric_ = metrics->GetGauge("disk.queue_depth", labels);
    for (int i = 0; i < kReadClassCount; ++i) {
      const MetricLabels class_labels = {
          {"device", profile_.name},
          {"class", std::string(ReadClassName(static_cast<ReadClass>(i)))}};
      queued_metric_[i] = metrics->GetGauge("disk.queued", class_labels);
      wait_metric_[i] = metrics->GetHistogram("disk.sched_wait_ns", class_labels);
    }
    // Attaching mid-flight: seed the gauges from live queue state instead of
    // letting the first completion drive them negative.
    queue_depth_metric_->Set(static_cast<double>(outstanding_));
    UpdateQueueGauges();
  } else {
    read_requests_metric_ = nullptr;
    bytes_read_metric_ = nullptr;
    merged_metric_ = nullptr;
    promoted_metric_ = nullptr;
    queue_depth_metric_ = nullptr;
    for (int i = 0; i < kReadClassCount; ++i) {
      queued_metric_[i] = nullptr;
      wait_metric_[i] = nullptr;
    }
  }
}

void BlockDevice::UpdateQueueGauges() {
  if (queued_metric_[0] != nullptr) {
    for (int i = 0; i < kReadClassCount; ++i) {
      queued_metric_[i]->Set(static_cast<double>(queue_[i].size()));
    }
  }
}

void BlockDevice::Read(uint64_t offset, uint64_t bytes, const DeviceReadOptions& options,
                       std::function<void(Status)> done) {
  FAASNAP_CHECK(bytes > 0);
  Request request;
  request.offset = offset;
  request.bytes = bytes;
  request.stream = options.stream;
  request.cls = options.read_class;
  request.enqueued = sim_->now();
  request.parent = options.parent;
  request.done = std::move(done);
  Enqueue(std::move(request));
}

void BlockDevice::Enqueue(Request request) {
  ++outstanding_;
  if (queue_depth_metric_ != nullptr) {
    queue_depth_metric_->Set(static_cast<double>(outstanding_));
  }
  // Queue, then drain: with free slots and nothing else waiting this dispatches
  // immediately at the same timestamp, so an uncontended load claims the
  // serializers in arrival order exactly like the issue-time model.
  queue_[static_cast<int>(request.cls)].push_back(std::move(request));
  TryDispatch();
  UpdateQueueGauges();
}

void BlockDevice::TryDispatch() {
  const DiskSchedConfig& sched = profile_.sched;
  // Both knobs are compared as uint32_t: any value means what DiskSchedConfig
  // says, 2^31 and above included.
  const uint32_t prefetch_cap = std::max<uint32_t>(1, sched.prefetch_slots);
  while (in_service_ < sched.queue_depth) {
    const bool can_demand = !queue_[0].empty();
    const bool can_prefetch =
        !queue_[1].empty() && in_service_batches_[1] < prefetch_cap;
    if (!can_demand && !can_prefetch) {
      break;
    }
    int pick;
    if (!can_demand) {
      pick = 1;
    } else if (!can_prefetch) {
      pick = 0;
    } else if (!demand_owed_ &&
               sim_->now() - queue_[1].front().enqueued >= sched.prefetch_aging_bound) {
      // The prefetch head has waited out the aging bound: it beats demand, so
      // a saturating demand stream can delay prefetch but never starve it. The
      // win is not repeatable back-to-back — the next contested slot is owed to
      // demand — so an aged backlog cannot invert the priority wholesale.
      pick = 1;
      demand_owed_ = true;
      stats_.aged_promotions++;
      if (promoted_metric_ != nullptr) {
        promoted_metric_->Add(1);
      }
      if (spans_ != nullptr) {
        spans_->Instant(sim_->now(), ObsLane::kDisk, obsname::kSchedPromote,
                        queue_[1].front().offset, queue_[1].front().bytes,
                        queue_[1].front().parent);
      }
    } else {
      pick = 0;
    }
    if (pick == 0) {
      demand_owed_ = false;
    }
    std::deque<Request>& queue = queue_[pick];
    std::vector<Request> batch;
    batch.push_back(std::move(queue.front()));
    queue.pop_front();
    ByteCount batch_bytes = ByteCount::FromBytes(batch.front().bytes);
    while (!sched.max_merge_bytes.is_zero() && !queue.empty() &&
           queue.front().stream == batch.back().stream &&
           queue.front().offset == batch.back().offset + batch.back().bytes &&
           batch_bytes.value() + queue.front().bytes <= sched.max_merge_bytes.value()) {
      batch_bytes += ByteCount::FromBytes(queue.front().bytes);
      batch.push_back(std::move(queue.front()));
      queue.pop_front();
    }
    UpdateQueueGauges();
    Dispatch(std::move(batch));
  }
}

void BlockDevice::Dispatch(std::vector<Request> batch) {
  const SimTime start = sim_->now();
  const int cls = static_cast<int>(batch.front().cls);
  ByteCount total_bytes;
  for (const Request& r : batch) {
    total_bytes += ByteCount::FromBytes(r.bytes);
  }

  // One injection decision per device request: a merged batch fails (or is
  // delayed) as a unit, exactly like a single large read would.
  Status result = OkStatus();
  Duration extra = Duration::Zero();
  if (injector_ != nullptr) {
    FaultInjector::ReadFault fault = injector_->OnDeviceRead(device_ordinal_, profile_.name);
    result = std::move(fault.status);
    extra = fault.extra_latency;
  }
  const bool ok = result.ok();

  // A failed request occupies a request slot and pays the fixed per-request
  // latency (the device or remote side reported the error) but transfers no
  // data, so the bandwidth serializer does not advance.
  const CompletionPlan plan = PlanCompletion(total_bytes.value(), start, /*transfers_data=*/ok);
  iops_busy_until_ = plan.iops_ready;
  if (ok) {
    bw_busy_until_ = plan.bw_ready;
  }
  SimTime completion = plan.completion;
  if (ok && profile_.jitter > 0.0) {
    completion = ApplyJitter(start, completion);
  }
  completion = completion + extra;

  for (const Request& r : batch) {
    stats_.read_requests++;
    (r.cls == ReadClass::kDemand ? stats_.demand_requests : stats_.prefetch_requests)++;
    const Duration wait = start - r.enqueued;
    if (r.cls == ReadClass::kDemand) {
      stats_.demand_wait_ns += wait;
      stats_.max_demand_wait_ns = std::max(stats_.max_demand_wait_ns, wait);
    } else {
      stats_.prefetch_wait_ns += wait;
      stats_.max_prefetch_wait_ns = std::max(stats_.max_prefetch_wait_ns, wait);
    }
    if (ok) {
      stats_.bytes_read += r.bytes;
    } else {
      stats_.failed_requests++;
    }
    if (spans_ != nullptr) {
      // Enqueue -> completion: queue wait is part of what the caller experienced.
      spans_->CompleteId(r.enqueued, completion, ObsLane::kDisk, disk_read_name_, r.offset,
                         r.bytes, r.parent);
    }
    if (wait_metric_[cls] != nullptr) {
      wait_metric_[cls]->Record(wait);
    }
  }
  stats_.merged_requests += batch.size() - 1;
  if (read_requests_metric_ != nullptr) {
    read_requests_metric_->Add(static_cast<int64_t>(batch.size()));
    if (ok) {
      bytes_read_metric_->Add(static_cast<int64_t>(total_bytes.value()));
    }
    if (batch.size() > 1) {
      merged_metric_->Add(static_cast<int64_t>(batch.size() - 1));
    }
  }

  ++in_service_;
  ++in_service_batches_[cls];
  in_service_reqs_[cls] += static_cast<int>(batch.size());
  sim_->Schedule(completion, [this, cls, count = static_cast<int>(batch.size()),
                              dones = std::move(batch),
                              result = std::move(result)]() mutable {
    --in_service_;
    --in_service_batches_[cls];
    in_service_reqs_[cls] -= count;
    outstanding_ -= count;
    if (queue_depth_metric_ != nullptr) {
      queue_depth_metric_->Set(static_cast<double>(outstanding_));
    }
    // Refill freed slots before waking callers: the serializers stay claimed
    // ahead, and a completion callback that issues a new read sees a settled
    // queue. This also releases the slot of a failed request, so chaos cannot
    // wedge the scheduler.
    TryDispatch();
    for (Request& r : dones) {
      r.done(result);
    }
  });
}

}  // namespace faasnap
