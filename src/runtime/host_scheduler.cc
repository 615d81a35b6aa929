#include "src/runtime/host_scheduler.h"

#include <algorithm>
#include <utility>

#include "src/obs/observability.h"

namespace faasnap {

namespace {

// Miss modes the pressure ladder may demote to WS-only REAP at L2+: anything
// that prefetches or loads beyond the recorded working set. Warm/cold-boot
// serves and REAP itself have nothing to shed.
bool DemotableToReap(RestoreMode mode) {
  return mode == RestoreMode::kFaasnap || mode == RestoreMode::kFaasnapPerRegion ||
         mode == RestoreMode::kFaasnapConcurrentOnly || mode == RestoreMode::kCached;
}

Duration ScaleDuration(Duration d, double scale) {
  if (scale >= 1.0) {
    return d;
  }
  return Duration::Nanos(static_cast<int64_t>(static_cast<double>(d.nanos()) * scale));
}

}  // namespace

HostScheduler::HostScheduler(Platform* platform, HostSchedulerConfig config)
    : platform_(platform), config_(config) {
  FAASNAP_CHECK(platform_ != nullptr);
  FAASNAP_CHECK(!config_.warm_pool_budget_bytes.is_zero());
}

HostScheduler::HostScheduler(Platform* platform, const HostScheduler& source)
    : HostScheduler(platform, source.config_) {
  FAASNAP_CHECK(source.open_loop_ == nullptr && source.lru_.empty());
  entries_.reserve(source.entries_.size());
  for (const std::unique_ptr<Entry>& entry : source.entries_) {
    entries_.push_back(std::make_unique<Entry>(*entry));
  }
}

HostScheduler::~HostScheduler() = default;

size_t HostScheduler::AddFunction(const FunctionSpec& spec) {
  auto entry = std::make_unique<Entry>();
  auto generator = std::make_shared<const TraceGenerator>(spec, platform_->config().layout);
  entry->snapshot = std::make_shared<const FunctionSnapshot>(
      platform_->Record(*generator, MakeInputA(spec)));
  entry->generator = std::move(generator);
  entry->ws_bytes =
      PagesToBytes(PageCount::FromPages(entry->snapshot->record_touched.page_count()));
  entries_.push_back(std::move(entry));
  return entries_.size() - 1;
}

void HostScheduler::MarkWarm(Entry* entry, SimTime now) {
  if (entry->warm) {
    lru_.erase(entry->lru_it);
  } else {
    entry->warm = true;
    pool_bytes_ += entry->ws_bytes;
  }
  entry->last_used = now;
  lru_.push_back(entry);
  entry->lru_it = std::prev(lru_.end());
}

void HostScheduler::MarkCold(Entry* entry) {
  if (!entry->warm) {
    return;
  }
  entry->warm = false;
  FAASNAP_CHECK(pool_bytes_ >= entry->ws_bytes);
  pool_bytes_ -= entry->ws_bytes;
  lru_.erase(entry->lru_it);
}

void HostScheduler::ReclaimAndEvict(ByteCount needed, Duration keep_warm,
                                    HostSchedulerStats* stats) {
  const SimTime now = platform_->sim()->now();
  // Keep-alive horizon first. The LRU list is ordered by last_used, so the
  // expired entries are exactly its prefix.
  while (!lru_.empty() && now - lru_.front()->last_used > keep_warm) {
    MarkCold(lru_.front());
    stats->expirations++;
  }
  // LRU eviction under pool pressure ("evict to snapshot"). If nothing is left
  // to evict, the new VM may exceed the budget alone.
  while (pool_bytes_ + needed > config_.warm_pool_budget_bytes && !lru_.empty()) {
    MarkCold(lru_.front());
    stats->evictions++;
  }
}

void HostScheduler::EvictIdleBytes(ByteCount bytes, HostSchedulerStats* stats) {
  ByteCount freed;
  while (freed < bytes && !lru_.empty()) {
    freed += lru_.front()->ws_bytes;
    MarkCold(lru_.front());
    stats->evictions++;
  }
}

double HostScheduler::AccrueIdlePool(SimTime from, HostSchedulerStats* stats) {
  const SimTime now = platform_->sim()->now();
  double byte_seconds = 0;
  // The LRU front expires first; each reclaim shrinks the pool from its VM's
  // horizon on, which can fall before `from` when the horizon passed while the
  // previous invocation ran.
  while (!lru_.empty() && now - lru_.front()->last_used > config_.keep_warm) {
    const SimTime horizon = lru_.front()->last_used + config_.keep_warm;
    if (horizon > from) {
      byte_seconds += static_cast<double>(pool_bytes_.value()) * (horizon - from).seconds();
      from = horizon;
    }
    MarkCold(lru_.front());
    stats->expirations++;
  }
  return byte_seconds + static_cast<double>(pool_bytes_.value()) * (now - from).seconds();
}

HostSchedulerStats HostScheduler::Run(const std::vector<Arrival>& arrivals) {
  return config_.open_loop ? RunOpenLoop(arrivals) : RunClosedLoop(arrivals);
}

// Per-serve bookkeeping shared by both loops. It is split in two because
// FinishServe stamps the serve span end and the quarantine window at the
// caller's clock: the open loop calls it from the completion callback, the
// closed loop after draining the whole event queue, which runs past the
// completion when loader chunks land after it.
//
// BeginServe resolves the restore mode (warm hit, `miss_mode`, or cold boot
// while the snapshot is quarantined), takes a warm VM out of the idle pool
// while it runs, and opens the scheduler-lane serve span (arg0 = function
// index, arg1 = warm hit).
HostScheduler::PlannedServe HostScheduler::BeginServe(size_t function_index, bool warm,
                                                      RestoreMode miss_mode,
                                                      HostSchedulerStats* stats) {
  Simulation* sim = platform_->sim();
  Entry& entry = *entries_[function_index];
  PlannedServe planned;
  planned.function_index = function_index;
  planned.warm = warm;
  planned.mode = warm ? RestoreMode::kWarm : miss_mode;
  if (warm) {
    MarkCold(&entry);
  } else if (sim->now() < entry.quarantined_until) {
    // The snapshot is benched after repeated failed restores: cold-boot.
    planned.mode = RestoreMode::kColdBoot;
    stats->quarantined_serves++;
  }
  SpanTracer* spans = platform_->spans();
  if (spans != nullptr) {
    planned.span = spans->Begin(sim->now(), ObsLane::kScheduler, obsname::kSchedulerServe,
                                function_index, warm ? 1 : 0);
  }
  return planned;
}

// FinishServe accounts the outcome at the platform clock: the quarantine state
// machine (restore failures on a snapshot miss, benching after the threshold),
// the serve span end, hit/miss counters and latency stats, and, unless the
// invocation failed, the VM's return to the warm pool.
void HostScheduler::FinishServe(const PlannedServe& planned, InvocationOutcome outcome,
                                Duration latency, HostSchedulerStats* stats) {
  const SimTime now = platform_->sim()->now();
  Entry& entry = *entries_[planned.function_index];
  if (!planned.warm && planned.mode != RestoreMode::kColdBoot) {
    if (outcome == InvocationOutcome::kFailed) {
      stats->restore_failures++;
      if (++entry.consecutive_failures >= config_.quarantine_failure_threshold) {
        entry.quarantined_until = now + config_.quarantine_backoff;
        entry.consecutive_failures = 0;
        stats->quarantines++;
      }
    } else {
      entry.consecutive_failures = 0;
    }
  }
  SpanTracer* spans = platform_->spans();
  if (spans != nullptr) {
    spans->End(planned.span, now);
  }

  stats->invocations++;
  stats->per_function_invocations[planned.function_index]++;
  if (planned.warm) {
    stats->warm_hits++;
    stats->per_function_hits[planned.function_index]++;
  } else {
    stats->misses++;
    stats->miss_latency_ms.Record(latency.millis());
  }
  stats->latency_ms.Record(latency.millis());
  if (warm_hits_metric_ != nullptr) {
    (planned.warm ? warm_hits_metric_ : misses_metric_)->Add(1);
  }
  entry.served_once = true;
  // A failed invocation leaves no VM behind to keep warm.
  if (outcome != InvocationOutcome::kFailed) {
    MarkWarm(&entry, now);
  } else {
    entry.last_used = now;
  }
  if (pool_gauge_ != nullptr) {
    pool_gauge_->Set(static_cast<double>(pool_bytes_.value()));
  }
}

void HostScheduler::AttachRunMetrics() {
  MetricsRegistry* metrics = platform_->metrics();
  warm_hits_metric_ = metrics != nullptr ? metrics->GetCounter("scheduler.warm_hits") : nullptr;
  misses_metric_ = metrics != nullptr ? metrics->GetCounter("scheduler.misses") : nullptr;
  pool_gauge_ = metrics != nullptr ? metrics->GetGauge("scheduler.pool_bytes") : nullptr;
}

void HostScheduler::FinishRun(SimTime span_start, double pool_byte_time,
                              HostSchedulerStats* stats) {
  stats->span = platform_->sim()->now() - span_start;
  if (stats->span > Duration::Zero()) {
    stats->avg_pool_bytes = pool_byte_time / stats->span.seconds();
  }
  MetricsRegistry* metrics = platform_->metrics();
  if (metrics != nullptr) {
    metrics->GetCounter("scheduler.evictions")->Add(stats->evictions);
    metrics->GetCounter("scheduler.expirations")->Add(stats->expirations);
  }
}

HostSchedulerStats HostScheduler::RunClosedLoop(const std::vector<Arrival>& arrivals) {
  HostSchedulerStats stats;
  stats.per_function_hits.assign(entries_.size(), 0);
  stats.per_function_invocations.assign(entries_.size(), 0);
  Simulation* sim = platform_->sim();
  const SimTime span_start = sim->now();
  SimTime last_completion = sim->now();
  double pool_byte_time = 0;
  uint64_t arrival_seed = 0x5c4ed;
  AttachRunMetrics();

  for (const Arrival& arrival : arrivals) {
    FAASNAP_CHECK(arrival.function_index < entries_.size());
    const SimTime idle_from = sim->now();
    sim->RunUntil(last_completion + arrival.gap);
    pool_byte_time += AccrueIdlePool(idle_from, &stats);

    Entry& entry = *entries_[arrival.function_index];
    ReclaimAndEvict(entry.warm ? ByteCount::Zero() : entry.ws_bytes, config_.keep_warm, &stats);
    const bool warm = entry.warm;
    if (!warm) {
      // Cold pool slot: this function's pages are not resident; other tenants
      // also recycled the page cache while we idled.
      platform_->DropCaches();
    }

    WorkloadInput input = MakeInputA(entry.generator->spec());
    if (!entry.generator->spec().fixed_input) {
      input.content_seed = ++arrival_seed;
    }
    const PlannedServe planned =
        BeginServe(arrival.function_index, warm, config_.miss_mode, &stats);
    bool done = false;
    Duration latency;
    InvocationOutcome outcome = InvocationOutcome::kOk;
    platform_->InvokeAsync(*entry.snapshot, planned.mode,
                           entry.generator->Generate(input), [&](InvocationReport report) {
                             latency = report.total_time();
                             outcome = report.outcome;
                             done = true;
                           });
    sim->Run();  // FinishServe stamps at this post-drain clock
    FAASNAP_CHECK(done);
    // The running VM is resident too.
    pool_byte_time += static_cast<double>((pool_bytes_ + entry.ws_bytes).value()) *
                      latency.seconds();
    FinishServe(planned, outcome, latency, &stats);
    last_completion = sim->now();
  }

  FinishRun(span_start, pool_byte_time, &stats);
  return stats;
}

// Live state of one open-loop run. Heap-held (stable address) because the
// admission hooks, pressure overrides, and completion callbacks all point
// into it while the run is in flight — possibly across many cluster epochs.
struct HostScheduler::OpenLoopState {
  explicit OpenLoopState(const PressureLadderConfig& ladder_config) : ladder(ladder_config) {}

  HostSchedulerStats stats;
  PressureLadder ladder;
  Platform::PressureOverrides overrides;
  std::unique_ptr<AdmissionController> admission;

  // Time-weighted resident bytes: the idle pool plus the predicted footprint
  // of admitted in-flight work.
  double pool_byte_time = 0;
  SimTime span_start;
  SimTime last_accrual;
  SimTime last_outcome;
  int64_t shed_count = 0;
  int64_t offered = 0;

  // Per-arrival content seeds, drawn when the arrival event fires — which is
  // offer order — so the input stream does not depend on dispatch
  // interleaving, and an epoch-wise driver produces the same stream as an
  // up-front schedule. seeds[id] keys AdmissionRequest::id.
  uint64_t arrival_seed = 0x5c4ed;
  std::vector<uint64_t> seeds;

  bool have_offer = false;
  SimTime last_offer_at;

  Counter* shed_metrics[2] = {};  // queue_full, deadline
};

void HostScheduler::BeginOpenLoop() {
  FAASNAP_CHECK(open_loop_ == nullptr);
  open_loop_ = std::make_unique<OpenLoopState>(config_.ladder);
  OpenLoopState& ol = *open_loop_;
  ol.stats.per_function_hits.assign(entries_.size(), 0);
  ol.stats.per_function_invocations.assign(entries_.size(), 0);
  Simulation* sim = platform_->sim();
  ol.span_start = sim->now();
  ol.last_accrual = ol.span_start;
  ol.last_outcome = ol.span_start;

  AttachRunMetrics();
  MetricsRegistry* metrics = platform_->metrics();
  if (metrics != nullptr) {
    ol.shed_metrics[0] = metrics->GetCounter("scheduler.shed", {{"reason", "queue_full"}});
    ol.shed_metrics[1] = metrics->GetCounter("scheduler.shed", {{"reason", "deadline"}});
  }

  platform_->set_pressure_overrides(&ol.overrides);

  AdmissionController::Hooks hooks;
  hooks.pinned_bytes = [this] { return pool_bytes_; };
  hooks.make_room = [this](ByteCount bytes) { EvictIdleBytes(bytes, &open_loop_->stats); };
  hooks.shed = [this](const AdmissionRequest& request, InvocationOutcome outcome, Duration wait) {
    OpenLoopShed(request, outcome, wait);
  };
  hooks.run = [this](const AdmissionRequest& request, Duration wait) {
    OpenLoopRun(request, wait);
  };
  ol.admission = std::make_unique<AdmissionController>(sim, config_.admission, std::move(hooks));
}

void HostScheduler::OfferAt(size_t function_index, SimTime at) {
  FAASNAP_CHECK(open_loop_ != nullptr);
  FAASNAP_CHECK(function_index < entries_.size());
  OpenLoopState& ol = *open_loop_;
  ++ol.offered;
  if (!ol.have_offer || at > ol.last_offer_at) {
    ol.have_offer = true;
    ol.last_offer_at = at;
  }
  platform_->sim()->Schedule(at, [this, function_index] { OpenLoopArrival(function_index); });
}

void HostScheduler::OpenLoopAccrue(SimTime now) {
  OpenLoopState& ol = *open_loop_;
  ol.pool_byte_time +=
      static_cast<double>((pool_bytes_ + ol.admission->committed_bytes()).value()) *
      (now - ol.last_accrual).seconds();
  ol.last_accrual = now;
}

void HostScheduler::OpenLoopUpdateLadder() {
  OpenLoopState& ol = *open_loop_;
  ol.ladder.Update(ol.admission->memory_utilization(), platform_->storage()->DemandPressure());
  ol.overrides.readahead_scale = ol.ladder.readahead_scale();
  ol.overrides.loader_depth_cap = ol.ladder.loader_depth_cap();
}

void HostScheduler::OpenLoopArrival(size_t function_index) {
  OpenLoopState& ol = *open_loop_;
  Simulation* sim = platform_->sim();
  OpenLoopAccrue(sim->now());
  FaultInjector* chaos = platform_->chaos();
  if (chaos != nullptr) {
    // Chaos memory-squeeze windows shrink the effective admission budget.
    ol.admission->set_budget_scale(chaos->MemoryBudgetFraction(sim->now()));
  }
  OpenLoopUpdateLadder();
  AdmissionRequest request;
  request.id = ol.seeds.size();
  request.function_index = function_index;
  request.predicted_bytes = entries_[function_index]->ws_bytes;
  request.arrival = sim->now();
  ol.seeds.push_back(entries_[function_index]->generator->spec().fixed_input
                         ? 0
                         : ++ol.arrival_seed);
  ol.admission->Offer(request);
}

void HostScheduler::OpenLoopShed(const AdmissionRequest& request, InvocationOutcome outcome,
                                 Duration wait) {
  (void)wait;  // the shed report derives its own wait from request.arrival
  OpenLoopState& ol = *open_loop_;
  Simulation* sim = platform_->sim();
  OpenLoopAccrue(sim->now());
  Entry& entry = *entries_[request.function_index];
  Status reason = outcome == InvocationOutcome::kShedQueueFull
                      ? ResourceExhaustedError("admission queue full")
                      : DeadlineExceededError("queueing deadline exceeded");
  platform_->ReportShed(*entry.snapshot, entry.warm ? RestoreMode::kWarm : config_.miss_mode,
                        request.arrival, outcome, std::move(reason));
  Counter* metric = ol.shed_metrics[outcome == InvocationOutcome::kShedQueueFull ? 0 : 1];
  if (metric != nullptr) {
    metric->Add(1);
  }
  ++ol.shed_count;
  ol.last_outcome = sim->now();
  OpenLoopUpdateLadder();
}

void HostScheduler::OpenLoopRun(const AdmissionRequest& request, Duration wait) {
  OpenLoopState& ol = *open_loop_;
  const SimTime now = platform_->sim()->now();
  OpenLoopAccrue(now);
  Entry& entry = *entries_[request.function_index];
  // L3 tightens the keep-alive horizon; idle VMs go back to snapshots sooner.
  ReclaimAndEvict(entry.warm ? ByteCount::Zero() : entry.ws_bytes,
                  ScaleDuration(config_.keep_warm, ol.ladder.keep_warm_scale()), &ol.stats);
  const bool warm = entry.warm;
  ++entry.running;
  ol.stats.queue_wait_ms.Record(wait.millis());
  // No DropCaches on misses here: the page cache is shared with concurrent
  // in-flight restores, and dropping it would clobber them mid-flight.

  WorkloadInput input = MakeInputA(entry.generator->spec());
  if (!entry.generator->spec().fixed_input) {
    input.content_seed = ol.seeds[request.id];
  }
  RestoreMode miss_mode = config_.miss_mode;
  if (!warm && ol.ladder.demote_restore_mode() && DemotableToReap(miss_mode)) {
    // L2: serve the miss WS-only instead of prefetching the full snapshot.
    miss_mode = RestoreMode::kReap;
    ++ol.stats.pressure_demotions;
  }
  // A warm VM's bytes move from the idle pool to the admission controller's
  // in-flight accounting while it runs.
  const PlannedServe planned = BeginServe(request.function_index, warm, miss_mode, &ol.stats);
  platform_->InvokeAsync(*entry.snapshot, planned.mode, entry.generator->Generate(input),
                         [this, request, planned](InvocationReport report) {
                           OpenLoopComplete(request, planned, report);
                         });
}

void HostScheduler::OpenLoopComplete(const AdmissionRequest& request, const PlannedServe& planned,
                                     const InvocationReport& report) {
  OpenLoopState& ol = *open_loop_;
  const SimTime done_at = platform_->sim()->now();
  OpenLoopAccrue(done_at);
  --entries_[request.function_index]->running;
  const Duration latency = report.total_time();
  FinishServe(planned, report.outcome, latency, &ol.stats);
  ol.stats.accepted_latency.Record(latency);
  ol.last_outcome = done_at;
  ol.admission->OnComplete(request);
  OpenLoopUpdateLadder();
}

int64_t HostScheduler::OutstandingLoad() const {
  if (open_loop_ == nullptr) {
    return 0;
  }
  return open_loop_->admission->in_flight() +
         static_cast<int64_t>(open_loop_->admission->queue_depth());
}

bool HostScheduler::OpenLoopIdle() const { return OutstandingLoad() == 0; }

HostSchedulerStats HostScheduler::FinishOpenLoop() {
  FAASNAP_CHECK(open_loop_ != nullptr);
  OpenLoopState& ol = *open_loop_;
  Simulation* sim = platform_->sim();

  // Every offered arrival resolved to exactly one typed outcome.
  FAASNAP_CHECK(ol.stats.invocations + ol.shed_count == ol.offered);
  OpenLoopAccrue(sim->now());

  const AdmissionController::Stats& astats = ol.admission->stats();
  FAASNAP_CHECK(astats.admitted == ol.stats.invocations);
  ol.stats.arrivals = astats.offered;
  ol.stats.shed_queue_full = astats.shed_queue_full;
  ol.stats.shed_deadline = astats.shed_deadline;
  ol.stats.queued = astats.queued;
  ol.stats.fairness_deferrals = astats.fairness_deferrals;
  ol.stats.max_in_flight = astats.max_in_flight;
  ol.stats.max_queue_depth = astats.max_queue_depth;
  ol.stats.pressure_transitions = ol.ladder.transitions();
  ol.stats.max_pressure_level = ol.ladder.max_level();
  ol.stats.final_pressure_level =
      ol.ladder.Update(ol.admission->memory_utilization(), platform_->storage()->DemandPressure());
  if (ol.have_offer && ol.last_outcome > ol.last_offer_at) {
    ol.stats.drain_time = ol.last_outcome - ol.last_offer_at;
  }
  FinishRun(ol.span_start, ol.pool_byte_time, &ol.stats);
  platform_->set_pressure_overrides(nullptr);
  HostSchedulerStats stats = std::move(ol.stats);
  open_loop_.reset();
  return stats;
}

HostSchedulerStats HostScheduler::RunOpenLoop(const std::vector<Arrival>& arrivals) {
  Simulation* sim = platform_->sim();
  // Absolute arrival times; chaos burst windows compress the offered gaps.
  const std::vector<TimedArrival> schedule =
      BuildOpenLoopSchedule(arrivals, sim->now(), platform_->chaos());
  BeginOpenLoop();
  for (const TimedArrival& timed : schedule) {
    OfferAt(timed.function_index, timed.at);
  }
  sim->Run();
  return FinishOpenLoop();
}

}  // namespace faasnap
