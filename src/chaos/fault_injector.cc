#include "src/chaos/fault_injector.h"

#include <cmath>
#include <utility>

namespace faasnap {

namespace {

constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

// Exponential with the given mean, quantized to integer nanoseconds. Bounded
// below by 1ns so the outage renewal process always advances.
Duration Exponential(Rng& rng, Duration mean) {
  const double u = rng.NextDouble();
  const double ns = -static_cast<double>(mean.nanos()) * std::log(1.0 - u);
  return Duration::Nanos(ns < 1.0 ? 1 : static_cast<int64_t>(ns));
}

}  // namespace

void FaultInjector::InitWindow(WindowProcess* w) {
  w->start = SimTime::FromNanos(0);
  w->end = SimTime::FromNanos(0);
  if (w->mean_gap > Duration::Zero()) {
    w->start = SimTime::FromNanos(0) + Exponential(w->rng, w->mean_gap);
    w->end = w->start + w->duration;
  }
}

bool FaultInjector::WindowActive(WindowProcess* w, SimTime now, int count_kind) {
  if (w->mean_gap <= Duration::Zero()) {
    return false;
  }
  // Renew the window process up to the current clock. Decisions depend only on
  // the seed and the query time, never on which site asks.
  while (now >= w->end) {
    w->start = w->end + Exponential(w->rng, w->mean_gap);
    w->end = w->start + w->duration;
    w->counted = false;
  }
  const bool active = now >= w->start;
  if (active && count_kind >= 0 && !w->counted) {
    w->counted = true;
    Count(count_kind);
  }
  return active;
}

FaultInjector::FaultInjector(Simulation* sim, ChaosConfig config)
    : sim_(sim), config_(config), stall_rng_(config.seed ^ 0x57A11ULL * kGolden) {
  FAASNAP_CHECK(sim_ != nullptr);
  outage_.rng = Rng(config.seed ^ 0x0A7A6EULL * kGolden);
  outage_.mean_gap = config_.remote_outage_mean_gap;
  outage_.duration = config_.remote_outage_duration;
  InitWindow(&outage_);
  burst_.rng = Rng(config.seed ^ 0xB0057ULL * kGolden);
  burst_.mean_gap = config_.burst_mean_gap;
  burst_.duration = config_.burst_duration;
  InitWindow(&burst_);
  squeeze_.rng = Rng(config.seed ^ 0x50EE2ULL * kGolden);
  squeeze_.mean_gap = config_.squeeze_mean_gap;
  squeeze_.duration = config_.squeeze_duration;
  InitWindow(&squeeze_);
}

void FaultInjector::CopyStateFrom(const FaultInjector& source) {
  FAASNAP_CHECK(config_.seed == source.config_.seed);
  device_rngs_ = source.device_rngs_;
  stall_rng_ = source.stall_rng_;
  outage_ = source.outage_;
  burst_ = source.burst_;
  squeeze_ = source.squeeze_;
  armed_ = source.armed_;
}

void FaultInjector::set_observability(MetricsRegistry* metrics) {
  static constexpr const char* kKindNames[kKindCount] = {
      "read_error",   "read_delay",   "outage_read", "loader_stall",
      "corrupt_file", "burst_window", "squeeze_window",
  };
  for (int i = 0; i < kKindCount; ++i) {
    injected_[i] = metrics != nullptr
                       ? metrics->GetCounter("chaos.injected", {{"type", kKindNames[i]}})
                       : nullptr;
  }
}

void FaultInjector::Count(int which) {
  if (injected_[which] != nullptr) {
    injected_[which]->Add(1);
  }
}

Rng& FaultInjector::DeviceRng(uint32_t device) {
  while (device_rngs_.size() <= device) {
    const uint64_t ordinal = static_cast<uint64_t>(device_rngs_.size());
    device_rngs_.push_back(Rng(config_.seed ^ (ordinal + 1) * kGolden));
  }
  return device_rngs_[device];
}

bool FaultInjector::OutageActive(SimTime now) {
  // Per-read counting (kOutageRead) happens at the call site, not per window.
  return WindowActive(&outage_, now, /*count_kind=*/-1);
}

double FaultInjector::ArrivalMultiplier(SimTime now) {
  if (!config_.enabled || config_.burst_arrival_multiplier <= 0.0) {
    return 1.0;
  }
  return WindowActive(&burst_, now, kBurstWindow) ? config_.burst_arrival_multiplier : 1.0;
}

double FaultInjector::MemoryBudgetFraction(SimTime now) {
  if (!config_.enabled || config_.squeeze_budget_fraction <= 0.0) {
    return 1.0;
  }
  return WindowActive(&squeeze_, now, kSqueezeWindow) ? config_.squeeze_budget_fraction : 1.0;
}

FaultInjector::ReadFault FaultInjector::OnDeviceRead(uint32_t device,
                                                     const std::string& device_name) {
  ReadFault fault;
  if (!config_.enabled || !armed_) {
    return fault;
  }
  if (device != 0 && OutageActive(sim_->now())) {
    Count(kOutageRead);
    fault.status = UnavailableError("injected outage on device " + device_name);
    return fault;
  }
  Rng& rng = DeviceRng(device);
  if (config_.read_error_rate > 0.0 && rng.NextBool(config_.read_error_rate)) {
    Count(kReadError);
    fault.status = IoError("injected read error on device " + device_name);
    return fault;
  }
  if (config_.read_delay_rate > 0.0 && rng.NextBool(config_.read_delay_rate)) {
    Count(kReadDelay);
    fault.extra_latency = config_.read_delay;
  }
  return fault;
}

bool FaultInjector::CorruptFile(uint32_t file_id) {
  if (!config_.enabled || config_.corrupt_file_rate <= 0.0) {
    return false;
  }
  // Hash-seeded throwaway stream: the decision is a pure function of
  // (seed, file_id), independent of registration or query order.
  Rng rng(config_.seed ^ 0xF11EULL ^ static_cast<uint64_t>(file_id) * kGolden);
  const bool corrupt = rng.NextBool(config_.corrupt_file_rate);
  if (corrupt) {
    Count(kCorruptFile);
  }
  return corrupt;
}

Duration FaultInjector::NextLoaderStall() {
  if (!config_.enabled || !armed_ || config_.loader_stall_rate <= 0.0) {
    return Duration::Zero();
  }
  if (!stall_rng_.NextBool(config_.loader_stall_rate)) {
    return Duration::Zero();
  }
  Count(kLoaderStall);
  return config_.loader_stall;
}

}  // namespace faasnap
