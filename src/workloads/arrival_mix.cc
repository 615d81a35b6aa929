#include "src/workloads/arrival_mix.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace faasnap {

namespace {

// Independent stream for burst-window renewals: salting the seed (instead of
// forking the primary stream) keeps the per-arrival draw count of the primary
// stream fixed at two, so poisson schedules match the historical samplers.
constexpr uint64_t kBurstStreamSalt = 0xb125753a11edULL;

constexpr double kPi = 3.14159265358979323846;

// Divides the gap by `rate` (rate > 1 compresses, rate < 1 stretches),
// keeping gaps strictly positive.
Duration ScaleGapByRate(Duration gap, double rate) {
  if (rate <= 0.0) {
    rate = 1e-6;
  }
  const auto scaled = static_cast<int64_t>(static_cast<double>(gap.nanos()) / rate);
  return Duration::Nanos(scaled < 1 ? 1 : scaled);
}

}  // namespace

Duration SampleArrivalGap(Rng& rng, Duration mean_gap) {
  // Inverse-CDF sampling of Exp(1/mean): -ln(U) * mean.
  double u = rng.NextDouble();
  if (u <= 0.0) {
    u = 1e-12;
  }
  const double ns = -std::log(u) * static_cast<double>(mean_gap.nanos());
  return Duration::Nanos(static_cast<int64_t>(ns) + 1);
}

Result<ArrivalProcess> ParseArrivalProcess(const std::string& name) {
  if (name == "poisson") {
    return ArrivalProcess::kPoisson;
  }
  if (name == "bursty") {
    return ArrivalProcess::kBursty;
  }
  if (name == "diurnal") {
    return ArrivalProcess::kDiurnal;
  }
  return InvalidArgumentError("unknown arrival process: " + name);
}

std::vector<Arrival> SampleArrivalMix(size_t functions, int count, const ArrivalMixConfig& mix,
                                      uint64_t seed) {
  FAASNAP_CHECK(functions > 0);
  FAASNAP_CHECK(mix.mean_gap > Duration::Zero());
  // Zipf CDF over ranks 1..F (uniform when the skew is off).
  std::vector<double> cdf(functions);
  double total = 0;
  for (size_t i = 0; i < functions; ++i) {
    total += mix.zipf_s > 0 ? 1.0 / std::pow(static_cast<double>(i + 1), mix.zipf_s) : 1.0;
    cdf[i] = total;
  }
  for (double& v : cdf) {
    v /= total;
  }

  Rng rng(seed);
  // Burst ON/OFF windows renew from their own stream; `window_end` is the
  // virtual offset (from the first arrival's reference point) where the
  // current window expires. The schedule starts OFF.
  Rng window_rng(seed ^ kBurstStreamSalt);
  bool burst_on = false;
  Duration offset;      // running sum of emitted gaps
  Duration window_end;  // exclusive end of the current ON/OFF window
  if (mix.process == ArrivalProcess::kBursty) {
    FAASNAP_CHECK(mix.burst_mean_on > Duration::Zero());
    FAASNAP_CHECK(mix.burst_mean_off > Duration::Zero());
    window_end = SampleArrivalGap(window_rng, mix.burst_mean_off);
  }

  std::vector<Arrival> arrivals;
  arrivals.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    // Draw order is pinned (function, then gap): existing benches rely on the
    // exact sequence for bit-identical schedules.
    const double u = rng.NextDouble();
    const size_t function_index =
        static_cast<size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    Duration gap = SampleArrivalGap(rng, mix.mean_gap);
    switch (mix.process) {
      case ArrivalProcess::kPoisson:
        break;
      case ArrivalProcess::kBursty:
        while (offset >= window_end) {
          burst_on = !burst_on;
          window_end = window_end + SampleArrivalGap(
                                        window_rng, burst_on ? mix.burst_mean_on
                                                             : mix.burst_mean_off);
        }
        if (burst_on && mix.burst_multiplier > 1.0) {
          gap = ScaleGapByRate(gap, mix.burst_multiplier);
        }
        break;
      case ArrivalProcess::kDiurnal: {
        const double phase = 2.0 * kPi * static_cast<double>(offset.nanos()) /
                             static_cast<double>(mix.diurnal_period.nanos());
        const double rate = 1.0 + mix.diurnal_amplitude * std::sin(phase);
        gap = ScaleGapByRate(gap, rate);
        break;
      }
    }
    offset = offset + gap;
    arrivals.push_back(Arrival{std::min(function_index, functions - 1), gap});
  }
  return arrivals;
}

double MaxArrivalMixSpanNanos(const ArrivalMixConfig& mix, int count) {
  double stretch = 1.0;
  if (mix.process == ArrivalProcess::kDiurnal) {
    const double amplitude = std::abs(mix.diurnal_amplitude);
    stretch = amplitude < 1.0 ? 1.0 / (1.0 - amplitude) : std::numeric_limits<double>::infinity();
  }
  const double max_gap =
      kMaxArrivalGapPerMean * static_cast<double>(mix.mean_gap.nanos()) * stretch + 1.0;
  return static_cast<double>(count) * max_gap;
}

std::vector<Arrival> ZipfArrivals(size_t functions, int count, double zipf_s,
                                  Duration mean_gap, uint64_t seed) {
  ArrivalMixConfig mix;
  mix.process = ArrivalProcess::kPoisson;
  mix.mean_gap = mean_gap;
  mix.zipf_s = zipf_s;
  return SampleArrivalMix(functions, count, mix, seed);
}

std::vector<Duration> PoissonArrivalGaps(Duration mean_gap, int count, uint64_t seed) {
  FAASNAP_CHECK(mean_gap > Duration::Zero());
  Rng rng(seed);
  std::vector<Duration> gaps;
  gaps.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    gaps.push_back(SampleArrivalGap(rng, mean_gap));
  }
  return gaps;
}

}  // namespace faasnap
