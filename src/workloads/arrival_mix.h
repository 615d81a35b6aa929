// Arrival-process sampling: the workload side of serving simulations.
//
// The serving engines (HostScheduler, the cluster dispatcher) consume the same
// seeded arrival streams, so the samplers live with the workload definitions
// rather than with either engine. Three processes cover the regimes the
// fleet-level literature sweeps ("How Low Can You Go?" frames cold-start rate
// vs. keep-alive memory under exactly these mixes):
//
//   poisson — exponential inter-arrival gaps at a fixed mean rate;
//   bursty  — an ON/OFF modulated Poisson process: exponentially distributed
//             ON windows during which the rate multiplies, separated by
//             exponentially distributed OFF stretches at the base rate;
//   diurnal — a sinusoidally rate-modulated Poisson process (period ~ a
//             simulated day, amplitude the peak-to-mean swing).
//
// Function popularity follows a Zipf(s) skew over the registered functions —
// the Azure-trace shape the paper cites (section 2.1): few functions are hot,
// most are invoked rarely. All samplers are deterministic per seed and draw in
// a pinned order, so schedules are bit-reproducible.

#ifndef FAASNAP_SRC_WORKLOADS_ARRIVAL_MIX_H_
#define FAASNAP_SRC_WORKLOADS_ARRIVAL_MIX_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/common/status.h"

namespace faasnap {

// One request: which registered function, arriving `gap` after the previous one.
struct Arrival {
  size_t function_index = 0;
  Duration gap;
};

// Exponential(mean_gap) sample via inverse-CDF (-ln(U) * mean), quantized to
// nanoseconds with a +1ns bias so gaps are strictly positive. Exactly one
// NextDouble draw per call; deterministic per RNG state.
Duration SampleArrivalGap(Rng& rng, Duration mean_gap);

// The largest gap SampleArrivalGap draws is at most this many mean gaps, plus
// 1 ns. NextDouble() is a multiple of 2^-53 (and 0 is replaced by 1e-12), so
// -ln(U) <= 53 * ln 2 = 36.74.
inline constexpr double kMaxArrivalGapPerMean = 36.75;

// Zipf(s)-popular function choice with exponential inter-arrival gaps: the
// hot/cold skew of the Azure traces (section 2.1). Deterministic per seed.
std::vector<Arrival> ZipfArrivals(size_t functions, int count, double zipf_s,
                                  Duration mean_gap, uint64_t seed);

// Exponentially distributed inter-arrival gaps with the given mean (a Poisson
// arrival process), deterministic per seed.
std::vector<Duration> PoissonArrivalGaps(Duration mean_gap, int count, uint64_t seed);

enum class ArrivalProcess {
  kPoisson,
  kBursty,
  kDiurnal,
};

// Parses "poisson" | "bursty" | "diurnal"; InvalidArgument otherwise.
Result<ArrivalProcess> ParseArrivalProcess(const std::string& name);

// One seeded arrival source for a whole serving scenario.
struct ArrivalMixConfig {
  ArrivalProcess process = ArrivalProcess::kPoisson;
  // Mean inter-arrival gap at the base (off-peak) rate.
  Duration mean_gap = Duration::Seconds(1);
  // Zipf popularity skew across functions; <= 0 draws uniformly.
  double zipf_s = 1.2;
  // Bursty: rate multiplier inside ON windows, and the mean ON/OFF durations.
  double burst_multiplier = 8.0;
  Duration burst_mean_on = Duration::Seconds(2);
  Duration burst_mean_off = Duration::Seconds(20);
  // Diurnal: rate(t) = base * (1 + amplitude * sin(2*pi*t/period)), amplitude
  // in [0, 1). The period defaults to a compressed "day" so a bench run spans
  // several cycles without simulating 24 hours.
  double diurnal_amplitude = 0.8;
  Duration diurnal_period = Duration::Seconds(600);
};

// Samples `count` arrivals over `functions` registered functions. Exactly two
// RNG draws per arrival from the primary stream (function rank, then gap) plus
// an independent forked stream for burst-window renewals, so poisson schedules
// are bit-identical to the historical ZipfArrivals(...) for the same seed.
std::vector<Arrival> SampleArrivalMix(size_t functions, int count, const ArrivalMixConfig& mix,
                                      uint64_t seed);

// An upper bound, in nanoseconds, on the sum of the `count` gaps
// SampleArrivalMix draws from `mix`: count x (kMaxArrivalGapPerMean x mean + 1
// ns) x the largest stretch of the process. Bursts only shorten gaps; a
// diurnal rate 1 + a * sin(.) >= 1 - |a| stretches them by at most
// 1 / (1 - |a|), and without a bound (infinity) when |a| >= 1.
double MaxArrivalMixSpanNanos(const ArrivalMixConfig& mix, int count);

}  // namespace faasnap

#endif  // FAASNAP_SRC_WORKLOADS_ARRIVAL_MIX_H_
