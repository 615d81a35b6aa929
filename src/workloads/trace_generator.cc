#include "src/workloads/trace_generator.h"

#include <algorithm>
#include <cmath>

#include "src/common/rng.h"
#include "src/snapshot/serialization.h"

namespace faasnap {

namespace {

constexpr uint64_t kInputASeed = 0xA;
constexpr uint64_t kInputBSeed = 0xB;

// Runtime/library pages: a fixed fraction is exercised by every input (the
// interpreter core, Flask, the request path); the rest belongs to code paths the
// input may or may not take. This is the working-set drift host page recording
// tolerates (section 4.4): readahead caches pages adjacent to the exercised code,
// and a future input's different code paths land on exactly those pages.
constexpr double kAlwaysExercisedFraction = 0.6;
constexpr double kVariablePathProbability = 0.75;
constexpr uint64_t kStablePathSalt = 0x57AB1E;

// Stable hash of (page, seed) to [0, 1) for content-dependent page selection.
double PageSelectionScore(PageIndex page, uint64_t seed) {
  Rng rng(page * 0x9e3779b97f4a7c15ULL ^ seed);
  return rng.NextDouble();
}

uint64_t NameSeed(const std::string& name) {
  return Fnv1a64(reinterpret_cast<const uint8_t*>(name.data()), name.size());
}

}  // namespace

WorkloadInput MakeInputA(const FunctionSpec& spec) {
  return WorkloadInput{.content_seed = kInputASeed, .profile = spec.input_a};
}

WorkloadInput MakeInputB(const FunctionSpec& spec) {
  return WorkloadInput{.content_seed = spec.fixed_input ? kInputASeed : kInputBSeed,
                       .profile = spec.input_b};
}

WorkloadInput MakeScaledInput(const FunctionSpec& spec, double ratio, uint64_t content_seed) {
  FAASNAP_CHECK(ratio > 0 && ratio <= kMaxInputRatio);
  InputProfile profile;
  profile.input_pages = PageCount::FromPages(
      static_cast<uint64_t>(static_cast<double>(spec.input_a.input_pages.value()) * ratio));
  profile.anon_pages = PageCount::FromPages(
      static_cast<uint64_t>(static_cast<double>(spec.input_a.anon_pages.value()) * ratio));
  profile.compute = Duration::Nanos(static_cast<int64_t>(
      static_cast<double>(spec.input_a.compute.nanos()) * std::pow(ratio, spec.compute_exponent)));
  return WorkloadInput{.content_seed = content_seed, .profile = profile};
}

TraceGenerator::TraceGenerator(FunctionSpec spec, GuestLayout layout)
    : spec_(std::move(spec)), layout_(layout) {
  FAASNAP_CHECK_OK(layout_.Validate());
  FAASNAP_CHECK(spec_.stable_pages.value() <= layout_.stable.count);
  FAASNAP_CHECK(spec_.scattered_stable_pages <= spec_.stable_pages);
  FAASNAP_CHECK(spec_.window_factor >= 1.0);

  // Clustered scattering of the runtime/library pages: runs of 1-16 pages, mostly
  // single-page gaps (merged away by the 32-page threshold at a small data cost,
  // section 4.6), with an occasional larger jump (different shared objects).
  // Deterministic per function: the runtime layout does not change across runs.
  // Slightly more pages are placed than any one input touches: the expected
  // per-invocation coverage (always-exercised + variable code paths) matches the
  // spec's scattered_stable_pages.
  const double expected_coverage =
      kAlwaysExercisedFraction + (1.0 - kAlwaysExercisedFraction) * kVariablePathProbability;
  const auto to_place = static_cast<uint64_t>(
      std::ceil(static_cast<double>(spec_.scattered_stable_pages.value()) / expected_coverage));
  Rng rng(NameSeed(spec_.name) ^ 0x5eed);
  PageIndex cursor = layout_.stable.first;
  uint64_t placed = 0;
  while (placed < to_place) {
    const uint64_t run = std::min<uint64_t>(1 + rng.NextBelow(16), to_place - placed);
    scattered_runs_.push_back(PageRange{cursor, run});
    cursor += run;
    placed += run;
    const uint64_t gap = rng.NextBool(0.85) ? 1 : 64 + rng.NextBelow(128);
    cursor += gap;
  }
  sequential_stable_ =
      PageRange{cursor, (spec_.stable_pages - spec_.scattered_stable_pages).value()};
  FAASNAP_CHECK(sequential_stable_.end() <= layout_.stable.end());
}

uint64_t TraceGenerator::TotalScatteredPlaced() const {
  uint64_t total = 0;
  for (const PageRange& run : scattered_runs_) {
    total += run.count;
  }
  return total;
}

PageRangeSet TraceGenerator::CleanSnapshotNonZero() const {
  PageRangeSet nonzero;
  nonzero.Add(layout_.boot);
  for (const PageRange& run : scattered_runs_) {
    nonzero.Add(run);
  }
  nonzero.Add(sequential_stable_);
  return nonzero;
}

InvocationTrace TraceGenerator::Generate(const WorkloadInput& input) const {
  InvocationTrace trace;
  // Runs are built with zero compute and given their per-page compute at the
  // end: every access carries the same share, so the runs stay maximal.

  // 1. Stable pages: the scattered runtime segment in a fixed shuffled order
  //    (library/init order is uncorrelated with addresses and identical every
  //    invocation), then the long-lived data read sequentially. An always-
  //    exercised prefix of each run is touched by every input; the rest are
  //    input-dependent code paths selected by the content seed.
  {
    std::vector<PageIndex> scattered;
    scattered.reserve(spec_.scattered_stable_pages.value());
    const uint64_t always_salt = NameSeed(spec_.name) ^ 0xA17A75;
    for (const PageRange& run : scattered_runs_) {
      for (PageIndex p = run.first; p < run.end(); ++p) {
        // Always-exercised pages are a fixed (per-function) subset interleaved
        // through the span; the rest are taken only on matching code paths.
        const bool taken =
            PageSelectionScore(p, always_salt) < kAlwaysExercisedFraction ||
            PageSelectionScore(p, input.content_seed ^ kStablePathSalt) <
                kVariablePathProbability;
        if (taken) {
          scattered.push_back(p);
        }
      }
    }
    Rng shuffle_rng(NameSeed(spec_.name));
    for (uint64_t i = scattered.size(); i > 1; --i) {
      std::swap(scattered[i - 1], scattered[shuffle_rng.NextBelow(i)]);
    }
    for (PageIndex p : scattered) {
      trace.Append(p, 1, Duration::Zero(), /*is_write=*/false);
    }
    if (!sequential_stable_.empty()) {
      trace.Append(sequential_stable_.first, sequential_stable_.count, Duration::Zero(),
                   /*is_write=*/false);
    }
  }

  // 2. Input-dependent window pages: content-seeded subset of the window, visited
  //    in address order (a sparse sweep). These live in the language runtime's
  //    small-object heap, whose arenas are NOT returned to the guest kernel, so
  //    they remain non-zero in the snapshot (and in the loading set) even though
  //    the objects are logically dead — the "sparse access pattern" effect that
  //    inflates image's loading set in Table 3.
  if (!input.profile.input_pages.is_zero()) {
    const PageCount window = PageCount::FromPages(std::min<uint64_t>(
        layout_.window.count,
        static_cast<uint64_t>(std::ceil(static_cast<double>(input.profile.input_pages.value()) *
                                        spec_.window_factor))));
    // Inputs larger than the window zone saturate it (the guest would swap or OOM
    // in reality; the trace simply touches every window page).
    const PageCount effective_input = std::min(input.profile.input_pages, window);
    const double density =
        static_cast<double>(effective_input.value()) / static_cast<double>(window.value());
    const PageIndex window_end = layout_.window.first + window.value();
    const auto selected = [&](PageIndex page) {
      return density >= 1.0 || PageSelectionScore(page, input.content_seed) < density;
    };
    // One test per page, as the page-by-page sweep had; each selected stretch
    // is appended as one run.
    for (PageIndex page = layout_.window.first; page < window_end;) {
      if (!selected(page)) {
        ++page;
        continue;
      }
      const PageIndex first = page;
      while (++page < window_end && selected(page)) {
      }
      trace.Append(first, page - first, Duration::Zero(), /*is_write=*/true);
    }
  }

  // 3. Sequential anonymous allocation sweep in the scratch zone. Placement
  //    jitters with the input (allocator nondeterminism across invocations) for
  //    variable-input functions; a trailing anon_freed_fraction is munmapped back
  //    to the guest kernel at the end (and thus sanitizable, section 4.5).
  if (!input.profile.anon_pages.is_zero()) {
    uint64_t offset = 0;
    if (!spec_.fixed_input) {
      offset = static_cast<uint64_t>(PageSelectionScore(0x0FF5E7, input.content_seed) * 4096.0);
    }
    const PageIndex base = layout_.scratch.first + offset;
    const uint64_t anon =
        std::min<uint64_t>(input.profile.anon_pages.value(), layout_.scratch.end() - base);
    if (anon > 0) {
      trace.Append(base, anon, Duration::Zero(), /*is_write=*/true);
    }
    const auto freed = static_cast<uint64_t>(static_cast<double>(anon) *
                                             spec_.anon_freed_fraction);
    if (freed > 0) {
      trace.freed_at_end.Add(base + (anon - freed), freed);
    }
  }

  // Compute placement: a trailing fraction models post-scan processing; the rest
  // is spread uniformly across the accesses.
  const auto trailing = Duration::Nanos(static_cast<int64_t>(
      static_cast<double>(input.profile.compute.nanos()) * spec_.trailing_compute_fraction));
  const Duration interleaved = input.profile.compute - trailing;
  const uint64_t accesses = trace.access_count();
  if (accesses > 0) {
    const int64_t per_access = interleaved.nanos() / static_cast<int64_t>(accesses);
    for (TraceRun& run : trace.runs) {
      run.compute = Duration::Nanos(per_access);
    }
    trace.trailing_compute =
        input.profile.compute - Duration::Nanos(per_access * static_cast<int64_t>(accesses));
  } else {
    trace.trailing_compute = input.profile.compute;
  }
  return trace;
}

}  // namespace faasnap
