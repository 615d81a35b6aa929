// The paper's shape claims for Figures 1, 2, 6, 7, 8, 9, 10 and 11, Tables 1,
// 2 and 3, the section 7.2 storage costs and tiered placement, the section 7.3
// footprint, the section 4.3 and 4.6 sweeps and the fault-path levers'
// attribution, checked on the shipped configs at one repetition.
// Each claim is an ordering, a ratio band or a crossover. Each known deviation
// (EXPERIMENTS.md, "Known deviations") is pinned as expected with the paper's
// value beside ours, so a model change that fixes or worsens one fails here
// instead of going unseen. Bands sit around the values the shipped configs
// measure; the claims hold at the configs' own repetition counts too.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/daemon/experiment_runner.h"
#include "src/daemon/scenario.h"
#include "src/workloads/function_spec.h"

namespace faasnap {
namespace {

// (function, test input, parallelism, sweep label, system).
using CellKey = std::tuple<std::string, std::string, int, std::string, std::string>;
using Cells = std::map<CellKey, ExperimentCell>;

// Every cell of configs/<name>.json at reps = 1. Each config runs once per
// test binary.
const Cells& RunConfig(const std::string& name) {
  static std::map<std::string, Cells> cache;
  auto [it, inserted] = cache.try_emplace(name);
  if (!inserted) {
    return it->second;
  }
  Result<Scenario> scenario =
      LoadScenario(std::string(FAASNAP_SOURCE_DIR) + "/configs/" + name + ".json");
  EXPECT_TRUE(scenario.ok()) << name << ": " << scenario.status().ToString();
  if (!scenario.ok()) {
    return it->second;
  }
  scenario->reps = 1;
  Result<ExperimentResults> results = RunExperiment(*scenario);
  EXPECT_TRUE(results.ok()) << name << ": " << results.status().ToString();
  if (results.ok()) {
    for (ExperimentCell& cell : results->cells) {
      CellKey key{cell.function, cell.test_input, cell.parallelism, cell.sweep, cell.system};
      it->second.emplace(std::move(key), std::move(cell));
    }
  }
  return it->second;
}

// One report field of a cell, as a member of ExperimentCell.
using Field = RunningStats ExperimentCell::*;

// One config's cells, looked up by name. A missing cell is NaN, which fails
// every comparison it enters.
class Figure {
 public:
  Figure(const std::string& config, std::string test_input)
      : cells_(RunConfig(config)), test_input_(std::move(test_input)) {}

  // The cell, or nullptr (a failed expectation) when the config has none.
  const ExperimentCell* Find(const std::string& function, const std::string& system,
                             int parallelism = 1, const std::string& test_input = "",
                             const std::string& sweep = "") const {
    const CellKey key{function, test_input.empty() ? test_input_ : test_input, parallelism,
                      sweep, system};
    auto it = cells_.find(key);
    EXPECT_NE(it, cells_.end()) << "no cell " << function << " " << system << " x"
                                << parallelism << " " << sweep;
    return it == cells_.end() ? nullptr : &it->second;
  }

  // The mean of `field` over the cell's invocations.
  double Mean(Field field, const std::string& function, const std::string& system,
              int parallelism = 1, const std::string& test_input = "",
              const std::string& sweep = "") const {
    const ExperimentCell* cell = Find(function, system, parallelism, test_input, sweep);
    return cell == nullptr ? std::numeric_limits<double>::quiet_NaN() : (cell->*field).mean();
  }

  // Mean total milliseconds.
  double Ms(const std::string& function, const std::string& system, int parallelism = 1,
            const std::string& test_input = "", const std::string& sweep = "") const {
    return Mean(&ExperimentCell::total_ms, function, system, parallelism, test_input, sweep);
  }

 private:
  const Cells& cells_;
  std::string test_input_;
};

std::vector<std::string> AllFunctions() {
  std::vector<std::string> functions = SyntheticFunctionNames();
  for (const std::string& f : BenchmarkFunctionNames()) {
    functions.push_back(f);
  }
  return functions;
}

// Figure 1: the section 3.1 guest (1 vCPU). Test input "1x" is input A's size
// with other contents: the paper's image-diff.
TEST(PaperShapes, Figure1TimeBreakdown) {
  const Figure fig("test-breakdown", "A");
  EXPECT_DOUBLE_EQ(fig.Mean(&ExperimentCell::invocation_ms, "hello-world", "warm"), 4.0);
  for (const char* f : {"hello-world", "image", "read-list", "mmap"}) {
    EXPECT_LT(fig.Ms(f, "warm"), fig.Ms(f, "cached")) << f;
    EXPECT_LT(fig.Ms(f, "cached"), fig.Ms(f, "reap")) << f;
    EXPECT_LT(fig.Ms(f, "reap"), fig.Ms(f, "firecracker")) << f;
  }
  // REAP matches Cached when the test input is the record input...
  for (const char* f : {"hello-world", "image"}) {
    EXPECT_LE(fig.Ms(f, "reap") / fig.Ms(f, "cached"), 1.10) << f;
  }
  // ...and degrades when the contents drift, while Cached does not move.
  EXPECT_GE(fig.Ms("image", "reap", 1, "1x") / fig.Ms("image", "reap"), 1.5)
      << "the paper has 262 vs 92 ms";
  EXPECT_NEAR(fig.Ms("image", "cached", 1, "1x") / fig.Ms("image", "cached"), 1.0, 0.01);
  // Large working sets: REAP pays a long blocking fetch, then its soft
  // uffd-installed faults beat Cached's page-cache minors (section 3.2).
  for (const char* f : {"read-list", "mmap"}) {
    EXPECT_GT(fig.Mean(&ExperimentCell::setup_ms, f, "reap"),
              5 * fig.Mean(&ExperimentCell::setup_ms, f, "cached"))
        << f;
    EXPECT_LT(fig.Mean(&ExperimentCell::invocation_ms, f, "reap"),
              fig.Mean(&ExperimentCell::invocation_ms, f, "cached"))
        << f;
  }
  // A fixed-input function's "1x" is its input A.
  for (const char* f : {"hello-world", "read-list", "mmap"}) {
    for (const char* system : {"warm", "firecracker", "cached", "reap"}) {
      EXPECT_EQ(fig.Ms(f, system, 1, "1x"), fig.Ms(f, system)) << f << " " << system;
    }
  }
  EXPECT_NEAR(fig.Ms("hello-world", "firecracker"), 142.5, 3.0)
      << "D11: the paper has 229 ms";
}

// Faults of `h` in buckets that end at or below `edge`.
int64_t FaultsBelow(const Log2Histogram& h, Duration edge) {
  int64_t count = 0;
  for (int i = 0; i < h.num_buckets() && h.bucket_upper(i) <= edge; ++i) {
    count += h.bucket_count(i);
  }
  return count;
}

double ShareBelow(const Log2Histogram& h, Duration edge) {
  return static_cast<double>(FaultsBelow(h, edge)) / static_cast<double>(h.total_count());
}

// The bucket [edge / 2, edge).
int64_t BucketEndingAt(const Log2Histogram& h, Duration edge) {
  for (int i = 0; i < h.num_buckets(); ++i) {
    if (h.bucket_upper(i) == edge) {
      return h.bucket_count(i);
    }
  }
  ADD_FAILURE() << "no bucket ends at " << edge.micros() << " us";
  return 0;
}

// Figure 2: fault-handling times of Figure 1's image-diff, the image/1x cells.
TEST(PaperShapes, Figure2FaultLatencyDistribution) {
  const Figure fig("test-breakdown", "1x");
  const ExperimentCell* warm = fig.Find("image", "warm");
  const ExperimentCell* firecracker = fig.Find("image", "firecracker");
  const ExperimentCell* cached = fig.Find("image", "cached");
  const ExperimentCell* reap = fig.Find("image", "reap");
  ASSERT_TRUE(warm != nullptr && firecracker != nullptr && cached != nullptr && reap != nullptr);
  const Log2Histogram& w = warm->fault_latency;
  EXPECT_EQ(w.total_count(), 1689);
  EXPECT_EQ(FaultsBelow(w, Duration::Micros(16)), w.total_count());
  EXPECT_NEAR(w.mean().micros(), 2.5, 0.1);
  // Restoring from a snapshot faults on every page the guest touches.
  for (const ExperimentCell* cell : {firecracker, cached, reap}) {
    EXPECT_EQ(cell->fault_latency.total_count(), 5206) << cell->system;
    EXPECT_NEAR(static_cast<double>(cell->fault_latency.total_count()) /
                    static_cast<double>(w.total_count()),
                3.1, 0.05)
        << cell->system << ": the paper has about 9k faults against Warm's 4k";
  }
  // Cached: page-cache minors, nearly all under 8 us and no major tail.
  EXPECT_GE(ShareBelow(cached->fault_latency, Duration::Micros(8)), 0.90);
  EXPECT_EQ(FaultsBelow(cached->fault_latency, Duration::Micros(32)),
            cached->fault_latency.total_count());
  // REAP is bimodal: preinstalled pages below 4 us, userspace round trips
  // from 8 us, and a trough between them.
  const Log2Histogram& r = reap->fault_latency;
  EXPECT_LT(BucketEndingAt(r, Duration::Micros(8)), BucketEndingAt(r, Duration::Micros(4)));
  EXPECT_LT(BucketEndingAt(r, Duration::Micros(8)), BucketEndingAt(r, Duration::Micros(16)));
  const Log2Histogram& f = firecracker->fault_latency;
  const char* d2 = "D2: the paper has about 9% of Firecracker's faults at or above 32 us, "
                   "averaging 13.3 us";
  EXPECT_NEAR(1.0 - ShareBelow(f, Duration::Micros(32)), 0.248, 0.01) << d2;
  EXPECT_NEAR(f.mean().micros(), 29.2, 0.5) << d2;
  EXPECT_NEAR(r.mean().micros(), 18.1, 0.5) << "D3: the paper has REAP averaging 6.7 us";
}

// Figure 6: the nine variable-input functions.
void CheckFigure6(const Figure& fig, double reap_ratio, const char* d4) {
  const std::vector<std::string> functions = BenchmarkFunctionNames();
  double fc_sum = 0;
  double reap_sum = 0;
  for (const std::string& f : functions) {
    const double faasnap = fig.Ms(f, "faasnap");
    EXPECT_LT(faasnap, fig.Ms(f, "firecracker")) << f;
    EXPECT_LT(faasnap, fig.Ms(f, "reap")) << f;
    const double vs_cached = faasnap / fig.Ms(f, "cached");
    EXPECT_GE(vs_cached, 1.00) << f;
    EXPECT_LE(vs_cached, 1.10) << f;
    fc_sum += fig.Ms(f, "firecracker") / faasnap;
    reap_sum += fig.Ms(f, "reap") / faasnap;
  }
  const auto n = static_cast<double>(functions.size());
  EXPECT_NEAR(fc_sum / n, 1.54, 0.05) << "D1: the paper has ~2.0x over Firecracker";
  EXPECT_NEAR(reap_sum / n, reap_ratio, 0.05) << d4;
}

TEST(PaperShapes, Figure6RecordATestB) {
  CheckFigure6(Figure("test-2inputs", "B"), 1.64, "D4: the paper has 1.55x over REAP");
}

TEST(PaperShapes, Figure6RecordBTestA) {
  CheckFigure6(Figure("test-2inputs-ba", "A"), 1.53, "D4: the paper has 1.16x over REAP");
}

TEST(PaperShapes, Figure7SyntheticFunctions) {
  const Figure fig("test-2inputs", "B");
  // mmap: freed and sanitized pages fault anonymously under FaaSnap, while
  // Cached pays page-cache minors for them.
  EXPECT_LT(fig.Ms("mmap", "faasnap"), fig.Ms("mmap", "reap"));
  EXPECT_LT(fig.Ms("mmap", "reap"), fig.Ms("mmap", "firecracker"));
  EXPECT_LT(fig.Ms("mmap", "cached"), fig.Ms("mmap", "faasnap"));
  EXPECT_NEAR(fig.Ms("hello-world", "faasnap") / fig.Ms("hello-world", "cached"), 1.0, 0.02);
  EXPECT_NEAR(fig.Ms("read-list", "faasnap") / fig.Ms("read-list", "cached"), 1.0, 0.01)
      << "D5: the paper has Cached ~30% ahead of FaaSnap";
}

TEST(PaperShapes, Figure8InputSizeSensitivity) {
  const Figure fig("test-6inputs", "1x");
  auto vs_cached = [&](const std::string& f, const std::string& ratio) {
    return fig.Ms(f, "faasnap", 1, ratio) / fig.Ms(f, "cached", 1, ratio);
  };
  // REAP's recorded working set misses most of a larger input.
  for (const char* f : {"chameleon", "image", "pagerank"}) {
    for (const char* ratio : {"2x", "4x"}) {
      EXPECT_GT(fig.Ms(f, "reap", 1, ratio), fig.Ms(f, "firecracker", 1, ratio))
          << f << " " << ratio;
    }
  }
  for (const std::string& f : BenchmarkFunctionNames()) {
    for (const char* ratio : {"1x", "2x", "4x"}) {
      EXPECT_LE(vs_cached(f, ratio), 1.06) << f << " " << ratio;
    }
  }
  std::set<std::string> trailing;
  double worst = 0;
  for (const std::string& f : BenchmarkFunctionNames()) {
    for (const char* ratio : {"0.25x", "0.5x"}) {
      if (vs_cached(f, ratio) > 1.06) {
        trailing.insert(f);
      }
      worst = std::max(worst, vs_cached(f, ratio));
    }
  }
  const char* d9 = "D9: the paper has FaaSnap overlapping Cached at every ratio";
  EXPECT_EQ(trailing, (std::set<std::string>{"ffmpeg", "pagerank", "recognition"})) << d9;
  EXPECT_NEAR(worst, 1.17, 0.03) << d9;
}

// Figure 9 (Firecracker -> + concurrent paging -> + per-region mapping ->
// FaaSnap) and Table 3 (REAP against FaaSnap) read one config.
constexpr const char* kAblationFunctions[] = {"image", "ffmpeg"};
constexpr const char* kAblationSteps[] = {"firecracker", "con-paging", "per-region", "faasnap"};

TEST(PaperShapes, Figure9OptimizationSteps) {
  const Figure fig("test-ablation", "B");
  for (const char* f : kAblationFunctions) {
    for (Field field : {&ExperimentCell::invocation_ms, &ExperimentCell::fault_ms}) {
      EXPECT_GT(fig.Mean(field, f, "firecracker"), fig.Mean(field, f, "con-paging")) << f;
      EXPECT_GT(fig.Mean(field, f, "con-paging"), fig.Mean(field, f, "per-region")) << f;
    }
    // Neither count rises from step to step. For per-region's major faults
    // that is deviation D6: the paper has more than con-paging.
    for (Field field : {&ExperimentCell::major_faults, &ExperimentCell::fault_block_requests}) {
      for (size_t i = 1; i < std::size(kAblationSteps); ++i) {
        EXPECT_LE(fig.Mean(field, f, kAblationSteps[i]), fig.Mean(field, f, kAblationSteps[i - 1]))
            << f << " " << kAblationSteps[i];
      }
    }
    EXPECT_GT(fig.Mean(&ExperimentCell::fault_block_requests, f, "firecracker"),
              100 * fig.Mean(&ExperimentCell::fault_block_requests, f, "faasnap"))
        << f;
    EXPECT_NEAR(fig.Ms(f, "faasnap") / fig.Ms(f, "per-region"), 1.0, 0.01)
        << "D6: the paper has FaaSnap ahead of per-region, " << f;
  }
  // The compact loading-set file shortens the loader's fetch.
  EXPECT_LT(fig.Mean(&ExperimentCell::fetch_ms, "ffmpeg", "faasnap"),
            fig.Mean(&ExperimentCell::fetch_ms, "ffmpeg", "con-paging"));
}

TEST(PaperShapes, Table3PerformanceAnalysis) {
  const Figure fig("test-ablation", "B");
  // ffmpeg: FaaSnap wins through its shorter, non-blocking fetch.
  EXPECT_LT(fig.Ms("ffmpeg", "faasnap"), fig.Ms("ffmpeg", "reap"));
  EXPECT_LT(fig.Mean(&ExperimentCell::fetch_ms, "ffmpeg", "faasnap"),
            fig.Mean(&ExperimentCell::fetch_ms, "ffmpeg", "reap"));
  // image: FaaSnap fetches more than REAP yet wins, because REAP's userspace
  // fault handling stalls the vCPU.
  EXPECT_GT(fig.Mean(&ExperimentCell::fetch_mb, "image", "faasnap"),
            fig.Mean(&ExperimentCell::fetch_mb, "image", "reap"));
  const char* d12 = "D12: the paper has REAP 3.5x slower, with 342 vs 109 ms of waiting";
  EXPECT_NEAR(fig.Ms("image", "reap") / fig.Ms("image", "faasnap"), 2.62, 0.1) << d12;
  EXPECT_GT(fig.Mean(&ExperimentCell::fault_wait_ms, "image", "reap"),
            5 * fig.Mean(&ExperimentCell::fault_wait_ms, "image", "faasnap"))
      << d12;
  // FaaSnap's guest barely blocks on IO: a handful of major faults, 0.0 MB at
  // the table's precision.
  for (const char* f : kAblationFunctions) {
    EXPECT_LT(fig.Mean(&ExperimentCell::guest_pagefault_mb, f, "faasnap"), 0.05) << f;
  }
}

// Table 1: the record phase's four page sets, the same in every system's cell.
TEST(PaperShapes, Table1PageTypes) {
  const Figure fig("test-2inputs", "B");
  constexpr Field kSets[] = {&ExperimentCell::ws_nonzero_mib, &ExperimentCell::cold_set_mib,
                             &ExperimentCell::released_set_mib, &ExperimentCell::unused_set_mib};
  for (const std::string& f : AllFunctions()) {
    double guest = 0;
    for (Field set : kSets) {
      guest += fig.Mean(set, f, "firecracker");
      for (const char* system : {"reap", "faasnap", "cached"}) {
        EXPECT_EQ(fig.Mean(set, f, system), fig.Mean(set, f, "firecracker")) << f << " " << system;
      }
    }
    EXPECT_EQ(guest, 2048.0) << f << ": the four sets partition guest memory";
    const double cold = fig.Mean(&ExperimentCell::cold_set_mib, f, "faasnap");
    EXPECT_GT(cold, 100.0) << f << ": the paper has more than 100 MB, mostly boot pages";
    EXPECT_NEAR(cold, 120.15, 0.1) << f;
  }
  // mmap frees its 512 MiB region before the snapshot; sanitized, it is zero.
  EXPECT_GE(fig.Mean(&ExperimentCell::released_set_mib, "mmap", "faasnap"), 512.0);
}

// Table 2's measured columns: the recorded working set (Table 1's working set
// pages, zero or not), REAP's and the loading set.
TEST(PaperShapes, Table2RecordedWorkingSets) {
  const Figure fig("test-2inputs", "B");
  const auto recorded = [&](const std::string& f) {
    return fig.Mean(&ExperimentCell::ws_nonzero_mib, f, "faasnap") +
           fig.Mean(&ExperimentCell::released_set_mib, f, "faasnap");
  };
  // Section 4.4: host page recording keeps the readahead pages that REAP's
  // faulting-page recording misses.
  for (const std::string& f : AllFunctions()) {
    EXPECT_GT(recorded(f), fig.Mean(&ExperimentCell::reap_ws_mib, f, "faasnap")) << f;
  }
  // Section 4.6: the loading set drops the working set's zero pages.
  EXPECT_LT(fig.Mean(&ExperimentCell::loading_set_mib, "mmap", "faasnap"), recorded("mmap") / 4);
}

// Section 7.2: snapshot files stored sparse, and what the hybrid placement
// keeps on local SSD (the loading sets).
TEST(PaperShapes, StorageCosts) {
  const Figure fig("test-2inputs", "B");
  const auto sanitized = [&](const std::string& f) {
    return fig.Mean(&ExperimentCell::ws_nonzero_mib, f, "faasnap") +
           fig.Mean(&ExperimentCell::cold_set_mib, f, "faasnap");
  };
  const auto vanilla = [&](const std::string& f) {
    return fig.Mean(&ExperimentCell::vanilla_nonzero_mib, f, "faasnap");
  };
  double vanilla_total = 0;
  double sanitized_total = 0;
  double loading_total = 0;
  for (const std::string& f : AllFunctions()) {
    EXPECT_LE(sanitized(f), vanilla(f)) << f;
    vanilla_total += vanilla(f);
    sanitized_total += sanitized(f);
    loading_total += fig.Mean(&ExperimentCell::loading_set_mib, f, "faasnap");
  }
  // Sanitizing mmap's freed region shrinks its sparse file.
  EXPECT_LT(sanitized("mmap"), vanilla("mmap") / 4);
  EXPECT_NEAR(vanilla_total, 3241, 32);
  EXPECT_NEAR(sanitized_total, 2620, 26);
  EXPECT_NEAR(loading_total, 1282, 13);
}

// Section 7.2's proposal: loading sets on local SSD, memory files (and REAP's
// working set) on EBS.
TEST(PaperShapes, TieredStoragePlacement) {
  const Figure fig("test-tiered-storage", "B");
  constexpr const char* kLocal = "{}";
  constexpr const char* kHybrid = R"({"memory_files":"remote","reap_ws":"remote"})";
  constexpr const char* kRemote =
      R"({"loading_set":"remote","memory_files":"remote","reap_ws":"remote"})";
  const auto penalty = [&](const char* f, const char* system) {
    return fig.Ms(f, system, 1, "", kHybrid) / fig.Ms(f, system, 1, "", kLocal) - 1.0;
  };
  for (const char* f : {"hello-world", "json", "image", "ffmpeg", "recognition"}) {
    // FaaSnap's critical path reads the loading set; cold-set reads are rare.
    EXPECT_NEAR(penalty(f, "faasnap"), 0.0, 0.05) << f;
    // Neither REAP nor Firecracker reads a loading set.
    for (const char* system : {"reap", "firecracker"}) {
      EXPECT_EQ(fig.Ms(f, system, 1, "", kHybrid), fig.Ms(f, system, 1, "", kRemote))
          << f << " " << system;
    }
    EXPECT_GE(penalty(f, "reap"), 0.05) << f;
    EXPECT_GE(penalty(f, "firecracker"), 0.50) << f;
  }
}

constexpr int kParallelism[] = {1, 4, 16, 64};

TEST(PaperShapes, Figure10SameSnapshot) {
  const Figure fig("test-burst", "A");
  // REAP's fetch bypasses the page cache, so its burst members cannot share.
  for (const char* f : {"hello-world", "json"}) {
    for (int p : kParallelism) {
      EXPECT_LT(fig.Ms(f, "faasnap", p), fig.Ms(f, "reap", p)) << f << " x" << p;
    }
  }
  // Firecracker's guests warm the shared page cache for each other.
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0;
  for (int p : kParallelism) {
    lo = std::min(lo, fig.Ms("hello-world", "firecracker", p));
    hi = std::max(hi, fig.Ms("hello-world", "firecracker", p));
  }
  EXPECT_LE(hi / lo, 1.10);
  const char* d10 = "D10: the paper has REAP ahead of Firecracker below 64-way";
  EXPECT_LT(fig.Ms("json", "reap", 1), fig.Ms("json", "firecracker", 1));
  for (int p : {4, 16, 64}) {
    EXPECT_GT(fig.Ms("json", "reap", p), fig.Ms("json", "firecracker", p)) << d10 << ", x" << p;
  }
}

TEST(PaperShapes, Figure10DistinctSnapshots) {
  const Figure fig("test-burst-distinct", "A");
  // Without a shared snapshot, Firecracker's demand reads pile onto the disk.
  for (const char* f : {"hello-world", "json"}) {
    EXPECT_GT(fig.Ms(f, "firecracker", 64), 4 * fig.Ms(f, "firecracker", 1)) << f;
  }
  for (int p : kParallelism) {
    EXPECT_LT(fig.Ms("json", "faasnap", p), fig.Ms("json", "reap", p)) << "x" << p;
  }
  const char* d7 = "D7: the paper has FaaSnap ahead of REAP at every parallelism";
  for (int p : {1, 4}) {
    EXPECT_LT(fig.Ms("hello-world", "faasnap", p), fig.Ms("hello-world", "reap", p)) << "x" << p;
  }
  for (int p : {16, 64}) {
    EXPECT_GT(fig.Ms("hello-world", "faasnap", p), fig.Ms("hello-world", "reap", p))
        << d7 << ", x" << p;
  }
}

TEST(PaperShapes, Figure11RemoteStorage) {
  const Figure ebs("test-remote", "B");
  const Figure nvme("test-2inputs", "B");
  const std::vector<std::string> functions = AllFunctions();
  double fc_sum = 0;
  double reap_sum = 0;
  double nvme_sum = 0;
  for (const std::string& f : functions) {
    const double faasnap = ebs.Ms(f, "faasnap");
    EXPECT_LT(faasnap, ebs.Ms(f, "firecracker")) << f;
    EXPECT_LT(faasnap, ebs.Ms(f, "reap")) << f;
    fc_sum += ebs.Ms(f, "firecracker") / faasnap;
    reap_sum += ebs.Ms(f, "reap") / faasnap;
    nvme_sum += faasnap / nvme.Ms(f, "faasnap");
  }
  const auto n = static_cast<double>(functions.size());
  EXPECT_NEAR(fc_sum / n, 3.3, 0.15) << "D8: the paper has 2.06x over Firecracker";
  EXPECT_NEAR(reap_sum / n, 2.16, 0.1) << "D8: the paper has 1.20x over REAP";
  EXPECT_NEAR(nvme_sum / n, 1.04, 0.03) << "D8: the paper has EBS 1.28x slower than NVMe";
}

// Section 7.3: anonymous plus page-cache memory at completion.
TEST(PaperShapes, MemoryFootprint) {
  const Figure fig("test-2inputs", "B");
  const auto footprint = [&](const std::string& f, const char* system) {
    return fig.Mean(&ExperimentCell::footprint_mib, f, system);
  };
  const std::vector<std::string> functions = AllFunctions();
  double ratio_sum = 0;
  double lowest = std::numeric_limits<double>::infinity();
  for (const std::string& f : functions) {
    const double ratio = footprint(f, "faasnap") / footprint(f, "firecracker");
    ratio_sum += ratio;
    lowest = std::min(lowest, ratio);
  }
  // Prefetching the loading set adds little: FaaSnap can use less than
  // Firecracker (image 0.76x).
  EXPECT_LT(lowest, 1.0);
  // REAP's footprint balloons when its working-set estimate is inaccurate.
  EXPECT_GT(footprint("pagerank", "reap"), 1.5 * footprint("pagerank", "firecracker"));
  EXPECT_NEAR(ratio_sum / static_cast<double>(functions.size()), 0.96, 0.02)
      << "D13: the paper has FaaSnap ~1.06x Firecracker on average";
}

// Section 4.3: the working-set group size N, swept on EBS, where the loader
// still races the guest.
TEST(PaperShapes, GroupSizeSweep) {
  const Figure fig("test-group-size", "B");
  const auto ms = [&](const std::string& f, const char* n) {
    return fig.Ms(f, "faasnap", 1, "", n);
  };
  const char* kSizes[] = {"64", "256", "1024", "4096", "16384"};
  const char* deviation = "D14: the paper has both extremes of N worse than 1024";
  for (const char* f : {"recognition", "read-list", "ffmpeg"}) {
    double best = std::numeric_limits<double>::infinity();
    double worst = 0;
    for (const char* n : kSizes) {
      best = std::min(best, ms(f, n));
      worst = std::max(worst, ms(f, n));
    }
    EXPECT_LE(ms(f, "1024"), 1.01 * best) << f;
    EXPECT_NEAR(ms(f, "16384") / ms(f, "1024"), 1.0, 0.01) << deviation << ", " << f;
    if (std::string(f) != "recognition") {
      EXPECT_LE(worst / best, 1.01) << deviation << ", " << f;
    }
  }
  // Exact access order fragments the loading-set file's reads: the paper's
  // loader takes 100 ms longer.
  EXPECT_GE(ms("recognition", "64") / ms("recognition", "1024"), 1.10);
}

// Section 4.6: merging loading-set regions across gaps of up to 32 pages.
TEST(PaperShapes, MergeGapSweep) {
  const Figure fig("test-merge-gap", "B");
  const auto mean = [&](Field field, const std::string& f, const char* gap) {
    return fig.Mean(field, f, "faasnap", 1, "", gap);
  };
  const auto regions = [&](const std::string& f, const char* gap) {
    return mean(&ExperimentCell::loading_set_regions, f, gap);
  };
  EXPECT_LT(regions("hello-world", "32"), 100);
  for (const char* f : {"hello-world", "image"}) {
    EXPECT_LE(regions(f, "32"), regions(f, "0") / 4) << f;
    EXPECT_LT(mean(&ExperimentCell::mmap_calls, f, "32"), mean(&ExperimentCell::mmap_calls, f, "0"))
        << f;
    double best = std::numeric_limits<double>::infinity();
    for (const char* gap : {"0", "4", "16", "32", "128", "512"}) {
      best = std::min(best, mean(&ExperimentCell::total_ms, f, gap));
    }
    EXPECT_LE(mean(&ExperimentCell::total_ms, f, "32"), 1.01 * best) << f;
  }
  const char* deviation = "D15: the paper has over 1000 regions at gap 0, and a loading set "
                          "that grows by a few percent";
  EXPECT_NEAR(regions("hello-world", "0"), 392, 20) << deviation;
  const double growth = mean(&ExperimentCell::loading_set_mib, "hello-world", "32") /
                        mean(&ExperimentCell::loading_set_mib, "hello-world", "0");
  EXPECT_GE(growth, 1.05) << deviation;
  EXPECT_LE(growth, 1.20) << deviation;
}

// The fault-path levers (section 7.1's OS co-design): each lever moves only the
// path it models, and its attribution counter counts only while it is on.
constexpr const char* kLeversOff = "{}";
constexpr const char* kBatch = R"({"batched_uffd_install":true})";
constexpr const char* kHuge = R"({"huge_pages":true})";
constexpr const char* kCoalesce = R"({"fault_coalescing":true})";
constexpr const char* kAllLevers =
    R"({"batched_uffd_install":true,"fault_coalescing":true,"huge_pages":true})";
constexpr Field kLeverCounters[] = {&ExperimentCell::batch_installs,
                                    &ExperimentCell::batch_installed_pages,
                                    &ExperimentCell::huge_installs, &ExperimentCell::huge_splits,
                                    &ExperimentCell::coalesced_pages};

TEST(PaperShapes, FaultPathLeverAttribution) {
  const Figure fig("test-faultpath", "B");
  const auto mean = [&](Field field, const char* f, const char* system, const char* levers) {
    return fig.Mean(field, f, system, 1, "", levers);
  };
  const auto ms = [&](const char* f, const char* system, const char* levers) {
    return mean(&ExperimentCell::total_ms, f, system, levers);
  };
  for (const char* f : kAblationFunctions) {
    for (const char* system : {"reap", "faasnap"}) {
      for (Field counter : kLeverCounters) {
        EXPECT_EQ(mean(counter, f, system, kLeversOff), 0) << f << " " << system;
      }
    }
    // A lever that does not apply leaves its cell exactly as it was.
    for (const char* levers : {kHuge, kCoalesce}) {
      EXPECT_EQ(ms(f, "reap", levers), ms(f, "reap", kLeversOff)) << f << " " << levers;
    }
    for (const char* levers : {kBatch, kCoalesce}) {
      EXPECT_EQ(ms(f, "faasnap", levers), ms(f, "faasnap", kLeversOff)) << f << " " << levers;
    }
    EXPECT_EQ(ms(f, "reap", kAllLevers), ms(f, "reap", kBatch)) << f;
    EXPECT_EQ(ms(f, "faasnap", kAllLevers), ms(f, "faasnap", kHuge)) << f;
    // Batching shortens REAP's installs and round trips; huge regions collapse
    // FaaSnap's dense loading-set areas into single faults.
    EXPECT_LT(ms(f, "reap", kBatch), ms(f, "reap", kLeversOff)) << f;
    EXPECT_LT(ms(f, "faasnap", kHuge), ms(f, "faasnap", kLeversOff)) << f;
  }
  EXPECT_EQ(mean(&ExperimentCell::batch_installs, "ffmpeg", "reap", kBatch), 1170);
  EXPECT_EQ(mean(&ExperimentCell::batch_installed_pages, "ffmpeg", "reap", kBatch), 48194);
  EXPECT_EQ(mean(&ExperimentCell::batch_installs, "image", "reap", kBatch), 3958);
  EXPECT_EQ(mean(&ExperimentCell::huge_installs, "ffmpeg", "faasnap", kHuge), 69);
  EXPECT_EQ(mean(&ExperimentCell::huge_installs, "image", "faasnap", kHuge), 12);
}

// A lone restoring VM never faults into someone else's read, so coalescing
// engages only in a same-snapshot burst through the shared page cache.
TEST(PaperShapes, FaultCoalescingBurst) {
  const Figure fig("test-faultpath-burst", "A");
  const auto mean = [&](Field field, const char* f, const char* levers) {
    return fig.Mean(field, f, "firecracker", 64, "", levers);
  };
  for (const char* f : {"hello-world", "image"}) {
    for (Field counter : kLeverCounters) {
      EXPECT_EQ(mean(counter, f, kLeversOff), 0) << f;
    }
  }
  // The cell holds per-invocation means; the 64 members coalesce 38,291 pages.
  EXPECT_EQ(64 * mean(&ExperimentCell::coalesced_pages, "hello-world", kCoalesce), 38291);
  EXPECT_LT(mean(&ExperimentCell::total_ms, "hello-world", kCoalesce),
            mean(&ExperimentCell::total_ms, "hello-world", kLeversOff));
}

}  // namespace
}  // namespace faasnap
