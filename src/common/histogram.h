// Log2Histogram: power-of-two bucketed latency histogram.
//
// Figure 2 of the paper plots page-fault handling times into buckets
// 0.5us, 1us, 2us, ... 512us (both axes log scale). This histogram reproduces that
// bucketing: bucket i covers [lower * 2^i, lower * 2^(i+1)) nanoseconds.

#ifndef FAASNAP_SRC_COMMON_HISTOGRAM_H_
#define FAASNAP_SRC_COMMON_HISTOGRAM_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "src/common/sim_time.h"

namespace faasnap {

class Log2Histogram {
 public:
  // `lower_edge` is the upper edge of the first bucket; `num_buckets` buckets double
  // from there. A final overflow bucket catches everything beyond the last edge.
  // The Figure 2 configuration is Log2Histogram(Duration::Nanos(500), /*num_buckets=*/11):
  // <0.5us, 0.5-1us, 1-2us, ..., 256-512us, >512us.
  Log2Histogram(Duration lower_edge, int num_buckets);

  // Inline and branch-free: every fault retire records one sample. The bucket
  // counts the edges lower * 2^j at or below the sample, which are exactly the
  // j with 2^j <= q = floor(sample / lower): bit_width(q), capped at the
  // overflow bucket. It is computed as bit_width(q | 1) - (q == 0), which needs
  // no zero test. A negative sample lands in bucket 0.
  void Record(Duration d) {
    const auto q = static_cast<uint64_t>(std::max<int64_t>(d.nanos(), 0)) /
                   static_cast<uint64_t>(lower_.nanos());
    const size_t edges_at_or_below = std::bit_width(q | 1) - static_cast<size_t>(q == 0);
    counts_[std::min(edges_at_or_below, counts_.size() - 1)]++;
    total_count_++;
    total_time_ += d;
  }
  void Merge(const Log2Histogram& other);
  void Reset();

  int64_t total_count() const { return total_count_; }
  Duration total_time() const { return total_time_; }
  Duration mean() const;
  // Smallest bucket upper edge such that >= fraction of samples are at or below it.
  // fraction in (0, 1]. Returns the overflow edge if needed.
  Duration ApproxQuantile(double fraction) const;
  // Quantile with log-linear interpolation *within* the winning bucket (samples
  // assumed log-uniform inside a power-of-two bucket; linear inside bucket 0,
  // which starts at zero). Unlike ApproxQuantile this never returns the
  // INT64_MAX overflow edge: the overflow bucket extrapolates one doubling
  // past the last finite edge. See EstimateLog2Quantile for the exact formula.
  Duration EstimateQuantile(double fraction) const;

  int num_buckets() const { return static_cast<int>(counts_.size()); }
  Duration lower_edge() const { return lower_; }
  int64_t bucket_count(int i) const { return counts_[static_cast<size_t>(i)]; }
  // Upper edge of bucket i (the overflow bucket reports Duration::Nanos(INT64_MAX)).
  Duration bucket_upper(int i) const;

 private:
  Duration lower_;  // upper edge of bucket 0
  std::vector<int64_t> counts_;  // num_buckets + underflow handled by bucket 0 + overflow at end
  int64_t total_count_ = 0;
  Duration total_time_;
};

// Log-linear interpolated quantile over raw log2 bucket counts laid out like
// Log2Histogram's (`counts.back()` is the overflow bucket, earlier bucket i
// covers [lower * 2^(i-1), lower * 2^i), bucket 0 covers [0, lower)).
// Exposed separately so windowed *delta* counts (MetricsTimeline) can reuse the
// same estimator without building a temporary histogram. With target rank
// r = ceil(fraction * total) landing in a bucket [lo, hi) at in-bucket fraction
// f = (r - rank_before_bucket) / bucket_count:
//   bucket 0:   lo == 0, linear:      hi * f
//   bucket i:   log-linear:           lo * 2^f
//   overflow:   one doubling past the last finite edge: last_edge * 2^f
// Returns Zero when every count is zero.
Duration EstimateLog2Quantile(const std::vector<int64_t>& counts, Duration lower_edge,
                              double fraction);

// Plain running statistics (count/mean/min/max) for scalar series.
class RunningStats {
 public:
  void Record(double v);
  void Merge(const RunningStats& other);

  int64_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  // Population standard deviation.
  double stddev() const;

 private:
  int64_t count_ = 0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace faasnap

#endif  // FAASNAP_SRC_COMMON_HISTOGRAM_H_
