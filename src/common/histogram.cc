#include "src/common/histogram.h"

#include <algorithm>
#include <cmath>

#include "src/common/status.h"

namespace faasnap {

Log2Histogram::Log2Histogram(Duration lower_edge, int num_buckets) : lower_(lower_edge) {
  FAASNAP_CHECK(lower_edge > Duration::Zero());
  FAASNAP_CHECK(num_buckets >= 1);
  // +1 overflow bucket at the end.
  counts_.assign(static_cast<size_t>(num_buckets) + 1, 0);
}

void Log2Histogram::Merge(const Log2Histogram& other) {
  FAASNAP_CHECK(other.lower_ == lower_);
  FAASNAP_CHECK(other.counts_.size() == counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  total_count_ += other.total_count_;
  total_time_ += other.total_time_;
}

void Log2Histogram::Reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_count_ = 0;
  total_time_ = Duration::Zero();
}

Duration Log2Histogram::mean() const {
  if (total_count_ == 0) {
    return Duration::Zero();
  }
  return Duration::Nanos(total_time_.nanos() / total_count_);
}

Duration Log2Histogram::ApproxQuantile(double fraction) const {
  if (total_count_ == 0) {
    return Duration::Zero();
  }
  const auto target = static_cast<int64_t>(std::ceil(fraction * static_cast<double>(total_count_)));
  int64_t seen = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= target) {
      return bucket_upper(static_cast<int>(i));
    }
  }
  return bucket_upper(static_cast<int>(counts_.size()) - 1);
}

Duration Log2Histogram::EstimateQuantile(double fraction) const {
  return EstimateLog2Quantile(counts_, lower_, fraction);
}

Duration EstimateLog2Quantile(const std::vector<int64_t>& counts, Duration lower_edge,
                              double fraction) {
  const int64_t lower = lower_edge.nanos();
  FAASNAP_CHECK(lower > 0);
  int64_t total = 0;
  for (int64_t c : counts) {
    total += c;
  }
  if (total == 0) {
    return Duration::Zero();
  }
  fraction = std::min(std::max(fraction, 0.0), 1.0);
  const auto target =
      std::max<int64_t>(1, static_cast<int64_t>(std::ceil(fraction * static_cast<double>(total))));
  int64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) {
      continue;
    }
    if (seen + counts[i] < target) {
      seen += counts[i];
      continue;
    }
    const double within =
        static_cast<double>(target - seen) / static_cast<double>(counts[i]);
    if (i == 0) {
      // [0, lower): linear, the log-space lower bound is -inf.
      return Duration::Nanos(static_cast<int64_t>(static_cast<double>(lower) * within));
    }
    // Finite bucket [lo, 2*lo); the overflow bucket extrapolates one doubling
    // past the last finite edge, so both share lo * 2^within.
    int64_t lo = lower;
    const size_t last = counts.size() - 1;
    for (size_t k = 1; k < std::min(i, last); ++k) {
      lo *= 2;
    }
    return Duration::Nanos(static_cast<int64_t>(static_cast<double>(lo) * std::exp2(within)));
  }
  return Duration::Zero();
}

Duration Log2Histogram::bucket_upper(int i) const {
  if (i + 1 == static_cast<int>(counts_.size())) {
    return Duration::Nanos(INT64_MAX);
  }
  int64_t edge = lower_.nanos();
  for (int k = 0; k < i; ++k) {
    edge *= 2;
  }
  return Duration::Nanos(edge);
}

void RunningStats::Record(double v) {
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  count_++;
  sum_ += v;
  sum_sq_ += v * v;
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
  sum_sq_ += other.sum_sq_;
}

double RunningStats::stddev() const {
  if (count_ == 0) {
    return 0.0;
  }
  const double m = mean();
  const double var = sum_sq_ / static_cast<double>(count_) - m * m;
  return var > 0 ? std::sqrt(var) : 0.0;
}

}  // namespace faasnap
