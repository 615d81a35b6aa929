#include "src/common/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace faasnap {
namespace {

Log2Histogram Fig2Histogram() { return Log2Histogram(Duration::Nanos(500), /*num_buckets=*/11); }

TEST(Log2Histogram, EmptyState) {
  Log2Histogram h = Fig2Histogram();
  EXPECT_EQ(h.total_count(), 0);
  EXPECT_EQ(h.total_time(), Duration::Zero());
  EXPECT_EQ(h.mean(), Duration::Zero());
}

TEST(Log2Histogram, BucketEdgesDouble) {
  Log2Histogram h = Fig2Histogram();
  EXPECT_EQ(h.bucket_upper(0).nanos(), 500);
  EXPECT_EQ(h.bucket_upper(1).nanos(), 1000);
  EXPECT_EQ(h.bucket_upper(2).nanos(), 2000);
  EXPECT_EQ(h.bucket_upper(10).nanos(), 512000);
  EXPECT_EQ(h.bucket_upper(h.num_buckets() - 1).nanos(), INT64_MAX);
}

TEST(Log2Histogram, RecordsIntoCorrectBuckets) {
  Log2Histogram h = Fig2Histogram();
  h.Record(Duration::Nanos(100));    // < 0.5us -> bucket 0
  h.Record(Duration::Nanos(499));    // bucket 0
  h.Record(Duration::Nanos(500));    // [0.5us, 1us) -> bucket 1
  h.Record(Duration::Micros(3));     // [2us,4us) -> bucket 3
  h.Record(Duration::Micros(600));   // > 512us -> overflow bucket
  EXPECT_EQ(h.bucket_count(0), 2);
  EXPECT_EQ(h.bucket_count(1), 1);
  EXPECT_EQ(h.bucket_count(3), 1);
  EXPECT_EQ(h.bucket_count(h.num_buckets() - 1), 1);
  EXPECT_EQ(h.total_count(), 5);

  // Record against a reference edge-doubling loop, for every configuration in
  // use (Figure 2 and the registry default, the batch-size digest, the
  // accepted-latency histograms, the forensics digests): 0, a negative sample,
  // INT64_MAX and each edge -1, +0 and +1.
  const std::pair<Duration, int> configs[] = {{Duration::Nanos(500), 11},
                                              {Duration::Nanos(1), 11},
                                              {Duration::Micros(1), 21},
                                              {Duration::Micros(1), 24}};
  for (const auto& [lower, num_buckets] : configs) {
    const auto reference_bucket = [&](int64_t sample) {
      const int64_t ns = std::max<int64_t>(sample, 0);
      int bucket = 0;
      int64_t edge = lower.nanos();
      while (bucket < num_buckets && ns >= edge) {
        ++bucket;
        edge *= 2;
      }
      return bucket;
    };
    std::vector<int64_t> samples = {0, -7, INT64_MAX};
    for (int64_t edge = lower.nanos(), j = 0; j < num_buckets; ++j, edge *= 2) {
      samples.insert(samples.end(), {edge - 1, edge, edge + 1});
    }
    for (const int64_t sample : samples) {
      SCOPED_TRACE("lower " + std::to_string(lower.nanos()) + " ns, " +
                   std::to_string(num_buckets) + " buckets, sample " + std::to_string(sample));
      Log2Histogram one(lower, num_buckets);
      one.Record(Duration::Nanos(sample));
      for (int i = 0; i < one.num_buckets(); ++i) {
        EXPECT_EQ(one.bucket_count(i), i == reference_bucket(sample) ? 1 : 0) << "bucket " << i;
      }
      EXPECT_EQ(one.total_count(), 1);
      EXPECT_EQ(one.total_time(), Duration::Nanos(sample));
    }
  }
}

TEST(Log2Histogram, MeanAndTotal) {
  Log2Histogram h = Fig2Histogram();
  h.Record(Duration::Micros(2));
  h.Record(Duration::Micros(4));
  EXPECT_EQ(h.total_time(), Duration::Micros(6));
  EXPECT_EQ(h.mean(), Duration::Micros(3));
}

TEST(Log2Histogram, Merge) {
  Log2Histogram a = Fig2Histogram();
  Log2Histogram b = Fig2Histogram();
  a.Record(Duration::Micros(1));
  b.Record(Duration::Micros(1));
  b.Record(Duration::Micros(100));
  a.Merge(b);
  EXPECT_EQ(a.total_count(), 3);
  EXPECT_EQ(a.total_time(), Duration::Micros(102));
}

TEST(Log2Histogram, ApproxQuantile) {
  Log2Histogram h = Fig2Histogram();
  for (int i = 0; i < 90; ++i) h.Record(Duration::Micros(3));   // bucket [2,4)us
  for (int i = 0; i < 10; ++i) h.Record(Duration::Micros(100)); // bucket [64,128)us
  EXPECT_EQ(h.ApproxQuantile(0.5), Duration::Micros(4));
  EXPECT_EQ(h.ApproxQuantile(0.9), Duration::Micros(4));
  EXPECT_EQ(h.ApproxQuantile(0.95), Duration::Micros(128));
}

TEST(Log2Histogram, ResetClearsEverything) {
  Log2Histogram h = Fig2Histogram();
  h.Record(Duration::Micros(5));
  h.Reset();
  EXPECT_EQ(h.total_count(), 0);
  EXPECT_EQ(h.total_time(), Duration::Zero());
}

TEST(RunningStats, Basic) {
  RunningStats s;
  s.Record(1.0);
  s.Record(3.0);
  s.Record(5.0);
  EXPECT_EQ(s.count(), 3);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_NEAR(s.stddev(), 1.632993, 1e-5);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, Merge) {
  RunningStats a;
  a.Record(1.0);
  RunningStats b;
  b.Record(3.0);
  b.Record(5.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
  RunningStats empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 3);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 3);
}

// --- Quantile estimation (log-linear interpolation within buckets). ---
// Target rank r = ceil(f * total); `within` = fraction of the holding
// bucket's count at or below r. Bucket 0 interpolates linearly on
// [0, lower_ns); finite bucket [lo, 2*lo) returns lo * 2^within; the
// overflow bucket extrapolates one doubling past the last finite edge.

TEST(Log2Quantile, EmptyHistogramIsZero) {
  Log2Histogram h(Duration::Micros(1), 4);
  EXPECT_EQ(h.EstimateQuantile(0.5), Duration::Zero());
  EXPECT_EQ(EstimateLog2Quantile({0, 0, 0, 0}, Duration::Micros(1), 0.99).nanos(), 0);
}

TEST(Log2Quantile, BucketZeroInterpolatesLinearly) {
  // 4 samples in [0, 1000): p50 hits rank 2 of 4 -> 1000 * 0.5.
  EXPECT_EQ(EstimateLog2Quantile({4, 0, 0, 0}, Duration::Micros(1), 0.50).nanos(), 500);
  EXPECT_EQ(EstimateLog2Quantile({4, 0, 0, 0}, Duration::Micros(1), 1.00).nanos(), 1000);
  // p10 -> rank ceil(0.4) = 1 of 4 -> 1000 * 0.25.
  EXPECT_EQ(EstimateLog2Quantile({4, 0, 0, 0}, Duration::Micros(1), 0.10).nanos(), 250);
}

TEST(Log2Quantile, FiniteBucketInterpolatesInLogSpace) {
  // 4 samples in [1000, 2000): p50 -> 1000 * 2^(2/4) = 1414.
  EXPECT_EQ(EstimateLog2Quantile({0, 4, 0, 0}, Duration::Micros(1), 0.50).nanos(), 1414);
  // p25 -> rank 1 -> 1000 * 2^0.25 = 1189; p100 -> the bucket's upper edge.
  EXPECT_EQ(EstimateLog2Quantile({0, 4, 0, 0}, Duration::Micros(1), 0.25).nanos(), 1189);
  EXPECT_EQ(EstimateLog2Quantile({0, 4, 0, 0}, Duration::Micros(1), 1.00).nanos(), 2000);
  // Second finite bucket [2000, 4000): p50 -> 2000 * 2^0.5 = 2828.
  EXPECT_EQ(EstimateLog2Quantile({0, 0, 4, 0}, Duration::Micros(1), 0.50).nanos(), 2828);
}

TEST(Log2Quantile, RanksSpanBuckets) {
  // 1 + 1 + 2 samples: p25 -> rank 1 lands in bucket 0 (1000 * 1/1);
  // p50 -> rank 2 exhausts bucket 1 (1000 * 2^(1/1) = 2000);
  // p99 -> rank 4, second of two in bucket 2 -> 2000 * 2^1 = 4000.
  const std::vector<int64_t> counts = {1, 1, 2, 0};
  EXPECT_EQ(EstimateLog2Quantile(counts, Duration::Micros(1), 0.25).nanos(), 1000);
  EXPECT_EQ(EstimateLog2Quantile(counts, Duration::Micros(1), 0.50).nanos(), 2000);
  EXPECT_EQ(EstimateLog2Quantile(counts, Duration::Micros(1), 0.99).nanos(), 4000);
}

TEST(Log2Quantile, OverflowBucketExtrapolatesOneDoubling) {
  // 4 buckets: finite edges 1000/2000/4000, overflow treated as [4000, 8000).
  EXPECT_EQ(EstimateLog2Quantile({0, 0, 0, 4}, Duration::Micros(1), 0.50).nanos(), 5656);  // 4000 * 2^0.5
  EXPECT_EQ(EstimateLog2Quantile({0, 0, 0, 4}, Duration::Micros(1), 1.00).nanos(), 8000);
}

TEST(Log2Quantile, ClassMethodMatchesFreeFunction) {
  Log2Histogram h(Duration::Micros(1), 4);
  for (int i = 0; i < 4; ++i) {
    h.Record(Duration::Nanos(1500));
  }
  EXPECT_EQ(h.EstimateQuantile(0.5), Duration::Nanos(1414));
  EXPECT_EQ(h.EstimateQuantile(0.95).nanos(),
            EstimateLog2Quantile({0, 4, 0, 0}, Duration::Micros(1), 0.95).nanos());
}

TEST(Log2Quantile, FractionIsClampedToUnitRange) {
  EXPECT_EQ(EstimateLog2Quantile({4, 0, 0, 0}, Duration::Micros(1), -0.5).nanos(),
            EstimateLog2Quantile({4, 0, 0, 0}, Duration::Micros(1), 0.0).nanos());
  EXPECT_EQ(EstimateLog2Quantile({0, 4, 0, 0}, Duration::Micros(1), 2.0).nanos(), 2000);
}

}  // namespace
}  // namespace faasnap
