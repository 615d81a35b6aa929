#include "src/workloads/trace_generator.h"

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "src/common/units.h"

namespace faasnap {
namespace {

GuestLayout Layout() { return GuestLayout::Default2GiB(); }

TraceGenerator MakeGenerator(const std::string& name) {
  Result<FunctionSpec> spec = FindFunction(name);
  FAASNAP_CHECK(spec.ok());
  return TraceGenerator(*spec, Layout());
}

TEST(TraceGenerator, HelloWorldTouchesOnlyStablePages) {
  TraceGenerator gen = MakeGenerator("hello-world");
  InvocationTrace trace = gen.Generate(MakeInputA(gen.spec()));
  // Coverage is approximate: always-exercised pages plus this input's code paths
  // sum to roughly the spec's stable page count.
  EXPECT_NEAR(static_cast<double>(trace.access_count()),
              static_cast<double>(gen.spec().stable_pages.value()),
              static_cast<double>(gen.spec().stable_pages.value()) * 0.06);
  PageRangeSet touched = trace.TouchedPages();
  EXPECT_EQ(touched.page_count(), trace.access_count());
  for (const PageRange& r : touched.ranges()) {
    EXPECT_GE(r.first, Layout().stable.first);
    EXPECT_LT(r.end(), Layout().stable.end());
  }
  EXPECT_TRUE(trace.freed_at_end.empty());
  // Compute adds up to the spec's budget.
  EXPECT_EQ(trace.TotalCompute(), Duration::Millis(4));
}

TEST(TraceGenerator, StableAccessOrderIsDeterministic) {
  TraceGenerator gen = MakeGenerator("hello-world");
  InvocationTrace t1 = gen.Generate(MakeInputA(gen.spec()));
  InvocationTrace t2 = gen.Generate(MakeInputB(gen.spec()));
  const std::vector<TraceOp> ops1 = t1.ExpandedOps();
  const std::vector<TraceOp> ops2 = t2.ExpandedOps();
  ASSERT_EQ(ops1.size(), ops2.size());
  for (size_t i = 0; i < ops1.size(); ++i) {
    EXPECT_EQ(ops1[i].page, ops2[i].page);
  }
}

TEST(TraceGenerator, ScatteredSegmentIsNotSequential) {
  TraceGenerator gen = MakeGenerator("hello-world");
  InvocationTrace trace = gen.Generate(MakeInputA(gen.spec()));
  const std::vector<TraceOp> ops = trace.ExpandedOps();
  int sequential_steps = 0;
  for (size_t i = 1; i < 1000; ++i) {
    if (ops[i].page == ops[i - 1].page + 1) {
      ++sequential_steps;
    }
  }
  EXPECT_LT(sequential_steps, 50);  // a shuffled order has almost no +1 steps
}

TEST(TraceGenerator, ReadListHasLargeSequentialSegment) {
  TraceGenerator gen = MakeGenerator("read-list");
  InvocationTrace trace = gen.Generate(MakeInputA(gen.spec()));
  // The list (the sequential segment) is read in address order at the end of the
  // stable phase; locate it by the sequential segment's first page.
  const std::vector<TraceOp> ops = trace.ExpandedOps();
  const uint64_t seq_pages = gen.sequential_stable().count;
  const size_t start = ops.size() - seq_pages;
  EXPECT_EQ(ops[start].page, gen.sequential_stable().first);
  for (size_t i = start + 1; i < start + 1000; ++i) {
    EXPECT_EQ(ops[i].page, ops[i - 1].page + 1);
  }
}

TEST(TraceGenerator, MmapWritesScratchSequentiallyAndFreesIt) {
  TraceGenerator gen = MakeGenerator("mmap");
  InvocationTrace trace = gen.Generate(MakeInputA(gen.spec()));
  const uint64_t anon = gen.spec().input_a.anon_pages.value();
  // The anon sweep is sequential writes in the scratch zone, after the stable phase.
  const std::vector<TraceOp> ops = trace.ExpandedOps();
  const TraceOp& first_anon = ops[ops.size() - anon];
  EXPECT_EQ(first_anon.page, Layout().scratch.first);
  EXPECT_TRUE(first_anon.is_write);
  EXPECT_EQ(trace.freed_at_end.page_count(), anon);
  EXPECT_TRUE(trace.freed_at_end.Contains(Layout().scratch.first));
}

PageRangeSet WindowPages(const TraceGenerator& gen, const InvocationTrace& trace) {
  PageRangeSet window_zone;
  window_zone.Add(gen.layout().window);
  return trace.TouchedPages().Intersect(window_zone);
}

TEST(TraceGenerator, ImageInputPagesAreContentSelected) {
  TraceGenerator gen = MakeGenerator("image");
  InvocationTrace a = gen.Generate(MakeInputA(gen.spec()));
  // Same size, different content (the image-diff scenario).
  WorkloadInput diff = MakeInputA(gen.spec());
  diff.content_seed = 0xD1FF;
  InvocationTrace b = gen.Generate(diff);

  PageRangeSet window_a = WindowPages(gen, a);
  PageRangeSet window_b = WindowPages(gen, b);
  // Counts are density-approximate: within 10% of spec.
  const double expected = static_cast<double>(gen.spec().input_a.input_pages.value());
  EXPECT_NEAR(static_cast<double>(window_a.page_count()), expected, expected * 0.1);
  EXPECT_NEAR(static_cast<double>(window_b.page_count()), expected, expected * 0.1);
  // Different contents overlap only partially (roughly density^2 of the window).
  const uint64_t overlap = window_a.Intersect(window_b).page_count();
  EXPECT_LT(overlap, window_a.page_count() * 3 / 4);
  EXPECT_GT(overlap, 0u);
}

TEST(TraceGenerator, SameSeedSelectsSamePages) {
  TraceGenerator gen = MakeGenerator("image");
  InvocationTrace t1 = gen.Generate(MakeInputA(gen.spec()));
  InvocationTrace t2 = gen.Generate(MakeInputA(gen.spec()));
  EXPECT_EQ(WindowPages(gen, t1), WindowPages(gen, t2));
}

TEST(TraceGenerator, ScaledInputGrowsWindowBeyondRecordCoverage) {
  TraceGenerator gen = MakeGenerator("pagerank");
  InvocationTrace small = gen.Generate(MakeScaledInput(gen.spec(), 1.0, 7));
  InvocationTrace big = gen.Generate(MakeScaledInput(gen.spec(), 4.0, 8));
  // The 4x input touches pages beyond the 1x window entirely.
  PageIndex max_small = 0;
  PageIndex max_big = 0;
  for (const TraceOp& op : small.ExpandedOps()) {
    max_small = std::max(max_small, op.page);
  }
  for (const TraceOp& op : big.ExpandedOps()) {
    max_big = std::max(max_big, op.page);
  }
  EXPECT_GT(max_big, max_small + 10000);
  EXPECT_NEAR(static_cast<double>(WindowPages(gen, big).page_count()),
              static_cast<double>(WindowPages(gen, small).page_count()) * 4.0,
              static_cast<double>(WindowPages(gen, small).page_count()) * 0.5);
}

TEST(TraceGenerator, ScaledComputeFollowsExponent) {
  TraceGenerator gen = MakeGenerator("matmul");  // exponent 1.5
  WorkloadInput x1 = MakeScaledInput(gen.spec(), 1.0, 1);
  WorkloadInput x4 = MakeScaledInput(gen.spec(), 4.0, 1);
  EXPECT_EQ(x1.profile.compute, gen.spec().input_a.compute);
  EXPECT_NEAR(static_cast<double>(x4.profile.compute.nanos()),
              static_cast<double>(x1.profile.compute.nanos()) * 8.0,
              static_cast<double>(x1.profile.compute.nanos()) * 0.01);
}

TEST(TraceGenerator, FixedInputFunctionsUseSameSeedForB) {
  TraceGenerator gen = MakeGenerator("read-list");
  WorkloadInput a = MakeInputA(gen.spec());
  WorkloadInput b = MakeInputB(gen.spec());
  EXPECT_EQ(a.content_seed, b.content_seed);
  TraceGenerator img = MakeGenerator("image");
  EXPECT_NE(MakeInputA(img.spec()).content_seed, MakeInputB(img.spec()).content_seed);
}

TEST(TraceGenerator, CleanSnapshotNonZeroIsBootPlusStable) {
  TraceGenerator gen = MakeGenerator("image");
  PageRangeSet nonzero = gen.CleanSnapshotNonZero();
  EXPECT_TRUE(nonzero.Contains(0));  // boot
  EXPECT_TRUE(nonzero.Contains(Layout().stable.first));
  EXPECT_FALSE(nonzero.Contains(Layout().window.first));
  // boot + placed scattered pages (slightly more than one input touches) + data.
  EXPECT_EQ(nonzero.page_count(), Layout().boot.count + gen.TotalScatteredPlaced() +
                                      gen.sequential_stable().count);
  EXPECT_GE(gen.TotalScatteredPlaced(), gen.spec().scattered_stable_pages.value());
}

TEST(TraceGenerator, ScatteredRunsAreClusteredWithGaps) {
  TraceGenerator gen = MakeGenerator("hello-world");
  const auto& runs = gen.scattered_runs();
  // Many short runs (the >1000-regions-before-merging observation of 4.6).
  EXPECT_GT(runs.size(), 200u);
  uint64_t total = 0;
  uint64_t small_gaps = 0;
  uint64_t big_gaps = 0;
  for (size_t i = 0; i < runs.size(); ++i) {
    total += runs[i].count;
    if (i > 0) {
      const uint64_t gap = runs[i].first - runs[i - 1].end();
      EXPECT_GE(gap, 1u);  // runs never abut (they would have been one run)
      if (gap <= 32) {
        ++small_gaps;
      } else {
        ++big_gaps;
      }
    }
  }
  EXPECT_EQ(total, gen.TotalScatteredPlaced());
  EXPECT_GE(total, gen.spec().scattered_stable_pages.value());
  EXPECT_GT(small_gaps, big_gaps * 3);  // mostly small gaps, some large jumps
  EXPECT_GT(big_gaps, 10u);
  // The placement is deterministic: a second generator sees the same runs.
  TraceGenerator gen2 = MakeGenerator("hello-world");
  EXPECT_EQ(gen2.scattered_runs().size(), runs.size());
  EXPECT_EQ(gen2.scattered_runs()[5], runs[5]);
}

TEST(TraceGenerator, SequentialStableFollowsScatterSpan) {
  TraceGenerator gen = MakeGenerator("read-list");
  const PageRange& seq = gen.sequential_stable();
  EXPECT_EQ(seq.count,
            (gen.spec().stable_pages - gen.spec().scattered_stable_pages).value());
  EXPECT_GE(seq.first, gen.scattered_runs().back().end());
  EXPECT_LE(seq.end(), Layout().stable.end());
}

// Section 4.4's precondition: different inputs exercise overlapping-but-distinct
// runtime code paths, so some stable pages faulted by input B were never faulted
// by input A (but sit adjacent to A's pages, where readahead finds them).
TEST(TraceGenerator, StableCodePathsDriftWithContent) {
  TraceGenerator gen = MakeGenerator("image");
  PageRangeSet span;
  for (const PageRange& r : gen.scattered_runs()) {
    span.Add(r);
  }
  InvocationTrace a = gen.Generate(MakeInputA(gen.spec()));
  InvocationTrace b = gen.Generate(MakeInputB(gen.spec()));
  PageRangeSet stable_a = a.TouchedPages().Intersect(span);
  PageRangeSet stable_b = b.TouchedPages().Intersect(span);
  const uint64_t b_only = stable_b.Subtract(stable_a).page_count();
  EXPECT_GT(b_only, stable_b.page_count() / 20);  // real drift...
  EXPECT_LT(b_only, stable_b.page_count() / 3);   // ...but mostly shared
  // Fixed-input functions have zero drift.
  TraceGenerator fixed = MakeGenerator("read-list");
  InvocationTrace fa = fixed.Generate(MakeInputA(fixed.spec()));
  InvocationTrace fb = fixed.Generate(MakeInputB(fixed.spec()));
  EXPECT_EQ(fa.TouchedPages(), fb.TouchedPages());
}

TEST(TraceGenerator, ComputeIsSpreadAcrossOps) {
  TraceGenerator gen = MakeGenerator("json");
  InvocationTrace trace = gen.Generate(MakeInputA(gen.spec()));
  EXPECT_EQ(trace.TotalCompute(), gen.spec().input_a.compute);
  // First op carries roughly total/ops.
  const std::vector<TraceOp> ops = trace.ExpandedOps();
  EXPECT_NEAR(static_cast<double>(ops[0].compute.nanos()),
              static_cast<double>(gen.spec().input_a.compute.nanos()) /
                  static_cast<double>(ops.size()),
              1.0);
}

// ---- run-length traces: equivalence with the one-op-per-page generator ----

// FNV-1a over the expanded (page, write, compute) sequence, the trailing
// compute and the freed set: independent of how the trace is cut into runs.
uint64_t ExpandedDigest(const InvocationTrace& trace) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  for (const TraceOp& op : trace.ExpandedOps()) {
    mix(op.page);
    mix(op.is_write ? 1 : 0);
    mix(static_cast<uint64_t>(op.compute.nanos()));
  }
  mix(static_cast<uint64_t>(trace.trailing_compute.nanos()));
  for (const PageRange& r : trace.freed_at_end.ranges()) {
    mix(r.first);
    mix(r.count);
  }
  return h;
}

struct TracePin {
  const char* function;
  int input;  // 0: input A, 1: input B, 2: MakeScaledInput(spec, 2.0, 0x7E57)
  uint64_t digest;
  uint64_t accesses;
};

// Recorded from the generator that emitted one op per page access, before
// traces became runs. Any change here moves every simulated result.
constexpr TracePin kTracePins[] = {
    {"hello-world", 0, 0x6638c2655a6d24ffULL, 3030},
    {"hello-world", 1, 0x6638c2655a6d24ffULL, 3030},
    {"hello-world", 2, 0x865b6369bac13e8cULL, 3023},
    {"read-list", 0, 0x453cc23578701e62ULL, 134640},
    {"read-list", 1, 0x453cc23578701e62ULL, 134640},
    {"read-list", 2, 0x0059c2bb6f10c239ULL, 134660},
    {"mmap", 0, 0xe8e0489f6aeedb05ULL, 137206},
    {"mmap", 1, 0xe8e0489f6aeedb05ULL, 137206},
    {"mmap", 2, 0xd85255aa18ea6fd1ULL, 184311},
    {"image", 0, 0xe8582e0db62a074dULL, 5275},
    {"image", 1, 0xb0fc8d91b26e3038ULL, 8438},
    {"image", 2, 0x301f71773898b014ULL, 7466},
    {"json", 0, 0x65bdff22fe9ef8f0ULL, 3234},
    {"json", 1, 0xb60d4d0bb6d26fcdULL, 3680},
    {"json", 2, 0xf01c82fd11d3c47eULL, 3604},
    {"pyaes", 0, 0x312329e8c0230d8aULL, 3227},
    {"pyaes", 1, 0x3a45dc9447593fa0ULL, 3372},
    {"pyaes", 2, 0xd5a701187ecb330eULL, 3324},
    {"chameleon", 0, 0xbed92a022199c060ULL, 5862},
    {"chameleon", 1, 0xc9dd7221790520a1ULL, 6404},
    {"chameleon", 2, 0xf6e89ff1e85d9e3aULL, 8231},
    {"matmul", 0, 0x8d05aee29db255feULL, 28933},
    {"matmul", 1, 0x2356ceccb8a54bcfULL, 34042},
    {"matmul", 2, 0x7bce2e0153f61ee3ULL, 54056},
    {"ffmpeg", 0, 0x21f0c878948aa514ULL, 45848},
    {"ffmpeg", 1, 0x4fc9dcf5f6ad859eULL, 45552},
    {"ffmpeg", 2, 0xf4eddb8b7a297613ULL, 87656},
    {"compression", 0, 0xdb087e6ec5804c5aULL, 3946},
    {"compression", 1, 0xdb46442e75101aaaULL, 4046},
    {"compression", 2, 0xb0e3b34e77b6181cULL, 4526},
    {"recognition", 0, 0xd648d1994cc07552ULL, 58860},
    {"recognition", 1, 0xc1b42e2b915e12f7ULL, 59891},
    {"recognition", 2, 0xfd7cbcf5dfc669d2ULL, 61695},
    {"pagerank", 0, 0x94b5046256f7a209ULL, 26616},
    {"pagerank", 1, 0x41bd408367f0a590ULL, 29132},
    {"pagerank", 2, 0xf684db214784b0f2ULL, 49492},
};

TEST(TraceGenerator, RunTracesExpandToThePinnedPerPageTraces) {
  for (const TracePin& pin : kTracePins) {
    SCOPED_TRACE(std::string(pin.function) + " input " + std::to_string(pin.input));
    const TraceGenerator gen = MakeGenerator(pin.function);
    const WorkloadInput inputs[] = {MakeInputA(gen.spec()), MakeInputB(gen.spec()),
                                    MakeScaledInput(gen.spec(), 2.0, 0x7E57)};
    const InvocationTrace trace = gen.Generate(inputs[pin.input]);
    EXPECT_EQ(ExpandedDigest(trace), pin.digest);
    EXPECT_EQ(trace.access_count(), pin.accesses);
    // Maximal runs: no run continues the one before it.
    for (size_t i = 1; i < trace.runs.size(); ++i) {
      const TraceRun& prev = trace.runs[i - 1];
      const TraceRun& run = trace.runs[i];
      EXPECT_FALSE(run.first == prev.end() && run.is_write == prev.is_write &&
                   run.compute == prev.compute)
          << "run " << i;
      ASSERT_GT(run.pages, 0u);
    }
  }
  EXPECT_EQ(std::size(kTracePins), FunctionCatalog().size() * 3);
}

TEST(InvocationTrace, HelpersMatchTheExpandedTrace) {
  // Runs cut at arbitrary points, including a repeated page and a run that
  // continues its predecessor without being merged.
  InvocationTrace trace;
  trace.runs = {TraceRun{10, 4, false, Duration::Micros(1)},
                TraceRun{14, 2, true, Duration::Micros(1)},
                TraceRun{16, 3, true, Duration::Micros(1)},
                TraceRun{11, 1, true, Duration::Zero()},
                TraceRun{40, 5, false, Duration::Micros(2)}};
  trace.trailing_compute = Duration::Micros(3);
  const std::vector<TraceOp> ops = trace.ExpandedOps();
  ASSERT_EQ(ops.size(), trace.access_count());
  PageRangeSet touched;
  Duration compute = trace.trailing_compute;
  for (const TraceOp& op : ops) {
    touched.AddPage(op.page);
    compute += op.compute;
  }
  EXPECT_EQ(trace.TouchedPages(), touched);
  EXPECT_EQ(trace.TotalCompute(), compute);
  for (uint64_t executed = 0; executed <= ops.size(); ++executed) {
    PageRangeSet written;
    for (uint64_t i = 0; i < executed; ++i) {
      if (ops[i].is_write) {
        written.AddPage(ops[i].page);
      }
    }
    EXPECT_EQ(trace.WrittenPages(executed), written) << executed;
  }
  // Append merges only what continues the last run.
  InvocationTrace appended;
  for (const TraceOp& op : ops) {
    appended.Append(op);
  }
  EXPECT_EQ(appended.ExpandedOps(), ops);
  EXPECT_EQ(appended.runs.size(), 4u);  // [10,14) r, [14,19) w, [11] w, [40,45) r
}

// Property sweep: for every catalog function, traces stay inside the guest, touch
// approximately the Table 2 working set, and free only transient pages.
class TraceGeneratorCatalogTest : public ::testing::TestWithParam<std::string> {};

TEST_P(TraceGeneratorCatalogTest, TraceInvariants) {
  Result<FunctionSpec> spec = FindFunction(GetParam());
  ASSERT_TRUE(spec.ok());
  TraceGenerator gen(*spec, Layout());
  for (const WorkloadInput& input : {MakeInputA(*spec), MakeInputB(*spec)}) {
    InvocationTrace trace = gen.Generate(input);
    const uint64_t expected_ws = (spec->stable_pages + input.profile.input_pages +
                                  input.profile.anon_pages).value();
    const double tolerance = static_cast<double>(expected_ws) * 0.1;
    EXPECT_NEAR(static_cast<double>(trace.TouchedPages().page_count()),
                static_cast<double>(expected_ws), tolerance);
    for (const TraceOp& op : trace.ExpandedOps()) {
      ASSERT_LT(op.page, Layout().total_pages.value());
    }
    // Freed pages live only in the scratch zone (what munmap returns to the
    // guest kernel) and are a subset of the touched pages.
    PageRangeSet scratch_zone;
    scratch_zone.Add(Layout().scratch);
    EXPECT_EQ(trace.freed_at_end.Intersect(scratch_zone), trace.freed_at_end);
    EXPECT_EQ(trace.freed_at_end.Subtract(trace.TouchedPages()).page_count(), 0u);
    EXPECT_EQ(trace.TotalCompute(), input.profile.compute);
  }
}

INSTANTIATE_TEST_SUITE_P(AllFunctions, TraceGeneratorCatalogTest,
                         ::testing::Values("hello-world", "read-list", "mmap", "image", "json",
                                           "pyaes", "chameleon", "matmul", "ffmpeg",
                                           "compression", "recognition", "pagerank"),
                         [](const ::testing::TestParamInfo<std::string>& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace faasnap
