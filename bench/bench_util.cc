#include "bench/bench_util.h"

#include <cstdio>

namespace faasnap {
namespace bench {

namespace {

TraceGenerator MakeGenerator(const std::string& function, const GuestLayout& layout) {
  Result<FunctionSpec> spec = FindFunction(function);
  FAASNAP_CHECK_OK(spec.status());
  return TraceGenerator(*spec, layout);
}

}  // namespace

Experiment::Experiment(const std::string& function, PlatformConfig config)
    : platform_(config), generator_(MakeGenerator(function, config.layout)) {}

void Experiment::Record(const WorkloadInput& record_input) {
  FAASNAP_CHECK(!recorded_);
  snapshot_ = platform_.Record(generator_, record_input);
  recorded_ = true;
}

InvocationReport Experiment::Invoke(RestoreMode mode, const WorkloadInput& test_input) {
  FAASNAP_CHECK(recorded_);
  platform_.DropCaches();
  return platform_.Invoke(snapshot_, mode, generator_, test_input);
}

void PrintBanner(const std::string& figure, const std::string& caption) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", figure.c_str(), caption.c_str());
  std::printf("================================================================\n\n");
}

}  // namespace bench
}  // namespace faasnap
