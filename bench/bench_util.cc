#include "bench/bench_util.h"

#include <cstdio>

namespace faasnap {
namespace bench {

void PrintBanner(const std::string& figure, const std::string& caption) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", figure.c_str(), caption.c_str());
  std::printf("================================================================\n\n");
}

}  // namespace bench
}  // namespace faasnap
