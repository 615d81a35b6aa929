// The scenario files shipped in configs/, for tests that parse or run every
// one of them. FAASNAP_SOURCE_DIR is the source tree (tests/CMakeLists.txt).

#ifndef FAASNAP_TESTS_SHIPPED_CONFIGS_H_
#define FAASNAP_TESTS_SHIPPED_CONFIGS_H_

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

namespace faasnap {

// Paths of configs/*.json in sorted order.
inline std::vector<std::string> ShippedConfigPaths() {
  std::vector<std::string> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(std::string(FAASNAP_SOURCE_DIR) + "/configs")) {
    if (entry.path().extension() == ".json") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

}  // namespace faasnap

#endif  // FAASNAP_TESTS_SHIPPED_CONFIGS_H_
