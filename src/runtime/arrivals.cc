#include "src/runtime/arrivals.h"

#include <limits>

namespace faasnap {

std::vector<TimedArrival> BuildOpenLoopSchedule(const std::vector<Arrival>& arrivals,
                                                SimTime start, FaultInjector* chaos) {
  std::vector<TimedArrival> schedule;
  schedule.reserve(arrivals.size());
  SimTime at = start;
  for (const Arrival& arrival : arrivals) {
    Duration gap = arrival.gap;
    if (chaos != nullptr) {
      const double multiplier = chaos->ArrivalMultiplier(at);
      if (multiplier > 1.0) {
        const auto squeezed =
            static_cast<int64_t>(static_cast<double>(gap.nanos()) / multiplier);
        gap = Duration::Nanos(squeezed < 1 ? 1 : squeezed);
      }
    }
    FAASNAP_CHECK(gap.nanos() <= std::numeric_limits<int64_t>::max() - at.nanos());
    at = at + gap;
    schedule.push_back(TimedArrival{arrival.function_index, at});
  }
  return schedule;
}

}  // namespace faasnap
