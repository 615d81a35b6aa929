#include "src/runtime/report.h"

namespace faasnap {

std::string InvocationReport::OutcomeTag() const {
  switch (outcome) {
    case InvocationOutcome::kOk:
      return "ok";
    case InvocationOutcome::kDegraded:
      return "degraded(" + degraded_mode + ")";
    case InvocationOutcome::kFailed:
      return "failed(" + std::string(StatusCodeName(status.code())) + ")";
    case InvocationOutcome::kShedQueueFull:
      return "shed(queue-full)";
    case InvocationOutcome::kShedDeadline:
      return "shed(deadline)";
  }
  return "ok";
}

}  // namespace faasnap
