// InvocationOutcome: how an invocation ended under the failure-aware restore
// pipeline. The runtime reports it (InvocationReport) and the flight recorder
// keys its digests on it.
//
// Lives in common/ because obs/ (FlightRecorder) and metrics/ (the report)
// both need it, and obs/ sits below mem/ and storage/, which metrics/ depends
// on (see tools/lint/layers.json).

#ifndef FAASNAP_SRC_COMMON_INVOCATION_OUTCOME_H_
#define FAASNAP_SRC_COMMON_INVOCATION_OUTCOME_H_

#include <string_view>

namespace faasnap {

//   kOk            — restored and ran exactly as requested,
//   kDegraded      — completed correctly, but on a fallback path (e.g. a corrupt
//                    loading set demoted FaaSnap to vanilla on-demand paging),
//   kFailed        — terminated with a typed error; the function did not complete.
//   kShedQueueFull — rejected by admission control on arrival: the bounded
//                    per-host queue was full. The function never ran.
//   kShedDeadline  — dropped by admission control after queueing: the request
//                    exceeded its queueing deadline before a slot opened.
enum class InvocationOutcome { kOk = 0, kDegraded, kFailed, kShedQueueFull, kShedDeadline };

inline constexpr int kInvocationOutcomeCount = 5;

// "ok", "degraded", "failed", "shed_queue_full", "shed_deadline": the label of
// the outcome metrics and the forensics documents.
constexpr std::string_view InvocationOutcomeName(InvocationOutcome outcome) {
  switch (outcome) {
    case InvocationOutcome::kOk:
      return "ok";
    case InvocationOutcome::kDegraded:
      return "degraded";
    case InvocationOutcome::kFailed:
      return "failed";
    case InvocationOutcome::kShedQueueFull:
      return "shed_queue_full";
    case InvocationOutcome::kShedDeadline:
      return "shed_deadline";
  }
  return "unknown";
}

}  // namespace faasnap

#endif  // FAASNAP_SRC_COMMON_INVOCATION_OUTCOME_H_
