// Snapshot restore policies: the systems compared in the evaluation.
//
//   Warm                  — warm VM cached in memory (section 3.1),
//   Firecracker           — vanilla lazy restore, whole-file mapping + on-demand
//                           host paging,
//   Cached                — Firecracker with the memory file preloaded into the
//                           page cache (upper-bound reference),
//   REAP                  — blocking working-set fetch (page-cache-bypassing) +
//                           userfaultfd handling of out-of-working-set faults,
//   FaaSnap concurrent    — Figure 9 ablation: whole-file mapping + a concurrent
//                           loader reading working-set pages in address order,
//   FaaSnap per-region    — Figure 9 ablation: per-region mapping + group-ordered
//                           loader reading scattered regions from the memory file,
//   FaaSnap               — all techniques: per-region hierarchy + compact loading
//                           set file read sequentially by the concurrent loader.
//
// A policy contributes three pieces to an invocation: memory setup (mappings,
// preloads, uffd registration — may take simulated time), an optional prefetch
// plan started when the invocation request arrives, and fetch metrics.

#ifndef FAASNAP_SRC_RESTORE_RESTORE_POLICY_H_
#define FAASNAP_SRC_RESTORE_RESTORE_POLICY_H_

#include <functional>
#include <memory>
#include <string_view>

#include "src/common/status.h"
#include "src/core/function_snapshot.h"
#include "src/core/platform_config.h"
#include "src/core/prefetch_loader.h"
#include "src/mem/fault_engine.h"
#include "src/sim/simulation.h"
#include "src/snapshot/snapshot_files.h"

namespace faasnap {

enum class RestoreMode : int {
  kWarm = 0,
  kColdBoot,  // no snapshot: boot the VM and initialize the runtime from scratch
  kFirecracker,
  kCached,
  kReap,
  kFaasnapConcurrentOnly,
  kFaasnapPerRegion,
  kFaasnap,
};

std::string_view RestoreModeName(RestoreMode mode);
// Inverse of RestoreModeName; InvalidArgument listing the names otherwise.
Result<RestoreMode> ParseRestoreMode(std::string_view name);

// Per-invocation environment handed to the policy. All pointers outlive the policy.
struct RestoreEnv {
  Simulation* sim = nullptr;
  PageCache* cache = nullptr;
  StorageRouter* storage = nullptr;
  AddressSpace* space = nullptr;
  FaultEngine* engine = nullptr;
  const FunctionSnapshot* snapshot = nullptr;
  const PlatformConfig* config = nullptr;
  // Optional tracing: the platform's span tracer and the enclosing setup span,
  // parents for spans the policy opens during SetupMemory (REAP's blocking
  // fetch and the disk reads it issues). Null/kNoSpan when tracing is off.
  SpanTracer* spans = nullptr;
  SpanId setup_span = kNoSpan;
  // Failure-aware restore: a policy that had to degrade during SetupMemory
  // (e.g. REAP's working-set fetch failing terminally, falling back to pure
  // on-demand uffd paging) records why and what it fell back to. The platform
  // folds these into the InvocationReport as a degraded outcome.
  Status degrade_status;
  std::string degrade_label;
};

class RestorePolicy {
 public:
  static std::unique_ptr<RestorePolicy> Create(RestoreMode mode);

  virtual ~RestorePolicy() = default;
  virtual RestoreMode mode() const = 0;

  // Fixed setup work before memory provisioning (VMM process restore). Warm VMs
  // skip it; snapshot systems pay SetupCostModel::vmm_restore.
  virtual Duration BaseSetupCost(const RestoreEnv& env) const;

  // Provisions guest memory (mappings, preloads, installs, uffd) and calls
  // `ready` on the simulation clock when the VM may start executing.
  virtual void SetupMemory(RestoreEnv* env, std::function<void()> ready) = 0;

  // The prefetch plan started when the invocation request arrives (concurrently
  // with setup). Empty = no concurrent loader.
  virtual std::vector<PrefetchItem> PrefetchPlan(const RestoreEnv&) const { return {}; }

  // Fetch work performed synchronously inside SetupMemory (REAP's working-set
  // fetch); reported as Table 3's fetch time/size for blocking fetchers.
  virtual Duration blocking_fetch_time() const { return Duration::Zero(); }
  virtual ByteCount blocking_fetch_bytes() const { return ByteCount::Zero(); }
};

}  // namespace faasnap

#endif  // FAASNAP_SRC_RESTORE_RESTORE_POLICY_H_
