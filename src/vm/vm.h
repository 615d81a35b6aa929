// Vm: executes an invocation trace against a FaultEngine on the simulation clock.
//
// The Vm plays the role of the guest vCPU(s): it alternates compute bursts (scaled
// by host CPU contention) with page accesses (resolved by the FaultEngine). An
// observer hook reports every first-touch fault as it retires — the FaaSnap and
// REAP recorders attach here during the record phase.
//
// The Vm does not track which pages the guest wrote: that set is a function of
// the trace and of how far the Vm got, so the record phase, its only reader,
// builds it as trace.WrittenPages(result.access_count).

#ifndef FAASNAP_SRC_VM_VM_H_
#define FAASNAP_SRC_VM_VM_H_

#include <functional>

#include "src/common/page_range.h"
#include "src/mem/fault_engine.h"
#include "src/sim/cpu_model.h"
#include "src/sim/simulation.h"
#include "src/vm/trace.h"

namespace faasnap {

class Vm {
 public:
  struct InvocationResult {
    // Simulated time, not wall-clock, from start to completion or abort.
    Duration elapsed;
    // Trace ops the Vm executed: every op when the trace ran to completion; on
    // an abort, the ops up to and including the access that failed.
    uint64_t access_count = 0;
    // OK when the trace ran to completion; otherwise the terminal failure that
    // aborted the invocation (e.g. a device read error that survived retries).
    Status status;
  };

  // Fires after each access retires: (page, fault class). kNoFault accesses are
  // reported too so recorders can decide what to track.
  using AccessObserver = std::function<void(PageIndex, FaultClass)>;

  // `vcpus` counts against the CpuModel for the whole invocation (the guest's
  // Flask server plus worker keep both vCPUs busy; section 6.1 guests have 2).
  Vm(Simulation* sim, FaultEngine* engine, CpuModel* cpu, int vcpus);

  void set_access_observer(AccessObserver observer) { observer_ = std::move(observer); }

  // Runs `trace` to completion; `done(result)` fires on the simulation clock.
  // One invocation at a time per Vm.
  void RunInvocation(const InvocationTrace& trace, std::function<void(InvocationResult)> done);

  FaultEngine* engine() { return engine_; }

 private:
  // Runs ops until one has to wait for an event. `may_advance` is true only
  // when this Step is the last action of one of the Vm's own continuation
  // events: then compute bursts, fixed-cost faults and the trailing compute
  // that end strictly before the next queued event retire in line through
  // Simulation::TryFastForward. The first Step, inside RunInvocation, passes
  // false: its caller may still act after RunInvocation returns.
  void Step(bool may_advance);
  // Releases the vCPUs and fires `done`, which may start the next invocation
  // on this Vm; callers return straight after it.
  void Finish();
  // Terminates the invocation early with a non-OK status: releases the vCPUs
  // and fires `done` with the error, so a failed restore never hangs the VM.
  void Abort(const Status& status);

  Simulation* sim_;
  FaultEngine* engine_;
  CpuModel* cpu_;
  int vcpus_;
  AccessObserver observer_;

  // The running invocation. The Vm owns it, so continuations capture only
  // `this` (and the page), which keeps them allocation-free.
  bool running_ = false;
  const InvocationTrace* trace_ = nullptr;
  size_t next_op_ = 0;
  bool compute_done_ = false;  // compute of ops[next_op_] already performed
  SimTime started_;
  Status status_;
  std::function<void(InvocationResult)> done_;
};

}  // namespace faasnap

#endif  // FAASNAP_SRC_VM_VM_H_
