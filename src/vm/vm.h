// Vm: executes an invocation trace against a FaultEngine on the simulation clock.
//
// The Vm plays the role of the guest vCPU(s): it alternates compute bursts (scaled
// by host CPU contention) with page accesses (resolved by the FaultEngine). The
// record phase's recorders observe every access through the engine's
// AccessObserver as it retires.
//
// Run-granular execution. The Vm hands the engine one trace run at a time
// (FaultEngine::AccessRun) with the run's burst scaled once: no event fires
// inside one Step, so the CPU load factor, the mappings and the page-cache
// presence hold for the whole stretch, and the engine's RunLookups are shared
// by every run of that Step. The engine ends each page's burst and retires
// fixed-cost faults in line while the fast-forward rule allows. The first
// burst or fault that cannot goes back to the event queue: the Vm schedules a
// burst's end and resumes from it with the burst marked ended, and an evented
// retire resumes it through FaultGuest::Resume.
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

class Vm final : private FaultGuest {
 public:
  struct InvocationResult {
    // Simulated time, not wall-clock, from start to completion or abort.
    Duration elapsed;
    // Page accesses the Vm executed: every page of the trace when it ran to
    // completion; on an abort, the pages up to and including the access that
    // failed, even when it failed in the middle of a run.
    uint64_t access_count = 0;
    // OK when the trace ran to completion; otherwise the terminal failure that
    // aborted the invocation (e.g. a device read error that survived retries).
    Status status;
  };

  // `vcpus` counts against the CpuModel for the whole invocation (the guest's
  // Flask server plus worker keep both vCPUs busy; section 6.1 guests have 2).
  Vm(Simulation* sim, FaultEngine* engine, CpuModel* cpu, int vcpus);
  // The engine and the Vm's own events hold its address.
  Vm(const Vm&) = delete;
  Vm& operator=(const Vm&) = delete;

  // Runs `trace` to completion; `done(result)` fires on the simulation clock.
  // One invocation at a time per Vm.
  void RunInvocation(const InvocationTrace& trace, std::function<void(InvocationResult)> done);

  FaultEngine* engine() { return engine_; }

 private:
  // FaultGuest: the engine's way back after an evented retire or a failure.
  void Resume() override { Step(/*may_advance=*/true); }
  void Fail(const Status& status) override;

  // Runs the trace until a burst or a fault has to wait for an event.
  // `may_advance` is true only when this Step is the last action of one of the
  // Vm's own continuation events: then compute bursts, fixed-cost faults and
  // the trailing compute that end strictly before the next queued event retire
  // in line under Simulation's fast-forward rule. The first Step, inside
  // RunInvocation, passes false: its caller may still act after RunInvocation
  // returns.
  void Step(bool may_advance);
  // Releases the vCPUs and fires `done`, which may start the next invocation
  // on this Vm; callers return straight after it.
  void Finish();

  Simulation* sim_;
  FaultEngine* engine_;
  CpuModel* cpu_;
  int vcpus_;

  // The running invocation. The Vm owns it, so its continuation events
  // capture only `this`, which keeps them allocation-free.
  bool running_ = false;
  const InvocationTrace* trace_ = nullptr;
  size_t next_run_ = 0;
  uint64_t next_page_ = 0;          // pages of runs[next_run_] begun
  uint64_t pages_before_run_ = 0;   // pages of runs[0, next_run_)
  bool burst_done_ = false;         // burst before page next_page_ already ran
  SimTime started_;
  Status status_;
  std::function<void(InvocationResult)> done_;
};

}  // namespace faasnap

#endif  // FAASNAP_SRC_VM_VM_H_
