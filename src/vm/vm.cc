#include "src/vm/vm.h"

#include <utility>

namespace faasnap {

Vm::Vm(Simulation* sim, FaultEngine* engine, CpuModel* cpu, int vcpus)
    : sim_(sim), engine_(engine), cpu_(cpu), vcpus_(vcpus) {
  FAASNAP_CHECK(sim_ != nullptr && engine_ != nullptr && cpu_ != nullptr);
  FAASNAP_CHECK(vcpus_ > 0);
}

void Vm::RunInvocation(const InvocationTrace& trace,
                       std::function<void(InvocationResult)> done) {
  FAASNAP_CHECK(!running_ && "one invocation at a time per Vm");
  running_ = true;
  trace_ = &trace;
  next_run_ = 0;
  next_page_ = 0;
  pages_before_run_ = 0;
  burst_done_ = false;
  started_ = sim_->now();
  status_ = OkStatus();
  done_ = std::move(done);
  for (int i = 0; i < vcpus_; ++i) {
    cpu_->AddRunnable();
  }
  // Evented retires resume this Vm; terminal restore failures (a read error
  // that survived retries/failover) abort it with the typed status instead of
  // hanging on a page that will never arrive.
  engine_->set_guest(this);
  Step(/*may_advance=*/false);
}

void Vm::Fail(const Status& status) {
  FAASNAP_CHECK(running_);
  FAASNAP_CHECK(!status.ok());
  status_ = status;
  Finish();
}

void Vm::Step(bool may_advance) {
  // No event fires until this Step returns: one set of lookups serves all of
  // it, and each run's burst is scaled once under the current load.
  FaultEngine::RunLookups lookups;
  const std::vector<TraceRun>& runs = trace_->runs;
  while (next_run_ < runs.size()) {
    const TraceRun& run = runs[next_run_];
    if (next_page_ < run.pages) {
      const Duration burst =
          run.compute > Duration::Zero() ? cpu_->ScaleCompute(run.compute) : Duration::Zero();
      const bool burst_ended = burst_done_;
      burst_done_ = false;
      const FaultEngine::RunStop stop = engine_->AccessRun(
          PageRange{run.first, run.pages}, &next_page_, burst, burst_ended, may_advance, &lookups);
      if (stop == FaultEngine::RunStop::kFault) {
        // Resume() re-enters Step. Touch nothing here: a fault that failed at
        // once has already finished this invocation, and `done` may have
        // started the next one.
        return;
      }
      if (stop == FaultEngine::RunStop::kBurst) {
        burst_done_ = true;
        sim_->Schedule(sim_->now() + burst, [this] { Step(/*may_advance=*/true); });
        return;
      }
    }
    pages_before_run_ += run.pages;
    next_page_ = 0;
    ++next_run_;
  }
  if (trace_->trailing_compute > Duration::Zero()) {
    const SimTime end = sim_->now() + cpu_->ScaleCompute(trace_->trailing_compute);
    if (!may_advance || !sim_->TryFastForward(end)) {
      sim_->Schedule(end, [this] { Finish(); });
      return;
    }
  }
  Finish();
}

void Vm::Finish() {
  for (int i = 0; i < vcpus_; ++i) {
    cpu_->RemoveRunnable();
  }
  running_ = false;
  engine_->set_guest(nullptr);
  InvocationResult result;
  result.elapsed = sim_->now() - started_;
  result.access_count = pages_before_run_ + next_page_;
  result.status = std::move(status_);
  // Moved out first: `done` may start the next invocation on this Vm, which
  // reinitializes every field above.
  std::function<void(InvocationResult)> done = std::move(done_);
  done_ = nullptr;
  done(std::move(result));
}

}  // namespace faasnap
