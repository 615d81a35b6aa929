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
  next_op_ = 0;
  compute_done_ = false;
  started_ = sim_->now();
  status_ = OkStatus();
  done_ = std::move(done);
  for (int i = 0; i < vcpus_; ++i) {
    cpu_->AddRunnable();
  }
  // Terminal restore failures (a read error that survived retries/failover)
  // surface here instead of retiring the access; the invocation aborts with the
  // typed status rather than hanging on a page that will never arrive.
  engine_->set_failure_sink([this](const Status& status) { Abort(status); });
  Step(/*may_advance=*/false);
}

void Vm::Abort(const Status& status) {
  FAASNAP_CHECK(running_);
  FAASNAP_CHECK(!status.ok());
  status_ = status;
  Finish();
}

void Vm::Step(bool may_advance) {
  // Iterative loop: synchronous accesses (already-installed pages), zero-compute
  // ops and, when `may_advance`, work retired by fast-forward stay in this loop;
  // anything else that takes time schedules a continuation.
  while (next_op_ < trace_->ops.size()) {
    const TraceOp& op = trace_->ops[next_op_];
    if (!compute_done_ && op.compute > Duration::Zero()) {
      const SimTime burst_end = sim_->now() + cpu_->ScaleCompute(op.compute);
      if (!may_advance || !sim_->TryFastForward(burst_end)) {
        compute_done_ = true;
        sim_->Schedule(burst_end, [this] { Step(/*may_advance=*/true); });
        return;
      }
    }
    compute_done_ = false;
    const PageIndex page = op.page;
    next_op_++;
    FaultClass cls = FaultClass::kNoFault;
    const bool retired = engine_->Access(
        page,
        [this, page](FaultClass fault_class) {
          if (observer_) {
            observer_(page, fault_class);
          }
          Step(/*may_advance=*/true);
        },
        may_advance ? &cls : nullptr);
    if (!retired) {
      return;  // the continuation re-enters Step
    }
    if (observer_) {
      observer_(page, cls);
    }
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
  engine_->set_failure_sink(nullptr);
  InvocationResult result;
  result.elapsed = sim_->now() - started_;
  result.access_count = next_op_;
  result.status = std::move(status_);
  // Moved out first: `done` may start the next invocation on this Vm, which
  // reinitializes every field above.
  std::function<void(InvocationResult)> done = std::move(done_);
  done_ = nullptr;
  done(std::move(result));
}

}  // namespace faasnap
