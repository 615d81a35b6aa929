// Host CPU contention model.
//
// The evaluation host is a 96-core c5d.metal. With 64 parallel invocations of
// 2-vCPU guests (Figure 10), runnable vCPUs exceed physical cores and everything
// slows down. We model this with proportional-share scaling: while R vCPUs are
// runnable on C cores, compute time stretches by max(1, R/C).
//
// The scaling factor is sampled when a compute burst is issued; bursts are short
// (one per page access), so resampling per burst tracks contention closely
// enough for the figure's shape without a full multiprocessor scheduler. The
// factor changes only inside events, so every burst issued within one event
// (one Vm::Step) scales by the same factor.

#ifndef FAASNAP_SRC_SIM_CPU_MODEL_H_
#define FAASNAP_SRC_SIM_CPU_MODEL_H_

#include "src/common/sim_time.h"
#include "src/common/status.h"

namespace faasnap {

class CpuModel {
 public:
  explicit CpuModel(int cores) : cores_(cores) { FAASNAP_CHECK(cores > 0); }

  // A vCPU (or other compute-bound thread) became runnable / stopped running.
  void AddRunnable() { ++runnable_; }
  void RemoveRunnable() {
    FAASNAP_CHECK(runnable_ > 0);
    --runnable_;
  }

  int runnable() const { return runnable_; }
  int cores() const { return cores_; }

  // Contention multiplier >= 1.0 under the current load.
  double LoadFactor() const {
    if (runnable_ <= cores_) {
      return 1.0;
    }
    return static_cast<double>(runnable_) / static_cast<double>(cores_);
  }

  // Wall-clock duration of a compute burst of `nominal` CPU time right now.
  Duration ScaleCompute(Duration nominal) const {
    if (runnable_ <= cores_) {
      return nominal;
    }
    return Duration::Nanos(
        static_cast<int64_t>(static_cast<double>(nominal.nanos()) * LoadFactor()));
  }

 private:
  int cores_;
  int runnable_ = 0;
};

}  // namespace faasnap

#endif  // FAASNAP_SRC_SIM_CPU_MODEL_H_
