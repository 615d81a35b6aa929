#include "src/sim/simulation.h"

#include <limits>

namespace faasnap {

void Simulation::Cancel(EventId id) {
  const uint32_t slot = static_cast<uint32_t>(id >> 32);
  const uint32_t generation = static_cast<uint32_t>(id);
  if (slot >= slot_count_) {
    return;  // never existed
  }
  EventSlot& s = Slot(slot);
  if (!s.armed || s.generation != generation) {
    return;  // already fired or cancelled
  }
  s.armed = false;
  s.fn = nullptr;  // free the closure promptly; the heap entry is dropped lazily
  ++s.generation;
  free_slots_.push_back(slot);
  --live_;
  ++stale_heap_entries_;
}

void Simulation::CopyClockFrom(const Simulation& source) {
  FAASNAP_CHECK(heap_.size() == kHeapPad && source.heap_.size() == kHeapPad);
  now_ = source.now_;
  next_seq_ = source.next_seq_;
  processed_ = source.processed_;
}

uint64_t Simulation::Run() {
  in_run_loop_ = true;
  run_deadline_ = SimTime::FromNanos(std::numeric_limits<int64_t>::max());
  uint64_t fired = 0;
  while (FireNext()) {
    ++fired;
  }
  in_run_loop_ = false;
  return fired;
}

uint64_t Simulation::RunUntil(SimTime deadline) {
  in_run_loop_ = true;
  run_deadline_ = deadline;
  uint64_t fired = 0;
  PendingEvent ev;
  while (PopNext(&ev)) {
    if (deadline < ev.when) {
      // Put it back and stop; clock advances to the deadline.
      HeapPush(ev);
      now_ = deadline;
      break;
    }
    now_ = ev.when;
    FireSlot(ev.slot());
    ++processed_;
    ++fired;
  }
  // The clock lands on the deadline even if the queue drained before it.
  now_ = Max(now_, deadline);
  in_run_loop_ = false;
  return fired;
}

}  // namespace faasnap
