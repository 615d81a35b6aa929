// Discrete-event simulation core.
//
// A Simulation owns a virtual nanosecond clock and a priority queue of events.
// Actors (vCPUs, loader threads, userfaultfd handlers, block devices) advance the
// world exclusively by scheduling callbacks. Events at the same timestamp fire in
// scheduling order (FIFO tie-break), which makes every run bit-reproducible.
//
// The engine is deliberately single-threaded: determinism is worth more to the
// benchmarks than parallel speedup, and all FaaSnap experiments complete in seconds.
// Parallelism lives a layer up: src/cluster/ runs one Simulation per simulated
// host on its own worker thread and synchronizes them at conservative
// virtual-time barriers, so multi-host runs scale across cores while each
// engine instance stays single-threaded and bit-reproducible.
//
// Fast-forward (temporal decoupling bounded by the queue head). An actor whose
// next step would be "schedule an event at t, then return to the loop" may
// instead call TryFastForward(t) and, on success, do that event's work in line.
// This is exact, not approximate: the clock moves only when that event would be
// the next to fire anyway, so nothing else can observe the difference. The rule:
//  * the caller runs inside Run() or RunUntil(), never inside a bare Step() or
//    outside a run loop (whose callers may act between events);
//  * t is at or before the RunUntil deadline (an epoch's horizon is a promise
//    to the code that resumes after it);
//  * t is strictly before the queue head's time: at an equal time the event
//    already queued would win the FIFO tie (a cancelled head counts as live);
//  * the caller does the skipped event's work as the last action of the
//    current event, so nothing runs between "now" and t.
// FastForwardBound() is the latest t the rule accepts now. It depends on the
// deadline and the raw queue head, not on the clock, so a caller may test
// successive times against one bound and commit the last of them with
// TryFastForward, provided nothing schedules or cancels an event in between.
// Fast-forwards fire no event and do not count in processed_events(). The
// callers are the Vm (trailing compute, one TryFastForward) and
// FaultEngine::AccessRun, the bound's one reader: it walks a run's bursts and
// fixed-cost faults on a local clock against the bound and commits the clock at
// each exit, and before each access observer call, which may schedule (the
// bound is read again after it).

#ifndef FAASNAP_SRC_SIM_SIMULATION_H_
#define FAASNAP_SRC_SIM_SIMULATION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/sim/event_fn.h"

namespace faasnap {

using EventId = uint64_t;

class Simulation {
 public:
  Simulation() { heap_.resize(kHeapPad); }
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // Current virtual time. Monotonically non-decreasing across event firings.
  SimTime now() const { return now_; }

  // Schedules `fn` at absolute time `when` (must be >= now()). Returns an id
  // usable with Cancel(). Templated on the callable so the closure is
  // constructed directly in the event slot (no intermediate EventFn move), and
  // defined inline below: scheduling and firing are the simulator's hottest
  // operations and must inline into callers.
  template <typename F>
  EventId Schedule(SimTime when, F&& fn);

  // Schedules `fn` at now() + delay (delay must be >= 0).
  template <typename F>
  EventId ScheduleAfter(Duration delay, F&& fn);

  // Cancels a pending event. Canceling an already-fired or unknown id is a no-op.
  void Cancel(EventId id);

  // Runs until the event queue drains. Returns the number of events processed.
  uint64_t Run();

  // Runs events with time <= deadline; the clock lands on the last fired event
  // (or `deadline` if the queue drained earlier and events remain beyond it).
  uint64_t RunUntil(SimTime deadline);

  // Fires exactly one event. Returns false if the queue is empty. Nothing the
  // event does may fast-forward: the caller may act before the next Step().
  bool Step();

  // Moves the clock to `t` (>= now()) without an event, under the fast-forward
  // rule in the header comment. Returns false and leaves the clock alone when
  // the rule does not allow it; the caller then schedules the event instead.
  bool TryFastForward(SimTime t);

  // The latest t that TryFastForward(t) would accept now: the RunUntil deadline
  // or 1 ns before the raw queue head, whichever is earlier (a cancelled head
  // counts as live). Before now() outside a run loop or inside a bare Step().
  SimTime FastForwardBound() const;

  // True when the queue holds an event at or before `t`: RunUntil(t) would fire
  // something. Peeks the raw heap root, so a cancelled head counts as an event.
  bool HasEventAtOrBefore(SimTime t) const {
    return heap_.size() > kHeapPad && !(t < heap_[kHeapPad].when);
  }

  // Takes `source`'s clock, event sequence counter and processed count. Both
  // queues must be empty, so no pending event can tell the two apart; the
  // cluster layer uses this to copy a quiescent host.
  void CopyClockFrom(const Simulation& source);

  bool empty() const { return live_ == 0; }
  uint64_t processed_events() const { return processed_; }

 private:
  // Events live in a slab of reusable slots; an EventId packs (slot index,
  // generation) so a recycled slot invalidates stale ids and stale heap entries
  // without any per-event map. The slot's EventFn storage is reused across
  // events (small closures never re-allocate), and cancellation releases the
  // closure promptly while the heap entry is lazily dropped on pop.
  // The firing time lives only in the heap entry; the slot doesn't need it.
  struct EventSlot {
    uint64_t seq = 0;       // FIFO tie-break, assigned at Schedule time
    uint32_t generation = 1;  // bumped every time the slot is released
    bool armed = false;
    EventFn fn;
  };

  // 16 bytes so four heap children share one cache line. `key` packs
  // (seq << kSlotBits) | slot: seq is unique, so comparing keys orders
  // equal-time events exactly by seq — the FIFO tie-break — with the slot
  // riding along for free.
  struct PendingEvent {
    SimTime when;
    uint64_t key;

    uint64_t seq() const { return key >> kSlotBits; }
    uint32_t slot() const { return static_cast<uint32_t>(key & kSlotMask); }
  };
  static constexpr uint32_t kSlotBits = 24;  // up to 16M concurrently live events
  static constexpr uint64_t kSlotMask = (uint64_t{1} << kSlotBits) - 1;

  // (when, seq) is a strict total order (seq is unique), so min-extraction
  // yields exactly one possible sequence — the heap's shape and arity cannot
  // change observable firing order.
  static bool Before(const PendingEvent& a, const PendingEvent& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    return a.key < b.key;
  }

  static constexpr EventId MakeId(uint32_t slot, uint32_t generation) {
    return (static_cast<EventId>(slot) << 32) | generation;
  }

  // 4-ary min-heap with hole-based sifting: shallower than a binary heap, and
  // the layout is tuned so sifting — where the event loop spends its time at
  // production event rates — touches one cache line per level. The backing
  // array is 64-byte aligned and the first kHeapPad entries are unused padding,
  // which places every node's 4-child block (physical indices 4l+4..4l+7 for
  // logical node l) on exactly one 64-byte line of 16-byte PendingEvents.
  static constexpr size_t kHeapPad = 3;  // root lives at physical index 3
  void HeapPush(PendingEvent ev);
  void HeapPopMin();

  template <typename T>
  struct CacheAlignedAlloc {
    using value_type = T;
    CacheAlignedAlloc() = default;
    template <typename U>
    CacheAlignedAlloc(const CacheAlignedAlloc<U>&) {}  // NOLINT
    T* allocate(size_t n) {
      return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{64}));
    }
    void deallocate(T* p, size_t) { ::operator delete(p, std::align_val_t{64}); }
    bool operator==(const CacheAlignedAlloc&) const { return true; }
  };

  // Pops the next non-cancelled event, or returns false.
  bool PopNext(PendingEvent* out);

  // Pops and fires the next event; the shared body of Step() and Run().
  bool FireNext();

  // Invokes the slot's callback in place and then recycles the slot. The slab
  // is chunked (addresses are stable), so the closure never has to be moved
  // out before the call even though the callback may itself schedule events
  // and grow the slab. The slot is disarmed before the call (a self-Cancel
  // from inside the callback is a no-op) but only returns to the free list
  // after it, so a re-entrant Schedule cannot overwrite the running closure.
  void FireSlot(uint32_t slot);

  // Slots live in fixed-size chunks so EventSlot addresses never change.
  static constexpr uint32_t kSlotChunkBits = 7;
  static constexpr uint32_t kSlotChunkSize = 1u << kSlotChunkBits;
  EventSlot& Slot(uint32_t i) {
    return slot_chunks_[i >> kSlotChunkBits][i & (kSlotChunkSize - 1)];
  }
  const EventSlot& Slot(uint32_t i) const {
    return slot_chunks_[i >> kSlotChunkBits][i & (kSlotChunkSize - 1)];
  }

  SimTime now_;
  // Fast-forward bound: true only while Run() or RunUntil() fires events, and
  // then TryFastForward may not pass run_deadline_. Leaving any loop, and any
  // Step(), clears it, so a nested loop can only turn fast-forward off.
  bool in_run_loop_ = false;
  SimTime run_deadline_;
  uint64_t next_seq_ = 0;
  uint64_t processed_ = 0;
  uint64_t live_ = 0;
  // Number of lazily-dropped heap entries (from Cancel). While zero — the
  // common case — every heap entry is live and PopNext can skip the slot
  // staleness check, avoiding a dependent random read before the sift-down.
  uint64_t stale_heap_entries_ = 0;
  // Physical layout: [kHeapPad pad entries][heap nodes...]; see kHeapPad above.
  std::vector<PendingEvent, CacheAlignedAlloc<PendingEvent>> heap_;
  std::vector<std::unique_ptr<EventSlot[]>> slot_chunks_;
  uint32_t slot_count_ = 0;
  std::vector<uint32_t> free_slots_;
};

// ---- inline hot path ----

// Both sift loops work in physical indices (pad included): the root is at
// kHeapPad, the children of physical node i are 4*i - 8 .. 4*i - 5, and the
// parent of physical node i is ((i - 4) >> 2) + kHeapPad.
inline void Simulation::HeapPush(PendingEvent ev) {
  size_t i = heap_.size();
  heap_.push_back(ev);  // placeholder; the hole sifts up below
  while (i > kHeapPad) {
    const size_t parent = ((i - kHeapPad - 1) >> 2) + kHeapPad;
    if (!Before(ev, heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = ev;
}

inline void Simulation::HeapPopMin() {
  const PendingEvent last = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (n == kHeapPad) {
    return;
  }
  size_t i = kHeapPad;
  for (;;) {
    const size_t first_child = 4 * (i - kHeapPad) + kHeapPad + 1;
    if (first_child >= n) {
      break;
    }
    const size_t limit = first_child + 4 < n ? first_child + 4 : n;
    size_t best = first_child;
    for (size_t c = first_child + 1; c < limit; ++c) {
      if (Before(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Before(heap_[best], last)) {
      break;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

template <typename F>
inline EventId Simulation::Schedule(SimTime when, F&& fn) {
  FAASNAP_CHECK(now_ <= when);
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = slot_count_;
    if ((slot_count_ & (kSlotChunkSize - 1)) == 0) {
      slot_chunks_.push_back(std::make_unique<EventSlot[]>(kSlotChunkSize));
    }
    ++slot_count_;
  }
  FAASNAP_CHECK(slot <= kSlotMask);
  FAASNAP_CHECK(next_seq_ < (uint64_t{1} << (64 - kSlotBits)));
  EventSlot& s = Slot(slot);
  s.seq = next_seq_++;
  s.armed = true;
  s.fn = std::forward<F>(fn);  // constructs the closure in the slot directly
  HeapPush(PendingEvent{when, (s.seq << kSlotBits) | slot});
  ++live_;
  return MakeId(slot, s.generation);
}

template <typename F>
inline EventId Simulation::ScheduleAfter(Duration delay, F&& fn) {
  FAASNAP_CHECK(delay >= Duration::Zero());
  return Schedule(now_ + delay, std::forward<F>(fn));
}

inline void Simulation::FireSlot(uint32_t slot) {
  EventSlot& s = Slot(slot);
  s.armed = false;
  --live_;
  s.fn();  // in place: chunked slots never move, even if the callback schedules
  s.fn = nullptr;
  ++s.generation;
  free_slots_.push_back(slot);
}

inline bool Simulation::PopNext(PendingEvent* out) {
  while (heap_.size() > kHeapPad) {
    const PendingEvent ev = heap_[kHeapPad];
    // Pops visit slots in time order, i.e. at random slab addresses; start the
    // slot's two cache lines loading now so the fetch overlaps the sift-down.
#if defined(__GNUC__) || defined(__clang__)
    const char* slot_addr = reinterpret_cast<const char*>(&Slot(ev.slot()));
    __builtin_prefetch(slot_addr);
    __builtin_prefetch(slot_addr + 64);
#endif
    if (stale_heap_entries_ != 0) {
      // A live entry carries the slot's current seq; anything else is a lazily
      // dropped leftover from a cancelled (possibly since-recycled) slot.
      const EventSlot& s = Slot(ev.slot());
      if (!s.armed || s.seq != ev.seq()) {
        HeapPopMin();
        --stale_heap_entries_;
        continue;
      }
    }
    HeapPopMin();
    *out = ev;
    return true;
  }
  return false;
}

inline bool Simulation::FireNext() {
  PendingEvent ev;
  if (!PopNext(&ev)) {
    return false;
  }
  now_ = ev.when;
  FireSlot(ev.slot());
  ++processed_;
  return true;
}

inline bool Simulation::Step() {
  in_run_loop_ = false;
  return FireNext();
}

inline SimTime Simulation::FastForwardBound() const {
  if (!in_run_loop_) {
    return now_ + Duration::Nanos(-1);
  }
  // A cancelled head only makes the bound more conservative, and peeking the
  // raw root stays O(1).
  if (heap_.size() > kHeapPad) {
    return Min(run_deadline_, heap_[kHeapPad].when + Duration::Nanos(-1));
  }
  return run_deadline_;
}

inline bool Simulation::TryFastForward(SimTime t) {
  FAASNAP_CHECK(now_ <= t);
  if (FastForwardBound() < t) {
    return false;
  }
  now_ = t;
  return true;
}

}  // namespace faasnap

#endif  // FAASNAP_SRC_SIM_SIMULATION_H_
