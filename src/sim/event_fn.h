// EventFn: the simulator's callback type.
//
// A move-only callable with 48 bytes of inline storage, built for the event
// loop's churn: scheduling moves the callback into a slab slot, firing moves it
// back out, and both must not touch the allocator. Closures with trivially
// copyable captures (the overwhelmingly common case — a few pointers and
// integers) move by memcpy and destroy for free; anything bigger or fancier
// still works through a type-erased manager, falling back to the heap only when
// the capture does not fit inline.

#ifndef FAASNAP_SRC_SIM_EVENT_FN_H_
#define FAASNAP_SRC_SIM_EVENT_FN_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "src/common/status.h"

namespace faasnap {

class EventFn {
 public:
  static constexpr size_t kInlineBytes = 48;

  // Whether a closure of type D is stored inline (no heap allocation). Hot
  // callers static_assert it next to their Schedule call.
  template <typename D>
  static constexpr bool kFitsInline = sizeof(D) <= kInlineBytes &&
                                      alignof(D) <= alignof(std::max_align_t) &&
                                      std::is_nothrow_move_constructible_v<D>;

  EventFn() noexcept = default;
  EventFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                        !std::is_same_v<D, std::nullptr_t> &&
                                        std::is_invocable_r_v<void, D&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    Init<F, D>(std::forward<F>(f));
  }

  // Assigns a callable in place: one construction directly into the target's
  // storage, with no intermediate EventFn move (the schedule fast path).
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                        !std::is_same_v<D, std::nullptr_t> &&
                                        std::is_invocable_r_v<void, D&>>>
  EventFn& operator=(F&& f) {
    Reset();
    Init<F, D>(std::forward<F>(f));
    return *this;
  }

  EventFn(EventFn&& other) noexcept { MoveFrom(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  EventFn& operator=(std::nullptr_t) noexcept {
    Reset();
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { Reset(); }

  void operator()() {
    FAASNAP_CHECK(invoke_ != nullptr);
    invoke_(this);
  }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

 private:
  template <typename F, typename D>
  void Init(F&& f) {
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      invoke_ = [](EventFn* self) { (*self->Inline<D>())(); };
      if constexpr (!std::is_trivially_copyable_v<D> ||
                    !std::is_trivially_destructible_v<D>) {
        manage_ = [](EventFn* dst, EventFn* src) {
          if (src != nullptr) {
            ::new (static_cast<void*>(dst->storage_)) D(std::move(*src->Inline<D>()));
            src->Inline<D>()->~D();
          } else {
            dst->Inline<D>()->~D();
          }
        };
      }
      // Trivially copyable + destructible: manage_ stays null; moves are a
      // memcpy of the buffer and destruction is a no-op.
    } else {
      D* heap = new D(std::forward<F>(f));
      std::memcpy(storage_, &heap, sizeof(heap));
      invoke_ = [](EventFn* self) { (*self->Heap<D>())(); };
      manage_ = [](EventFn* dst, EventFn* src) {
        if (src != nullptr) {
          std::memcpy(dst->storage_, src->storage_, sizeof(D*));
        } else {
          delete dst->Heap<D>();
        }
      };
    }
  }

  template <typename D>
  D* Inline() noexcept {
    return std::launder(reinterpret_cast<D*>(storage_));
  }
  template <typename D>
  D* Heap() noexcept {
    D* p;
    std::memcpy(&p, storage_, sizeof(p));
    return p;
  }

  void Reset() noexcept {
    if (manage_ != nullptr) {
      manage_(this, nullptr);
    }
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  void MoveFrom(EventFn& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    if (manage_ != nullptr) {
      manage_(this, &other);
    } else if (invoke_ != nullptr) {
      std::memcpy(storage_, other.storage_, kInlineBytes);
    }
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  void (*invoke_)(EventFn*) = nullptr;
  // Moves *src into *dst (src != nullptr) or destroys *dst (src == nullptr).
  // Null for trivially relocatable callables.
  void (*manage_)(EventFn*, EventFn*) = nullptr;
};

}  // namespace faasnap

#endif  // FAASNAP_SRC_SIM_EVENT_FN_H_
