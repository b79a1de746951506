// Small-buffer callback for simulator events.
//
// The discrete-event hot path schedules millions of tiny closures — processor
// completions, lifetime deadlines, decision wake-ups — that capture one or two
// pointers. std::function would be workable for those (libstdc++ inlines
// 16-byte trivially-copyable captures), but it gives no control over the
// buffer size and no visibility into when it silently falls back to the
// heap. EventCallback is a move-only type-erased void() callable with a
// 48-byte inline buffer: every common event closure is stored in place, and
// larger captures (test lambdas hauling vectors around) degrade to a single
// heap cell that the owner can observe via on_heap() and count.
//
// Invariants:
//   * move-only; a moved-from callback is empty (operator bool() == false)
//   * invoking an empty callback is undefined (the simulator never does)
//   * relocation is noexcept — callables with throwing move constructors are
//     stored on the heap so the slot arena can grow by plain moves

#ifndef WEBDB_SIM_EVENT_CALLBACK_H_
#define WEBDB_SIM_EVENT_CALLBACK_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace webdb {

class EventCallback {
 public:
  // Large enough for a capture of six pointers; small enough that a pooled
  // event slot stays within one cache line pair.
  static constexpr size_t kInlineSize = 48;

  EventCallback() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventCallback(F&& fn) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (FitsInline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &InlineOps<Fn>::kOps;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &HeapOps<Fn>::kOps;
    }
  }

  EventCallback(EventCallback&& other) noexcept { MoveFrom(other); }

  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() { Reset(); }

  // Requires *this to be non-empty.
  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  // True when the callable fell back to a heap cell (capture larger than
  // kInlineSize or with a throwing move). The simulator counts these.
  bool on_heap() const noexcept { return ops_ != nullptr && ops_->heap; }

 private:
  template <typename Fn>
  static constexpr bool FitsInline() {
    return sizeof(Fn) <= kInlineSize &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  struct Ops {
    void (*invoke)(void* storage);
    // Move-constructs `to` from `from` and destroys `from`.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* storage) noexcept;
    bool heap;
  };

  template <typename Fn>
  struct InlineOps {
    static void Invoke(void* storage) { (*static_cast<Fn*>(storage))(); }
    static void Relocate(void* from, void* to) noexcept {
      ::new (to) Fn(std::move(*static_cast<Fn*>(from)));
      static_cast<Fn*>(from)->~Fn();
    }
    static void Destroy(void* storage) noexcept {
      static_cast<Fn*>(storage)->~Fn();
    }
    static constexpr Ops kOps = {&Invoke, &Relocate, &Destroy, false};
  };

  template <typename Fn>
  struct HeapOps {
    static Fn* Cell(void* storage) {
      return *std::launder(static_cast<Fn**>(storage));
    }
    static void Invoke(void* storage) { (*Cell(storage))(); }
    static void Relocate(void* from, void* to) noexcept {
      ::new (to) Fn*(Cell(from));
    }
    static void Destroy(void* storage) noexcept { delete Cell(storage); }
    static constexpr Ops kOps = {&Invoke, &Relocate, &Destroy, true};
  };

  void MoveFrom(EventCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  void Reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace webdb

#endif  // WEBDB_SIM_EVENT_CALLBACK_H_
