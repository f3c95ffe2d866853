#pragma once
// Small-buffer type-erased callable for scheduler events.
//
// Every scheduled event used to carry a std::function<void()>; the typical
// capture block (an automaton pointer plus a message payload) exceeds the
// standard library's tiny inline buffer, so the DES hot path paid one heap
// allocation per event. EventAction keeps a 48-byte inline buffer and
// falls back to the heap only beyond that, counting each fallback.
//
// Every serving-path closure fits: a C-gcast delivery captures a slab row
// index, a tracker timer its target or find id, and a client broadcast a
// packed 32-byte Message (tests/test_message_path.cpp pins the count at
// zero).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace vs::sim {

class EventAction {
 public:
  static constexpr std::size_t kInlineSize = 48;
  static constexpr std::size_t kAlign = alignof(std::max_align_t);

  EventAction() = default;

  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventAction> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  EventAction(F&& f) {  // NOLINT(google-explicit-constructor): callables
                        // convert implicitly, like std::function
    using Fn = std::remove_cvref_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
      heap_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  EventAction(EventAction&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(other.buf_, buf_);
      other.ops_ = nullptr;
    }
  }

  EventAction& operator=(EventAction&& other) noexcept {
    if (this != &other) {
      reset();
      if (other.ops_ != nullptr) {
        ops_ = other.ops_;
        ops_->relocate(other.buf_, buf_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  EventAction(const EventAction&) = delete;
  EventAction& operator=(const EventAction&) = delete;

  ~EventAction() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buf_); }

  /// Destroy the held callable (no-op when empty).
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  /// True if the held callable lives in the inline buffer.
  [[nodiscard]] bool is_inline() const {
    return ops_ != nullptr && !ops_->heap;
  }

  /// Process-wide count of heap-fallback constructions (callables larger
  /// than kInlineSize). Relaxed atomic: a bench statistic, not a sync point.
  [[nodiscard]] static std::uint64_t heap_fallbacks() {
    return heap_fallbacks_.load(std::memory_order_relaxed);
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    // Move-construct the callable from `from` into `to`, destroying `from`.
    void (*relocate)(void* from, void* to);
    void (*destroy)(void*);
    bool heap;
  };

  template <class Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineSize && alignof(Fn) <= kAlign &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <class Fn>
  static constexpr Ops kInlineOps{
      [](void* p) { (*std::launder(static_cast<Fn*>(p)))(); },
      [](void* from, void* to) {
        Fn* src = std::launder(static_cast<Fn*>(from));
        ::new (to) Fn(std::move(*src));
        src->~Fn();
      },
      [](void* p) { std::launder(static_cast<Fn*>(p))->~Fn(); },
      /*heap=*/false,
  };

  template <class Fn>
  static constexpr Ops kHeapOps{
      [](void* p) { (**std::launder(static_cast<Fn**>(p)))(); },
      [](void* from, void* to) {
        Fn** src = std::launder(static_cast<Fn**>(from));
        ::new (to) Fn*(*src);
      },
      [](void* p) { delete *std::launder(static_cast<Fn**>(p)); },
      /*heap=*/true,
  };

  static inline std::atomic<std::uint64_t> heap_fallbacks_{0};

  alignas(kAlign) std::byte buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace vs::sim
