// Small-buffer callables for the event hot path.
//
// Every simulated packet, timer and browser task schedules a closure, and
// every connection, request and browser object holds completion callbacks.
// With std::function most of those closures spill to the heap (libstdc++
// gives them 16 bytes of inline storage) and each copy re-allocates.
// SmallFunction keeps callables up to kInlineBytes inside the object
// itself, is move-only (callbacks are handed over, never shared), and falls
// back to a single heap cell for oversized captures. SmallCallback is the
// scheduler's `void()` instance.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace bnm::sim {

template <typename Signature>
class SmallFunction;

/// Move-only type-erased callable with inline storage.
template <typename R, typename... Args>
class SmallFunction<R(Args...)> {
 public:
  /// Inline capacity: nine pointer-sized captures — `this` plus a few
  /// pointers, shared_ptrs, ids, a std::string or a 16-byte endpoint; the
  /// ninth word lets a wrapper such as the browser event loop's task add
  /// its own pointer to a 64-byte closure. A Packet (96 bytes) or a
  /// SmallFunction does not fit: the net layer parks packets in
  /// arena-backed lists and captures an iterator, and callers park
  /// callbacks in their own state instead of nesting them.
  static constexpr std::size_t kInlineBytes = 72;

  SmallFunction() = default;
  SmallFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  SmallFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    construct(std::forward<F>(f));
  }

  SmallFunction(SmallFunction&& o) noexcept { move_from(o); }
  SmallFunction& operator=(SmallFunction&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  SmallFunction(const SmallFunction&) = delete;
  SmallFunction& operator=(const SmallFunction&) = delete;

  /// Replace the held callable by constructing `f` in place (no
  /// intermediate SmallFunction, so no relocation).
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  SmallFunction& operator=(F&& f) {
    reset();
    construct(std::forward<F>(f));
    return *this;
  }
  SmallFunction& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  ~SmallFunction() { reset(); }

  /// Const like std::function's: calling does not change which callable
  /// is held, though the callable itself may mutate its captures.
  R operator()(Args... args) const {
    return ops_->call(const_cast<unsigned char*>(buf_),
                      std::forward<Args>(args)...);
  }

  explicit operator bool() const { return ops_ != nullptr; }

  /// True if the callable lives in the inline buffer (no heap allocation).
  /// Exposed for the substrate micro-benchmarks and tests.
  bool is_inline() const { return ops_ != nullptr && ops_->inline_storage; }

 private:
  struct Ops {
    R (*call)(void* buf, Args&&... args);
    /// Move-construct into `dst` from `src` and destroy the source.
    /// nullptr means "memcpy the whole buffer" — the fast path for
    /// trivially-copyable callables (and the heap cell's pointer), which
    /// queue moves hit constantly.
    void (*relocate)(void* dst, void* src) noexcept;
    /// nullptr means trivially destructible: nothing to run.
    void (*destroy)(void* buf) noexcept;
    bool inline_storage;
  };

  /// Inline storage is 8-aligned (pointers, the universal lambda capture);
  /// over-aligned callables take the heap cell. Keeps the whole object —
  /// and every pool cell holding one — 8 bytes denser than a max_align_t
  /// buffer would.
  static constexpr std::size_t kInlineAlign = alignof(void*);

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineBytes && alignof(Fn) <= kInlineAlign &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* buf, Args&&... args) -> R {
        return (*std::launder(reinterpret_cast<Fn*>(buf)))(
            std::forward<Args>(args)...);
      },
      std::is_trivially_copyable_v<Fn>
          ? nullptr
          : +[](void* dst, void* src) noexcept {
              Fn* s = std::launder(reinterpret_cast<Fn*>(src));
              ::new (dst) Fn(std::move(*s));
              s->~Fn();
            },
      std::is_trivially_destructible_v<Fn>
          ? nullptr
          : +[](void* buf) noexcept {
              std::launder(reinterpret_cast<Fn*>(buf))->~Fn();
            },
      /*inline_storage=*/true,
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* buf, Args&&... args) -> R {
        return (**reinterpret_cast<Fn**>(buf))(std::forward<Args>(args)...);
      },
      /*relocate=*/nullptr,  // memcpy moves the heap-cell pointer
      [](void* buf) noexcept { delete *reinterpret_cast<Fn**>(buf); },
      /*inline_storage=*/false,
  };

  template <typename F>
  void construct(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      *reinterpret_cast<void**>(buf_) = new Fn(std::forward<F>(f));
      ops_ = &kHeapOps<Fn>;
    }
  }

  void move_from(SmallFunction& o) noexcept {
    ops_ = o.ops_;
    if (ops_ != nullptr) {
      if (ops_->relocate != nullptr) {
        ops_->relocate(buf_, o.buf_);
      } else {
        std::memcpy(buf_, o.buf_, kInlineBytes);
      }
      o.ops_ = nullptr;
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  alignas(kInlineAlign) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// The scheduler's event closure.
using SmallCallback = SmallFunction<void()>;

}  // namespace bnm::sim
