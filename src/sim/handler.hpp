// Small-buffer-optimized event handler: the kernel's replacement for
// std::function<void()>.
//
// Scheduling an event used to heap-allocate a std::function closure; at
// n x d deliveries per simulated second that allocation dominated the
// event loop. BasicHandler stores the callable inline in kInlineSize
// bytes of embedded storage (an ops-table dispatches
// invoke/relocate/destroy), so every closure in src/ schedules without
// touching the heap. Oversized or over-aligned callables still work —
// they fall back to a single heap-allocated copy behind a pointer in the
// same storage — but the hot paths static_assert `fits_inline` at their
// scheduling sites so growth past the buffer is a compile error, not a
// silent perf cliff.
//
// Two instantiations are used by the kernel:
//   Handler       = BasicHandler<void()> — one event, one call.
//   FanoutHandler = BasicHandler<void(std::span<const std::uint32_t>,
//                                     std::size_t)> — one batched
//     broadcast: the kernel invokes the same stored callable once per
//     delivery with the whole receiver span and the delivery's index in
//     it, so a d-receiver Hello costs one closure instead of d, and a
//     delivery can see the receivers after it (to prefetch their state).
//
// BasicHandler is move-only (like the closures it carries) and its
// moved-from state is empty; invoking an empty handler is undefined
// (asserted).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <type_traits>
#include <utility>

namespace mstc::sim {

template <typename Signature>
class BasicHandler;

template <typename... Args>
class BasicHandler<void(Args...)> {
 public:
  /// Inline storage, sized for the largest closure scheduled anywhere in
  /// src/ — mac::Channel's backoff-retry lambda (this + sender + range +
  /// bits + tries_left + two std::function callbacks, ~104 bytes on
  /// LP64). The scheduling sites static_assert fits_inline, so growing a
  /// capture past this is caught at compile time.
  static constexpr std::size_t kInlineSize = 120;

  /// True when F is stored inline (no allocation): it fits, is no more
  /// aligned than max_align_t, and can be relocated noexcept (the kernel
  /// moves handlers while growing and draining its queue).
  template <typename F>
  static constexpr bool fits_inline =
      sizeof(F) <= kInlineSize && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  BasicHandler() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, BasicHandler> &&
                std::is_invocable_r_v<void, std::decay_t<F>&, Args...>>>
  // NOLINTNEXTLINE(google-explicit-constructor): converts like std::function
  BasicHandler(F&& fn) {  // NOLINT(bugprone-forwarding-reference-overload)
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      // Documented fallback: one allocation, pointer parked inline.
      ::new (static_cast<void*>(storage_))
          Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  BasicHandler(BasicHandler&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) ops_->relocate(storage_, other.storage_);
    other.ops_ = nullptr;
  }

  BasicHandler& operator=(BasicHandler&& other) noexcept {
    if (this != &other) {
      if (ops_ != nullptr) ops_->destroy(storage_);
      ops_ = other.ops_;
      if (ops_ != nullptr) ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
    return *this;
  }

  BasicHandler(const BasicHandler&) = delete;
  BasicHandler& operator=(const BasicHandler&) = delete;

  ~BasicHandler() {
    if (ops_ != nullptr) ops_->destroy(storage_);
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  void operator()(Args... args) {
    assert(ops_ != nullptr && "invoking an empty handler");
    ops_->invoke(storage_, args...);
  }

 private:
  struct Ops {
    void (*invoke)(void* storage, Args... args);
    /// Move-constructs into `dst` and destroys the source — the two are
    /// fused so moved-from handlers hold nothing.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* storage, Args... args) {
        (*static_cast<Fn*>(storage))(args...);
      },
      [](void* dst, void* src) noexcept {
        Fn* from = static_cast<Fn*>(src);
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* storage) noexcept { static_cast<Fn*>(storage)->~Fn(); }};

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* storage, Args... args) {
        (**static_cast<Fn**>(storage))(args...);
      },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn*(*static_cast<Fn**>(src));
      },
      [](void* storage) noexcept { delete *static_cast<Fn**>(storage); }};

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
};

/// One event, one call — the carrier behind every schedule_* entry point.
using Handler = BasicHandler<void()>;

/// One batched broadcast: invoked once per delivery by the kernel's fan-out
/// dispatch as fn(receivers, i), delivering to receivers[i] (see
/// Simulator::schedule_fanout).
using FanoutHandler =
    BasicHandler<void(std::span<const std::uint32_t>, std::size_t)>;

}  // namespace mstc::sim
