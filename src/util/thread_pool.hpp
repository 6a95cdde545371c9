// Deterministic fork-join parallel_for.
//
// Parameter sweeps run many independent (config, seed) simulations;
// parallel_for spreads them over threads. Every index writes its own
// pre-sized slot, so parallel execution is bit-identical to serial
// execution, which the reproducibility tests assert.
#pragma once

#include <cstddef>
#include <functional>

namespace mstc::util {

/// The width of a parallel_for: how many helper threads may join the
/// caller. The pool owns no threads; each parallel_for starts its helpers
/// and joins them before it returns.
class ThreadPool {
 public:
  /// `threads` == 0 means std::thread::hardware_concurrency() (at least 1).
  explicit ThreadPool(std::size_t threads = 0);

  [[nodiscard]] std::size_t thread_count() const noexcept { return threads_; }

 private:
  std::size_t threads_;
};

/// Runs body(i) for every i in [0, n) and returns when all have run.
/// body must be safe to invoke concurrently for distinct indices.
///
/// A width of 1, or n <= 1, runs the loop inline on the caller. Otherwise
/// the caller and min(width, n - 1) helper threads claim one index at a
/// time from a shared counter. Which thread runs which index is
/// nondeterministic, but every index runs once and writes only its own
/// slot, so results equal a serial loop's (the determinism suite asserts
/// it). A body may itself call parallel_for: the nested call starts its
/// own helpers.
///
/// If body throws, the call stops handing out indices, joins every helper
/// and rethrows one of the exceptions on the caller; some indices then
/// never run.
void parallel_for(const ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body);

/// Process-wide pool sized from MSTC_THREADS (default, and for a value that
/// is not a positive integer: hardware threads).
[[nodiscard]] ThreadPool& global_pool();

}  // namespace mstc::util
