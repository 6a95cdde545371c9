#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

#include "util/options.hpp"

namespace mstc::util {

ThreadPool::ThreadPool(std::size_t threads)
    : threads_(threads != 0 ? threads
                            : std::max<std::size_t>(
                                  1, std::thread::hardware_concurrency())) {}

void parallel_for(const ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  if (pool.thread_count() == 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  // Slot 0 is the caller's, slot t + 1 helper t's. Declared before the
  // helpers, so it outlives their joins.
  const std::size_t helpers = std::min(pool.thread_count(), n - 1);
  std::vector<std::exception_ptr> errors(helpers + 1);
  const auto claim_and_run = [&next, n, &body](std::exception_ptr& error) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        body(i);
      } catch (...) {
        error = std::current_exception();
        // Every later claim then lands past the end.
        next.store(n, std::memory_order_relaxed);
        return;
      }
    }
  };
  {
    std::vector<std::jthread> threads;
    threads.reserve(helpers);
    for (std::size_t t = 0; t < helpers; ++t) {
      threads.emplace_back(claim_and_run, std::ref(errors[t + 1]));
    }
    claim_and_run(errors[0]);
  }  // ~jthread joins every helper, also if starting one threw.
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

ThreadPool& global_pool() {
  static ThreadPool pool([] {
    const std::int64_t threads = env_or("MSTC_THREADS", std::int64_t{0});
    // A negative width is malformed, like unparsable text: both fall back
    // to the hardware default (0) instead of casting to a width near 2^64.
    return threads > 0 ? static_cast<std::size_t>(threads) : std::size_t{0};
  }());
  return pool;
}

}  // namespace mstc::util
