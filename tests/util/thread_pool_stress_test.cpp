// Concurrency stress tests for parallel_for, written to run under
// ThreadSanitizer (ctest label "concurrency"): several threads drive
// parallel_for on one pool at once, and helpers are started and joined in
// repeated cycles.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace mstc::util {
namespace {

TEST(ThreadPoolStress, ParallelForFromConcurrentCallers) {
  // Two threads drive parallel_for on the same pool; each must observe its
  // own full iteration space.
  ThreadPool pool(4);
  std::atomic<long> sum_a{0}, sum_b{0};
  std::thread caller_a([&] {
    parallel_for(pool, 400, [&sum_a](std::size_t i) {
      sum_a.fetch_add(static_cast<long>(i));
    });
  });
  std::thread caller_b([&] {
    parallel_for(pool, 400, [&sum_b](std::size_t i) {
      sum_b.fetch_add(static_cast<long>(i));
    });
  });
  caller_a.join();
  caller_b.join();
  constexpr long kExpected = 399L * 400L / 2L;
  EXPECT_EQ(sum_a.load(), kExpected);
  EXPECT_EQ(sum_b.load(), kExpected);
}

TEST(ThreadPoolStress, RepeatedConstructDestroyCycles) {
  // Every call starts and joins its own helpers: 20 cycles of start, run
  // and join must each see the whole iteration space.
  for (int cycle = 0; cycle < 20; ++cycle) {
    ThreadPool pool(2);
    std::atomic<int> executed{0};
    parallel_for(pool, 20, [&executed](std::size_t) { executed.fetch_add(1); });
    EXPECT_EQ(executed.load(), 20);
  }
}

}  // namespace
}  // namespace mstc::util
