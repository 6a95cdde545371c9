#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace mstc::util {
namespace {

TEST(ThreadPool, DefaultSizeIsAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(1000);
  parallel_for(pool, visits.size(),
               [&visits](std::size_t i) { visits[i].fetch_add(1); });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelFor, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelFor, MatchesSerialResult) {
  // Deterministic slot-based output: parallel result equals serial result.
  ThreadPool pool(8);
  std::vector<double> parallel_out(500), serial_out(500);
  const auto body = [](std::size_t i) {
    double acc = 0.0;
    for (std::size_t k = 0; k <= i; ++k) acc += static_cast<double>(k * k);
    return acc;
  };
  parallel_for(pool, parallel_out.size(),
               [&](std::size_t i) { parallel_out[i] = body(i); });
  for (std::size_t i = 0; i < serial_out.size(); ++i) serial_out[i] = body(i);
  EXPECT_EQ(parallel_out, serial_out);
}

TEST(ParallelFor, ReusablePoolAcrossCalls) {
  ThreadPool pool(3);
  std::atomic<long> total{0};
  for (int round = 0; round < 5; ++round) {
    parallel_for(pool, 100, [&total](std::size_t i) {
      total.fetch_add(static_cast<long>(i));
    });
  }
  EXPECT_EQ(total.load(), 5 * (99 * 100 / 2));
}

/// The distinct threads that ran `n` bodies of a width-`width` call. Each
/// body waits, for at most a minute, until `parties` bodies have entered,
/// so with parties == n every index must be held by its own thread.
std::set<std::thread::id> participants(std::size_t width, std::size_t n,
                                       std::size_t parties) {
  std::mutex mutex;
  std::condition_variable all_entered;
  std::size_t entered = 0;
  std::set<std::thread::id> ids;
  parallel_for(ThreadPool(width), n, [&](std::size_t) {
    std::unique_lock lock(mutex);
    ids.insert(std::this_thread::get_id());
    if (++entered == parties) all_entered.notify_all();
    all_entered.wait_for(lock, std::chrono::minutes(1),
                         [&] { return entered >= parties; });
  });
  return ids;
}

TEST(ParallelFor, RunsOnTheCallerPlusWidthHelpers) {
  // n = width + 1 bodies that cannot finish until width + 1 have started:
  // the caller and min(width, n - 1) = width helpers, one index each.
  for (const std::size_t width : {std::size_t{2}, std::size_t{3}}) {
    const auto ids = participants(width, width + 1, width + 1);
    EXPECT_EQ(ids.size(), width + 1) << "width " << width;
    EXPECT_EQ(ids.count(std::this_thread::get_id()), 1u) << "width " << width;
  }
}

TEST(ParallelFor, WidthOneOrOneIndexRunsOnlyOnTheCaller) {
  const std::set<std::thread::id> caller{std::this_thread::get_id()};
  EXPECT_EQ(participants(1, 5, 1), caller);
  EXPECT_EQ(participants(4, 1, 1), caller);
}

TEST(ParallelForChunked, NestedSubmissionDoesNotDeadlock) {
  // A body fans a parallel_for over the same pool, with more outer indices
  // than helpers. The nested call starts its own helpers, so it finishes
  // whatever the outer call holds. TSan (the concurrency label) checks the
  // joins while it runs.
  ThreadPool pool(3);
  constexpr std::size_t kOuter = 6;  // > width: helpers claim several
  constexpr std::size_t kInner = 64;
  std::vector<std::array<std::atomic<int>, kInner>> visits(kOuter);
  std::atomic<int> outer_done{0};
  parallel_for(pool, kOuter, [&](std::size_t o) {
    parallel_for(pool, kInner,
                 [&visits, o](std::size_t i) { visits[o][i].fetch_add(1); });
    outer_done.fetch_add(1);
  });
  EXPECT_EQ(outer_done.load(), static_cast<int>(kOuter));
  for (std::size_t o = 0; o < kOuter; ++o) {
    for (std::size_t i = 0; i < kInner; ++i) {
      ASSERT_EQ(visits[o][i].load(), 1) << "outer " << o << " inner " << i;
    }
  }
}

TEST(ParallelForChunked, NestedFromSingleWorkerRunsInline) {
  // Worst case: a width-1 pool whose only participant, the caller, issues
  // the nested call. Nothing else can help, so the caller must run every
  // index of both calls itself and return.
  ThreadPool pool(1);
  constexpr std::size_t kOuter = 3;
  constexpr std::size_t kInner = 100;
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> count{0};
  std::atomic<int> off_caller{0};
  parallel_for(pool, kOuter, [&](std::size_t) {
    parallel_for(pool, kInner, [&](std::size_t) {
      count.fetch_add(1);
      if (std::this_thread::get_id() != caller) off_caller.fetch_add(1);
    });
  });
  EXPECT_EQ(count.load(), static_cast<int>(kOuter * kInner));
  EXPECT_EQ(off_caller.load(), 0);
}

TEST(ParallelFor, BodyExceptionReachesTheCaller) {
  // One index throws, on whichever thread claims it: the call stops
  // handing out indices, joins its helpers and rethrows on the caller. A
  // helper's exception must not escape its thread (std::terminate), nor
  // may the caller unwind while helpers still read the body. TSan (the
  // concurrency label) checks the error handoff.
  ThreadPool pool(4);
  for (const std::size_t thrower : {0u, 17u, 63u}) {
    std::vector<std::atomic<int>> visits(64);
    const auto body = [&visits, thrower](std::size_t i) {
      visits[i].fetch_add(1);
      if (i == thrower) {
        throw std::runtime_error("index " + std::to_string(i));
      }
    };
    try {
      parallel_for(pool, visits.size(), body);
      ADD_FAILURE() << "no exception for thrower " << thrower;
    } catch (const std::runtime_error& error) {
      EXPECT_EQ(std::string(error.what()), "index " + std::to_string(thrower));
    }
    EXPECT_EQ(visits[thrower].load(), 1);
    for (std::size_t i = 0; i < visits.size(); ++i) {
      EXPECT_LE(visits[i].load(), 1) << "index " << i;
    }
  }
  // Every index throwing keeps one exception and still completes the call.
  EXPECT_THROW(parallel_for(pool, 256,
                            [](std::size_t) {
                              throw std::runtime_error("every");
                            }),
               std::runtime_error);
  // The pool serves the next call in full.
  std::atomic<int> count{0};
  parallel_for(pool, 64, [&count](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 64);
}

TEST(GlobalPool, IsSingletonAndUsable) {
  ThreadPool& a = global_pool();
  ThreadPool& b = global_pool();
  EXPECT_EQ(&a, &b);
  std::atomic<int> counter{0};
  parallel_for(a, 10, [&counter](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
}

}  // namespace
}  // namespace mstc::util
