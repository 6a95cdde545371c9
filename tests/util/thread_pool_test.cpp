#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace mstc::util {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

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

TEST(ParallelForChunked, EveryChunkSizeVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  // 1 = pre-chunking escape hatch, 3 = uneven tail chunk, 0 = default
  // heuristic, 1000 = single chunk larger than n.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                  std::size_t{0}, std::size_t{1000}}) {
    std::vector<std::atomic<int>> visits(257);  // prime-ish, uneven tail
    parallel_for_chunked(pool, visits.size(), chunk,
                         [&visits](std::size_t i) { visits[i].fetch_add(1); });
    for (std::size_t i = 0; i < visits.size(); ++i) {
      ASSERT_EQ(visits[i].load(), 1)
          << "index " << i << " with chunk size " << chunk;
    }
  }
}

TEST(ParallelForChunked, ChunkSizeDoesNotChangeSlotResults) {
  // The determinism contract: slot-based outputs are bit-identical to a
  // serial loop for *any* chunk size.
  ThreadPool pool(8);
  const auto body = [](std::size_t i) {
    double acc = 0.0;
    for (std::size_t k = 0; k <= i % 60; ++k) {
      acc += static_cast<double>(k) * 1e-3;
    }
    return acc;
  };
  std::vector<double> serial(400);
  for (std::size_t i = 0; i < serial.size(); ++i) serial[i] = body(i);
  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{7}, std::size_t{0}, std::size_t{400}}) {
    std::vector<double> out(serial.size(), -1.0);
    parallel_for_chunked(pool, out.size(), chunk,
                         [&](std::size_t i) { out[i] = body(i); });
    EXPECT_EQ(out, serial) << "chunk size " << chunk;
  }
}

TEST(ParallelForChunked, NestedSubmissionDoesNotDeadlock) {
  // A task running *on* the pool fans a parallel_for over the same pool.
  // With the old wait_idle()-based implementation every outer task
  // counted itself in the in-flight total, so any nested wait deadlocked;
  // the caller-participating rewrite must finish even when outer tasks
  // occupy every worker. TSan (the concurrency label) checks the
  // completion handshake while it runs.
  ThreadPool pool(4);
  constexpr std::size_t kOuter = 8;  // > workers: some outer tasks queue
  constexpr std::size_t kInner = 64;
  std::vector<std::array<std::atomic<int>, kInner>> visits(kOuter);
  std::atomic<int> outer_done{0};
  for (std::size_t o = 0; o < kOuter; ++o) {
    pool.submit([&pool, &visits, &outer_done, o] {
      parallel_for_chunked(pool, kInner, 1, [&visits, o](std::size_t i) {
        visits[o][i].fetch_add(1);
      });
      outer_done.fetch_add(1);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(outer_done.load(), static_cast<int>(kOuter));
  for (std::size_t o = 0; o < kOuter; ++o) {
    for (std::size_t i = 0; i < kInner; ++i) {
      ASSERT_EQ(visits[o][i].load(), 1) << "outer " << o << " inner " << i;
    }
  }
}

TEST(ParallelForChunked, NestedFromSingleWorkerRunsInline) {
  // Worst case: a one-worker pool whose only worker issues the nested
  // call. Nothing else can help, so the worker must run every index
  // itself and return.
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.submit([&pool, &count] {
    parallel_for(pool, 100, [&count](std::size_t) { count.fetch_add(1); });
  });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ParallelForChunked, BodyExceptionReachesTheCaller) {
  // One index throws, on whichever participant claims it: the call stops
  // handing out chunks, waits for the chunks already running and rethrows
  // on the caller. A helper's exception must not escape the worker loop
  // (std::terminate), nor may the caller unwind while helpers still read
  // the body. TSan (the concurrency label) checks the error handoff.
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
      parallel_for_chunked(pool, visits.size(), 1, body);
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
  EXPECT_THROW(parallel_for_chunked(pool, 256, 1,
                                    [](std::size_t) {
                                      throw std::runtime_error("every");
                                    }),
               std::runtime_error);
  // The pool survives for the next call, which runs in full.
  std::atomic<int> count{0};
  parallel_for_chunked(pool, 64, 1,
                       [&count](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 64);
}

TEST(DefaultParallelChunk, HeuristicKeepsSmallSweepsMaximallyBalanced) {
  // n <= 8 * workers -> chunk 1 (a sweep of a few dozen replications
  // should never serialize two onto one grab).
  EXPECT_EQ(default_parallel_chunk(16, 4), 1u);
  EXPECT_EQ(default_parallel_chunk(32, 4), 1u);
  // Large index spaces amortize: ~8 grabs per worker.
  EXPECT_EQ(default_parallel_chunk(3200, 4), 100u);
  EXPECT_GE(default_parallel_chunk(0, 4), 1u);
  EXPECT_GE(default_parallel_chunk(100, 0), 1u);
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
