#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdlib>
#include <exception>
#include <memory>

#include "util/options.hpp"

namespace mstc::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mutex_);
    stopping_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const MutexLock lock(mutex_);
    // Submitting to a pool whose destructor has started would silently drop
    // the task once workers drain and exit — and then wedge wait_idle()
    // forever on the never-decremented in_flight_ count. Fail loudly instead.
    assert(!stopping_ && "ThreadPool::submit after shutdown began");
    if (stopping_) return;
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::wait_idle() {
  MutexLock lock(mutex_);
  // Explicit wait loop (not the predicate-lambda overload) so the guarded
  // read of in_flight_ stays inside this analyzed function body.
  while (in_flight_ != 0) all_done_.wait(lock.native());
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && tasks_.empty()) task_available_.wait(lock.native());
      if (tasks_.empty()) return;  // stopping_ and drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      const MutexLock lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

std::size_t default_parallel_chunk(std::size_t n, std::size_t workers) {
  const auto env_chunk = env_or("MSTC_PARALLEL_CHUNK", std::int64_t{0});
  if (env_chunk > 0) return static_cast<std::size_t>(env_chunk);
  if (workers == 0) return 1;
  // ~8 grabs per worker: enough dynamic slack to absorb skewed per-index
  // costs (sweep replications vary widely), few enough counter grabs to
  // stay cheap when n is large and bodies are tiny.
  return std::max<std::size_t>(1, n / (8 * workers));
}

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  parallel_for_chunked(pool, n,
                       default_parallel_chunk(n, pool.thread_count()), body);
}

namespace {

// Completion state for one parallel_for_chunked call. Heap-allocated and
// shared with the submitted helper tasks so a helper that wakes up after
// every chunk has already been claimed and finished touches only this block,
// never the unwound caller frame. `body` stays a pointer into the caller:
// chunks are claimed before the body runs and completion is recorded after
// it returns (or throws), so the caller cannot leave while a claimed chunk
// still dereferences it, and unclaimed late wakeups never touch it.
struct ParallelCall {
  std::atomic<std::size_t> next_chunk{0};
  std::size_t n MSTC_UNGUARDED(
      "set once before any task is submitted; immutable afterwards") = 0;
  std::size_t chunk MSTC_UNGUARDED(
      "set once before any task is submitted; immutable afterwards") = 0;
  std::size_t chunk_count MSTC_UNGUARDED(
      "set once before any task is submitted; immutable afterwards") = 0;
  const std::function<void(std::size_t)>* body MSTC_UNGUARDED(
      "set once before any task is submitted; immutable afterwards") =
      nullptr;
  Mutex mutex;
  std::condition_variable done_cv MSTC_UNGUARDED(
      "std::condition_variable is internally synchronized; every notify "
      "follows a critical section on mutex");
  std::size_t done MSTC_GUARDED_BY(mutex) = 0;
  // The first exception a body threw; the caller rethrows it.
  std::exception_ptr error MSTC_GUARDED_BY(mutex);
};

// Claims and runs chunks until the shared counter is exhausted, then folds
// this participant's completions into the call's done count. A throwing
// body ends the call early: its chunk counts as done, and the participant
// claims every chunk nobody has claimed yet, so the others stop and the
// done count still reaches chunk_count.
void run_parallel_chunks(ParallelCall& call) MSTC_EXCLUDES(call.mutex) {
  std::size_t completed = 0;
  std::exception_ptr error;
  for (;;) {
    const std::size_t c =
        call.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= call.chunk_count) break;
    ++completed;
    const std::size_t end = std::min(call.n, (c + 1) * call.chunk);
    try {
      for (std::size_t i = c * call.chunk; i < end; ++i) (*call.body)(i);
    } catch (...) {
      error = std::current_exception();
      const std::size_t unclaimed =
          call.next_chunk.exchange(call.chunk_count, std::memory_order_relaxed);
      if (unclaimed < call.chunk_count) {
        completed += call.chunk_count - unclaimed;
      }
      break;
    }
  }
  if (completed == 0) return;
  bool all_done = false;
  {
    const MutexLock lock(call.mutex);
    // Moved, not copied: a participant keeps no reference to the exception
    // once it reports done, so the caller alone releases it.
    if (error && !call.error) call.error = std::move(error);
    call.done += completed;
    all_done = (call.done == call.chunk_count);
  }
  if (all_done) call.done_cv.notify_all();
}

}  // namespace

void parallel_for_chunked(ThreadPool& pool, std::size_t n, std::size_t chunk,
                          const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (chunk == 0) chunk = default_parallel_chunk(n, pool.thread_count());
  const std::size_t chunk_count = (n + chunk - 1) / chunk;
  if (pool.thread_count() == 1 || chunk_count == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  // Dynamic scheduling over contiguous chunks: each grab of the shared
  // counter claims indices [c * chunk, min(n, (c+1) * chunk)), so the only
  // per-chunk cost is one fetch_add. One helper task per additional
  // participant beyond the caller — O(workers) queue operations regardless
  // of n. The caller runs the same chunk loop itself and then waits on the
  // call's own completion count (NOT wait_idle, which counts unrelated
  // tasks and deadlocks when the caller is itself a pool worker): even if
  // every helper is stuck behind other queued work, the calling thread
  // drains all chunks alone and nested parallel_for always terminates.
  auto call = std::make_shared<ParallelCall>();
  call->n = n;
  call->chunk = chunk;
  call->chunk_count = chunk_count;
  call->body = &body;
  const std::size_t helpers = std::min(pool.thread_count(), chunk_count - 1);
  for (std::size_t w = 0; w < helpers; ++w) {
    pool.submit([call] { run_parallel_chunks(*call); });
  }
  run_parallel_chunks(*call);
  std::exception_ptr error;
  {
    MutexLock lock(call->mutex);
    // Explicit wait loop (not the predicate-lambda overload) so the guarded
    // read of done stays inside this analyzed function body.
    while (call->done != call->chunk_count) call->done_cv.wait(lock.native());
    error = std::move(call->error);
  }
  // Rethrown only now: no participant reads `body` any more.
  if (error) std::rethrow_exception(error);
}

ThreadPool& global_pool() {
  static ThreadPool pool(static_cast<std::size_t>(
      env_or("MSTC_THREADS", std::int64_t{0})));
  return pool;
}

}  // namespace mstc::util
