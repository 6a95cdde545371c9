// Capability-annotated mutex wrappers.
//
// libstdc++ ships std::mutex without Clang thread-safety attributes, so the
// static analysis (-Wthread-safety, see util/annotations.hpp and
// docs/STATIC_ANALYSIS.md) cannot follow std::lock_guard / std::unique_lock
// acquisitions. These zero-overhead wrappers restore visibility: a
// util::Mutex is a declared capability, and a util::MutexLock is a scoped
// acquisition the analysis tracks, so `MSTC_GUARDED_BY(mutex_)` fields are
// enforced at compile time on Clang. All mutex-protected classes in src/
// lock through these types — tools/mstc_tidy.py's `missing-guarded-by`
// rule treats a bare std::mutex member the same as a util::Mutex, so
// switching back does not dodge the check.
#pragma once

#include <mutex>

#include "util/annotations.hpp"

namespace mstc::util {

/// Annotated exclusive mutex (a Clang "capability"). Same cost and
/// semantics as the std::mutex it wraps.
class MSTC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() MSTC_ACQUIRE() { mutex_.lock(); }
  void unlock() MSTC_RELEASE() { mutex_.unlock(); }

  /// The wrapped mutex, for MutexLock only; locking it directly bypasses
  /// the analysis.
  [[nodiscard]] std::mutex& native() noexcept { return mutex_; }

 private:
  std::mutex mutex_;
};

/// RAII lock for util::Mutex; the annotated replacement for
/// std::lock_guard / std::unique_lock in this repo.
class MSTC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) MSTC_ACQUIRE(mutex)
      : lock_(mutex.native()) {}
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() MSTC_RELEASE() {}  // NOLINT(modernize-use-equals-default):
  // a defaulted destructor could not carry the release annotation on every
  // supported compiler; the empty body keeps the attribute portable.

 private:
  std::unique_lock<std::mutex> lock_;
};

}  // namespace mstc::util
