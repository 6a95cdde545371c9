// Flight recorder and post-mortem dumps.
//
// A FlightRecorder is a bounded ring of the most recent trace events of one
// replication: O(1) memory however long the run, O(1) record cost, and the
// same TraceEvent records the full trace sink stores — so when a
// replication hangs past its soft deadline or dies in an exception, its
// last moments are reconstructable without having paid for full tracing.
// Like every obs surface, recording never feeds back into simulation
// state; flight-recorder-on runs are byte-identical to off (the
// determinism suite asserts it).
//
// PostMortemWriter appends one JSON object per incident to a JSONL file:
// the replication's identity (config index / replication / seed), the
// reason, its resource ledger, counter totals, and the flight-recorder
// ring in oldest-to-newest order. It is the one obs class that IS shared
// across sweep threads (any worker may hit a deadline), so it locks — a
// util::Mutex with MSTC_GUARDED_BY state, per docs/STATIC_ANALYSIS.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "util/mutex.hpp"

namespace mstc::obs {

struct RunObservation;

/// Bounded ring of recent trace events; one per replication (thread-
/// confined like MemoryTraceSink, so no locking). Recording is on exactly
/// when the capacity is above 0; a default-constructed ring records
/// nothing.
class FlightRecorder {
 public:
  /// Sizes the ring (allocating its full capacity up front) and clears any
  /// recorded history. Capacity 0 disables recording.
  void set_capacity(std::size_t capacity);

  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  /// Events currently held (== capacity once the ring has wrapped).
  [[nodiscard]] std::size_t size() const noexcept {
    return total_recorded_ < ring_.size()
               ? static_cast<std::size_t>(total_recorded_)
               : ring_.size();
  }
  /// Every record() since set_capacity, including overwritten ones.
  [[nodiscard]] std::uint64_t total_recorded() const noexcept {
    return total_recorded_;
  }

  /// O(1): overwrites the oldest slot once the ring is full.
  void record(const TraceEvent& event) noexcept {
    if (ring_.empty()) return;
    ring_[next_] = event;
    next_ = next_ + 1 == ring_.size() ? 0 : next_ + 1;
    ++total_recorded_;
  }

  /// Appends the held events to `out` in oldest-to-newest order.
  void snapshot(std::vector<TraceEvent>& out) const;

 private:
  std::vector<TraceEvent> ring_;
  std::size_t next_ = 0;  // slot the next record lands in
  std::uint64_t total_recorded_ = 0;
};

/// One diagnosed incident, assembled by the sweep runner.
struct PostMortem {
  std::size_t config_index = 0;
  std::size_t replication = 0;
  std::uint64_t seed = 0;
  /// Stable incident tag: "soft_deadline_exceeded" or "exception".
  std::string reason;
  /// Free-form detail (exception message, deadline figure, ...).
  std::string detail;
  double wall_seconds = 0.0;
  double soft_deadline_seconds = 0.0;
  /// One-line config description (the runner renders it; obs stays
  /// independent of the config type).
  std::string config_summary;
  /// The replication's observation slot; null when the sweep kept none.
  /// Its counter totals are always dumped, its ledger once captured and
  /// its flight ring when recording was on.
  const RunObservation* observation = nullptr;
};

/// Shared JSONL sink for post-mortems; thread-safe (see file comment).
class PostMortemWriter {
 public:
  PostMortemWriter() = default;
  ~PostMortemWriter();
  PostMortemWriter(const PostMortemWriter&) = delete;
  PostMortemWriter& operator=(const PostMortemWriter&) = delete;

  /// Opens (truncating) the JSONL output file; false on I/O failure.
  [[nodiscard]] bool open(const std::string& path);
  void close();

  /// Appends one incident as a single JSON line and flushes immediately —
  /// a post-mortem must survive the process dying right after.
  void write(const PostMortem& incident);

  /// Incidents written since open().
  [[nodiscard]] std::uint64_t incidents() const;

 private:
  mutable util::Mutex mutex_;
  std::FILE* file_ MSTC_GUARDED_BY(mutex_) = nullptr;
  std::uint64_t incidents_ MSTC_GUARDED_BY(mutex_) = 0;
};

}  // namespace mstc::obs
