// Pluggable event-queue backends for the simulation kernel.
//
// The kernel orders events by (time, sequence) — a strict total order
// (sequence numbers are unique), so ANY correct priority queue pops the
// exact same stream. That makes the queue a swappable implementation
// detail with a byte-identity contract: the binary heap stays as the
// reference backend, and the calendar queue below is the fast path for
// the kernel's real workload — near-periodic timers (Hello beacons,
// expiry sweeps, snapshot ticks) plus dense same-instant fan-outs
// (delivery bursts one propagation delay ahead).
//
// Calendar backend in one paragraph: events hash into an array of time
// buckets of width `w` (bucket = floor(time / w)); a power-of-two window
// of buckets starting at the bucket of the last popped event is directly
// addressable, and everything scheduled past the window waits unsorted in
// an overflow ladder whose minimum bucket is tracked. Pops drain the
// current bucket in exact (time, sequence) order — each bucket is sorted
// once when first read, and events appended to a partially-consumed
// bucket are sorted and merged into its unconsumed suffix — then scan
// forward to the next non-empty bucket. When the window drains, the
// overflow rebases it (O(overflow) per window span, a vanishing
// per-event cost). Push and pop touch O(1) contiguous memory instead of
// an O(log E) pointer-free but cache-hostile heap sift, which is what
// keeps events/s flat from n=500 to n=100k (see docs/PERFORMANCE.md,
// "The calendar event queue").
//
// Sizing is self-correcting: the width starts from a scenario hint (or is
// estimated from the first batch of staged events) and the queue
// periodically re-derives it from observed bucket occupancy and scan
// lengths, rebuilding in place when the estimate was off (counted as
// kernel_queue_resizes). All sizing decisions read only event data —
// never wall clocks or machine facts — so runs stay deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "obs/probe.hpp"

namespace mstc::sim {

using Time = double;

/// Queue entry: ordering data plus the index of the kernel's Handler
/// slot, so reordering moves 24 trivially-copyable bytes instead of
/// closures. `key` marks the simulator's batched fan-out entries and never
/// participates in ordering.
struct EventKey {
  Time time;
  std::uint64_t sequence;
  std::uint32_t slot;
  std::uint32_t key;
};

/// Strict (time, sequence) order — FIFO among simultaneous events.
/// Sequences are unique, so this is a total order: sorting with it is
/// deterministic regardless of the sort algorithm's stability.
struct EarlierEvent {
  bool operator()(const EventKey& a, const EventKey& b) const noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.sequence < b.sequence;
  }
};

enum class QueueBackend : std::uint8_t {
  kHeap,      ///< std::push_heap/pop_heap reference implementation
  kCalendar,  ///< bucketed calendar queue with overflow ladder
};

/// Parses a backend name ("heap" / "calendar"); nullopt when unknown.
[[nodiscard]] std::optional<QueueBackend> parse_queue_backend(
    std::string_view name) noexcept;
[[nodiscard]] const char* queue_backend_name(QueueBackend backend) noexcept;

struct QueueConfig {
  QueueBackend backend = QueueBackend::kHeap;
  /// Calendar bucket width in sim-seconds. 0 (default) stages the first
  /// events and derives a width from their spacing at the first pop; the
  /// occupancy-driven self-resize corrects either starting point.
  double bucket_width = 0.0;
};

class EventQueue {
 public:
  /// Selects the backend and its sizing hints. Must be called while the
  /// queue is empty (the kernel configures before scheduling anything).
  void configure(const QueueConfig& config);

  [[nodiscard]] QueueBackend backend() const noexcept {
    return config_.backend;
  }

  /// Attaches the kernel's probe (nullable): kernel_queue_resizes counts
  /// and the kernel_bucket_scan_len histogram. Observation never feeds
  /// back — sizing decisions are taken from unconditionally-kept stats.
  void set_probe(const obs::Probe* probe) noexcept { probe_ = probe; }

  /// Pre-sizes for `expected` simultaneously-pending events; also picks
  /// the calendar window's bucket count (a power of two targeting
  /// kTargetOccupancy events per bucket).
  void reserve(std::size_t expected);

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  void push(const EventKey& event);

  /// Earliest event under (time, sequence) order. The reference stays
  /// valid until the next push/pop. Requires !empty().
  [[nodiscard]] const EventKey& peek();

  /// Removes and returns the earliest event. Requires !empty().
  EventKey pop();

  /// Calendar rebuilds triggered by the occupancy self-resize (0 for the
  /// heap backend); mirrors the kernel_queue_resizes counter.
  [[nodiscard]] std::uint64_t resizes() const noexcept { return resizes_; }

  /// Current calendar bucket width (0 until derived); exposed for tests.
  [[nodiscard]] double bucket_width() const noexcept { return width_; }

  // Self-sizing constants, public so tests can pin behavior against them.
  static constexpr double kTargetOccupancy = 8.0;   ///< events per bucket
  static constexpr std::uint64_t kResizeCheckInterval = 4096;  ///< pops
  static constexpr double kMinBucketWidth = 1e-7;   ///< seconds
  static constexpr double kMaxBucketWidth = 10.0;   ///< seconds

 private:
  /// One calendar bucket. [0, cursor) is consumed, [cursor, sorted) is
  /// the sorted unconsumed suffix, [sorted, size) is the unsorted append
  /// tail (events pushed since the last sort). cursor <= sorted always.
  struct Bucket {
    std::vector<EventKey> events;
    std::uint32_t cursor = 0;
    std::uint32_t sorted = 0;
  };

  [[nodiscard]] std::uint64_t bucket_of(Time t) const noexcept {
    // Sim time is never negative, so truncation is floor.
    return static_cast<std::uint64_t>(t / width_);
  }

  void push_calendar(const EventKey& event);
  /// Locates the earliest event (cached between peek and pop): scans
  /// forward from the base bucket, sorting/merging the first non-empty
  /// bucket, rebasing from the overflow ladder when the window drains.
  const EventKey* find_min_calendar();
  void ensure_sorted(Bucket& bucket);
  /// Derives the initial width from the staged events' spacing.
  void init_width();
  /// Allocates the bucket window (idempotent; width must be set).
  void ensure_buckets();
  /// Moves every overflow event whose bucket fits the window in; rebases
  /// the window to the overflow minimum when the window is empty.
  void redistribute_overflow();
  /// Re-derives the width from occupancy/scan stats; rebuilds on change.
  void maybe_resize();
  /// Collects every pending event and re-inserts it under `new_width`.
  void rebuild(double new_width);

  QueueConfig config_;
  const obs::Probe* probe_ = nullptr;
  std::size_t size_ = 0;
  std::size_t expected_ = 0;  // reserve() hint

  // Heap backend: min-heap via std::push_heap/pop_heap.
  std::vector<EventKey> heap_;

  // Calendar backend. The window covers absolute buckets
  // [base_bucket_, base_bucket_ + buckets_.size()); slot = bucket & mask_.
  std::vector<Bucket> buckets_;
  std::size_t mask_ = 0;
  double width_ = 0.0;  // 0 until configured/derived (staging mode)
  std::uint64_t base_bucket_ = 0;
  std::vector<EventKey> overflow_;  // unsorted, beyond the window
  static constexpr std::uint64_t kNoBucket = ~std::uint64_t{0};
  std::uint64_t overflow_min_bucket_ = kNoBucket;
  Time staged_min_time_ = 0.0;  // min staged time while width_ == 0
  bool have_staged_min_ = false;
  std::vector<EventKey> scratch_;  // merge/rebuild buffer (capacity reused)

  // peek()/pop() share one located minimum; pushes that sort earlier
  // invalidate it.
  bool peeked_ = false;
  std::uint64_t peek_bucket_ = 0;

  // Self-resize statistics (reset every check interval).
  std::uint64_t pops_since_check_ = 0;
  std::uint64_t stat_sorted_events_ = 0;   // occupancy at first sort
  std::uint64_t stat_sorted_buckets_ = 0;  // buckets first-sorted
  std::uint64_t stat_scanned_ = 0;         // empty buckets skipped
  std::uint64_t stat_finds_ = 0;           // find_min cache misses
  std::uint64_t resizes_ = 0;
};

}  // namespace mstc::sim
