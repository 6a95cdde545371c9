// Per-node storage of recent Hello records.
//
// Keeps up to `history_limit` recent records per sender (newest first) and
// expires senders not heard from within the expiry window — the paper's
// rule that a link (u, v) exists at t only if a Hello was received during
// [t - Delta_expire, t]. The node's own advertised positions are stored
// under its own id, because every consistency scheme requires decisions to
// use the *advertised* self-position, not the true current one.
//
// One flat record table per store, no per-sender heap block:
//   slots_    one 8-byte Slot per sender (id narrowed to 32 bits, record
//             count), sorted ascending by sender id — the canonical
//             neighbor order. Neighborhoods are small (~density), so a
//             binary search beats hashing.
//   records_  stride history_limit: sender i's newest-first window lives in
//             place at records_[i * history_limit], its first
//             slots_[i].count records valid.
// A Hello receive finds its sender with a branch-free lower bound over the
// slots (its halving steps are conditional moves, so a cold store costs
// memory latency, not mispredictions too) and shifts at most
// history_limit - 1 records inside one window. A join inserts one slot and
// one stride of records, an expiry compacts both arrays in one pass, and
// neither allocates once the capacity covers the largest neighborhood seen.
// The selection refresh — the hot consumer — walks slots() once in
// ascending-id order and reads each window through history_at().
//
// Receives land on cold stores: a Hello fans out to ~density receivers
// whose stores were last touched a Hello interval ago. prefetch_slots()
// and prefetch_window() let the caller load, a few deliveries ahead, the
// slot lines a coming receive searches and the record window it writes
// (see runner::Scenario's Hello delivery).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "core/hello.hpp"
#include "util/prefetch.hpp"

namespace mstc::core {

class LocalViewStore {
 public:
  /// One stored sender. Node ids fit in 32 bits: runner::validate rejects a
  /// fleet of more than 2^32 nodes.
  struct Slot {
    std::uint32_t sender = 0;
    /// Records in the sender's window: 1..history_limit.
    std::uint32_t count = 0;
  };

  /// `history_limit` >= 1; `expiry` in seconds (records from senders whose
  /// newest record is older than expiry are dropped wholesale).
  LocalViewStore(NodeId owner, std::size_t history_limit, double expiry);

  [[nodiscard]] NodeId owner() const noexcept { return owner_; }
  [[nodiscard]] std::size_t history_limit() const noexcept {
    return history_limit_;
  }

  /// Records a Hello (own or neighbor's). Newer versions push older ones
  /// out once the history limit is reached.
  void record(const HelloRecord& hello);

  /// Prefetch stages of a coming record() (hints only; see
  /// runner::Scenario's Hello delivery). prefetch_slots() loads the slot
  /// lines the sender search reads, and reads this store's header, so
  /// issue it once the header is cached. prefetch_window() loads the
  /// record window of `sender`, and searches the slots for it, so issue it
  /// once they are cached too.
  void prefetch_slots() const noexcept {
    util::prefetch(slots_.data(), slots_.size() * sizeof(Slot));
  }
  void prefetch_window(NodeId sender) const noexcept {
    const std::size_t index = lower_slot(slots_, sender);
    if (index < slots_.size()) {
      util::prefetch(records_.data() + index * history_limit_,
                     history_limit_ * sizeof(topology::VersionedPosition));
    }
  }

  /// Drops every sender (except the owner) whose newest record is older
  /// than now - expiry.
  void expire(double now);

  /// All stored senders (owner included), ascending by sender id — the
  /// canonical neighbor order. Borrowed view: invalidated by
  /// record()/expire().
  [[nodiscard]] std::span<const Slot> slots() const noexcept {
    return slots_;
  }

  /// Newest-first, never empty window of slots()[index]. Borrowed view:
  /// invalidated by record()/expire().
  [[nodiscard]] std::span<const topology::VersionedPosition> history_at(
      std::size_t index) const noexcept {
    return {records_.data() + index * history_limit_, slots_[index].count};
  }

  /// Newest-first version history of `sender`; empty when unknown.
  [[nodiscard]] std::vector<topology::VersionedPosition> history(
      NodeId sender) const;

  /// Newest-first version history of `sender` as a borrowed span (empty
  /// when unknown). The allocation-free sibling of history(): the span
  /// aliases the store and is invalidated by record()/expire().
  [[nodiscard]] std::span<const topology::VersionedPosition> records(
      NodeId sender) const;

  /// The record of `sender` with exactly `version` as a 0- or 1-element
  /// borrowed span (same aliasing caveat as records()).
  [[nodiscard]] std::span<const topology::VersionedPosition> record_at(
      NodeId sender, std::uint64_t version) const;

  /// Newest record of `sender`, if any.
  [[nodiscard]] std::optional<topology::VersionedPosition> latest(
      NodeId sender) const;

  /// Record of `sender` with exactly the given version, if stored.
  [[nodiscard]] std::optional<topology::VersionedPosition> at_version(
      NodeId sender, std::uint64_t version) const;

  /// Ids of known 1-hop neighbors (excludes the owner), sorted ascending so
  /// view assembly is independent of storage order.
  [[nodiscard]] std::vector<NodeId> neighbors() const;

  /// Allocation-free sibling of neighbors(): fills `out` (cleared first)
  /// with the same sorted ids.
  void neighbors(std::vector<NodeId>& out) const;

  [[nodiscard]] std::size_t neighbor_count() const noexcept {
    return slots_.size() - (find(owner_) != kMissing ? 1 : 0);
  }

  /// Change counter over the records a view assembly reads. Two reads
  /// that return the same generation bracket a store whose tracked records
  /// hold bit-identical positions, so the view assembled from it is
  /// bit-identical too. What is tracked (see track_version()):
  ///   - untracked version (latest and weak views): every sender's
  ///     newest-first position sequence. A sender joining or expiring
  ///     bumps it, and so does a record whose position bits differ from the
  ///     one it replaces. A sender re-advertising the same bits under a new
  ///     version does not.
  ///   - tracked version v (versioned views): the record at v of every
  ///     sender. Only inserting, changing, evicting or expiring a record at
  ///     v bumps it.
  /// A bump may be spurious (a change later undone still counts), never
  /// missing.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }

  /// Selects what generation() tracks: the records at `version`, or with
  /// nullopt the full position sequences. A different selection bumps the
  /// generation, so a reader never confuses the two.
  void track_version(std::optional<std::uint64_t> version) noexcept;

 private:
  static constexpr std::size_t kMissing =
      std::numeric_limits<std::size_t>::max();

  /// Index of the first slot whose sender is not below `sender`
  /// (slots.size() when there is none). Each halving step picks its half
  /// with a conditional move instead of a branch. Compares in NodeId
  /// width, so an id beyond 32 bits sorts after every slot.
  static std::size_t lower_slot(std::span<const Slot> slots,
                                NodeId sender) noexcept {
    if (slots.empty()) return 0;
    const Slot* base = slots.data();
    std::size_t n = slots.size();
    // The answer stays in [base, base + n].
    while (n > 1) {
      const std::size_t half = n / 2;
      base = base[half].sender < sender ? base + half : base;
      n -= half;
    }
    return static_cast<std::size_t>(base - slots.data()) +
           (base->sender < sender ? 1 : 0);
  }

  /// Index of `sender` in slots_, or kMissing.
  [[nodiscard]] std::size_t find(NodeId sender) const noexcept;
  /// records(sender) for a found index; empty for kMissing.
  [[nodiscard]] std::span<const topology::VersionedPosition> window(
      std::size_t index) const noexcept {
    if (index == kMissing) return {};
    return history_at(index);
  }
  /// Whether generation() follows `record`: every record while no version
  /// is tracked.
  [[nodiscard]] bool tracks(
      const topology::VersionedPosition& record) const noexcept {
    return !tracked_version_ || record.version == *tracked_version_;
  }
  /// Whether inserting `incoming` at `at` into `window` (before the insert)
  /// changes what generation() tracks once the window is cut back to
  /// history_limit records.
  [[nodiscard]] bool insertion_changes(
      std::span<const topology::VersionedPosition> window, std::size_t at,
      const topology::VersionedPosition& incoming) const noexcept;

  NodeId owner_;
  std::size_t history_limit_;
  double expiry_;
  std::uint64_t generation_ = 0;
  std::optional<std::uint64_t> tracked_version_;
  // Sorted ascending by sender; every count in 1..history_limit.
  std::vector<Slot> slots_;
  // slots_.size() * history_limit records; window i starts at
  // i * history_limit, and only its first slots_[i].count are live.
  std::vector<topology::VersionedPosition> records_;
  // Lower bound on the oldest non-owner front send_time: expire() returns
  // immediately while the cutoff sits below it (nothing can be stale), so
  // the full scan runs only when something might actually expire.
  // Maintained as min() on record, recomputed exactly on each full scan.
  double oldest_front_ = std::numeric_limits<double>::infinity();
};

}  // namespace mstc::core
