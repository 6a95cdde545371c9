// Per-node storage of recent Hello records.
//
// Keeps up to `history_limit` recent records per sender (newest first) and
// expires senders not heard from within the expiry window — the paper's
// rule that a link (u, v) exists at t only if a Hello was received during
// [t - Delta_expire, t]. The node's own advertised positions are stored
// under its own id, because every consistency scheme requires decisions to
// use the *advertised* self-position, not the true current one.
//
// Entries live in a flat vector sorted by sender id. Neighborhoods are
// small (~density), so a binary search beats hashing, and the selection
// refresh — the hot consumer — walks entries() once in ascending-id order
// instead of iterating a hash map, sorting, and re-finding each sender.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "core/hello.hpp"

namespace mstc::core {

class LocalViewStore {
 public:
  /// One sender's stored history, newest first. `history` is never empty
  /// for an entry reachable through entries().
  struct Entry {
    NodeId sender = 0;
    std::vector<topology::VersionedPosition> history;
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

  /// Drops every sender (except the owner) whose newest record is older
  /// than now - expiry.
  void expire(double now);

  /// All stored entries (owner included), ascending by sender id — the
  /// canonical neighbor order. Borrowed view: invalidated by
  /// record()/expire().
  [[nodiscard]] std::span<const Entry> entries() const noexcept {
    return entries_;
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
    return entries_.size() - (find(owner_) != nullptr ? 1 : 0);
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
  [[nodiscard]] const Entry* find(NodeId sender) const noexcept;
  /// Whether generation() follows `record`: every record while no version
  /// is tracked.
  [[nodiscard]] bool tracks(
      const topology::VersionedPosition& record) const noexcept {
    return !tracked_version_ || record.version == *tracked_version_;
  }
  /// Whether the record just inserted at `at` changes what generation()
  /// tracks once the window is cut back to history_limit records.
  [[nodiscard]] bool insertion_changes(
      std::span<const topology::VersionedPosition> history,
      std::size_t at) const noexcept;

  NodeId owner_;
  std::size_t history_limit_;
  double expiry_;
  std::uint64_t generation_ = 0;
  std::optional<std::uint64_t> tracked_version_;
  // Sorted ascending by sender; histories newest-first and non-empty.
  std::vector<Entry> entries_;
  // Lower bound on the oldest non-owner front send_time: expire() returns
  // immediately while the cutoff sits below it (nothing can be stale), so
  // the full scan runs only when something might actually expire.
  // Maintained as min() on record, recomputed exactly on each full scan.
  double oldest_front_ = std::numeric_limits<double>::infinity();
};

}  // namespace mstc::core
