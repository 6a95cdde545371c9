#include "core/view_store.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

namespace mstc::core {

namespace {

// Raw bits, not ==: views are compared bit for bit, and -0.0 == 0.0.
bool same_bits(const topology::VersionedPosition& a,
               const topology::VersionedPosition& b) {
  return std::bit_cast<std::uint64_t>(a.position.x) ==
             std::bit_cast<std::uint64_t>(b.position.x) &&
         std::bit_cast<std::uint64_t>(a.position.y) ==
             std::bit_cast<std::uint64_t>(b.position.y);
}

}  // namespace

LocalViewStore::LocalViewStore(NodeId owner, std::size_t history_limit,
                               double expiry)
    : owner_(owner), history_limit_(history_limit), expiry_(expiry) {
  assert(history_limit_ >= 1);
  assert(expiry_ > 0.0);
  assert(owner_ <= std::numeric_limits<std::uint32_t>::max());
}

std::size_t LocalViewStore::find(NodeId sender) const noexcept {
  const std::size_t index = lower_slot(slots_, sender);
  if (index == slots_.size() || slots_[index].sender != sender) {
    return kMissing;
  }
  return index;
}

// mstc:hot — runs once per Hello reception
void LocalViewStore::record(const HelloRecord& hello) {
  assert(hello.sender <= std::numeric_limits<std::uint32_t>::max());
  const std::size_t limit = history_limit_;
  const std::size_t index = lower_slot(slots_, hello.sender);
  if (index == slots_.size() || slots_[index].sender != hello.sender) {
    // A join: one slot and one stride of records, shifted in place.
    slots_.insert(
        slots_.begin() + static_cast<std::ptrdiff_t>(index),
        Slot{.sender = static_cast<std::uint32_t>(hello.sender), .count = 0});
    records_.insert(
        records_.begin() + static_cast<std::ptrdiff_t>(index * limit), limit,
        topology::VersionedPosition{});
  }
  Slot& slot = slots_[index];
  topology::VersionedPosition* window = records_.data() + index * limit;
  const std::size_t count = slot.count;
  // Insert keeping newest-first order by version (receptions can reorder
  // only marginally; handle it anyway for robustness).
  std::size_t at = 0;
  while (at < count && window[at].version > hello.advertised.version) ++at;
  bool changed = false;
  if (at < count && window[at].version == hello.advertised.version) {
    // Duplicate delivery: refresh in place.
    changed = tracks(window[at]) && !same_bits(window[at], hello.advertised);
    window[at] = hello.advertised;
  } else if (at < limit) {
    changed = insertion_changes({window, count}, at, hello.advertised);
    // A full window loses its last record to the shift.
    const std::size_t kept = std::min(count, limit - 1);
    std::copy_backward(window + at, window + kept, window + kept + 1);
    window[at] = hello.advertised;
    slot.count = static_cast<std::uint32_t>(kept + 1);
  }
  // else: older than a full window, dropped at once.
  if (changed) ++generation_;
  if (hello.sender != owner_) {
    oldest_front_ = std::min(oldest_front_, window[0].send_time);
  }
}

bool LocalViewStore::insertion_changes(
    std::span<const topology::VersionedPosition> window, std::size_t at,
    const topology::VersionedPosition& incoming) const noexcept {
  // A full window drops its last record once `incoming` goes in.
  const bool full = window.size() == history_limit_;
  if (tracked_version_) {
    return tracks(incoming) || (full && tracks(window.back()));
  }
  if (!full) return true;  // the sequence grew
  // The full window shifts down from `at`: it reads the same only if every
  // shifted record holds the incoming bits.
  for (std::size_t i = at; i < window.size(); ++i) {
    if (!same_bits(window[i], incoming)) return true;
  }
  return false;
}

// mstc:hot — runs on every reception and every selection refresh
void LocalViewStore::expire(double now) {
  const double cutoff = now - expiry_;
  // Fast path: every non-owner front is certainly newer than the cutoff,
  // so the scan below would erase nothing. This check carries the hot
  // path — expire() runs on every Hello reception and every selection
  // refresh, and in steady state nothing is stale.
  if (cutoff <= oldest_front_) return;
  const std::size_t limit = history_limit_;
  double oldest = std::numeric_limits<double>::infinity();
  bool changed = false;
  // One lockstep pass compacts the slots and their windows.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot slot = slots_[i];
    const topology::VersionedPosition* window = records_.data() + i * limit;
    if (slot.sender != owner_) {
      if (window[0].send_time < cutoff) {
        changed = changed || std::any_of(window, window + slot.count,
                                         [&](const auto& record) {
                                           return tracks(record);
                                         });
        continue;
      }
      oldest = std::min(oldest, window[0].send_time);
    }
    if (kept != i) {
      slots_[kept] = slot;
      std::copy_n(window, slot.count, records_.data() + kept * limit);
    }
    ++kept;
  }
  slots_.resize(kept);
  records_.resize(kept * limit);
  if (changed) ++generation_;
  oldest_front_ = oldest;
}

void LocalViewStore::track_version(
    std::optional<std::uint64_t> version) noexcept {
  if (version == tracked_version_) return;
  tracked_version_ = version;
  ++generation_;
}

std::vector<topology::VersionedPosition> LocalViewStore::history(
    NodeId sender) const {
  const auto stored = window(find(sender));
  return std::vector<topology::VersionedPosition>(stored.begin(),
                                                  stored.end());
}

std::span<const topology::VersionedPosition> LocalViewStore::records(
    NodeId sender) const {
  return window(find(sender));
}

std::span<const topology::VersionedPosition> LocalViewStore::record_at(
    NodeId sender, std::uint64_t version) const {
  const auto stored = window(find(sender));
  for (const auto& record : stored) {
    if (record.version == version) return {&record, 1};
  }
  return {};
}

std::optional<topology::VersionedPosition> LocalViewStore::latest(
    NodeId sender) const {
  const auto stored = window(find(sender));
  if (stored.empty()) return std::nullopt;
  return stored.front();
}

std::optional<topology::VersionedPosition> LocalViewStore::at_version(
    NodeId sender, std::uint64_t version) const {
  const auto found = record_at(sender, version);
  if (found.empty()) return std::nullopt;
  return found.front();
}

std::vector<NodeId> LocalViewStore::neighbors() const {
  std::vector<NodeId> ids;
  neighbors(ids);
  return ids;
}

// mstc:hot — runs once per selection refresh; fills the caller-owned buffer
void LocalViewStore::neighbors(std::vector<NodeId>& out) const {
  out.clear();
  out.reserve(slots_.size());
  // slots_ is already ascending by sender — the canonical order that flows
  // into ViewGraph node indices and tie-breaking downstream.
  for (const Slot& slot : slots_) {
    if (slot.sender != owner_) out.push_back(slot.sender);
  }
}

}  // namespace mstc::core
