#include "core/view_store.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

namespace mstc::core {

namespace {

bool sender_less(const LocalViewStore::Entry& entry, NodeId sender) {
  return entry.sender < sender;
}

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
}

const LocalViewStore::Entry* LocalViewStore::find(
    NodeId sender) const noexcept {
  const auto it = std::lower_bound(entries_.begin(), entries_.end(), sender,
                                   sender_less);
  if (it == entries_.end() || it->sender != sender) return nullptr;
  return &*it;
}

// mstc:hot — runs once per Hello reception
void LocalViewStore::record(const HelloRecord& hello) {
  auto slot = std::lower_bound(entries_.begin(), entries_.end(), hello.sender,
                               sender_less);
  if (slot == entries_.end() || slot->sender != hello.sender) {
    slot = entries_.insert(slot, Entry{.sender = hello.sender, .history = {}});
    // Steady state never reallocates the history: one reserve per sender.
    slot->history.reserve(history_limit_ + 1);
  }
  auto& history = slot->history;
  // Insert keeping newest-first order by version (receptions can reorder
  // only marginally; handle it anyway for robustness).
  const auto insert_at = std::find_if(
      history.begin(), history.end(),
      [&](const topology::VersionedPosition& existing) {
        return existing.version <= hello.advertised.version;
      });
  bool changed = false;
  if (insert_at != history.end() &&
      insert_at->version == hello.advertised.version) {
    // Duplicate delivery: refresh in place.
    changed = tracks(*insert_at) && !same_bits(*insert_at, hello.advertised);
    *insert_at = hello.advertised;
  } else {
    const auto at = history.insert(insert_at, hello.advertised);
    changed = insertion_changes(
        history, static_cast<std::size_t>(at - history.begin()));
    if (history.size() > history_limit_) history.resize(history_limit_);
  }
  if (changed) ++generation_;
  if (hello.sender != owner_) {
    oldest_front_ = std::min(oldest_front_, history.front().send_time);
  }
}

bool LocalViewStore::insertion_changes(
    std::span<const topology::VersionedPosition> history,
    std::size_t at) const noexcept {
  // A full window holds one record too many here: the last, about to go.
  const bool overflow = history.size() > history_limit_;
  if (overflow && at + 1 == history.size()) return false;  // dropped at once
  if (tracked_version_) {
    return tracks(history[at]) || (overflow && tracks(history.back()));
  }
  if (!overflow) return true;  // the sequence grew
  // The full window shifts down from `at`: it reads the same only if every
  // shifted slot lands on equal bits.
  for (std::size_t i = at; i + 1 < history.size(); ++i) {
    if (!same_bits(history[i], history[i + 1])) return true;
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
  double oldest = std::numeric_limits<double>::infinity();
  bool changed = false;
  std::erase_if(entries_, [&](const Entry& entry) {
    const bool stale =
        entry.sender != owner_ &&
        (entry.history.empty() || entry.history.front().send_time < cutoff);
    if (stale) {
      changed = changed || std::ranges::any_of(entry.history,
                                               [&](const auto& record) {
                                                 return tracks(record);
                                               });
    } else if (entry.sender != owner_) {
      oldest = std::min(oldest, entry.history.front().send_time);
    }
    return stale;
  });
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
  const Entry* entry = find(sender);
  return entry == nullptr ? std::vector<topology::VersionedPosition>{}
                          : entry->history;
}

std::span<const topology::VersionedPosition> LocalViewStore::records(
    NodeId sender) const {
  const Entry* entry = find(sender);
  if (entry == nullptr) return {};
  return {entry->history.data(), entry->history.size()};
}

std::span<const topology::VersionedPosition> LocalViewStore::record_at(
    NodeId sender, std::uint64_t version) const {
  const Entry* entry = find(sender);
  if (entry == nullptr) return {};
  for (const auto& record : entry->history) {
    if (record.version == version) return {&record, 1};
  }
  return {};
}

std::optional<topology::VersionedPosition> LocalViewStore::latest(
    NodeId sender) const {
  const Entry* entry = find(sender);
  if (entry == nullptr || entry->history.empty()) return std::nullopt;
  return entry->history.front();
}

std::optional<topology::VersionedPosition> LocalViewStore::at_version(
    NodeId sender, std::uint64_t version) const {
  const Entry* entry = find(sender);
  if (entry == nullptr) return std::nullopt;
  for (const auto& record : entry->history) {
    if (record.version == version) return record;
  }
  return std::nullopt;
}

std::vector<NodeId> LocalViewStore::neighbors() const {
  std::vector<NodeId> ids;
  neighbors(ids);
  return ids;
}

// mstc:hot — runs once per selection refresh; fills the caller-owned buffer
void LocalViewStore::neighbors(std::vector<NodeId>& out) const {
  out.clear();
  out.reserve(entries_.size());
  // entries_ is already ascending by sender — the canonical order that
  // flows into ViewGraph node indices and tie-breaking downstream.
  for (const Entry& entry : entries_) {
    if (entry.sender != owner_ && !entry.history.empty()) {
      out.push_back(entry.sender);
    }
  }
}

}  // namespace mstc::core
