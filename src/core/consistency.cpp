#include "core/consistency.hpp"

#include <cassert>
#include <stdexcept>

namespace mstc::core {

std::string_view to_string(ConsistencyMode mode) {
  switch (mode) {
    case ConsistencyMode::kLatest:
      return "latest";
    case ConsistencyMode::kViewSync:
      return "viewsync";
    case ConsistencyMode::kProactive:
      return "proactive";
    case ConsistencyMode::kReactive:
      return "reactive";
    case ConsistencyMode::kWeak:
      return "weak";
  }
  return "unknown";
}

ConsistencyMode consistency_mode_from(std::string_view name) {
  if (name == "latest") return ConsistencyMode::kLatest;
  if (name == "viewsync") return ConsistencyMode::kViewSync;
  if (name == "proactive") return ConsistencyMode::kProactive;
  if (name == "reactive") return ConsistencyMode::kReactive;
  if (name == "weak") return ConsistencyMode::kWeak;
  throw std::invalid_argument("unknown consistency mode: " + std::string(name));
}

// The builders only choose one position list per view member (owner
// first) and hand them to ViewGraph::assign, which defers every
// neighbor-neighbor pair to its first read. The view reads only the
// `.position` of each record — together with the member ids this makes
// the view (and, by protocol purity, the selection) an exact function of
// (ids, position bits, normal_range, cost). That is why
// LocalViewStore::generation() tracks nothing else, and why the
// controller's recompute cache can key on it.

// mstc:hot — per-refresh builder; the caller owns scratch and out
void build_latest_view(const LocalViewStore& store, double normal_range,
                       const topology::CostModel& cost, ViewScratch& scratch,
                       topology::ViewGraph& out) {
  scratch.ids.clear();
  scratch.versions.clear();
  const auto own = store.records(store.owner());
  assert(!own.empty() && "owner must have advertised at least once");
  scratch.ids.push_back(store.owner());
  scratch.versions.push_back(own.first(1));  // newest record only
  // One pass over the store: slots() is already ascending by sender, the
  // canonical neighbor order, so no per-neighbor lookup is needed.
  const auto slots = store.slots();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].sender == store.owner()) continue;
    scratch.ids.push_back(slots[i].sender);
    scratch.versions.push_back(store.history_at(i).first(1));
  }
  out.assign(scratch.ids, scratch.versions, normal_range, cost);
}

topology::ViewGraph build_latest_view(const LocalViewStore& store,
                                      double normal_range,
                                      const topology::CostModel& cost) {
  ViewScratch scratch;
  topology::ViewGraph view;
  build_latest_view(store, normal_range, cost, scratch, view);
  return view;
}

// mstc:hot — per-refresh builder; the caller owns scratch and out
bool build_versioned_view(const LocalViewStore& store, std::uint64_t version,
                          double normal_range, const topology::CostModel& cost,
                          ViewScratch& scratch, topology::ViewGraph& out) {
  const auto own = store.record_at(store.owner(), version);
  if (own.empty()) return false;
  scratch.ids.clear();
  scratch.versions.clear();
  scratch.ids.push_back(store.owner());
  scratch.versions.push_back(own);
  // One pass over the store (ascending by sender); members are the senders
  // that pin the requested version.
  const auto slots = store.slots();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].sender == store.owner()) continue;
    for (const auto& record : store.history_at(i)) {
      if (record.version == version) {
        scratch.ids.push_back(slots[i].sender);
        scratch.versions.push_back(
            std::span<const topology::VersionedPosition>(&record, 1));
        break;
      }
    }
  }
  out.assign(scratch.ids, scratch.versions, normal_range, cost);
  return true;
}

std::optional<topology::ViewGraph> build_versioned_view(
    const LocalViewStore& store, std::uint64_t version, double normal_range,
    const topology::CostModel& cost) {
  ViewScratch scratch;
  topology::ViewGraph view;
  if (!build_versioned_view(store, version, normal_range, cost, scratch,
                            view)) {
    return std::nullopt;
  }
  return view;
}

// mstc:hot — per-refresh builder; the caller owns scratch and out
void build_weak_view(const LocalViewStore& store, double normal_range,
                     const topology::CostModel& cost, ViewScratch& scratch,
                     topology::ViewGraph& out) {
  scratch.ids.clear();
  scratch.versions.clear();
  const auto own = store.records(store.owner());
  assert(!own.empty() && "owner must have advertised at least once");
  scratch.ids.push_back(store.owner());
  scratch.versions.push_back(own);  // full history: the interval view
  // One pass over the store (ascending by sender), full histories.
  const auto slots = store.slots();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].sender == store.owner()) continue;
    scratch.ids.push_back(slots[i].sender);
    scratch.versions.push_back(store.history_at(i));
  }
  out.assign(scratch.ids, scratch.versions, normal_range, cost);
}

topology::ViewGraph build_weak_view(const LocalViewStore& store,
                                    double normal_range,
                                    const topology::CostModel& cost) {
  ViewScratch scratch;
  topology::ViewGraph view;
  build_weak_view(store, normal_range, cost, scratch, view);
  return view;
}

double delay_bound(ConsistencyMode mode, double hello_interval,
                   std::size_t history_limit, double flood_delay_bound) {
  switch (mode) {
    case ConsistencyMode::kProactive:
      return 2.0 * hello_interval;
    case ConsistencyMode::kReactive:
      return hello_interval + flood_delay_bound;
    case ConsistencyMode::kWeak:
      return (static_cast<double>(history_limit) + 1.0) * hello_interval;
    case ConsistencyMode::kLatest:
    case ConsistencyMode::kViewSync:
      return 2.0 * hello_interval;
  }
  return 2.0 * hello_interval;
}

}  // namespace mstc::core
