#include "sim/medium.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mstc::sim {

namespace {

/// The index is rebuilt when the mobility slack 2 * v_max * |t - t0|
/// exceeds this fraction of the query radius. Smaller values rebuild more
/// often but keep the candidate radius tight; 0 would rebuild on every
/// moving-fleet query.
constexpr double kRebuildSlackFraction = 0.5;

}  // namespace

Medium::Medium(std::span<const mobility::Trace> traces, Config config)
    : traces_(traces), config_(config) {
  assert(config_.propagation_delay >= 0.0);
  for (const mobility::Trace& trace : traces_) {
    max_speed_ = std::max(max_speed_, trace.max_speed());
  }
  // Empty records: each node's first query fills its own, so set-up reads
  // no trace's legs (a replication that queries few nodes never pays).
  legs_.resize(traces_.size());
}

Medium::LegRecord Medium::leg_record(const mobility::Trace& trace,
                                     double t) noexcept {
  const std::vector<mobility::Leg>& legs = trace.legs();
  // A trace without legs gets the empty record, so every query falls back.
  if (legs.empty()) return {};
  const std::size_t i = trace.leg_at(t);
  // Capped at the duration: past it Trace::position clamps t, so the
  // record must not cover those times.
  const double end = i + 1 < legs.size()
                         ? std::min(legs[i + 1].start_time, trace.duration())
                         : trace.duration();
  return {.start = legs[i].start_time,
          .end = end,
          .origin = legs[i].origin,
          .velocity = legs[i].velocity};
}

// mstc:hot — once per node per leg change, and for times off the trace
geom::Vec2 Medium::advance_leg(NodeId node, double t) const noexcept {
  const LegRecord& leg = legs_[node] = leg_record(traces_[node], t);
  // Off the trace (t < 0, t at or past the duration, NaN) the new record
  // does not cover t either, and the trace's clamp decides.
  return leg.covers(t) ? leg.at(t) : traces_[node].position(t);
}

void Medium::assert_single_thread() const noexcept {
#ifndef NDEBUG
  if (!query_thread_set_) {
    query_thread_ = std::this_thread::get_id();
    query_thread_set_ = true;
  }
  assert(query_thread_ == std::this_thread::get_id() &&
         "sim::Medium is per-replication: queries mutate internal caches "
         "(spatial index, leg records), so each thread needs its own "
         "traces + Medium");
#endif
}

void Medium::ensure_grid(double range, double t) const {
  const double slack = 2.0 * max_speed_ * std::abs(t - epoch_time_);
  if (grid_valid_ && range <= build_range_ &&
      slack <= kRebuildSlackFraction * build_range_) {
    return;
  }
  positions(t, epoch_positions_);
  // Cell size covers the worst conservative radius before the next
  // rebuild, so queries stay within the 3x3 neighborhood. The grid serves
  // any radius <= build_range_; a larger request re-ratchets the cells
  // (callers pass per-node actual/extended ranges, which vary), and each
  // fresh epoch resets the ratchet to the triggering range so cell size
  // decays again when the big spenders shrink.
  build_range_ = range;
  grid_.rebuild(epoch_positions_,
                range * (1.0 + kRebuildSlackFraction));
  epoch_time_ = t;
  grid_valid_ = true;
  if (probe_ != nullptr) probe_->count(obs::Counter::kMediumGridRebuilds);
}

// mstc:hot — runs once per Hello broadcast; fills the caller-owned out buffer
void Medium::receivers(NodeId sender, double range, double t,
                       std::vector<NodeId>& out) const {
  assert_single_thread();
  // An infinite radius would reach the grid's cell arithmetic.
  assert(std::isfinite(range));
  const obs::ScopedTimer timer(
      probe_ != nullptr ? probe_->profiler() : nullptr,
      obs::Category::kMediumQuery);
  out.clear();
  const double range_sq = range * range;
  std::uint64_t checks = 0;
  // range <= 0 (a sender with an empty selection and no buffer) stays on
  // the brute scan: sizing grid cells for a degenerate radius would poison
  // the index for every later full-range query in the epoch.
  if (config_.brute_force || traces_.empty() || range <= 0.0) {
    const geom::Vec2 origin = position(sender, t);
    for (NodeId node = 0; node < traces_.size(); ++node) {
      if (node == sender) continue;
      ++checks;
      if (geom::distance_sq(origin, position(node, t)) <= range_sq) {
        out.push_back(node);
      }
    }
  } else {
    ensure_grid(range, t);
    // Conservative filter: every node moved at most v_max * |t - t0| since
    // the epoch, so any node within `range` of the sender at t lies within
    // range + 2 * v_max * |t - t0| of the sender's position in the epoch
    // snapshot. The exact re-check below reproduces the brute-force
    // predicate bit-for-bit, and sorting what it keeps restores the brute
    // scan's ascending order (the grid emits cell order).
    const bool at_epoch = t == epoch_time_;
    const geom::Vec2 origin =
        at_epoch ? epoch_positions_[sender] : position(sender, t);
    const double slack = 2.0 * max_speed_ * std::abs(t - epoch_time_);
    grid_.query(origin, range + slack, candidate_buffer_);
    // The sender is always its own candidate (distance 0, and the grid
    // path only runs for range > 0), and the counter's contract is "every
    // non-sender candidate examined, accepted or not".
    assert(std::find(candidate_buffer_.begin(), candidate_buffer_.end(),
                     static_cast<std::size_t>(sender)) !=
           candidate_buffer_.end());
    const std::size_t m = candidate_buffer_.size();
    checks = m > 0 ? m - 1 : 0;
    // Keeps candidates the way SpatialGrid::query keeps hits: write each
    // id, advance the count by the exact predicate. No branch on the
    // distance test.
    out.resize(m);
    NodeId* const kept = out.data();
    std::size_t count = 0;
    for (const std::size_t node : candidate_buffer_) {
      const geom::Vec2 p =
          at_epoch ? epoch_positions_[node] : position(node, t);
      const bool in_range = geom::distance_sq(origin, p) <= range_sq;
      kept[count] = node;
      count += ((node != sender) & in_range) ? 1 : 0;
    }
    out.resize(count);
    std::sort(out.begin(), out.end());
  }
  if (probe_ != nullptr) {
    probe_->count(obs::Counter::kMediumCandidates, checks);
    probe_->count(obs::Counter::kMediumCandidatesAccepted, out.size());
    probe_->count(obs::Counter::kMediumDeliveries, out.size());
  }
}

void Medium::positions(double t, std::vector<geom::Vec2>& out) const {
  out.resize(traces_.size());
  for (NodeId node = 0; node < traces_.size(); ++node) {
    out[node] = position(node, t);
  }
}

// mstc:hot — runs once per measurement snapshot; fills the caller-owned buffer
void Medium::links_within(double range, double t,
                          std::vector<std::pair<NodeId, NodeId>>& out) const {
  assert_single_thread();
  const obs::ScopedTimer timer(
      probe_ != nullptr ? probe_->profiler() : nullptr,
      obs::Category::kMediumQuery);
  out.clear();
  const double range_sq = range * range;
  std::uint64_t checks = 0;
  if (config_.brute_force || traces_.empty()) {
    positions(t, scratch_positions_);
    // The deliberate brute-force baseline behind Config::brute_force; the
    // differential suites compare the grid against exactly this loop.
    for (NodeId u = 0; u < scratch_positions_.size(); ++u) {
      // mstc-tidy: allow(all-pairs-scan)
      for (NodeId v = u + 1; v < scratch_positions_.size(); ++v) {
        ++checks;
        if (geom::distance_sq(scratch_positions_[u], scratch_positions_[v]) <=
            range_sq) {
          out.emplace_back(u, v);
        }
      }
    }
  } else {
    ensure_grid(range, t);
    // Amortize the piecewise-linear trace evaluation: one pass per call
    // (free when t is the epoch itself — snapshot times that trigger a
    // rebuild reuse the epoch buffer) instead of one per candidate pair.
    if (t == epoch_time_) {
      scratch_positions_ = epoch_positions_;
    } else {
      positions(t, scratch_positions_);
    }
    const double slack = 2.0 * max_speed_ * std::abs(t - epoch_time_);
    const double query_radius = range + slack;
    // Single sweep: node u scans its grid neighborhood and keeps the v > u
    // candidates within range, compacted in place without a branch on
    // either test. Sorting what it keeps turns the grid's cell order into
    // ascending v, so ascending u yields exactly the brute-force double
    // loop's lexicographic order.
    for (NodeId u = 0; u < scratch_positions_.size(); ++u) {
      const geom::Vec2 origin = scratch_positions_[u];
      grid_.query(origin, query_radius, candidate_buffer_);
      std::size_t* const kept = candidate_buffer_.data();
      std::size_t count = 0;
      for (std::size_t i = 0; i < candidate_buffer_.size(); ++i) {
        const std::size_t v = kept[i];
        const bool later = v > u;
        const bool in_range =
            geom::distance_sq(origin, scratch_positions_[v]) <= range_sq;
        checks += later ? 1 : 0;
        kept[count] = v;
        count += (later & in_range) ? 1 : 0;
      }
      std::sort(kept, kept + count);
      for (std::size_t i = 0; i < count; ++i) out.emplace_back(u, kept[i]);
    }
  }
  if (probe_ != nullptr) {
    probe_->count(obs::Counter::kMediumCandidates, checks);
    probe_->count(obs::Counter::kMediumCandidatesAccepted, out.size());
  }
}

std::vector<std::pair<NodeId, NodeId>> Medium::links_within(double range,
                                                            double t) const {
  std::vector<std::pair<NodeId, NodeId>> links;
  links_within(range, t, links);
  return links;
}

}  // namespace mstc::sim
