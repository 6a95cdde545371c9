// Per-node topology-control state machine.
//
// A NodeController owns one node's LocalViewStore, runs the configured
// protocol over the view assembled by the configured consistency mode, and
// exposes the resulting logical neighbor set and (extended) transmission
// range. It is driven by the simulation runner:
//   on_hello_send    -> record own advertised position, then (for periodic
//                       updating modes) refresh the selection
//   on_hello_receive -> record a neighbor's Hello
//   refresh_selection / refresh_selection_versioned -> recompute logical set
#pragma once

#include <vector>

#include "core/buffer_zone.hpp"
#include "core/consistency.hpp"
#include "obs/probe.hpp"
#include "topology/protocol.hpp"
#include "util/prefetch.hpp"

namespace mstc::core {

struct ControllerConfig {
  double normal_range = 250.0;
  ConsistencyMode mode = ConsistencyMode::kLatest;
  /// Stored Hello records per sender (k of Section 4.2; 1 for baselines,
  /// 2-3 for weak consistency, >= 2 for proactive version pinning).
  std::size_t history_limit = 1;
  /// Neighbor expiry: drop nodes not heard from for this long (seconds).
  double view_expiry = 3.0;
  BufferZoneConfig buffer;
  /// Accept data packets from non-logical physical neighbors (the paper's
  /// "physical neighbor" enhancement). Queried by the runner.
  bool accept_physical_neighbors = false;
  /// Skip the protocol run when the store reports no change since the
  /// last selection (LocalViewStore::generation(): member ids and position
  /// bits, post-expiry). Sound because view assembly reads only those
  /// inputs and protocols are pure; skips are counted as
  /// topology_recompute_skips. Disable to measure the uncached path
  /// (ScenarioConfig::recompute_cache at the scenario level).
  bool recompute_cache = true;
};

class NodeController {
 public:
  NodeController(NodeId id, const topology::Protocol& protocol,
                 const topology::CostModel& cost, ControllerConfig config);

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] const ControllerConfig& config() const noexcept {
    return config_;
  }

  /// Attaches an observability probe (hello_tx/rx, view_syncs,
  /// topology_recomputes, link_removals, buffer_zone_expansions). The probe
  /// must outlive the controller; null detaches. Counting never feeds back
  /// into decisions, so attaching a probe cannot change the selection.
  void attach_probe(const obs::Probe* probe) noexcept { probe_ = probe; }

  /// Records the position this node is about to advertise and returns the
  /// Hello to broadcast. Also refreshes the logical selection (the paper:
  /// "each node updates its logical neighbor set whenever it sends a
  /// 'Hello' message") through post_send_refresh.
  HelloRecord on_hello_send(double now, geom::Vec2 true_position,
                            std::uint64_t version);

  /// The refresh half of on_hello_send (mode-dependent; a no-op for
  /// reactive consistency). Touches only this node's state.
  void post_send_refresh(double now, std::uint64_t version);

  /// Records a received neighbor Hello.
  void on_hello_receive(const HelloRecord& hello, double now);

  /// First prefetch stage of a coming on_hello_receive (a hint only; see
  /// runner::Scenario's Hello delivery): the fields a receive reads in this
  /// object. The later stages go through store().
  void prefetch_receive_header() const noexcept {
    util::prefetch(&store_, sizeof store_);
    util::prefetch(&probe_, sizeof probe_);
  }

  /// Recomputes the logical selection from the current store per the
  /// configured mode (ViewSync calls this on every packet transmission).
  void refresh_selection(double now);

  /// Proactive/Reactive: recompute pinned to a Hello version. No-op when
  /// the owner has no record of that version (keeps the prior selection,
  /// the paper's "wait before migrating to the next local view").
  void refresh_selection_versioned(double now, std::uint64_t version);

  /// Global ids of current logical neighbors, sorted ascending. Sortedness
  /// is a documented contract, not an accident of construction: is_logical()
  /// binary-searches this vector, and callers may merge/intersect
  /// selections from several nodes without re-sorting. Pinned by
  /// ControllerTest.LogicalNeighborsAreSortedAscending.
  [[nodiscard]] const std::vector<NodeId>& logical_neighbors() const noexcept {
    return logical_;
  }
  /// Membership test over logical_neighbors(), O(log degree).
  [[nodiscard]] bool is_logical(NodeId neighbor) const;

  /// Actual range: distance to the farthest logical neighbor as certified
  /// by the view used for the last selection.
  [[nodiscard]] double actual_range() const noexcept { return actual_range_; }

  /// Extended range = actual range + buffer width (0 with no logical
  /// neighbors). Not capped: Theorem 5's guarantee needs the full r + l.
  [[nodiscard]] double extended_range() const noexcept;

  /// Number of Hello versions this node has sent.
  [[nodiscard]] std::uint64_t hello_count() const noexcept {
    return hellos_sent_;
  }

  [[nodiscard]] const LocalViewStore& store() const noexcept { return store_; }

 private:
  void apply_selection(const topology::ViewGraph& view, double now);

  /// Recompute-cache probe: true, and counts the skip, when the store is
  /// unchanged since the current selection was computed.
  [[nodiscard]] bool cache_hit() const;

  NodeId id_;
  // Never null.
  const topology::Protocol* protocol_;
  const topology::CostModel* cost_;
  ControllerConfig config_;
  LocalViewStore store_;
  // Next to store_: a Hello receive reads both and nothing else.
  const obs::Probe* probe_ = nullptr;
  std::vector<NodeId> logical_;
  double actual_range_ = 0.0;
  std::uint64_t hellos_sent_ = 0;
  // Scratch for link-removal diffs; allocated only while a probe counts.
  std::vector<NodeId> previous_logical_;
  // The assembled view, its builder scratch and the protocol output live
  // in one per-thread selection scratch in controller.cpp, shared by every
  // controller the thread refreshes: nothing in it outlives a refresh.
  // Recompute cache: the store generation the current selection was
  // computed at. No store generation reaches the initial value.
  std::uint64_t selection_generation_ = ~std::uint64_t{0};
};

}  // namespace mstc::core
