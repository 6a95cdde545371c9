// Mobility-assisted management: epidemic (store-carry-forward) routing.
//
// The paper contrasts two ways of dealing with mobility (Section 2.2):
// mobility-TOLERANT management — this library's core, which keeps the
// effective topology connected at every instant — and mobility-ASSISTED
// management, which tolerates partitions and exploits node movement for
// eventual delivery (epidemic routing [30], one-relay forwarding [11]).
// This module implements the latter so the future-work hybrid experiment
// ("deliver within bounded time even when no snapshot is connected") can
// be run: see bench_ablation_hybrid.
#pragma once

#include <cstdint>
#include <string>

#include "mobility/trace.hpp"
#include "obs/probe.hpp"
#include "util/stats.hpp"

namespace mstc::routing {

struct EpidemicConfig {
  // --- network (deliberately sparse by default: partitions expected) ---
  std::size_t node_count = 40;
  mobility::Area area{900.0, 900.0};
  double range = 100.0;  ///< transmission range (m)

  // --- mobility ---
  std::string mobility_model = "waypoint";  ///< a mobility::make_model name
  double average_speed = 10.0;

  // --- protocol ---
  /// Contact-detection beacon period (s); message exchange is assumed to
  /// complete within a contact (ideal link, as in the paper's MAC model).
  double beacon_interval = 1.0;
  /// Maximum relay hops a copy may take: 0 = direct delivery only (the
  /// source must meet the destination), 1 = two-hop relay (Grossglauser-
  /// Tse [11]), larger = full epidemic [30].
  std::size_t max_relay_hops = 64;
  /// Per-node message buffer capacity; 0 = unlimited. When full, the
  /// oldest foreign copy is evicted (FIFO).
  std::size_t buffer_limit = 0;

  // --- workload ---
  std::size_t message_count = 50;
  double inject_window = 10.0;  ///< messages injected uniformly in [0, w]
  double duration = 120.0;      ///< total simulated time (s)

  std::uint64_t seed = 1;
};

struct EpidemicResult {
  double delivery_ratio = 0.0;       ///< delivered / injected
  util::Summary delay;               ///< end-to-end delay of delivered msgs
  double mean_copies_per_message = 0.0;  ///< replication overhead
  /// Average instantaneous pair connectivity of the raw range graph —
  /// shows how partitioned the substrate actually was.
  double snapshot_connectivity = 0.0;
};

/// Rejects a configuration no run can finish or measure, with a
/// std::invalid_argument naming the field: fewer than 2 nodes; a duration,
/// range or beacon interval that is not finite and positive; an average
/// speed that is not finite and non-negative; or an unknown mobility model
/// name. run_epidemic calls it first.
void validate(const EpidemicConfig& config);

/// Runs one epidemic-routing simulation; deterministic in (config, seed).
/// Throws std::invalid_argument for a config validate() rejects.
[[nodiscard]] EpidemicResult run_epidemic(const EpidemicConfig& config);

/// Same, recording counters (hello_tx beacons, epidemic_transfers,
/// epidemic_deliveries), trace events and the end-to-end delay histogram
/// into `observation` (null behaves exactly like the plain overload; the
/// result is byte-identical either way).
[[nodiscard]] EpidemicResult run_epidemic(const EpidemicConfig& config,
                                          obs::RunObservation* observation);

}  // namespace mstc::routing
