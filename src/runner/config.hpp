// Scenario configuration.
//
// Defaults mirror the paper's Section 5.1 setup (100 nodes, 900x900 m^2,
// 250 m normal range, random waypoint with zero pause, ~1 s jittered Hello
// interval) with CI-scale duration/rates; see paper_scale() for the exact
// paper parameters and apply_env_overrides() for MSTC_* escalation.
#pragma once

#include <cstdint>
#include <string>

#include "core/consistency.hpp"
#include "mobility/trace.hpp"

namespace mstc::runner {

struct ScenarioConfig {
  // --- network ---
  std::size_t node_count = 100;
  mobility::Area area{900.0, 900.0};
  double normal_range = 250.0;

  // --- mobility ---
  /// "static", "waypoint" (paper), "walk", or "gauss".
  std::string mobility_model = "waypoint";
  double average_speed = 10.0;  ///< m/s

  // --- protocol under test ---
  std::string protocol = "RNG";  ///< see topology::make_protocol
  core::ConsistencyMode mode = core::ConsistencyMode::kLatest;
  /// Stored Hello records per sender; 0 = mode default (1 for baselines,
  /// 3 for weak/proactive).
  std::size_t history_limit = 0;
  double buffer_width = 0.0;   ///< buffer zone l (m)
  bool adaptive_buffer = false;  ///< l = 2 * Delta'' * v (Theorem 5)
  bool physical_neighbors = false;

  // --- beaconing & MAC ---
  double hello_interval = 1.0;  ///< mean Hello period (s)
  double hello_jitter = 0.25;   ///< per-node interval in [1-j, 1+j] * mean
  double hello_loss = 0.0;      ///< per-reception loss probability
  /// "ideal" (the paper's collision-free MAC) or "csma" (carrier sensing
  /// + collision loss; the paper's future-work realistic MAC).
  std::string mac = "ideal";
  /// Serve medium neighbor queries with the brute-force O(n) scan instead
  /// of the spatial index. Results are bit-identical either way (the
  /// determinism suite asserts it); kept as a test oracle.
  bool medium_brute_force = false;
  /// Skip Protocol::select when a node's view store is unchanged since
  /// its previous selection (the protocol is a pure function of the view,
  /// so the selection is provably unchanged; the determinism suite
  /// byte-compares cache-on vs cache-off sweeps). Off is kept as a test
  /// oracle and as bench_kernel's uncached arm.
  bool recompute_cache = true;
  /// Measure snapshots with the brute-force O(n^2) pair scan instead of
  /// the grid-backed fast path. Byte-identical either way (differential
  /// suite tests/metrics/snapshot_grid_test.cpp); kept as a test oracle
  /// and as bench_snapshot's brute arm.
  bool snapshot_brute_force = false;
  /// Serve the mobility trace set from the process-wide
  /// mobility::TraceCache (sweep points differing only in protocol / mode
  /// / buffer share one immutable set). Generation is pure in the cache
  /// key, so a hit is bit-identical to a regeneration — pinned by
  /// Determinism.TraceCacheSharedMatchesPerReplication; off is kept as
  /// that test's oracle.
  bool trace_cache = true;

  // --- workload & measurement ---
  double duration = 30.0;       ///< simulated seconds
  double warmup = 3.0;          ///< no measurements before this time
  double flood_rate = 4.0;      ///< broadcast floods per second
  double snapshot_rate = 4.0;   ///< strict-connectivity samples per second
  double flood_settle = 0.5;    ///< seconds before a flood is scored

  std::uint64_t seed = 1;

  /// Effective per-sender history: explicit value or the mode default
  /// (weak: k = 2 per Corollary 1's instantaneous-updating bound;
  /// proactive: 3 so version pinning always finds its record).
  [[nodiscard]] std::size_t effective_history() const {
    if (history_limit > 0) return history_limit;
    switch (mode) {
      case core::ConsistencyMode::kWeak:
        return 2;
      case core::ConsistencyMode::kProactive:
        return 3;
      default:
        return 1;
    }
  }
};

/// The paper's full-scale parameters: 100 s runs, 10 floods/s and
/// 10 samples/s (Section 5.1). Heavier: ~10x the default runtime.
[[nodiscard]] ScenarioConfig paper_scale(ScenarioConfig base);

/// Applies the MSTC_SIM_TIME / MSTC_NODES / MSTC_FLOOD_RATE /
/// MSTC_SNAPSHOT_RATE / MSTC_WARMUP workload-size overrides;
/// MSTC_PAPER_SCALE=1 applies paper_scale first. This is the only reader
/// of MSTC_* for scenario behaviour: the CLIs and benches call it at their
/// boundary, and run_scenario reads nothing but its ScenarioConfig.
[[nodiscard]] ScenarioConfig apply_env_overrides(ScenarioConfig base);

/// Repetition count for sweeps: MSTC_REPEATS env or `fallback`.
[[nodiscard]] std::size_t sweep_repeats(std::size_t fallback = 5);

}  // namespace mstc::runner
