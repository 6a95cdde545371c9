// One end-to-end simulation run.
//
// Wires the substrates together exactly as the paper's Section 5.1
// describes: mobility traces drive an ideal-MAC medium; every node beacons
// asynchronous (or synchronized, per consistency mode) Hellos at the normal
// range and runs its NodeController; a flooding application measures weak
// connectivity; periodic snapshots measure strict connectivity, ranges and
// degrees.
#pragma once

#include "metrics/aggregate.hpp"
#include "obs/probe.hpp"
#include "runner/config.hpp"

namespace mstc::runner {

/// Rejects a configuration no scenario can run, with a
/// std::invalid_argument naming the field: an empty fleet or one whose
/// ids overflow 32 bits; a history limit above 2^32 - 1; a normal range,
/// duration or Hello interval that is not finite and positive; an average
/// speed, flood or snapshot rate, warmup or flood settle time that is not
/// finite and non-negative; a Hello jitter outside [0, 1) or a Hello loss
/// outside [0, 1]; an unknown mac, mobility_model or protocol name; or a
/// warmup that leaves a positive flood_rate no flood (warmup > duration -
/// flood_settle) or a positive snapshot_rate no snapshot (warmup >
/// duration). run_scenario calls it first, so every CLI, bench and sweep
/// is checked at the same boundary.
void validate(const ScenarioConfig& config);

/// Runs one scenario to completion; deterministic in (config, config.seed).
/// Throws std::invalid_argument for a config validate() rejects.
[[nodiscard]] metrics::RunStats run_scenario(const ScenarioConfig& config);

/// Same, recording counters, trace events, histograms and wall-clock
/// profiling into `observation` (see docs/OBSERVABILITY.md for the
/// catalogue). Passing null behaves exactly like the plain overload; the
/// returned stats are byte-identical either way — observation never feeds
/// back into simulation state.
[[nodiscard]] metrics::RunStats run_scenario(const ScenarioConfig& config,
                                             obs::RunObservation* observation);

}  // namespace mstc::runner
