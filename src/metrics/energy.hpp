// Transmission-energy accounting and network-lifetime estimation.
//
// The paper's motivation: "transmission range reduction conserves energy
// and bandwidth". This module turns a BuiltTopology into the numbers that
// claim rests on — per-node radio power under a d^alpha path-loss model
// and the resulting network lifetime relative to no topology control.
#pragma once

#include <cstddef>

#include "topology/builder.hpp"

namespace mstc::metrics {

struct EnergyModel {
  double alpha = 2.0;            ///< path-loss exponent
  double tx_fixed_power = 1.0;   ///< electronics overhead per transmission
                                 ///  (normalized units)
  double amp_scale = 1e-4;       ///< amplifier scale: P_amp = scale * r^alpha
  double rx_power = 0.5;         ///< cost of receiving a frame
};

/// Radiated + electronics power for one transmission at range r
/// (normalized units; only ratios are meaningful).
[[nodiscard]] double transmission_power(const EnergyModel& model, double range);

struct LifetimeReport {
  /// Time until the first node exhausts its battery, normalized so the
  /// no-topology-control network scores 1.0.
  double first_death_ratio = 1.0;
  /// Mean per-node energy drain rate ratio vs no control (< 1 is better).
  double mean_drain_ratio = 1.0;
};

/// Compares the energy drain of `topo` against transmitting every data
/// frame at `normal_range`. Workload: every node sends `tx_per_second`
/// data frames with its own range and receives from its logical in-degree.
/// Hellos cost the same in both configurations and are excluded.
[[nodiscard]] LifetimeReport estimate_lifetime(
    const EnergyModel& model, const topology::BuiltTopology& topo,
    double normal_range);

}  // namespace mstc::metrics
