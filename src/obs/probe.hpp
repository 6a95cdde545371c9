// The hot-path handle of the observability layer.
//
// A RunObservation bundles everything one simulation run may record
// (counters, trace, flight ring, wall-clock profile, ledger) plus the two
// enable flags; a Probe is the cheap value handle instrumentation points
// hold. A default-constructed Probe is permanently disabled: every
// count()/trace() call reduces to a branch on a null pointer, which is the
// "zero overhead when off" contract the determinism suite leans on
// (observation on vs off must yield byte-identical RunStats).
//
// Threading: a RunObservation belongs to exactly one run; nothing here
// locks. Parallel sweeps allocate one RunObservation per replication slot
// and merge afterwards in deterministic task order (runner::SweepHooks).
#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/counters.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/ledger.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace mstc::obs {

/// Everything one simulation run records. Counters are on whenever an
/// observation is attached; tracing, profiling and flight recording are
/// opt-in because they cost memory / clock reads respectively. Flight
/// recording is on when the ring has a capacity (FlightRecorder::
/// set_capacity). The ledger is filled in by the sweep runner after the run
/// completes (see runner::SweepHooks::ledger), never during it.
struct RunObservation {
  CounterRegistry counters;
  MemoryTraceSink trace;
  Profiler profiler;
  FlightRecorder flight;
  RunLedger ledger;
  bool trace_on = false;
  bool profile_on = false;
};

class Probe {
 public:
  /// Disabled probe: all recording calls are no-ops.
  Probe() = default;
  explicit Probe(RunObservation* observation) noexcept
      : observation_(observation) {}

  [[nodiscard]] bool counting() const noexcept {
    return observation_ != nullptr;
  }
  [[nodiscard]] bool tracing() const noexcept {
    return observation_ != nullptr &&
           (observation_->trace_on || observation_->flight.capacity() > 0);
  }
  /// Null when profiling is off — feed it straight to ScopedTimer.
  [[nodiscard]] Profiler* profiler() const noexcept {
    return observation_ != nullptr && observation_->profile_on
               ? &observation_->profiler
               : nullptr;
  }

  void count(Counter counter, std::uint64_t delta = 1) const {
    if (observation_ != nullptr) observation_->counters.add(counter, delta);
  }
  void observe(Hist hist, double value) const {
    if (observation_ != nullptr) {
      observation_->counters.histogram(hist).add(value);
    }
  }

  /// Records a trace event at sim-time `time` (every instrumentation point
  /// already has the simulation clock in hand, so no time source is
  /// threaded through the probe). The same record feeds the full trace
  /// sink when trace_on and the flight ring when it has a capacity.
  void trace(EventKind kind, double time, std::size_t node,
             double value = 0.0, std::uint64_t aux = 0) const {
    if (!tracing()) return;
    const TraceEvent event{time, static_cast<std::uint32_t>(node), kind,
                           value, aux};
    if (observation_->trace_on) observation_->trace.record(event);
    observation_->flight.record(event);  // no-op at capacity 0
  }

 private:
  RunObservation* observation_ = nullptr;
};

}  // namespace mstc::obs
