// Structured event tracing: in-memory sink + JSONL and Chrome exporters.
//
// A trace record is (sim-time, node, event kind, value, aux). Records are
// appended in event-execution order, which the simulator makes
// deterministic ((time, sequence) with FIFO tie-break — see
// sim::Simulator::current_sequence()); the sink's record index is therefore
// a stable global ordering and is exported as "seq".
//
// Exporters:
//   write_jsonl        one JSON object per line — the schema consumed by
//                      scripts/plot_results.py --counters
//   write_chrome_trace Chrome trace_event JSON, loadable directly in
//                      Perfetto / chrome://tracing (each run is a process,
//                      each node a thread, sim-seconds mapped to trace
//                      microseconds)
//
// Trace output is NOT part of the determinism byte-compare surface (see
// docs/OBSERVABILITY.md); the RunStats a traced run produces are.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mstc::obs {

enum class EventKind : std::uint8_t {
  kHelloTx,
  kHelloRx,
  kViewSync,
  kTopologyRecompute,
  kLinkRemoval,
  kBufferZoneExpansion,
  kSyncContact,
  kFloodStart,
  kBroadcastForward,
  kFloodDelivery,
  kFloodScored,
  kSnapshot,
  kEpidemicInject,
  kEpidemicDelivery,
  kCount  // sentinel
};

/// Stable snake_case identifier (the JSONL "kind" / Chrome "name" field).
[[nodiscard]] const char* event_kind_name(EventKind kind) noexcept;

struct TraceEvent {
  double time = 0.0;        ///< sim-time (seconds)
  std::uint32_t node = 0;   ///< acting node id
  EventKind kind = EventKind::kHelloTx;
  double value = 0.0;       ///< kind-specific payload (ratio, range, ...)
  std::uint64_t aux = 0;    ///< kind-specific payload (peer id, version, ...)
};

/// Append-only in-memory sink; one per simulation run (no locking — runs
/// never share a sink; sweeps merge sinks deterministically afterwards).
///
/// Thread model: thread-confined like obs::CounterRegistry — the owning
/// replication is the only writer, and readers (exporters, sweep merges)
/// run after the pool has joined, so the class owns no mutex and carries
/// no capability annotations (see docs/STATIC_ANALYSIS.md).
class MemoryTraceSink {
 public:
  void record(const TraceEvent& event) { events_.push_back(event); }

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }

 private:
  std::vector<TraceEvent> events_;
};

/// Writes one JSON object per line:
///   {"run":R,"seq":N,"t":S,"node":N,"kind":"hello_tx","value":V,"aux":A}
/// `runs[i]` is exported with run id i; seq restarts per run. Returns false
/// when the file cannot be written.
[[nodiscard]] bool write_jsonl(const std::string& path,
                               const std::vector<const MemoryTraceSink*>& runs);

/// Writes {"traceEvents":[...]} in Chrome trace_event format: run i becomes
/// pid i (named "replication i"), node n becomes tid n, and every record an
/// instant event at ts = sim-seconds * 1e6. Returns false on I/O failure.
[[nodiscard]] bool write_chrome_trace(
    const std::string& path, const std::vector<const MemoryTraceSink*>& runs);

}  // namespace mstc::obs
