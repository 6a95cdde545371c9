// mstc_dtn — command-line front end for the mobility-assisted (epidemic /
// store-carry-forward) routing simulator.
//
//   mstc_dtn --nodes 40 --range 100 --speed 15 --messages 50
//   mstc_dtn --trace dtn.trace.json --metrics-out dtn.json
#include <cstdio>
#include <string>
#include <vector>

#include "obs/manifest.hpp"
#include "obs/metrics_export.hpp"
#include "obs/probe.hpp"
#include "routing/epidemic.hpp"
#include "util/args.hpp"
#include "util/options.hpp"
#include "util/rusage.hpp"

namespace {

constexpr const char* kHelp = R"(mstc_dtn — mobility-assisted routing simulator

options (defaults in brackets):
  --nodes N        node count                                     [40]
  --range R        transmission range, m                          [100]
  --speed V        average node speed, m/s                        [10]
  --mobility NAME  waypoint | static | walk | gauss               [waypoint]
  --relay-hops H   max relay hops (0 = direct-only, 1 = two-hop)  [64]
  --buffer N       per-node buffer capacity (0 = unlimited)       [0]
  --messages M     messages to inject                             [50]
  --duration T     simulated seconds                              [120]
  --seed S         RNG seed                                       [1]

observability (all off by default; see docs/OBSERVABILITY.md):
  --trace FILE        write a Chrome trace_event JSON (Perfetto)
  --trace-jsonl FILE  write the event trace as JSON Lines
  --metrics-out FILE  write a run manifest (config, counters, profile)
  --metrics-stream FILE  write the run's counters + ledger as a JSON Lines
                      metrics snapshot (env: MSTC_METRICS_STREAM)
  --metrics-prom FILE Prometheus text-exposition snapshot
                      (env: MSTC_METRICS_PROM)
)";

std::string format_double(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%g", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mstc;
  const util::ArgParser args(argc, argv);
  if (args.get_flag("help")) {
    std::fputs(kHelp, stdout);
    return 0;
  }

  try {
    routing::EpidemicConfig cfg;
    cfg.node_count = args.get_count("nodes", 40);
    cfg.range = args.get("range", 100.0);
    cfg.average_speed = args.get("speed", 10.0);
    cfg.mobility_model = args.get("mobility", std::string("waypoint"));
    cfg.max_relay_hops = args.get_count("relay-hops", 64);
    cfg.buffer_limit = args.get_count("buffer", 0);
    cfg.message_count = args.get_count("messages", 50);
    cfg.duration = args.get("duration", 120.0);
    cfg.seed = static_cast<std::uint64_t>(args.get("seed", 1L));
    const std::string trace_path = args.get("trace", std::string());
    const std::string trace_jsonl_path = args.get("trace-jsonl", std::string());
    const std::string metrics_path = args.get("metrics-out", std::string());
    const std::string stream_path = args.get(
        "metrics-stream", util::env_or("MSTC_METRICS_STREAM", std::string()));
    const std::string prom_path = args.get(
        "metrics-prom", util::env_or("MSTC_METRICS_PROM", std::string()));
    for (const auto& name : args.unknown()) {
      std::fprintf(stderr, "error: unknown option --%s (try --help)\n",
                   name.c_str());
      return 2;
    }

    const bool want_trace = !trace_path.empty() || !trace_jsonl_path.empty();
    const bool streaming = !stream_path.empty() || !prom_path.empty();
    const bool observing = want_trace || !metrics_path.empty() || streaming;

    obs::RunObservation observation;
    observation.trace_on = want_trace;
    // The ledger's phase split (streamed + manifested) needs the profiler.
    observation.profile_on = !metrics_path.empty() || streaming;
    const std::uint64_t run_start = observing ? obs::wall_now_ns() : 0;
    const auto result =
        routing::run_epidemic(cfg, observing ? &observation : nullptr);
    if (observing) {
      observation.ledger = {obs::wall_now_ns() - run_start,
                            util::peak_rss_bytes(), true};
    }
    std::printf(
        "substrate snapshot connectivity  %.3f (how partitioned the raw "
        "graph was)\n"
        "delivery ratio                   %.3f\n"
        "mean delay of delivered msgs     %.1f s (max %.1f)\n"
        "mean copies per message          %.1f\n",
        result.snapshot_connectivity, result.delivery_ratio,
        result.delay.count() > 0 ? result.delay.mean() : 0.0,
        result.delay.count() > 0 ? result.delay.max() : 0.0,
        result.mean_copies_per_message);

    if (observing) {
      if (streaming) {
        obs::MetricsExporter exporter;
        obs::MetricsExporter::Options options;
        options.jsonl_path = stream_path;
        options.prom_path = prom_path;
        options.job = "mstc_dtn";
        if (!exporter.open(options)) {
          std::fprintf(stderr, "error: cannot open metrics stream (%s)\n",
                       (stream_path.empty() ? prom_path : stream_path).c_str());
          return 1;
        }
        exporter.record(observation);
        exporter.close();
      }
      const std::vector<const obs::MemoryTraceSink*> sinks{
          &observation.trace};
      if (!trace_path.empty() &&
          !obs::write_chrome_trace(trace_path, sinks)) {
        std::fprintf(stderr, "error: cannot write %s\n", trace_path.c_str());
        return 1;
      }
      if (!trace_jsonl_path.empty() &&
          !obs::write_jsonl(trace_jsonl_path, sinks)) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     trace_jsonl_path.c_str());
        return 1;
      }
      if (!metrics_path.empty()) {
        obs::Manifest manifest;
        manifest.tool = "mstc_dtn";
        manifest.seed = cfg.seed;
        manifest.configurations = 1;
        manifest.repeats = 1;
        manifest.config = {
            {"mobility", cfg.mobility_model},
            {"speed", format_double(cfg.average_speed)},
            {"nodes", std::to_string(cfg.node_count)},
            {"range", format_double(cfg.range)},
            {"relay_hops", std::to_string(cfg.max_relay_hops)},
            {"buffer_limit", std::to_string(cfg.buffer_limit)},
            {"messages", std::to_string(cfg.message_count)},
            {"duration", format_double(cfg.duration)},
        };
        manifest.counters = &observation.counters;
        manifest.profiler = &observation.profiler;
        manifest.peak_rss_bytes = util::peak_rss_bytes();
        obs::LedgerSummary ledger_summary;
        ledger_summary.add(observation);
        manifest.ledger = &ledger_summary;
        if (!obs::write_manifest(metrics_path, manifest)) {
          std::fprintf(stderr, "error: cannot write %s\n",
                       metrics_path.c_str());
          return 1;
        }
      }
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return 0;
}
