// mstc_sim — command-line front end for the full simulation stack.
//
// Runs a repeated mobility-sensitive topology-control scenario and prints
// the aggregated metrics, so users can explore the parameter space without
// writing C++.
//
//   mstc_sim --protocol RNG --speed 40 --mode viewsync --buffer 10
//            --repeats 5 --duration 30 --nodes 100
//   mstc_sim --trace run.trace.json --metrics-out manifest.json --progress
//   mstc_sim --help
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/manifest.hpp"
#include "obs/probe.hpp"
#include "runner/scenario.hpp"
#include "runner/sweep.hpp"
#include "topology/protocol.hpp"
#include "util/args.hpp"
#include "util/options.hpp"
#include "util/rusage.hpp"
#include "util/thread_pool.hpp"

namespace {

constexpr const char* kHelpHead =
    R"(mstc_sim — mobility-sensitive topology control simulator

options (defaults in brackets):
)";

// Follows the --protocol lines, which protocol_help() builds.
constexpr const char* kHelpTail =
    R"(  --mode NAME         latest | viewsync | proactive | reactive | weak [latest]
  --speed V           average node speed, m/s                       [10]
  --mobility NAME     waypoint | static | walk | gauss              [waypoint]
  --buffer L          buffer-zone width, m                          [0]
  --adaptive-buffer   use Theorem 5's l = 2*Delta''*v instead
  --pn                accept packets from non-logical (physical) neighbors
  --history K         stored Hellos per neighbor (0 = mode default) [0]
  --nodes N           node count                                    [100]
  --range R           normal transmission range, m                  [250]
  --duration T        simulated seconds                             [30]
  --hello-interval D  mean Hello period, s                          [1]
  --hello-loss P      per-reception Hello loss probability          [0]
  --repeats R         replications (95% CI over runs)               [5]
  --seed S            base RNG seed                                 [1]

observability (all off by default; see docs/OBSERVABILITY.md):
  --trace FILE        write a Chrome trace_event JSON (Perfetto /
                      chrome://tracing; pid = replication, tid = node)
  --trace-jsonl FILE  write the event trace as JSON Lines
  --metrics-out FILE  write a run manifest (config, seed, build version,
                      counter totals, histograms, ledger, wall profile)
  --metrics-stream FILE  stream aggregated counters + ledger statistics as
                      JSON Lines while the sweep runs
                      (env: MSTC_METRICS_STREAM)
  --metrics-prom FILE Prometheus text-exposition snapshot, rewritten as
                      replications complete (env: MSTC_METRICS_PROM)
  --flight N          keep a ring of each replication's last N trace
                      events for post-mortems (0 = off)            [0]
  --postmortem FILE   dump straggler / crash diagnoses (identity, ledger,
                      counters, flight ring) to a JSONL file
  --soft-deadline S   flag replications slower than S wall seconds into
                      the post-mortem file (needs --postmortem)    [0]
  --progress          report sweep progress + ETA on stderr
)";

/// The --protocol lines, wrapped under the option column. The names come
/// from topology::protocol_names(), so the help cannot drift from what
/// make_protocol accepts.
std::string protocol_help() {
  const std::string indent(22, ' ');
  std::string text = "  --protocol NAME     ";
  std::size_t column = text.size();
  const std::vector<std::string> names = mstc::topology::protocol_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::string item = i + 1 < names.size() ? names[i] + " |" : names[i];
    if (column + 1 + item.size() > 74) {
      text += "\n" + indent;
      column = indent.size();
    } else if (i > 0) {
      text += ' ';
      ++column;
    }
    text += item;
    column += item.size();
  }
  return text + "   [RNG]\n";
}

void print_progress(const mstc::runner::SweepProgress& progress) {
  if (progress.eta_known) {
    std::fprintf(stderr, "\r[%zu/%zu] %.1fs elapsed, eta %.1fs   ",
                 progress.completed, progress.total, progress.elapsed_seconds,
                 progress.eta_seconds);
  } else {
    std::fprintf(stderr, "\r[%zu/%zu] %.1fs elapsed, eta unknown   ",
                 progress.completed, progress.total, progress.elapsed_seconds);
  }
  if (progress.completed == progress.total) std::fputc('\n', stderr);
  std::fflush(stderr);
}

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
    std::fputs(kHelpHead, stdout);
    std::fputs(protocol_help().c_str(), stdout);
    std::fputs(kHelpTail, stdout);
    return 0;
  }

  try {
    runner::ScenarioConfig cfg = runner::apply_env_overrides({});
    cfg.protocol = args.get("protocol", std::string("RNG"));
    cfg.average_speed = args.get("speed", 10.0);
    cfg.mobility_model = args.get("mobility", std::string("waypoint"));
    cfg.buffer_width = args.get("buffer", 0.0);
    cfg.adaptive_buffer = args.get_flag("adaptive-buffer");
    cfg.physical_neighbors = args.get_flag("pn");
    cfg.history_limit = args.get_count("history", 0);
    cfg.node_count = args.get_count("nodes", cfg.node_count);
    cfg.normal_range = args.get("range", cfg.normal_range);
    cfg.duration = args.get("duration", cfg.duration);
    cfg.hello_interval = args.get("hello-interval", cfg.hello_interval);
    cfg.hello_loss = args.get("hello-loss", 0.0);
    cfg.seed = static_cast<std::uint64_t>(args.get("seed", 1L));
    const std::size_t repeats = args.get_count("repeats", 5);
    // No replication means no sample: the summaries would print 0 ± inf.
    if (repeats == 0) {
      throw std::invalid_argument(
          "--repeats: expected a positive integer, got '0'");
    }

    const std::string trace_path = args.get("trace", std::string());
    const std::string trace_jsonl_path = args.get("trace-jsonl", std::string());
    const std::string metrics_path = args.get("metrics-out", std::string());
    const std::string stream_path = args.get(
        "metrics-stream", util::env_or("MSTC_METRICS_STREAM", std::string()));
    const std::string prom_path = args.get(
        "metrics-prom", util::env_or("MSTC_METRICS_PROM", std::string()));
    const std::size_t flight_capacity = args.get_count("flight", 0);
    const std::string postmortem_path = args.get("postmortem", std::string());
    const double soft_deadline = args.get("soft-deadline", 0.0);
    const bool progress = args.get_flag("progress");

    std::string mode_name = args.get("mode", std::string("latest"));
    try {
      cfg.mode = core::consistency_mode_from(mode_name);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "error: %s\n", error.what());
      return 2;
    }
    for (const auto& name : args.unknown()) {
      std::fprintf(stderr, "error: unknown option --%s (try --help)\n",
                   name.c_str());
      return 2;
    }

    // Before the header line: its buffer label casts the width to int,
    // which an infinite or NaN width would overflow.
    runner::validate(cfg);
    const std::string buffer_label =
        cfg.adaptive_buffer
            ? "adaptive"
            : std::to_string(static_cast<int>(cfg.buffer_width)) + " m";
    std::printf(
        "%s | mode=%s speed=%.0f m/s buffer=%s pn=%s | %zu nodes, %.0f s x "
        "%zu repeats\n",
        cfg.protocol.c_str(), mode_name.c_str(), cfg.average_speed,
        buffer_label.c_str(), cfg.physical_neighbors ? "yes" : "no",
        cfg.node_count, cfg.duration, repeats);

    if (soft_deadline > 0.0 && postmortem_path.empty()) {
      std::fprintf(stderr, "error: --soft-deadline needs --postmortem FILE\n");
      return 2;
    }

    const bool want_trace = !trace_path.empty() || !trace_jsonl_path.empty();
    const bool streaming = !stream_path.empty() || !prom_path.empty();
    const bool observing = want_trace || !metrics_path.empty() || progress ||
                           streaming || flight_capacity > 0 ||
                           !postmortem_path.empty();

    util::ThreadPool& pool = util::global_pool();
    std::vector<obs::RunObservation> observations;
    obs::MetricsExporter exporter;
    obs::PostMortemWriter postmortem;
    runner::SweepHooks hooks;
    if (observing) {
      hooks.observations = &observations;
      hooks.trace = want_trace;
      hooks.profile = !metrics_path.empty();
      hooks.ledger = !metrics_path.empty() || streaming;
      hooks.flight_capacity = flight_capacity;
      if (progress) hooks.on_progress = print_progress;
      if (streaming) {
        obs::MetricsExporter::Options options;
        options.jsonl_path = stream_path;
        options.prom_path = prom_path;
        options.job = "mstc_sim";
        if (!exporter.open(options)) {
          std::fprintf(stderr, "error: cannot open metrics stream (%s)\n",
                       (stream_path.empty() ? prom_path : stream_path).c_str());
          return 1;
        }
        hooks.exporter = &exporter;
      }
      if (!postmortem_path.empty()) {
        if (!postmortem.open(postmortem_path)) {
          std::fprintf(stderr, "error: cannot write %s\n",
                       postmortem_path.c_str());
          return 1;
        }
        hooks.postmortem = &postmortem;
        hooks.soft_deadline_seconds = soft_deadline;
      }
    }

    const std::uint64_t sweep_start = obs::wall_now_ns();
    const std::vector<metrics::RunStats> raw =
        runner::run_batch_raw({cfg}, repeats, pool, hooks);
    const double sweep_wall_seconds =
        static_cast<double>(obs::wall_now_ns() - sweep_start) * 1e-9;
    metrics::RunAggregator agg;
    for (const metrics::RunStats& stats : raw) agg.add(stats);

    const auto delivery = agg.delivery().ci95();
    std::printf(
        "connectivity (flood delivery)  %.3f ±%.3f\n"
        "strict snapshot connectivity   %.3f ±%.3f\n"
        "avg transmission range         %.1f m\n"
        "avg logical degree             %.2f\n"
        "avg physical degree            %.2f\n",
        delivery.mean, delivery.half_width, agg.strict().ci95().mean,
        agg.strict().ci95().half_width, agg.range().mean(),
        agg.logical_degree().mean(), agg.physical_degree().mean());

    if (observing) {
      exporter.close();
      obs::CounterRegistry counters;
      obs::Profiler profiler;
      obs::LedgerSummary ledger_summary;
      std::vector<const obs::MemoryTraceSink*> sinks;
      sinks.reserve(observations.size());
      for (const obs::RunObservation& observation : observations) {
        counters.merge(observation.counters);
        profiler.merge(observation.profiler);
        ledger_summary.add(observation);
        sinks.push_back(&observation.trace);
      }
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
        manifest.tool = "mstc_sim";
        manifest.seed = cfg.seed;
        manifest.configurations = 1;
        manifest.repeats = repeats;
        manifest.config = {
            {"protocol", cfg.protocol},
            {"mode", mode_name},
            {"mobility", cfg.mobility_model},
            {"speed", format_double(cfg.average_speed)},
            {"nodes", std::to_string(cfg.node_count)},
            {"range", format_double(cfg.normal_range)},
            {"duration", format_double(cfg.duration)},
            {"hello_interval", format_double(cfg.hello_interval)},
            {"hello_loss", format_double(cfg.hello_loss)},
            {"buffer_width", format_double(cfg.buffer_width)},
            {"adaptive_buffer", cfg.adaptive_buffer ? "true" : "false"},
            {"physical_neighbors",
             cfg.physical_neighbors ? "true" : "false"},
        };
        manifest.counters = &counters;
        manifest.profiler = &profiler;
        manifest.sweep_wall_seconds = sweep_wall_seconds;
        manifest.pool_threads = pool.thread_count();
        manifest.peak_rss_bytes = util::peak_rss_bytes();
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
