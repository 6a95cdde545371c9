// Event-kernel benchmark: the calendar queue against the heap reference.
//
// Each row runs one replication of the full scenario pipeline twice at
// fixed density across n —
//
//   serial_heap   binary-heap queue (the reference)
//   serial        calendar queue (the scenario default)
//
// — and asserts both arms' RunStats are byte-identical (the pluggable
// queue's core contract; the determinism suite pins it too). Reported per
// arm:
//
//   events_per_s   simulator events per wall second (obs::Profiler's
//                  event-loop measurement, setup excluded)
//   wall_s         event-loop wall seconds
//   queue          the backend the arm ran on
//
// and per row the calendar/heap queue_speedup. Both arms run on the
// calling thread, so the ratio cancels the machine; `cores` is recorded
// alongside so baselines say where they came from. tools/bench_check.py
// gates bit-identity, exact event counts, queue_speedup and the serial
// arm's events/s-vs-n scaling slope. Writes BENCH_parallel.json:
//
//   ./build/bench/bench_parallel                # full sweep -> BENCH_parallel.json
//   ./build/bench/bench_parallel --out <path>   # alternate output path
//   ./build/bench/bench_parallel --smoke        # CI guard: tiny n, asserts
//                                               #   byte-identity and equal
//                                               #   event counts across both
//                                               #   arms; no JSON
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/manifest.hpp"
#include "obs/probe.hpp"
#include "runner/config.hpp"
#include "runner/scenario.hpp"
#include "util/prng.hpp"

namespace {

using mstc::metrics::RunStats;
using mstc::runner::ScenarioConfig;

constexpr double kRange = 250.0;        // the paper's normal range (m)
constexpr double kDensitySide = 900.0;  // 100 nodes per kDensitySide^2
constexpr double kDensityNodes = 100.0;
constexpr double kDuration = 4.0;  // simulated seconds per arm
constexpr double kWarmup = 1.0;
constexpr std::uint64_t kSeed = 20040815;

struct RowSpec {
  const char* label;
  std::size_t nodes;
};

constexpr RowSpec kRows[] = {
    {"n2500_waypoint", 2500},
    {"n10000_waypoint", 10000},
    {"n50000_waypoint", 50000},
    {"n100000_waypoint", 100000},
};

constexpr RowSpec kSmokeRows[] = {
    {"smoke_n192_waypoint", 192},
    {"smoke_n384_waypoint", 384},
};

ScenarioConfig make_config(const RowSpec& row, std::uint64_t seed_stream) {
  ScenarioConfig cfg;
  cfg.node_count = row.nodes;
  // Fixed density: area grows with n so the neighborhood stays the
  // paper's (~24 neighbors), same convention as bench_scale/bench_kernel.
  const double side = kDensitySide *
                      std::sqrt(static_cast<double>(row.nodes) / kDensityNodes);
  cfg.area = {side, side};
  cfg.normal_range = kRange;
  cfg.mobility_model = "waypoint";
  cfg.protocol = "RNG";
  cfg.mode = mstc::core::ConsistencyMode::kViewSync;
  cfg.hello_interval = 1.0;
  cfg.duration = kDuration;
  cfg.warmup = kWarmup;
  // Keep floods and snapshots rare so the measurement reflects the
  // beacon steady state the queue serves.
  cfg.flood_rate = 0.5;
  cfg.snapshot_rate = 0.25;
  cfg.flood_settle = 0.5;
  cfg.seed = mstc::util::derive_seed(kSeed, seed_stream);
  return cfg;
}

std::vector<std::uint64_t> bit_snapshot(const RunStats& stats) {
  return {std::bit_cast<std::uint64_t>(stats.delivery_ratio),
          std::bit_cast<std::uint64_t>(stats.strict_connectivity),
          std::bit_cast<std::uint64_t>(stats.mean_range),
          std::bit_cast<std::uint64_t>(stats.mean_logical_degree),
          std::bit_cast<std::uint64_t>(stats.mean_physical_degree),
          std::bit_cast<std::uint64_t>(stats.control_tx_rate),
          std::bit_cast<std::uint64_t>(stats.mac_collision_fraction)};
}

struct ArmResult {
  double events_per_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t queue_resizes = 0;
  const char* queue = "heap";
  std::vector<std::uint64_t> bits;
};

ArmResult run_arm(ScenarioConfig cfg, const char* queue) {
  cfg.queue = queue;
  mstc::obs::RunObservation observation;
  observation.profile_on = true;
  const RunStats stats = mstc::runner::run_scenario(cfg, &observation);
  ArmResult arm;
  arm.queue = queue;
  arm.events = observation.profiler.events();
  arm.wall_s =
      static_cast<double>(observation.profiler.run_wall_ns()) * 1e-9;
  arm.events_per_s =
      arm.wall_s > 0.0 ? static_cast<double>(arm.events) / arm.wall_s : 0.0;
  arm.queue_resizes =
      observation.counters.total(mstc::obs::Counter::kKernelQueueResizes);
  arm.bits = bit_snapshot(stats);
  return arm;
}

struct RowResult {
  RowSpec spec;
  ArmResult serial_heap;
  ArmResult serial;
  double queue_speedup = 0.0;  // calendar over heap
  bool results_identical = false;
};

RowResult run_row(const RowSpec& row, std::uint64_t seed_stream) {
  RowResult result;
  result.spec = row;
  result.serial_heap = run_arm(make_config(row, seed_stream), "heap");
  result.serial = run_arm(make_config(row, seed_stream), "calendar");
  result.queue_speedup = result.serial.wall_s > 0.0
                             ? result.serial_heap.wall_s / result.serial.wall_s
                             : 0.0;
  // Byte-identity is on RunStats; event counts must match exactly too
  // (the queue backend cannot change what gets scheduled), which
  // tools/bench_check.py checks from the JSON.
  result.results_identical = result.serial.bits == result.serial_heap.bits;
  return result;
}

void print_row(const RowResult& r) {
  std::printf("%-22s heap %11.0f ev/s  calendar %11.0f ev/s (%.2fx)  %s\n",
              r.spec.label, r.serial_heap.events_per_s, r.serial.events_per_s,
              r.queue_speedup, r.results_identical ? "identical" : "DIVERGED");
}

void append_arm_json(std::string& json, const char* name,
                     const ArmResult& arm) {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "      \"%s\": {\"events_per_s\": %.1f, \"wall_s\": %.6f, "
                "\"events\": %" PRIu64 ", \"queue\": \"%s\", "
                "\"queue_resizes\": %" PRIu64 "}",
                name, arm.events_per_s, arm.wall_s, arm.events, arm.queue,
                arm.queue_resizes);
  json += buffer;
}

bool write_json(const std::string& path,
                const std::vector<RowResult>& rows) {
  std::string json = "{\n";
  json += "  \"bench\": \"bench_parallel\",\n";
  json += "  \"version\": \"" +
          mstc::obs::json_escape(mstc::obs::build_version()) + "\",\n";
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "  \"config\": {\"range_m\": %.1f, \"density\": \"%.0f nodes per "
      "%.0fx%.0f m^2\", \"protocol\": \"RNG\", \"mode\": \"ViewSync\", "
      "\"duration_s\": %.1f, \"warmup_s\": %.1f, \"flood_rate\": 0.5, "
      "\"snapshot_rate\": 0.25, \"cores\": %u, \"threads\": 1, "
      "\"seed\": %" PRIu64 "},\n",
      kRange, kDensityNodes, kDensitySide, kDensitySide, kDuration, kWarmup,
      std::thread::hardware_concurrency(), kSeed);
  json += buffer;
  json += "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RowResult& r = rows[i];
    std::snprintf(buffer, sizeof(buffer),
                  "    {\"label\": \"%s\", \"nodes\": %zu,\n", r.spec.label,
                  r.spec.nodes);
    json += buffer;
    append_arm_json(json, "serial_heap", r.serial_heap);
    json += ",\n";
    append_arm_json(json, "serial", r.serial);
    json += ",\n";
    std::snprintf(buffer, sizeof(buffer),
                  "      \"queue_speedup\": %.2f, \"results_identical\": %s}",
                  r.queue_speedup, r.results_identical ? "true" : "false");
    json += buffer;
    json += i + 1 < rows.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  std::ofstream file(path);
  if (!file) return false;
  file << json;
  return static_cast<bool>(file);
}

// Baseline JSONs are only comparable when they come from a committed
// tree: a "-dirty" git describe means nobody can reproduce the build.
void warn_if_dirty_version() {
  const std::string version = mstc::obs::build_version();
  if (version.find("-dirty") != std::string::npos) {
    std::fprintf(stderr,
                 "WARNING: build version '%s' is -dirty; the written JSON "
                 "is not reproducible as a baseline. Commit first, then "
                 "regenerate.\n",
                 version.c_str());
  }
}

int run_smoke() {
  std::printf("bench_parallel --smoke: queue guard at tiny n\n");
  int failures = 0;
  std::uint64_t stream = 1;
  for (const RowSpec& spec : kSmokeRows) {
    const RowResult r = run_row(spec, stream++);
    print_row(r);
    if (!r.results_identical) {
      std::fprintf(stderr,
                   "FAIL %s: heap / calendar arms are not byte-identical\n",
                   spec.label);
      ++failures;
    }
    if (r.serial.events != r.serial_heap.events) {
      std::fprintf(stderr,
                   "FAIL %s: heap / calendar arms processed different event "
                   "counts\n",
                   spec.label);
      ++failures;
    }
  }
  std::printf(failures == 0 ? "smoke OK\n" : "smoke FAILED\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_parallel.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_parallel [--smoke] [--out <path>]\n");
      return 2;
    }
  }
  if (smoke) return run_smoke();

  std::printf("=== event kernel: heap vs calendar queue ===\n");
  std::printf("RNG + ViewSync, fixed density, %.0f s per arm (%u cores)\n\n",
              kDuration, std::thread::hardware_concurrency());
  std::vector<RowResult> rows;
  std::uint64_t stream = 1;
  for (const RowSpec& spec : kRows) {
    rows.push_back(run_row(spec, stream++));
    print_row(rows.back());
  }
  if (!write_json(out_path, rows)) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  warn_if_dirty_version();
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
