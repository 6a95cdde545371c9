// Snapshot fast-path benchmark: grid-backed measurement vs the brute-force
// pair scan, plus the trace cache's sweep-setup amortization.
//
// Part A sweeps n x snapshot_rate and times the kSnapshot profiler
// category under both measurement paths (MSTC_SNAPSHOT_BRUTE semantics via
// snapshot_brute_force). Each row byte-compares the two runs' RunStats
// (results_identical) — the fast path's contract is *identity*, not
// approximation — and reports snapshot_links_examined for both, the exact
// pair-check count the grid prunes.
//
// Part B runs one 8-point single-seed sweep (protocols varying, mobility
// inputs fixed — the shape of every paper figure) twice: traces regenerated
// per replication vs shared through mobility::TraceCache. It reports the
// summed kSetup / kTraceGen wall time of both, their ratio
// (setup_amortization), the hit/miss counters, and a byte compare.
//
//   ./build/bench/bench_snapshot              # full run -> BENCH_snapshot.json
//   ./build/bench/bench_snapshot --out <path> # alternate output path
//   ./build/bench/bench_snapshot --smoke      # CI guard: tiny n, asserts
//                                             #   identity + grid pruning +
//                                             #   cache hits; no JSON
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "metrics/aggregate.hpp"
#include "mobility/trace_cache.hpp"
#include "obs/manifest.hpp"
#include "obs/probe.hpp"
#include "runner/config.hpp"
#include "runner/scenario.hpp"
#include "runner/sweep.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace {

using mstc::metrics::RunStats;
using mstc::runner::ScenarioConfig;

constexpr double kRange = 250.0;        // the paper's normal range (m)
constexpr double kDensitySide = 900.0;  // 100 nodes per kDensitySide^2
constexpr double kDensityNodes = 100.0;
constexpr std::uint64_t kSeed = 20040426;

std::vector<std::uint64_t> bit_snapshot(const RunStats& stats) {
  return {std::bit_cast<std::uint64_t>(stats.delivery_ratio),
          std::bit_cast<std::uint64_t>(stats.strict_connectivity),
          std::bit_cast<std::uint64_t>(stats.mean_range),
          std::bit_cast<std::uint64_t>(stats.mean_logical_degree),
          std::bit_cast<std::uint64_t>(stats.mean_physical_degree),
          std::bit_cast<std::uint64_t>(stats.control_tx_rate),
          std::bit_cast<std::uint64_t>(stats.mac_collision_fraction)};
}

// ---------------------------------------------------------------------------
// Part A: snapshot-phase wall time, brute pair scan vs grid.

struct RowSpec {
  const char* label;
  std::size_t nodes;
  double snapshot_rate;
};

constexpr RowSpec kRows[] = {
    {"n500_rate4", 500, 4.0},    {"n1000_rate1", 1000, 1.0},
    {"n1000_rate4", 1000, 4.0},  {"n1000_rate8", 1000, 8.0},
    {"n2500_rate4", 2500, 4.0},
};

ScenarioConfig make_snapshot_config(std::size_t nodes, double snapshot_rate,
                                    std::uint64_t seed_stream) {
  ScenarioConfig cfg;
  cfg.node_count = nodes;
  // Fixed density (the bench_kernel/bench_scale convention): area grows
  // with n so the neighborhood stays the paper's ~24 neighbors.
  const double side =
      kDensitySide * std::sqrt(static_cast<double>(nodes) / kDensityNodes);
  cfg.area = {side, side};
  cfg.normal_range = kRange;
  cfg.protocol = "RNG";
  // Measurement-heavy, event-loop-light: no floods, slow Hellos — the
  // kSnapshot category is what this bench times, the rest is carrier.
  cfg.flood_rate = 0.0;
  cfg.hello_interval = 2.0;
  cfg.snapshot_rate = snapshot_rate;
  cfg.duration = 3.0;
  cfg.warmup = 0.5;
  cfg.seed = mstc::util::derive_seed(kSeed, seed_stream);
  return cfg;
}

struct ModeResult {
  double snapshot_wall_s = 0.0;
  std::uint64_t snapshots = 0;
  std::uint64_t links_examined = 0;
  std::vector<std::uint64_t> bits;
};

ModeResult run_snapshot_mode(ScenarioConfig cfg, bool brute) {
  cfg.snapshot_brute_force = brute;
  mstc::obs::RunObservation observation;
  observation.profile_on = true;
  const RunStats stats = mstc::runner::run_scenario(cfg, &observation);
  ModeResult mode;
  mode.snapshot_wall_s =
      static_cast<double>(
          observation.profiler.nanos(mstc::obs::Category::kSnapshot)) *
      1e-9;
  mode.snapshots =
      observation.counters.total(mstc::obs::Counter::kSnapshots);
  mode.links_examined = observation.counters.total(
      mstc::obs::Counter::kSnapshotLinksExamined);
  mode.bits = bit_snapshot(stats);
  return mode;
}

struct RowResult {
  RowSpec spec;
  ModeResult brute;
  ModeResult grid;
  double speedup = 0.0;
  bool results_identical = false;
};

RowResult run_row(const RowSpec& spec, std::uint64_t seed_stream) {
  const ScenarioConfig cfg =
      make_snapshot_config(spec.nodes, spec.snapshot_rate, seed_stream);
  RowResult row;
  row.spec = spec;
  row.brute = run_snapshot_mode(cfg, /*brute=*/true);
  row.grid = run_snapshot_mode(cfg, /*brute=*/false);
  row.speedup = row.grid.snapshot_wall_s > 0.0
                    ? row.brute.snapshot_wall_s / row.grid.snapshot_wall_s
                    : 0.0;
  row.results_identical = row.brute.bits == row.grid.bits;
  return row;
}

void print_row(const RowResult& r) {
  std::printf(
      "%-14s brute %8.2f ms (%9" PRIu64 " checks)  grid %8.2f ms (%9" PRIu64
      " checks)  %5.2fx  %s\n",
      r.spec.label, r.brute.snapshot_wall_s * 1e3, r.brute.links_examined,
      r.grid.snapshot_wall_s * 1e3, r.grid.links_examined, r.speedup,
      r.results_identical ? "identical" : "DIVERGED");
}

// ---------------------------------------------------------------------------
// Part B: sweep-setup amortization through the trace cache.

/// The shape of a paper figure: one protocol axis, everything the trace
/// key reads held fixed. 8 points, single seed, repeats = 1.
std::vector<ScenarioConfig> amortization_sweep() {
  // GaussMarkov emits one leg per second of trace, so trace generation
  // dominates setup — the regime the cache targets (waypoint fleets have
  // ~duration/pause legs and amortize less).
  ScenarioConfig base;
  base.node_count = 400;
  base.area = {1800.0, 1800.0};
  base.normal_range = kRange;
  base.mobility_model = "gauss";
  base.average_speed = 10.0;
  base.duration = 60.0;
  base.warmup = 2.0;
  // Keep the event loop thin: setup is the measurement here.
  base.hello_interval = 5.0;
  base.flood_rate = 0.0;
  base.snapshot_rate = 0.1;
  base.seed = mstc::util::derive_seed(kSeed, 0xB);
  std::vector<ScenarioConfig> sweep;
  for (const char* protocol : {"RNG", "MST", "SPT-2", "Gabriel", "Yao",
                               "KNeigh", "CBTC", "None"}) {
    sweep.push_back(base);
    sweep.back().protocol = protocol;
  }
  return sweep;
}

struct SweepResult {
  double setup_wall_s = 0.0;
  double trace_gen_wall_s = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::vector<std::uint64_t> bits;
};

SweepResult run_sweep(std::vector<ScenarioConfig> configs, bool cache_on,
                      mstc::util::ThreadPool& pool) {
  for (auto& cfg : configs) cfg.trace_cache = cache_on;
  // Fresh cache per measurement: hits/misses and generation time must
  // reflect this sweep alone, not a previous part's leftovers.
  mstc::mobility::TraceCache::global().clear();
  std::vector<mstc::obs::RunObservation> observations;
  mstc::runner::SweepHooks hooks;
  hooks.observations = &observations;
  hooks.profile = true;
  const std::vector<RunStats> stats =
      mstc::runner::run_batch_raw(configs, 1, pool, hooks);
  SweepResult result;
  for (const auto& observation : observations) {
    result.setup_wall_s +=
        static_cast<double>(
            observation.profiler.nanos(mstc::obs::Category::kSetup)) *
        1e-9;
    result.trace_gen_wall_s +=
        static_cast<double>(
            observation.profiler.nanos(mstc::obs::Category::kTraceGen)) *
        1e-9;
    result.cache_hits +=
        observation.counters.total(mstc::obs::Counter::kTraceCacheHits);
    result.cache_misses +=
        observation.counters.total(mstc::obs::Counter::kTraceCacheMisses);
  }
  for (const auto& run : stats) {
    const auto bits = bit_snapshot(run);
    result.bits.insert(result.bits.end(), bits.begin(), bits.end());
  }
  return result;
}

struct AmortizationResult {
  std::size_t points = 0;
  SweepResult regenerate;  // trace_cache = false: per-replication traces
  SweepResult shared;      // trace_cache = true: one set, shared
  double amortization = 0.0;
  bool results_identical = false;
};

AmortizationResult run_amortization(std::vector<ScenarioConfig> sweep) {
  // Serial pool: setup phases must not overlap, or summed wall time would
  // mix contention into the comparison.
  mstc::util::ThreadPool pool(1);
  AmortizationResult result;
  result.points = sweep.size();
  result.regenerate = run_sweep(sweep, /*cache_on=*/false, pool);
  result.shared = run_sweep(sweep, /*cache_on=*/true, pool);
  result.amortization = result.shared.setup_wall_s > 0.0
                            ? result.regenerate.setup_wall_s /
                                  result.shared.setup_wall_s
                            : 0.0;
  result.results_identical = result.regenerate.bits == result.shared.bits;
  return result;
}

void print_amortization(const AmortizationResult& r) {
  std::printf(
      "\n%zu-point sweep setup: regenerate %7.2f ms (trace gen %7.2f ms)  "
      "shared %7.2f ms (trace gen %7.2f ms, %" PRIu64 " hits)  %5.2fx  %s\n",
      r.points, r.regenerate.setup_wall_s * 1e3,
      r.regenerate.trace_gen_wall_s * 1e3, r.shared.setup_wall_s * 1e3,
      r.shared.trace_gen_wall_s * 1e3, r.shared.cache_hits, r.amortization,
      r.results_identical ? "identical" : "DIVERGED");
}

// ---------------------------------------------------------------------------

void append_mode_json(std::string& json, const char* name,
                      const ModeResult& mode) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "      \"%s\": {\"snapshot_wall_s\": %.6f, \"snapshots\": "
                "%" PRIu64 ", \"links_examined\": %" PRIu64 "}",
                name, mode.snapshot_wall_s, mode.snapshots,
                mode.links_examined);
  json += buffer;
}

bool write_json(const std::string& path, const std::vector<RowResult>& rows,
                const AmortizationResult& amortization) {
  std::string json = "{\n";
  json += "  \"bench\": \"bench_snapshot\",\n";
  json += "  \"version\": \"" +
          mstc::obs::json_escape(mstc::obs::build_version()) + "\",\n";
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "  \"config\": {\"range_m\": %.1f, \"density\": \"%.0f nodes per "
      "%.0fx%.0f m^2\", \"protocol\": \"RNG\", \"duration_s\": 3.0, "
      "\"seed\": %" PRIu64 "},\n",
      kRange, kDensityNodes, kDensitySide, kDensitySide, kSeed);
  json += buffer;
  json += "  \"snapshot_rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RowResult& r = rows[i];
    std::snprintf(buffer, sizeof(buffer),
                  "    {\"label\": \"%s\", \"nodes\": %zu, "
                  "\"snapshot_rate\": %.1f,\n",
                  r.spec.label, r.spec.nodes, r.spec.snapshot_rate);
    json += buffer;
    append_mode_json(json, "brute", r.brute);
    json += ",\n";
    append_mode_json(json, "grid", r.grid);
    json += ",\n";
    std::snprintf(buffer, sizeof(buffer),
                  "      \"speedup\": %.2f, \"results_identical\": %s}",
                  r.speedup, r.results_identical ? "true" : "false");
    json += buffer;
    json += i + 1 < rows.size() ? ",\n" : "\n";
  }
  json += "  ],\n";
  const AmortizationResult& a = amortization;
  std::snprintf(
      buffer, sizeof(buffer),
      "  \"trace_cache_sweep\": {\"points\": %zu, \"nodes\": 400, "
      "\"mobility\": \"gauss\", \"trace_duration_s\": 60.0,\n"
      "    \"regenerate\": {\"setup_wall_s\": %.6f, \"trace_gen_wall_s\": "
      "%.6f, \"cache_misses\": %" PRIu64 "},\n",
      a.points, a.regenerate.setup_wall_s, a.regenerate.trace_gen_wall_s,
      a.regenerate.cache_misses);
  json += buffer;
  std::snprintf(
      buffer, sizeof(buffer),
      "    \"shared\": {\"setup_wall_s\": %.6f, \"trace_gen_wall_s\": %.6f, "
      "\"cache_hits\": %" PRIu64 ", \"cache_misses\": %" PRIu64 "},\n"
      "    \"setup_amortization\": %.2f, \"results_identical\": %s}\n",
      a.shared.setup_wall_s, a.shared.trace_gen_wall_s, a.shared.cache_hits,
      a.shared.cache_misses, a.amortization,
      a.results_identical ? "true" : "false");
  json += buffer;
  json += "}\n";

  std::ofstream file(path);
  if (!file) return false;
  file << json;
  return static_cast<bool>(file);
}

int run_smoke() {
  std::printf("bench_snapshot --smoke: identity guards at tiny n\n");
  int failures = 0;

  // Snapshot path: the default config takes the grid at this small n, so
  // the guard compares genuinely different code.
  const RowSpec spec{"smoke_n160_rate4", 160, 4.0};
  const RowResult row = run_row(spec, 1);
  print_row(row);
  if (!row.results_identical) {
    std::fprintf(stderr, "FAIL %s: grid diverged from brute force\n",
                 spec.label);
    ++failures;
  }
  if (row.grid.links_examined == 0 ||
      row.grid.links_examined > row.brute.links_examined) {
    std::fprintf(stderr,
                 "FAIL %s: grid examined %" PRIu64 " links vs brute %" PRIu64
                 " — the index is not pruning\n",
                 spec.label, row.grid.links_examined,
                 row.brute.links_examined);
    ++failures;
  }

  // Trace cache: a 3-point mini sweep must share one generation and stay
  // byte-identical to regeneration.
  auto sweep = amortization_sweep();
  sweep.resize(3);
  for (auto& cfg : sweep) {
    cfg.node_count = 100;
    cfg.duration = 8.0;
  }
  const AmortizationResult amortization = run_amortization(sweep);
  print_amortization(amortization);
  if (!amortization.results_identical) {
    std::fprintf(stderr, "FAIL trace cache: shared sweep diverged\n");
    ++failures;
  }
  if (amortization.shared.cache_hits != sweep.size() - 1 ||
      amortization.shared.cache_misses != 1) {
    std::fprintf(stderr,
                 "FAIL trace cache: expected %zu hits / 1 miss, got "
                 "%" PRIu64 " / %" PRIu64 "\n",
                 sweep.size() - 1, amortization.shared.cache_hits,
                 amortization.shared.cache_misses);
    ++failures;
  }
  if (amortization.regenerate.cache_hits != 0) {
    std::fprintf(stderr, "FAIL trace cache: escape hatch still hit\n");
    ++failures;
  }

  std::printf(failures == 0 ? "smoke OK\n" : "smoke FAILED\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_snapshot.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_snapshot [--smoke] [--out <path>]\n");
      return 2;
    }
  }
  if (smoke) return run_smoke();

  std::printf("=== snapshot measurement: brute pair scan vs grid ===\n");
  std::printf("RNG, fixed density, measurement-heavy scenarios\n\n");
  std::vector<RowResult> rows;
  std::uint64_t stream = 1;
  for (const RowSpec& spec : kRows) {
    rows.push_back(run_row(spec, stream++));
    print_row(rows.back());
  }

  std::printf("\n=== trace cache: sweep-setup amortization ===\n");
  const AmortizationResult amortization =
      run_amortization(amortization_sweep());
  print_amortization(amortization);

  if (!write_json(out_path, rows, amortization)) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
