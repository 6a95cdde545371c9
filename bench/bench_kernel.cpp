// Event-kernel benchmark: end-to-end scenario throughput across n and
// Hello rate, with a debug allocation-counting hook.
//
// Each row runs the full scenario pipeline (mobility -> medium -> MAC ->
// controllers -> floods/snapshots) twice per cache mode — once at the base
// duration and once at double duration — so the *steady-state* allocation
// rate can be reported as the marginal (extra allocations) / (extra
// events), excluding one-time setup. An untimed warm-up run per row first
// grows the per-thread scratch. Reported per mode:
//
//   events_per_s     simulator events processed per wall second (the
//                    obs::Profiler's event-loop measurement, setup excluded)
//   allocs_per_event marginal operator-new calls per simulator event
//   skip_rate        topology_recompute_skips / (recomputes + skips)
//
// Rows compare the recompute cache ON vs OFF and assert byte-identical
// RunStats between the two (results_identical), mirroring the determinism
// suite's guarantee. A separate cache-on `scaling` block runs a 4 s
// replication per fleet size from n = 2500 to n = 100000 on the calling
// thread, repeating the rows that take under a second (the fastest run
// counts, and every repeat must process the same events);
// tools/bench_check.py gates its event counts exactly and holds the
// n = 100000 events/s at >= 0.40x the n = 2500 rate. Writes
// BENCH_kernel.json (see docs/PERFORMANCE.md):
//
//   ./build/bench/bench_kernel               # full sweep -> BENCH_kernel.json
//   ./build/bench/bench_kernel --out <path>  # alternate output path
//   ./build/bench/bench_kernel --ref <path>  # compare events_per_s against
//                                            #   a previous BENCH_kernel.json
//                                            #   (speedup_vs_pre_pr column)
//   ./build/bench/bench_kernel --smoke       # CI guard: tiny n, asserts
//                                            #   results_identical and the
//                                            #   waypoint allocs/event
//                                            #   ceiling; no JSON
#include <atomic>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <new>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "metrics/aggregate.hpp"
#include "obs/manifest.hpp"
#include "obs/probe.hpp"
#include "runner/config.hpp"
#include "runner/scenario.hpp"
#include "util/prng.hpp"

// ---------------------------------------------------------------------------
// Debug allocation-counting hook: replaces the global (unaligned) operator
// new/delete for this binary only. Counts every heap allocation made
// anywhere in the process — the point is to prove the simulation's steady
// state makes none.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

// ---------------------------------------------------------------------------

namespace {

using mstc::metrics::RunStats;
using mstc::runner::ScenarioConfig;

constexpr double kRange = 250.0;        // the paper's normal range (m)
constexpr double kDensitySide = 900.0;  // 100 nodes per kDensitySide^2
constexpr double kDensityNodes = 100.0;
constexpr double kDuration = 6.0;  // base simulated seconds per run
constexpr double kWarmup = 1.0;
constexpr std::uint64_t kSeed = 20040426;

struct RowSpec {
  const char* label;
  std::size_t nodes;
  double hello_interval;
  const char* mobility;
};

constexpr RowSpec kRows[] = {
    {"n500_waypoint_hello1.0", 500, 1.0, "waypoint"},
    {"n1000_waypoint_hello1.0", 1000, 1.0, "waypoint"},
    {"n2500_waypoint_hello1.0", 2500, 1.0, "waypoint"},
    {"n1000_waypoint_hello0.5", 1000, 0.5, "waypoint"},
    {"n1000_waypoint_hello2.0", 1000, 2.0, "waypoint"},
    {"n2500_static_hello1.0", 2500, 1.0, "static"},
};

constexpr RowSpec kSmokeRows[] = {
    {"smoke_n128_waypoint", 128, 1.0, "waypoint"},
    {"smoke_n128_static", 128, 1.0, "static"},
};

ScenarioConfig make_config(const RowSpec& row, std::uint64_t seed_stream) {
  ScenarioConfig cfg;
  cfg.node_count = row.nodes;
  // Fixed density: area grows with n so the neighborhood stays the
  // paper's (~24 neighbors), same convention as bench_scale.
  const double side = kDensitySide *
                      std::sqrt(static_cast<double>(row.nodes) / kDensityNodes);
  cfg.area = {side, side};
  cfg.normal_range = kRange;
  cfg.mobility_model = row.mobility;
  cfg.protocol = "RNG";
  // ViewSync refreshes the selection on every synchronization-flood
  // forward — the heaviest recompute pressure of the consistency modes.
  cfg.mode = mstc::core::ConsistencyMode::kViewSync;
  cfg.hello_interval = row.hello_interval;
  cfg.duration = kDuration;
  cfg.warmup = kWarmup;
  cfg.flood_rate = 2.0;
  // Snapshots are O(n^2) and measure the medium, not the kernel; keep
  // them rare so they do not dilute the event-loop measurement.
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

// Kernel cost categories surfaced as ns/event (docs/OBSERVABILITY.md).
// They nest (medium_query inside the issuing phase, protocol_select inside
// view_assembly), so the columns deliberately do not sum to 1e9/events_per_s.
constexpr mstc::obs::Category kCostCategories[] = {
    mstc::obs::Category::kMediumQuery,
    mstc::obs::Category::kViewAssembly,
    mstc::obs::Category::kProtocolSelect,
    mstc::obs::Category::kDelivery,
};
constexpr std::size_t kCostCategoryCount = std::size(kCostCategories);

struct ModeResult {
  double events_per_s = 0.0;
  double wall_s = 0.0;            // event-loop wall of the long run
  std::uint64_t events = 0;       // events processed by the long run
  std::uint64_t allocations = 0;  // total operator-new calls, long run
  double allocs_per_event = 0.0;  // marginal: (long - base) allocations
                                  //           / (long - base) events
  double skip_rate = 0.0;
  double ns_per_event[kCostCategoryCount] = {};  // long run, per category
  std::vector<std::uint64_t> base_bits;  // RunStats of the base run
  std::vector<std::uint64_t> long_bits;  // RunStats of the double run
};

struct OneRun {
  std::uint64_t events = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t allocations = 0;
  std::uint64_t recomputes = 0;
  std::uint64_t skips = 0;
  std::uint64_t category_ns[kCostCategoryCount] = {};
  std::vector<std::uint64_t> bits;
};

OneRun run_once(ScenarioConfig cfg, bool cache_on) {
  cfg.recompute_cache = cache_on;
  mstc::obs::RunObservation observation;
  observation.profile_on = true;
  const std::uint64_t allocs_before =
      g_allocations.load(std::memory_order_relaxed);
  const RunStats stats = mstc::runner::run_scenario(cfg, &observation);
  OneRun run;
  run.allocations =
      g_allocations.load(std::memory_order_relaxed) - allocs_before;
  run.events = observation.profiler.events();
  run.wall_ns = observation.profiler.run_wall_ns();
  run.recomputes = observation.counters.total(
      mstc::obs::Counter::kTopologyRecomputes);
  run.skips = observation.counters.total(
      mstc::obs::Counter::kTopologyRecomputeSkips);
  for (std::size_t c = 0; c < kCostCategoryCount; ++c) {
    run.category_ns[c] = observation.profiler.nanos(kCostCategories[c]);
  }
  run.bits = bit_snapshot(stats);
  return run;
}

ModeResult run_mode(const RowSpec& row, std::uint64_t seed_stream,
                    bool cache_on) {
  const ScenarioConfig base_cfg = make_config(row, seed_stream);
  ScenarioConfig long_cfg = base_cfg;
  long_cfg.duration = base_cfg.duration * 2.0;

  const OneRun base = run_once(base_cfg, cache_on);
  const OneRun longer = run_once(long_cfg, cache_on);

  ModeResult mode;
  mode.events = longer.events;
  mode.wall_s = static_cast<double>(longer.wall_ns) * 1e-9;
  mode.events_per_s =
      longer.wall_ns > 0
          ? static_cast<double>(longer.events) * 1e9 /
                static_cast<double>(longer.wall_ns)
          : 0.0;
  mode.allocations = longer.allocations;
  if (longer.events > base.events) {
    // Signed: a long run may allocate less than its base run when the base
    // run grew some buffer for good.
    const std::int64_t extra = static_cast<std::int64_t>(longer.allocations) -
                               static_cast<std::int64_t>(base.allocations);
    mode.allocs_per_event = static_cast<double>(extra) /
                            static_cast<double>(longer.events - base.events);
  }
  const std::uint64_t decisions = longer.recomputes + longer.skips;
  mode.skip_rate = decisions > 0 ? static_cast<double>(longer.skips) /
                                       static_cast<double>(decisions)
                                 : 0.0;
  if (longer.events > 0) {
    for (std::size_t c = 0; c < kCostCategoryCount; ++c) {
      mode.ns_per_event[c] = static_cast<double>(longer.category_ns[c]) /
                             static_cast<double>(longer.events);
    }
  }
  mode.base_bits = base.bits;
  mode.long_bits = longer.bits;
  return mode;
}

// --- scaling block ---------------------------------------------------------

constexpr double kScalingDuration = 4.0;  // simulated seconds per row
constexpr std::uint64_t kScalingSeed = 20040815;
// A row whose first run takes less than kScalingMinWall seconds runs again
// until its runs add up to that, and at least kScalingMinRepeats times;
// the fastest run is reported. The slope gate divides by the n = 2500
// row, and one ~0.1 s run of it is at the mercy of host noise.
constexpr double kScalingMinWall = 1.0;
constexpr int kScalingMinRepeats = 3;

struct ScalingSpec {
  const char* label;
  std::size_t nodes;
  std::uint64_t seed_stream;
};

// The former bench_parallel rows and seeds, so the event counts continue
// that baseline.
constexpr ScalingSpec kScalingRows[] = {
    {"n2500_waypoint", 2500, 1},
    {"n10000_waypoint", 10000, 2},
    {"n100000_waypoint", 100000, 4},
};

struct ScalingResult {
  ScalingSpec spec;
  std::uint64_t events = 0;
  double wall_s = 0.0;  // the fastest run
  double events_per_s = 0.0;
  int repeats = 0;
  bool events_identical = true;  // every repeat processed `events` events
};

ScalingResult run_scaling_row(const ScalingSpec& spec) {
  const RowSpec row{spec.label, spec.nodes, 1.0, "waypoint"};
  ScenarioConfig cfg = make_config(row, 0);
  cfg.duration = kScalingDuration;
  // Floods and snapshots stay rare, so the rows measure the beacon steady
  // state at every n.
  cfg.flood_rate = 0.5;
  cfg.seed = mstc::util::derive_seed(kScalingSeed, spec.seed_stream);
  ScalingResult result;
  result.spec = spec;
  double first_s = 0.0;
  double total_s = 0.0;
  do {
    const OneRun run = run_once(cfg, /*cache_on=*/true);
    const double wall_s = static_cast<double>(run.wall_ns) * 1e-9;
    if (result.repeats == 0) {
      first_s = wall_s;
      result.events = run.events;
    } else if (run.events != result.events) {
      result.events_identical = false;
    }
    if (result.repeats == 0 || wall_s < result.wall_s) {
      result.wall_s = wall_s;
      result.events_per_s =
          run.wall_ns > 0
              ? static_cast<double>(run.events) * 1e9 /
                    static_cast<double>(run.wall_ns)
              : 0.0;
    }
    total_s += wall_s;
    ++result.repeats;
  } while (first_s < kScalingMinWall &&
           (total_s < kScalingMinWall || result.repeats < kScalingMinRepeats));
  return result;
}

/// events/s at the largest fleet over events/s at the smallest.
double scaling_slope(const std::vector<ScalingResult>& rows) {
  if (rows.size() < 2 || rows.front().events_per_s <= 0.0) return 0.0;
  return rows.back().events_per_s / rows.front().events_per_s;
}

struct RowResult {
  RowSpec spec;
  ModeResult cache_off;
  ModeResult cache_on;
  bool results_identical = false;
  double pre_pr_events_per_s = 0.0;  // from --ref, 0 when absent
};

RowResult run_row(const RowSpec& row, std::uint64_t seed_stream) {
  // Untimed warm-up at the base duration: the first runs on a thread grow
  // its per-thread selection scratch to the row's largest view, a one-time
  // cost the marginal rate must not see. Its traces stay out of the trace
  // cache, so the base run generates (and counts) its own, as before.
  ScenarioConfig warm_up = make_config(row, seed_stream);
  warm_up.trace_cache = false;
  (void)run_once(warm_up, /*cache_on=*/false);
  RowResult result;
  result.spec = row;
  result.cache_off = run_mode(row, seed_stream, /*cache_on=*/false);
  result.cache_on = run_mode(row, seed_stream, /*cache_on=*/true);
  result.results_identical =
      result.cache_off.base_bits == result.cache_on.base_bits &&
      result.cache_off.long_bits == result.cache_on.long_bits;
  return result;
}

void print_cost_split(const ModeResult& mode) {
  std::printf("%-26s   cost split:", "");
  for (std::size_t c = 0; c < kCostCategoryCount; ++c) {
    std::printf(" %s %.0f ns/ev",
                mstc::obs::category_name(kCostCategories[c]),
                mode.ns_per_event[c]);
  }
  std::printf("\n");
}

void print_row(const RowResult& r) {
  std::printf(
      "%-26s off %10.0f ev/s (%5.2f allocs/ev)  on %10.0f ev/s "
      "(%5.2f allocs/ev, skip %4.1f%%)  %s%s\n",
      r.spec.label, r.cache_off.events_per_s, r.cache_off.allocs_per_event,
      r.cache_on.events_per_s, r.cache_on.allocs_per_event,
      r.cache_on.skip_rate * 100.0,
      r.results_identical ? "identical" : "DIVERGED",
      r.pre_pr_events_per_s > 0.0 ? "" : "");
  print_cost_split(r.cache_on);
  if (r.pre_pr_events_per_s > 0.0) {
    std::printf("%-26s   vs pre-PR %.0f ev/s -> %.2fx\n", "",
                r.pre_pr_events_per_s,
                r.cache_on.events_per_s / r.pre_pr_events_per_s);
  }
}

void append_mode_json(std::string& json, const char* name,
                      const ModeResult& mode) {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "      \"%s\": {\"events_per_s\": %.1f, \"wall_s\": %.6f, "
                "\"events\": %" PRIu64 ", \"allocs_total\": %" PRIu64
                ", \"allocs_per_event\": %.4f, \"skip_rate\": %.4f,\n"
                "        \"kernel_ns_per_event\": {",
                name, mode.events_per_s, mode.wall_s, mode.events,
                mode.allocations, mode.allocs_per_event, mode.skip_rate);
  json += buffer;
  for (std::size_t c = 0; c < kCostCategoryCount; ++c) {
    std::snprintf(buffer, sizeof(buffer), "%s\"%s\": %.1f",
                  c == 0 ? "" : ", ",
                  mstc::obs::category_name(kCostCategories[c]),
                  mode.ns_per_event[c]);
    json += buffer;
  }
  json += "}}";
}

void append_scaling_json(std::string& json,
                         const std::vector<ScalingResult>& rows) {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "  \"scaling\": {\"duration_s\": %.1f, \"warmup_s\": %.1f, "
                "\"flood_rate\": 0.5, \"snapshot_rate\": 0.25, "
                "\"recompute_cache\": true, \"threads\": 1, \"cores\": %u, "
                "\"seed\": %" PRIu64 ",\n    \"rows\": [\n",
                kScalingDuration, kWarmup, std::thread::hardware_concurrency(),
                kScalingSeed);
  json += buffer;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ScalingResult& r = rows[i];
    std::snprintf(buffer, sizeof(buffer),
                  "      {\"label\": \"%s\", \"nodes\": %zu, \"events\": "
                  "%" PRIu64 ", \"wall_s\": %.6f, \"events_per_s\": %.1f, "
                  "\"repeats\": %d}%s\n",
                  r.spec.label, r.spec.nodes, r.events, r.wall_s,
                  r.events_per_s, r.repeats, i + 1 < rows.size() ? "," : "");
    json += buffer;
  }
  std::snprintf(buffer, sizeof(buffer), "    ],\n    \"slope\": %.2f}\n",
                scaling_slope(rows));
  json += buffer;
}

bool write_json(const std::string& path, const std::vector<RowResult>& rows,
                const std::vector<ScalingResult>& scaling, bool have_ref) {
  std::string json = "{\n";
  json += "  \"bench\": \"bench_kernel\",\n";
  json += "  \"version\": \"" +
          mstc::obs::json_escape(mstc::obs::build_version()) + "\",\n";
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "  \"config\": {\"range_m\": %.1f, \"density\": \"%.0f nodes per "
      "%.0fx%.0f m^2\", \"protocol\": \"RNG\", \"mode\": \"ViewSync\", "
      "\"duration_s\": %.1f, \"warmup_s\": %.1f, \"flood_rate\": 2.0, "
      "\"snapshot_rate\": 0.25, \"seed\": %" PRIu64 "},\n",
      kRange, kDensityNodes, kDensitySide, kDensitySide, kDuration, kWarmup,
      kSeed);
  json += buffer;
  json += "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RowResult& r = rows[i];
    std::snprintf(buffer, sizeof(buffer),
                  "    {\"label\": \"%s\", \"nodes\": %zu, "
                  "\"hello_interval_s\": %.1f, \"mobility\": \"%s\",\n",
                  r.spec.label, r.spec.nodes, r.spec.hello_interval,
                  r.spec.mobility);
    json += buffer;
    append_mode_json(json, "cache_off", r.cache_off);
    json += ",\n";
    append_mode_json(json, "cache_on", r.cache_on);
    json += ",\n";
    std::snprintf(buffer, sizeof(buffer), "      \"results_identical\": %s",
                  r.results_identical ? "true" : "false");
    json += buffer;
    if (have_ref && r.pre_pr_events_per_s > 0.0) {
      std::snprintf(buffer, sizeof(buffer),
                    ",\n      \"pre_pr_events_per_s\": %.1f, "
                    "\"speedup_vs_pre_pr\": %.2f",
                    r.pre_pr_events_per_s,
                    r.cache_on.events_per_s / r.pre_pr_events_per_s);
      json += buffer;
    }
    json += "}";
    json += i + 1 < rows.size() ? ",\n" : "\n";
  }
  json += "  ],\n";
  append_scaling_json(json, scaling);
  json += "}\n";

  std::ofstream file(path);
  if (!file) return false;
  file << json;
  return static_cast<bool>(file);
}

/// Pulls cache_on events_per_s for `label` out of a previous
/// BENCH_kernel.json (plain text scan — the bench's own output format).
double ref_events_per_s(const std::string& ref_text, const char* label) {
  const std::string needle = std::string("\"label\": \"") + label + "\"";
  const std::size_t row_at = ref_text.find(needle);
  if (row_at == std::string::npos) return 0.0;
  const std::size_t mode_at = ref_text.find("\"cache_on\"", row_at);
  if (mode_at == std::string::npos) return 0.0;
  const std::size_t key_at = ref_text.find("\"events_per_s\": ", mode_at);
  if (key_at == std::string::npos) return 0.0;
  return std::strtod(ref_text.c_str() + key_at + 16, nullptr);
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

// Ceiling on a smoke waypoint row's steady-state allocs/event, either
// cache mode. At n = 128 the marginal rate reads about 0.005, with view
// store joins, expiries and receives allocating nothing; a heap block per
// joining neighbour read 0.03. The ceiling leaves room for toolchain
// drift, not for an allocation per join, receive or refresh.
constexpr double kSmokeAllocCeiling = 0.02;

int run_smoke() {
  std::printf("bench_kernel --smoke: kernel/cache guard at tiny n\n");
  int failures = 0;
  std::uint64_t stream = 1;
  for (const RowSpec& spec : kSmokeRows) {
    RowSpec quick = spec;
    const RowResult r = run_row(quick, stream++);
    print_row(r);
    if (!r.results_identical) {
      std::fprintf(stderr,
                   "FAIL %s: cache-on run diverged from cache-off\n",
                   spec.label);
      ++failures;
    }
    if (std::string_view(spec.mobility) == "waypoint") {
      for (const ModeResult* mode : {&r.cache_off, &r.cache_on}) {
        if (mode->allocs_per_event > kSmokeAllocCeiling) {
          std::fprintf(stderr,
                       "FAIL %s: %.4f steady-state allocs/event %s, above "
                       "the %.2f ceiling\n",
                       spec.label, mode->allocs_per_event,
                       mode == &r.cache_on ? "cache-on" : "cache-off",
                       kSmokeAllocCeiling);
          ++failures;
        }
      }
    }
    // A static fleet's positions never change, so nearly every refresh
    // after warmup must hit the cache. Zero skips means the cache
    // silently stopped engaging.
    if (std::string_view(spec.mobility) == "static" &&
        r.cache_on.skip_rate <= 0.0) {
      std::fprintf(stderr,
                   "FAIL %s: recompute cache never skipped on a static "
                   "fleet\n",
                   spec.label);
      ++failures;
    }
  }
  std::printf(failures == 0 ? "smoke OK\n" : "smoke FAILED\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_kernel.json";
  std::string ref_path;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--ref" && i + 1 < argc) {
      ref_path = argv[++i];
    } else {
      std::fprintf(
          stderr,
          "usage: bench_kernel [--smoke] [--out <path>] [--ref <path>]\n");
      return 2;
    }
  }
  if (smoke) return run_smoke();

  std::string ref_text;
  if (!ref_path.empty()) {
    std::ifstream ref_file(ref_path);
    if (!ref_file) {
      std::fprintf(stderr, "error: cannot read --ref %s\n", ref_path.c_str());
      return 2;
    }
    std::ostringstream buffer;
    buffer << ref_file.rdbuf();
    ref_text = buffer.str();
  }

  std::printf("=== event kernel: throughput / allocations / skip rate ===\n");
  std::printf("RNG + ViewSync, fixed density, %.0f s + %.0f s per mode\n\n",
              kDuration, kDuration * 2.0);
  std::vector<RowResult> rows;
  std::uint64_t stream = 1;
  for (const RowSpec& spec : kRows) {
    rows.push_back(run_row(spec, stream++));
    if (!ref_text.empty()) {
      rows.back().pre_pr_events_per_s =
          ref_events_per_s(ref_text, spec.label);
    }
    print_row(rows.back());
  }
  std::printf("\n=== scaling: cache-on events/s vs n, %.0f s, one thread ===\n",
              kScalingDuration);
  std::vector<ScalingResult> scaling;
  for (const ScalingSpec& spec : kScalingRows) {
    scaling.push_back(run_scaling_row(spec));
    const ScalingResult& r = scaling.back();
    std::printf("%-26s %10.0f ev/s  (%" PRIu64 " events, %.2f s, fastest "
                "of %d)\n",
                spec.label, r.events_per_s, r.events, r.wall_s, r.repeats);
    if (!r.events_identical) {
      std::fprintf(stderr,
                   "error: %s: repeats processed different event counts\n",
                   spec.label);
      return 1;
    }
  }
  std::printf("slope n=%zu / n=%zu: %.2f\n", scaling.back().spec.nodes,
              scaling.front().spec.nodes, scaling_slope(scaling));
  if (!write_json(out_path, rows, scaling, !ref_text.empty())) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  warn_if_dirty_version();
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
