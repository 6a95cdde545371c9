// Executable determinism contract (ctest label "concurrency").
//
// The repo promises two invariants: (1) every run is a pure function of
// (config, seed), and (2) pool-backed sweeps are bit-identical to serial
// execution regardless of thread count. These tests byte-compare metric
// outputs — exact IEEE-754 bit patterns via bit_cast, not EXPECT_NEAR —
// across serial re-runs and 1-, 2- and N-thread pools, so any source of
// nondeterminism (unordered iteration, uninitialized reads, racing
// accumulation) fails the suite instead of silently skewing Figs. 6-10.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <thread>
#include <vector>

#include "metrics/aggregate.hpp"
#include "mobility/trace_cache.hpp"
#include "runner/scenario.hpp"
#include "runner/sweep.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace mstc::runner {
namespace {

// Exact bit patterns of every metric in a RunStats — two results are
// "byte-identical" iff these vectors compare equal.
std::vector<std::uint64_t> bit_snapshot(const metrics::RunStats& stats) {
  return {std::bit_cast<std::uint64_t>(stats.delivery_ratio),
          std::bit_cast<std::uint64_t>(stats.strict_connectivity),
          std::bit_cast<std::uint64_t>(stats.mean_range),
          std::bit_cast<std::uint64_t>(stats.mean_logical_degree),
          std::bit_cast<std::uint64_t>(stats.mean_physical_degree),
          std::bit_cast<std::uint64_t>(stats.control_tx_rate),
          std::bit_cast<std::uint64_t>(stats.mac_collision_fraction)};
}

std::vector<std::uint64_t> bit_snapshot(
    const std::vector<metrics::RunStats>& runs) {
  std::vector<std::uint64_t> bits;
  bits.reserve(runs.size() * 7);
  for (const auto& run : runs) {
    const auto one = bit_snapshot(run);
    bits.insert(bits.end(), one.begin(), one.end());
  }
  return bits;
}

std::vector<ScenarioConfig> representative_configs() {
  ScenarioConfig baseline;
  baseline.protocol = "RNG";
  baseline.average_speed = 30.0;
  baseline.duration = 6.0;
  baseline.warmup = 1.5;
  baseline.seed = 987654321;

  ScenarioConfig consistent = baseline;
  consistent.protocol = "MST";
  consistent.mode = core::ConsistencyMode::kWeak;
  consistent.buffer_width = 50.0;

  ScenarioConfig contended = baseline;
  contended.protocol = "SPT-2";
  contended.mode = core::ConsistencyMode::kViewSync;
  contended.mac = "csma";

  return {baseline, consistent, contended};
}

constexpr std::size_t kRepeats = 2;

// Plain-loop reference: what run_batch_raw must reproduce exactly.
std::vector<metrics::RunStats> serial_reference(
    const std::vector<ScenarioConfig>& configs, std::size_t repeats) {
  std::vector<metrics::RunStats> results;
  results.reserve(configs.size() * repeats);
  for (const auto& config : configs) {
    for (std::size_t r = 0; r < repeats; ++r) {
      ScenarioConfig replica = config;
      replica.seed = util::derive_seed(config.seed, r + 1);
      results.push_back(run_scenario(replica));
    }
  }
  return results;
}

TEST(Determinism, SerialRerunIsByteIdentical) {
  const auto configs = representative_configs();
  const auto first = bit_snapshot(serial_reference(configs, kRepeats));
  const auto second = bit_snapshot(serial_reference(configs, kRepeats));
  ASSERT_EQ(first, second)
      << "run_scenario is not a pure function of (config, seed)";
}

// Sweeps `configs` through 1-, 2- and N-thread pools; each must
// byte-match the plain serial loop.
void expect_pool_sizes_match_serial(
    const std::vector<ScenarioConfig>& configs) {
  const auto reference = bit_snapshot(serial_reference(configs, kRepeats));

  const std::size_t hardware = std::max<std::size_t>(
      2, std::thread::hardware_concurrency());
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, hardware}) {
    util::ThreadPool pool(threads);
    const auto parallel =
        bit_snapshot(run_batch_raw(configs, kRepeats, pool));
    ASSERT_EQ(parallel, reference)
        << "sweep through a " << threads
        << "-thread pool diverged from serial execution";
  }
}

TEST(Determinism, PoolSizesOneTwoAndNMatchSerialByteForByte) {
  expect_pool_sizes_match_serial(representative_configs());
}

TEST(Determinism, FastSptFleetMatchesSerialAcrossPoolSizes) {
  // Fast SPT-4 fleet: large, changing views through the single-source
  // select and the per-thread selection scratch, refreshed on concurrent
  // pool threads (the TSan job's view of that scratch).
  ScenarioConfig fast = representative_configs().front();
  fast.protocol = "SPT-4";
  fast.average_speed = 160.0;
  fast.mode = core::ConsistencyMode::kLatest;
  fast.duration = 3.0;
  expect_pool_sizes_match_serial({fast});
}

TEST(Determinism, GlobalPoolBatchMatchesSerial) {
  const auto configs = representative_configs();
  const auto reference = serial_reference(configs, kRepeats);
  const auto aggregated = run_batch(configs, kRepeats);
  ASSERT_EQ(aggregated.size(), configs.size());

  metrics::RunAggregator manual;
  for (std::size_t r = 0; r < kRepeats; ++r) manual.add(reference[r]);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(aggregated[0].delivery().mean()),
            std::bit_cast<std::uint64_t>(manual.delivery().mean()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(aggregated[0].strict().mean()),
            std::bit_cast<std::uint64_t>(manual.strict().mean()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(aggregated[0].control_tx().mean()),
            std::bit_cast<std::uint64_t>(manual.control_tx().mean()));
}

TEST(Determinism, ObservationOnDoesNotChangeResults) {
  // The observability layer's core contract: attaching counters, tracing
  // and profiling to every replication must leave the simulation outputs
  // byte-identical — observation never feeds back into simulation state.
  const auto configs = representative_configs();
  util::ThreadPool pool(3);
  const auto plain = bit_snapshot(run_batch_raw(configs, kRepeats, pool));

  std::vector<obs::RunObservation> observations;
  SweepHooks hooks;
  hooks.observations = &observations;
  hooks.trace = true;
  hooks.profile = true;
  const auto observed =
      bit_snapshot(run_batch_raw(configs, kRepeats, pool, hooks));

  ASSERT_EQ(observed, plain)
      << "tracing/profiling changed simulation results";
  ASSERT_EQ(observations.size(), configs.size() * kRepeats);
  for (const auto& observation : observations) {
    EXPECT_GT(observation.counters.total(obs::Counter::kHelloTx), 0u);
    EXPECT_FALSE(observation.trace.empty());
  }
}

TEST(Determinism, LedgerAndExporterOnDoesNotChangeResults) {
  // PR 7's telemetry layer rides the same contract: resource ledgers,
  // flight recording, streaming metrics exposition and the straggler
  // watchdog all read finished runs and write their own files — none of
  // it may perturb simulation outputs.
  const auto configs = representative_configs();
  util::ThreadPool pool(3);
  const auto plain = bit_snapshot(run_batch_raw(configs, kRepeats, pool));

  obs::MetricsExporter exporter;
  obs::MetricsExporter::Options options;
  options.jsonl_path = testing::TempDir() + "det_metrics.jsonl";
  options.prom_path = testing::TempDir() + "det_metrics.prom";
  ASSERT_TRUE(exporter.open(options));
  obs::PostMortemWriter postmortem;
  ASSERT_TRUE(postmortem.open(testing::TempDir() + "det_postmortem.jsonl"));

  std::vector<obs::RunObservation> observations;
  SweepHooks hooks;
  hooks.observations = &observations;
  hooks.ledger = true;
  hooks.flight_capacity = 64;
  hooks.exporter = &exporter;
  hooks.postmortem = &postmortem;
  // Generous deadline: the watchdog must arm without ever firing here.
  hooks.soft_deadline_seconds = 3600.0;
  const auto observed =
      bit_snapshot(run_batch_raw(configs, kRepeats, pool, hooks));
  exporter.close();

  ASSERT_EQ(observed, plain)
      << "ledger/flight/exporter/watchdog changed simulation results";
  ASSERT_EQ(observations.size(), configs.size() * kRepeats);
  EXPECT_EQ(exporter.completed(), configs.size() * kRepeats);
  EXPECT_EQ(postmortem.incidents(), 0u);
  for (const auto& observation : observations) {
    EXPECT_TRUE(observation.ledger.captured);
    EXPECT_GT(obs::ledger_value(observation, obs::LedgerField::kEvents), 0.0);
    EXPECT_GT(observation.ledger.total_wall_ns, 0u);
    EXPECT_GT(observation.flight.total_recorded(), 0u);
  }
}

TEST(Determinism, GridIndexedMediumMatchesBruteForceByteForByte) {
  // The medium's spatial index (PR 3) is an optimization with a
  // bit-identity contract: conservative-radius candidate filtering plus
  // exact checks must reproduce the brute-force receiver sets exactly, so
  // whole sweeps — metrics, event ordering, everything — byte-compare
  // across the two paths. Runs through the pool so the TSan job also
  // covers the index's mutable caches.
  // The default config takes the index at every fleet size, so this test
  // compares genuinely different code paths.
  auto configs = representative_configs();
  util::ThreadPool pool(3);
  const auto grid = bit_snapshot(run_batch_raw(configs, kRepeats, pool));

  for (auto& config : configs) config.medium_brute_force = true;
  const auto brute = bit_snapshot(run_batch_raw(configs, kRepeats, pool));

  ASSERT_EQ(grid, brute)
      << "grid-backed medium diverged from the brute-force scan";
}

TEST(Determinism, RecomputeCacheOnMatchesOff) {
  // The recompute cache skips the protocol run while a node's view store
  // generation is unchanged: no member joined or expired and no position
  // bits the view reads changed since the last selection. An unchanged
  // generation implies a bit-identical view, so cached runs must
  // byte-compare against cache-off runs: any divergence means the store
  // missed a change the selection depends on. The waypoint fleets at 30 m/s
  // barely skip, so static and slow fleets in every refresh path (latest,
  // weak, ViewSync, proactive and reactive) join them. Serial and pooled,
  // per the suite's standing contract.
  auto cached = representative_configs();
  ScenarioConfig still = cached.front();
  still.mobility_model = "static";
  for (const core::ConsistencyMode mode :
       {core::ConsistencyMode::kLatest, core::ConsistencyMode::kWeak,
        core::ConsistencyMode::kViewSync, core::ConsistencyMode::kProactive,
        core::ConsistencyMode::kReactive}) {
    still.mode = mode;
    cached.push_back(still);
  }
  ScenarioConfig slow = cached.front();
  slow.average_speed = 1.0;
  slow.hello_loss = 0.3;  // expiries and re-joins
  slow.mode = core::ConsistencyMode::kProactive;
  cached.push_back(slow);
  slow.mode = core::ConsistencyMode::kWeak;
  cached.push_back(slow);
  auto uncached = cached;
  for (auto& config : uncached) config.recompute_cache = false;

  const auto serial_on = bit_snapshot(serial_reference(cached, kRepeats));
  const auto serial_off = bit_snapshot(serial_reference(uncached, kRepeats));
  ASSERT_EQ(serial_on, serial_off)
      << "recompute cache changed serial simulation results";

  util::ThreadPool pool(3);
  std::vector<obs::RunObservation> observations;
  SweepHooks hooks;
  hooks.observations = &observations;
  const auto pooled_on =
      bit_snapshot(run_batch_raw(cached, kRepeats, pool, hooks));
  const auto pooled_off =
      bit_snapshot(run_batch_raw(uncached, kRepeats, pool));
  ASSERT_EQ(pooled_on, serial_on);
  ASSERT_EQ(pooled_off, serial_on)
      << "recompute cache changed pooled simulation results";

  // The comparison means something only where the cache served refreshes.
  ASSERT_EQ(observations.size(), cached.size() * kRepeats);
  for (std::size_t i = 0; i < cached.size(); ++i) {
    const auto& config = cached[i];
    if (config.mobility_model != "static" ||
        config.mode == core::ConsistencyMode::kReactive) {
      continue;  // reactive pins a new version every round: never repeats
    }
    EXPECT_GT(observations[i * kRepeats].counters.total(
                  obs::Counter::kTopologyRecomputeSkips),
              0u)
        << "static " << core::to_string(config.mode) << " never skipped";
  }
}

TEST(Determinism, SnapshotGridMatchesBruteForceByteForByte) {
  // The snapshot fast path (PR 5) mirrors the medium's contract: padded
  // grid candidate sets + exact predicate confirmation + union-find
  // connectivity must reproduce the brute-force measurement exactly, for
  // whole sweeps, not just isolated fleets (the differential suite covers
  // those). The default config takes the snapshot grid on these 100-node
  // fleets.
  auto configs = representative_configs();
  util::ThreadPool pool(3);
  const auto grid = bit_snapshot(run_batch_raw(configs, kRepeats, pool));

  for (auto& config : configs) config.snapshot_brute_force = true;
  const auto brute = bit_snapshot(run_batch_raw(configs, kRepeats, pool));

  ASSERT_EQ(grid, brute)
      << "grid-backed snapshots diverged from the brute-force measurement";
}

TEST(Determinism, TraceCacheSharedMatchesPerReplication) {
  // Replications of one sweep point share a mobility TraceSet through
  // mobility::TraceCache (PR 5). Generation is pure in the cache key, so
  // cache-on sweeps must byte-compare against sweeps that regenerate
  // per replication (trace_cache = false) — any divergence means the key
  // misses an input trace generation reads, or a shared consumer mutated
  // the set.
  const auto configs = representative_configs();
  util::ThreadPool pool(3);
  mobility::TraceCache::global().clear();
  const auto shared = bit_snapshot(run_batch_raw(configs, kRepeats, pool));
  // The representative configs differ only in protocol / mode / MAC — none
  // of which the trace key reads — so all three share one set per
  // replication seed: exactly kRepeats generations for the whole batch.
  // This is the setup saving the bench's amortization row quantifies.
  EXPECT_EQ(mobility::TraceCache::global().size(), kRepeats);

  auto uncached = configs;
  for (auto& config : uncached) config.trace_cache = false;
  const auto regenerated =
      bit_snapshot(run_batch_raw(uncached, kRepeats, pool));
  ASSERT_EQ(shared, regenerated)
      << "trace-cache sharing changed simulation results";
}

TEST(Determinism, RepeatedParallelBatchesAreByteIdentical) {
  // Pool reuse across batches must not leak state between sweeps.
  const auto configs = representative_configs();
  util::ThreadPool pool(3);
  const auto first = bit_snapshot(run_batch_raw(configs, kRepeats, pool));
  const auto second = bit_snapshot(run_batch_raw(configs, kRepeats, pool));
  ASSERT_EQ(first, second);
}

TEST(Determinism, RunScenarioReadsOnlyItsConfig) {
  // MSTC_* variables reach a scenario only through apply_env_overrides at
  // the CLI/bench boundary. A config built in code must run exactly as
  // written whatever the shell exports: each override below changes the
  // run (shorter, smaller, other rates), so a run_scenario that applied
  // them itself would fail the comparison.
  const auto configs = representative_configs();
  const auto run = [&configs] {
    return bit_snapshot(serial_reference(configs, kRepeats));
  };
  const auto clean = run();

  const char* const exports[][2] = {{"MSTC_SIM_TIME", "2.5"},
                                    {"MSTC_NODES", "30"},
                                    {"MSTC_FLOOD_RATE", "1"},
                                    {"MSTC_PAPER_SCALE", "1"}};
  for (const auto& [name, value] : exports) {
    ASSERT_EQ(setenv(name, value, 1), 0);
  }
  // The exports do reach a config that goes through the boundary.
  const ScenarioConfig overridden = apply_env_overrides(configs.front());
  EXPECT_EQ(overridden.node_count, 30u);
  EXPECT_EQ(overridden.duration, 2.5);
  const auto exported = run();
  for (const auto& [name, value] : exports) {
    ASSERT_EQ(unsetenv(name), 0);
  }
  ASSERT_EQ(exported, clean)
      << "the environment changed a run configured in code";
}

}  // namespace
}  // namespace mstc::runner
