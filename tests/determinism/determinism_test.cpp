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

TEST(Determinism, PoolSizesOneTwoAndNMatchSerialByteForByte) {
  const auto configs = representative_configs();
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
  hooks.flight = true;
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
    EXPECT_GT(observation.ledger.events, 0u);
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
  auto configs = representative_configs();
  // Representative fleets sit below the grid_min_nodes crossover; force the
  // index on so this test compares genuinely different code paths.
  for (auto& config : configs) config.medium_grid_min_nodes = 0;
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
  // those). grid_min_nodes = 0 forces the snapshot grid on representative
  // fleets that sit below the crossover.
  auto configs = representative_configs();
  for (auto& config : configs) config.medium_grid_min_nodes = 0;
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
  // per replication (the MSTC_NO_TRACE_CACHE=1 escape hatch) — any
  // divergence means the key misses an input trace generation reads, or a
  // shared consumer mutated the set.
  const auto configs = representative_configs();
  util::ThreadPool pool(3);
  mobility::TraceCache::global().clear();
  const auto shared = bit_snapshot(run_batch_raw(configs, kRepeats, pool));
  // The representative configs differ only in protocol / mode / MAC — none
  // of which the trace key reads — so all three share one set per
  // replication seed: exactly kRepeats generations for the whole batch.
  // This is the setup saving the bench's amortization row quantifies.
  EXPECT_EQ(mobility::TraceCache::global().size(), kRepeats);

  ASSERT_EQ(setenv("MSTC_NO_TRACE_CACHE", "1", 1), 0);
  const auto regenerated =
      bit_snapshot(run_batch_raw(configs, kRepeats, pool));
  ASSERT_EQ(unsetenv("MSTC_NO_TRACE_CACHE"), 0);

  ASSERT_EQ(shared, regenerated)
      << "trace-cache sharing changed simulation results";

  // Belt and braces: the config-level switch takes the same path.
  auto uncached = configs;
  for (auto& config : uncached) config.trace_cache = false;
  const auto config_off =
      bit_snapshot(run_batch_raw(uncached, kRepeats, pool));
  ASSERT_EQ(shared, config_off);
}

TEST(Determinism, ChunkSizeOneSweepMatchesDefaultChunking) {
  // parallel_for hands out contiguous index chunks (PR 5); chunk size is
  // pure scheduling, so MSTC_PARALLEL_CHUNK=1 — the pre-chunking one-index-
  // per-grab behavior — must byte-match the default heuristic.
  const auto configs = representative_configs();
  util::ThreadPool pool(3);
  const auto chunked = bit_snapshot(run_batch_raw(configs, kRepeats, pool));

  ASSERT_EQ(setenv("MSTC_PARALLEL_CHUNK", "1", 1), 0);
  const auto unchunked =
      bit_snapshot(run_batch_raw(configs, kRepeats, pool));
  ASSERT_EQ(unsetenv("MSTC_PARALLEL_CHUNK"), 0);

  ASSERT_EQ(chunked, unchunked)
      << "chunk granularity changed sweep results";
}

TEST(Determinism, ShardedKernelMatchesSerialByteForByte) {
  // The sharded event kernel (PR 8) partitions the fleet into x-axis
  // strips and drains node-local events shard-parallel between
  // conservative barriers. Sharding is pure scheduling: any shard count
  // must byte-match the serial kernel, for mobile and static fleets, per
  // replication. Divergence means an event was misclassified (a "local"
  // handler touched shared state) or a barrier fired too late.
  ScenarioConfig waypoint;
  waypoint.protocol = "RNG";
  waypoint.average_speed = 30.0;
  waypoint.duration = 6.0;
  waypoint.warmup = 1.5;
  waypoint.seed = 246813579;

  ScenarioConfig still = waypoint;
  still.mobility_model = "static";
  still.protocol = "MST";
  still.mode = core::ConsistencyMode::kWeak;

  // Fast SPT-4 fleet: large, changing views through the single-source
  // select and the per-thread selection scratch, on the pool threads that
  // drain the shard batches (the TSan job's view of that scratch).
  ScenarioConfig fast = waypoint;
  fast.protocol = "SPT-4";
  fast.average_speed = 160.0;
  fast.mode = core::ConsistencyMode::kLatest;

  for (const auto& base : {waypoint, still, fast}) {
    const auto reference = bit_snapshot(serial_reference({base}, kRepeats));
    for (const std::size_t shards :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      ScenarioConfig sharded = base;
      sharded.shards = shards;
      ASSERT_EQ(bit_snapshot(serial_reference({sharded}, kRepeats)),
                reference)
          << base.mobility_model << " " << base.protocol
          << " fleet diverged at " << shards << " shards";
    }

    // Env path: MSTC_SHARDS is how sweeps and benches opt in.
    ASSERT_EQ(setenv("MSTC_SHARDS", "3", 1), 0);
    const ScenarioConfig env_sharded = apply_env_overrides(base);
    EXPECT_EQ(env_sharded.shards, 3u);
    const auto via_env =
        bit_snapshot(serial_reference({env_sharded}, kRepeats));
    // Escape hatch: MSTC_KERNEL_SERIAL=1 forces the serial kernel even
    // with a shard count configured.
    ASSERT_EQ(setenv("MSTC_KERNEL_SERIAL", "1", 1), 0);
    const auto hatched =
        bit_snapshot(serial_reference({env_sharded}, kRepeats));
    ASSERT_EQ(unsetenv("MSTC_KERNEL_SERIAL"), 0);
    ASSERT_EQ(unsetenv("MSTC_SHARDS"), 0);
    ASSERT_EQ(via_env, reference);
    ASSERT_EQ(hatched, reference);
  }
}

TEST(Determinism, CalendarQueueMatchesHeapByteForByte) {
  // The calendar event queue (see sim/event_queue.hpp) orders events by
  // the same strict (time, sequence) total order the heap reference does,
  // so every backend/shard combination must produce byte-identical stats.
  // Divergence means the calendar popped out of order somewhere — a
  // bucket-boundary, overflow-ladder or resize bug.
  ScenarioConfig waypoint;
  waypoint.protocol = "RNG";
  waypoint.average_speed = 30.0;
  waypoint.duration = 6.0;
  waypoint.warmup = 1.5;
  waypoint.seed = 975318642;

  ScenarioConfig still = waypoint;
  still.mobility_model = "static";
  still.protocol = "MST";
  still.mode = core::ConsistencyMode::kWeak;

  for (const auto& base : {waypoint, still}) {
    ScenarioConfig heap = base;
    heap.queue = "heap";
    const auto reference = bit_snapshot(serial_reference({heap}, kRepeats));
    for (const std::size_t shards :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      ScenarioConfig calendar = base;
      calendar.queue = "calendar";
      calendar.shards = shards;
      ASSERT_EQ(bit_snapshot(serial_reference({calendar}, kRepeats)),
                reference)
          << base.mobility_model << " fleet diverged at " << shards
          << " shards on the calendar queue";
    }

    // Escape hatch: MSTC_EVENT_QUEUE=heap overrides the config default.
    ASSERT_EQ(setenv("MSTC_EVENT_QUEUE", "heap", 1), 0);
    const ScenarioConfig hatched = apply_env_overrides(base);
    EXPECT_EQ(hatched.queue, "heap");
    const auto via_env = bit_snapshot(serial_reference({hatched}, kRepeats));
    ASSERT_EQ(unsetenv("MSTC_EVENT_QUEUE"), 0);
    ASSERT_EQ(via_env, reference);
  }
}

TEST(Determinism, ShardedReplicationsShareThePoolWithSweeps) {
  // Shards and replications share one ThreadPool: a sweep task running a
  // sharded replication re-enters the pool at every barrier drain
  // (nested submission). The pool's caller-participates contract makes
  // that deadlock-free, and results must still byte-match serial.
  auto configs = representative_configs();
  for (auto& config : configs) config.shards = 4;
  const auto reference = bit_snapshot(serial_reference(configs, kRepeats));
  util::ThreadPool pool(3);
  const auto pooled = bit_snapshot(run_batch_raw(configs, kRepeats, pool));
  ASSERT_EQ(pooled, reference)
      << "sharded replications through a sweep pool diverged from serial";
}

TEST(Determinism, RepeatedParallelBatchesAreByteIdentical) {
  // Pool reuse across batches must not leak state between sweeps.
  const auto configs = representative_configs();
  util::ThreadPool pool(3);
  const auto first = bit_snapshot(run_batch_raw(configs, kRepeats, pool));
  const auto second = bit_snapshot(run_batch_raw(configs, kRepeats, pool));
  ASSERT_EQ(first, second);
}

TEST(Determinism, BatchedDeliveryMatchesUnbatchedByteForByte) {
  // Batched broadcast fan-out (this PR) turns one Hello into ONE queue
  // entry carrying the receiver span instead of one closure per receiver,
  // pre-assigning the exact (time, sequence) keys the per-receiver loop
  // would have drawn. Pure storage optimization: every (config, shard)
  // combination must byte-match the unbatched escape hatch.
  ScenarioConfig waypoint;
  waypoint.protocol = "RNG";
  waypoint.average_speed = 30.0;
  waypoint.duration = 6.0;
  waypoint.warmup = 1.5;
  waypoint.seed = 864213579;

  ScenarioConfig still = waypoint;
  still.mobility_model = "static";
  still.protocol = "MST";
  still.mode = core::ConsistencyMode::kWeak;

  for (const auto& base : {waypoint, still}) {
    for (const std::size_t shards :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      ScenarioConfig config = base;
      config.shards = shards;
      const auto batched =
          bit_snapshot(serial_reference({config}, kRepeats));

      // Env hatch: MSTC_NO_BATCH_DELIVERY=1 restores the per-receiver
      // schedule_local loop.
      ASSERT_EQ(setenv("MSTC_NO_BATCH_DELIVERY", "1", 1), 0);
      const ScenarioConfig hatched = apply_env_overrides(config);
      EXPECT_FALSE(hatched.batch_delivery);
      const auto unbatched =
          bit_snapshot(serial_reference({hatched}, kRepeats));
      ASSERT_EQ(unsetenv("MSTC_NO_BATCH_DELIVERY"), 0);
      ASSERT_EQ(batched, unbatched)
          << base.mobility_model << " fleet diverged at " << shards
          << " shards with batched delivery";

      // Belt and braces: the config-level switch takes the same path.
      ScenarioConfig config_off = config;
      config_off.batch_delivery = false;
      ASSERT_EQ(bit_snapshot(serial_reference({config_off}, kRepeats)),
                batched);
    }
  }
}

TEST(Determinism, ScalarFilterMatchesWideByteForByte) {
  // The SIMD/SoA candidate filter (this PR) re-checks grid candidates
  // against the exact range in wide blocks; lane arithmetic is
  // operation-for-operation the scalar predicate, so the wide and scalar
  // builds must byte-match over whole runs. grid_min_nodes = 0 forces the
  // grid (and with it the batched filter) on representative fleets.
  auto configs = representative_configs();
  for (auto& config : configs) config.medium_grid_min_nodes = 0;
  const auto wide = bit_snapshot(serial_reference(configs, kRepeats));

  // Env hatch: MSTC_FILTER_SCALAR=1 routes medium and snapshot filtering
  // through the portable scalar loop.
  ASSERT_EQ(setenv("MSTC_FILTER_SCALAR", "1", 1), 0);
  auto hatched = configs;
  for (auto& config : hatched) config = apply_env_overrides(config);
  EXPECT_TRUE(hatched.front().scalar_filter);
  const auto scalar = bit_snapshot(serial_reference(hatched, kRepeats));
  ASSERT_EQ(unsetenv("MSTC_FILTER_SCALAR"), 0);
  ASSERT_EQ(wide, scalar)
      << "wide candidate filter diverged from the scalar reference";

  // Belt and braces: the config-level switch takes the same path.
  auto config_off = configs;
  for (auto& config : config_off) config.scalar_filter = true;
  ASSERT_EQ(bit_snapshot(serial_reference(config_off, kRepeats)), wide);
}

}  // namespace
}  // namespace mstc::runner
