// Observability layer tests: counter/histogram units, probe on/off
// semantics, exporters, exact-count validation against a hand-checked
// scenario, and sweep progress hooks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/counters.hpp"
#include "obs/manifest.hpp"
#include "obs/probe.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "runner/scenario.hpp"
#include "runner/sweep.hpp"
#include "util/thread_pool.hpp"

namespace mstc::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// --- counters & histograms ---------------------------------------------

TEST(Histogram, BucketsByUpperEdgeWithOverflow) {
  Histogram h({1.0, 2.0, 5.0});
  ASSERT_EQ(h.bucket_count(), 4u);  // three edges + overflow
  h.add(0.5);   // < 1
  h.add(1.0);   // not < 1 -> second bucket
  h.add(1.5);   // < 2
  h.add(4.9);   // < 5
  h.add(5.0);   // overflow
  h.add(100.0); // overflow
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 2u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 4.9 + 5.0 + 100.0);
  EXPECT_TRUE(std::isinf(h.upper_edge(3)));
}

TEST(Histogram, MergeAddsCounts) {
  Histogram a({1.0});
  Histogram b({1.0});
  a.add(0.5);
  b.add(0.25);
  b.add(2.0);
  a.merge(b);
  EXPECT_EQ(a.bucket(0), 2u);
  EXPECT_EQ(a.bucket(1), 1u);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.mean(), (0.5 + 0.25 + 2.0) / 3.0);
}

TEST(CounterRegistry, GlobalAndPerNodeScopes) {
  // Counters keep run totals only; which node acted is in the trace.
  CounterRegistry registry;
  registry.add(Counter::kSnapshots);
  registry.add(Counter::kHelloTx, 2);
  registry.add(Counter::kHelloTx);
  EXPECT_EQ(registry.total(Counter::kSnapshots), 1u);
  EXPECT_EQ(registry.total(Counter::kHelloTx), 3u);
  EXPECT_EQ(registry.total(Counter::kHelloRx), 0u);
}

TEST(CounterRegistry, MergeFoldsTotalsNodesAndHistograms) {
  CounterRegistry a;
  CounterRegistry b;
  a.add(Counter::kHelloRx);
  b.add(Counter::kHelloRx, 7);
  b.histogram(Hist::kFloodDeliveryRatio).add(0.42);
  a.merge(b);
  EXPECT_EQ(a.total(Counter::kHelloRx), 8u);
  EXPECT_EQ(a.histogram(Hist::kFloodDeliveryRatio).count(), 1u);
}

TEST(CounterNames, AreStableSnakeCase) {
  EXPECT_STREQ(counter_name(Counter::kHelloTx), "hello_tx");
  EXPECT_STREQ(counter_name(Counter::kBufferZoneExpansions),
               "buffer_zone_expansions");
  EXPECT_STREQ(hist_name(Hist::kEpidemicDelay), "epidemic_delay_s");
  EXPECT_STREQ(event_kind_name(EventKind::kTopologyRecompute),
               "topology_recompute");
  EXPECT_STREQ(category_name(Category::kDataFlood), "data_flood");
}

// --- probe on/off semantics --------------------------------------------

TEST(Probe, DisabledProbeIsInert) {
  const Probe probe;  // default: permanently off
  EXPECT_FALSE(probe.counting());
  EXPECT_FALSE(probe.tracing());
  EXPECT_EQ(probe.profiler(), nullptr);
  // Must be safe no-ops.
  probe.count(Counter::kHelloTx);
  probe.observe(Hist::kEpidemicDelay, 1.0);
  probe.trace(EventKind::kHelloTx, 0.0, 0);
}

TEST(Probe, CountsTracesAndProfilesWhenEnabled) {
  RunObservation observation;
  observation.trace_on = true;
  observation.profile_on = true;
  const Probe probe(&observation);
  EXPECT_TRUE(probe.counting());
  EXPECT_TRUE(probe.tracing());
  ASSERT_NE(probe.profiler(), nullptr);

  probe.count(Counter::kHelloTx);
  probe.trace(EventKind::kHelloTx, 1.5, 2, 0.0, 9);
  { const ScopedTimer timer(probe.profiler(), Category::kBeaconing); }

  EXPECT_EQ(observation.counters.total(Counter::kHelloTx), 1u);
  ASSERT_EQ(observation.trace.size(), 1u);
  EXPECT_EQ(observation.trace.events()[0].node, 2u);
  EXPECT_EQ(observation.trace.events()[0].aux, 9u);
  EXPECT_EQ(observation.profiler.calls(Category::kBeaconing), 1u);
}

TEST(Probe, TracingOffKeepsSinkEmpty) {
  RunObservation observation;  // trace_on defaults to false
  const Probe probe(&observation);
  probe.trace(EventKind::kHelloTx, 1.0, 0);
  EXPECT_TRUE(observation.trace.empty());
  probe.count(Counter::kHelloTx);
  EXPECT_EQ(observation.counters.total(Counter::kHelloTx), 1u);
}

// --- exporters ----------------------------------------------------------

std::vector<const MemoryTraceSink*> two_run_sinks(MemoryTraceSink& a,
                                                  MemoryTraceSink& b) {
  a.record({0.5, 1, EventKind::kHelloTx, 0.0, 3});
  a.record({1.0, 2, EventKind::kFloodScored, 0.75, 0});
  b.record({2.0, 0, EventKind::kSnapshot, 1.0, 0});
  return {&a, &b};
}

TEST(TraceExport, JsonlOneObjectPerLine) {
  MemoryTraceSink a;
  MemoryTraceSink b;
  const auto sinks = two_run_sinks(a, b);
  const std::string path = testing::TempDir() + "obs_trace.jsonl";
  ASSERT_TRUE(write_jsonl(path, sinks));
  const std::string content = slurp(path);

  std::istringstream lines(content);
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++count;
  }
  EXPECT_EQ(count, 3u);
  EXPECT_NE(content.find("\"kind\":\"hello_tx\""), std::string::npos);
  EXPECT_NE(content.find("\"run\":1"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceExport, ChromeTraceHasProcessesThreadsAndInstants) {
  MemoryTraceSink a;
  MemoryTraceSink b;
  const auto sinks = two_run_sinks(a, b);
  const std::string path = testing::TempDir() + "obs_trace.json";
  ASSERT_TRUE(write_chrome_trace(path, sinks));
  const std::string content = slurp(path);
  EXPECT_EQ(content.front(), '{');
  EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(content.find("\"process_name\""), std::string::npos);
  EXPECT_NE(content.find("\"ph\":\"i\""), std::string::npos);
  // 0.5 sim-seconds -> 500000 trace microseconds.
  EXPECT_NE(content.find("500000"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceExport, FailsOnUnwritablePath) {
  MemoryTraceSink sink;
  EXPECT_FALSE(write_jsonl("/nonexistent-dir/x.jsonl", {&sink}));
  EXPECT_FALSE(write_chrome_trace("/nonexistent-dir/x.json", {&sink}));
}

TEST(Manifest, EmitsConfigCountersAndProfile) {
  CounterRegistry counters;
  counters.add(Counter::kHelloTx, 11);
  counters.histogram(Hist::kFloodDeliveryRatio).add(0.9);
  Profiler profiler;
  profiler.add(Category::kSetup, 1000);
  profiler.add_run(2000, 42);

  Manifest manifest;
  manifest.tool = "test";
  manifest.seed = 7;
  manifest.configurations = 1;
  manifest.repeats = 3;
  manifest.config = {{"protocol", "RNG"}, {"quote", "a\"b"}};
  manifest.counters = &counters;
  manifest.profiler = &profiler;
  manifest.sweep_wall_seconds = 0.5;
  manifest.pool_threads = 4;

  const std::string path = testing::TempDir() + "obs_manifest.json";
  ASSERT_TRUE(write_manifest(path, manifest));
  const std::string content = slurp(path);
  EXPECT_NE(content.find("\"tool\": \"test\""), std::string::npos);
  EXPECT_NE(content.find("\"hello_tx\": 11"), std::string::npos);
  EXPECT_NE(content.find("flood_delivery_ratio"), std::string::npos);
  EXPECT_NE(content.find("\"protocol\": \"RNG\""), std::string::npos);
  EXPECT_NE(content.find("a\\\"b"), std::string::npos);
  EXPECT_NE(content.find("events_per_second"), std::string::npos);
  EXPECT_NE(content.find(build_version()), std::string::npos);
  std::remove(path.c_str());
}

TEST(Manifest, JsonEscapeHandlesControlCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");
}

// --- exact-count validation against a hand-checked scenario -------------

// Proactive beaconing fires synchronized rounds at t = 0, 1, ..., 10 (the
// per-node skew is < 0.1 * interval, so round 10 lands by t <= 10.1 and a
// 10.5 s run processes every one): 11 Hellos per node. Static nodes in a
// 40 x 40 m arena with a 250 m range all hear each other, and with zero
// loss every Hello reaches all N-1 peers.
TEST(ExactCounts, ProactiveHelloTxAndRxMatchClosedForm) {
  runner::ScenarioConfig cfg;
  cfg.node_count = 5;
  cfg.area = {40.0, 40.0};
  cfg.mobility_model = "static";
  cfg.normal_range = 250.0;
  cfg.mode = core::ConsistencyMode::kProactive;
  cfg.hello_interval = 1.0;
  cfg.hello_loss = 0.0;
  cfg.duration = 10.5;
  cfg.flood_rate = 0.0;
  cfg.snapshot_rate = 0.0;
  cfg.seed = 20040426;

  RunObservation observation;
  observation.trace_on = true;  // per-node Hellos are read off the trace
  const auto stats = runner::run_scenario(cfg, &observation);
  (void)stats;

  constexpr std::uint64_t kRounds = 11;  // t = 0 .. 10
  const std::uint64_t n = cfg.node_count;
  EXPECT_EQ(observation.counters.total(Counter::kHelloTx), kRounds * n);
  EXPECT_EQ(observation.counters.total(Counter::kHelloRx),
            kRounds * n * (n - 1));
  EXPECT_EQ(observation.counters.total(Counter::kHelloLossDrops), 0u);
  EXPECT_EQ(observation.counters.total(Counter::kSnapshots), 0u);
  std::vector<std::uint64_t> hello_tx(n, 0);
  for (const TraceEvent& event : observation.trace.events()) {
    if (event.kind != EventKind::kHelloTx) continue;
    ASSERT_LT(event.node, n);
    ++hello_tx[event.node];
  }
  for (std::size_t u = 0; u < n; ++u) {
    EXPECT_EQ(hello_tx[u], kRounds) << "node " << u;
  }
}

TEST(ExactCounts, HelloLossDropsAccountForEveryLostReception) {
  runner::ScenarioConfig cfg;
  cfg.node_count = 5;
  cfg.area = {40.0, 40.0};
  cfg.mobility_model = "static";
  cfg.mode = core::ConsistencyMode::kProactive;
  cfg.hello_interval = 1.0;
  cfg.hello_loss = 0.5;
  cfg.duration = 10.5;
  cfg.flood_rate = 0.0;
  cfg.snapshot_rate = 0.0;
  cfg.seed = 20040426;

  RunObservation observation;
  (void)runner::run_scenario(cfg, &observation);
  const std::uint64_t n = cfg.node_count;
  const std::uint64_t offered = 11 * n * (n - 1);
  EXPECT_EQ(observation.counters.total(Counter::kHelloRx) +
                observation.counters.total(Counter::kHelloLossDrops),
            offered);
  EXPECT_GT(observation.counters.total(Counter::kHelloLossDrops), 0u);
}

TEST(ExactCounts, SnapshotCountMatchesSchedule) {
  runner::ScenarioConfig cfg;
  cfg.node_count = 4;
  cfg.mobility_model = "static";
  cfg.duration = 6.0;
  cfg.warmup = 1.0;
  cfg.flood_rate = 0.0;
  cfg.snapshot_rate = 1.0;  // t = 1, 2, 3, 4, 5, 6
  cfg.seed = 3;

  RunObservation observation;
  (void)runner::run_scenario(cfg, &observation);
  EXPECT_EQ(observation.counters.total(Counter::kSnapshots), 6u);
  EXPECT_EQ(
      observation.counters.histogram(Hist::kSnapshotConnectivity).count(),
      6u);
}

// --- trace recording in a live run --------------------------------------

TEST(TraceRecording, EventsAreTimeOrderedAndPopulated) {
  runner::ScenarioConfig cfg;
  cfg.node_count = 10;
  cfg.duration = 4.0;
  cfg.warmup = 1.0;
  cfg.seed = 11;

  RunObservation observation;
  observation.trace_on = true;
  (void)runner::run_scenario(cfg, &observation);
  const auto& events = observation.trace.events();
  ASSERT_FALSE(events.empty());
  for (std::size_t i = 1; i < events.size(); ++i) {
    ASSERT_LE(events[i - 1].time, events[i].time) << "at record " << i;
  }
  bool saw_hello = false;
  bool saw_recompute = false;
  for (const TraceEvent& event : events) {
    saw_hello = saw_hello || event.kind == EventKind::kHelloTx;
    saw_recompute =
        saw_recompute || event.kind == EventKind::kTopologyRecompute;
    EXPECT_LT(event.node, cfg.node_count);
  }
  EXPECT_TRUE(saw_hello);
  EXPECT_TRUE(saw_recompute);
}

// --- profiling -----------------------------------------------------------

TEST(Profiling, RecordsEventLoopAndCategories) {
  runner::ScenarioConfig cfg;
  cfg.node_count = 10;
  cfg.duration = 4.0;
  cfg.warmup = 1.0;
  cfg.seed = 11;

  RunObservation observation;
  observation.profile_on = true;
  (void)runner::run_scenario(cfg, &observation);
  EXPECT_EQ(observation.profiler.runs(), 1u);
  EXPECT_GT(observation.profiler.events(), 0u);
  EXPECT_GT(observation.profiler.events_per_second(), 0.0);
  EXPECT_GT(observation.profiler.calls(Category::kSetup), 0u);
  EXPECT_GT(observation.profiler.calls(Category::kBeaconing), 0u);
}

// --- sweep hooks ---------------------------------------------------------

runner::ScenarioConfig small_config() {
  runner::ScenarioConfig cfg;
  cfg.node_count = 15;
  cfg.duration = 3.0;
  cfg.warmup = 1.0;
  cfg.seed = 5;
  return cfg;
}

TEST(SweepHooks, ProgressReportsEveryReplication) {
  const std::vector<runner::ScenarioConfig> configs{small_config(),
                                                    small_config()};
  constexpr std::size_t kRepeats = 2;
  util::ThreadPool pool(3);

  std::vector<runner::SweepProgress> seen;
  runner::SweepHooks hooks;
  hooks.on_progress = [&seen](const runner::SweepProgress& progress) {
    seen.push_back(progress);
  };
  const auto raw = runner::run_batch_raw(configs, kRepeats, pool, hooks);
  ASSERT_EQ(raw.size(), configs.size() * kRepeats);

  ASSERT_EQ(seen.size(), configs.size() * kRepeats);
  std::vector<bool> reported(seen.size() + 1, false);
  for (const runner::SweepProgress& progress : seen) {
    EXPECT_EQ(progress.total, seen.size());
    ASSERT_GE(progress.completed, 1u);
    ASSERT_LE(progress.completed, seen.size());
    EXPECT_FALSE(reported[progress.completed]) << "duplicate progress value";
    reported[progress.completed] = true;
    EXPECT_GE(progress.elapsed_seconds, 0.0);
    EXPECT_GE(progress.eta_seconds, 0.0);
  }
}

TEST(SweepHooks, ObservationSlotsFollowRawLayout) {
  const std::vector<runner::ScenarioConfig> configs{small_config()};
  constexpr std::size_t kRepeats = 3;
  util::ThreadPool pool(2);

  std::vector<RunObservation> observations;
  runner::SweepHooks hooks;
  hooks.observations = &observations;
  hooks.trace = true;
  hooks.profile = true;
  const auto raw = runner::run_batch_raw(configs, kRepeats, pool, hooks);
  ASSERT_EQ(raw.size(), kRepeats);
  ASSERT_EQ(observations.size(), kRepeats);
  for (const RunObservation& observation : observations) {
    EXPECT_GT(observation.counters.total(Counter::kHelloTx), 0u);
    EXPECT_FALSE(observation.trace.empty());
    EXPECT_EQ(observation.profiler.runs(), 1u);
  }
  // Different seeds per replication: slots must differ somewhere.
  EXPECT_NE(observations[0].counters.total(Counter::kHelloRx),
            0u);
}

}  // namespace
}  // namespace mstc::obs
