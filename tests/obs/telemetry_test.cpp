// Campaign telemetry units: resource ledgers and their sweep-level
// aggregation, the flight-recorder ring, post-mortem dumps, and the
// streaming metrics exporter. Complements observability_test.cpp (PR 2
// surfaces) and the determinism suite's byte-identity checks
// (Determinism.LedgerAndExporterOnDoesNotChangeResults).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "obs/counters.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics_export.hpp"
#include "obs/probe.hpp"
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

TEST(Ledger, PercentileUsesNearestRank) {
  const std::vector<double> samples{5.0, 1.0, 4.0, 2.0, 3.0};
  // Nearest rank over n=5: p50 -> ceil(2.5) = 3rd smallest, p95 ->
  // ceil(4.75) = 5th, p20 -> 1st, p0 clamps to the minimum.
  EXPECT_DOUBLE_EQ(percentile(samples, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(samples, 95.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(samples, 20.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(samples, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(samples, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
}

RunObservation observation_with_total_seconds(double seconds) {
  RunObservation observation;
  observation.ledger = {static_cast<std::uint64_t>(seconds * 1e9), 0, true};
  return observation;
}

TEST(Ledger, SummaryStatsOnKnownInputs) {
  LedgerSummary summary;
  // 20 samples 1..20 s: mean 10.5, p50 = 10th smallest = 10, p95 = 19th
  // smallest = 19 (nearest rank), max 20.
  for (int s = 20; s >= 1; --s) {
    summary.add(observation_with_total_seconds(static_cast<double>(s)));
  }
  ASSERT_EQ(summary.count(), 20u);
  const LedgerStat stat = summary.stat(LedgerField::kTotalSeconds);
  EXPECT_DOUBLE_EQ(stat.mean, 10.5);
  EXPECT_DOUBLE_EQ(stat.p50, 10.0);
  EXPECT_DOUBLE_EQ(stat.p95, 19.0);
  EXPECT_DOUBLE_EQ(stat.max, 20.0);
  EXPECT_EQ(stat.count, 20u);
}

TEST(Ledger, SummaryIgnoresUncapturedAndMerges) {
  LedgerSummary summary;
  summary.add(RunObservation{});  // never captured: must not contribute
  EXPECT_TRUE(summary.empty());
  summary.add(observation_with_total_seconds(1.0));
  summary.add(observation_with_total_seconds(3.0));
  ASSERT_EQ(summary.count(), 2u);
  EXPECT_DOUBLE_EQ(summary.stat(LedgerField::kTotalSeconds).mean, 2.0);
}

TEST(Ledger, CaptureDerivesFieldsFromObservation) {
  RunObservation observation;
  observation.profiler.add(Category::kSetup, 2'000'000'000u);
  observation.profiler.add(Category::kTraceGen, 500'000'000u);
  observation.profiler.add(Category::kSnapshot, 250'000'000u);
  observation.profiler.add_run(4'000'000'000u, 1000);
  observation.counters.add(Counter::kSimEventsScheduled, 1234);
  observation.counters.add(Counter::kTopologyRecomputes, 25);
  observation.counters.add(Counter::kTopologyRecomputeSkips, 75);
  observation.counters.add(Counter::kTraceCacheHits, 1);
  observation.counters.add(Counter::kTraceCacheMisses, 3);
  observation.counters.add(Counter::kMediumCandidates, 200);
  observation.counters.add(Counter::kMediumCandidatesAccepted, 50);
  observation.ledger = {/*total_wall_ns=*/8'000'000'000u,
                        /*peak_rss_bytes=*/42u << 20, /*captured=*/true};

  const auto value = [&](LedgerField field) {
    return ledger_value(observation, field);
  };
  EXPECT_DOUBLE_EQ(value(LedgerField::kTotalSeconds), 8.0);
  EXPECT_DOUBLE_EQ(value(LedgerField::kSetupSeconds), 2.0);
  EXPECT_DOUBLE_EQ(value(LedgerField::kTraceGenSeconds), 0.5);
  EXPECT_DOUBLE_EQ(value(LedgerField::kSimSeconds), 4.0);
  EXPECT_DOUBLE_EQ(value(LedgerField::kSnapshotSeconds), 0.25);
  // Events processed (the profiler's count), not events scheduled.
  EXPECT_DOUBLE_EQ(value(LedgerField::kEvents), 1000.0);
  EXPECT_DOUBLE_EQ(value(LedgerField::kPeakRssBytes), 42u << 20);
  EXPECT_DOUBLE_EQ(value(LedgerField::kRecomputeHitRate), 0.75);
  EXPECT_DOUBLE_EQ(value(LedgerField::kTraceCacheHitRate), 0.25);
  EXPECT_DOUBLE_EQ(value(LedgerField::kGridHitRate), 0.25);
}

TEST(Ledger, FieldNamesAreStable) {
  // Exported names are part of the JSONL / Prometheus schema; pin every
  // one, in LedgerField order.
  constexpr const char* kNames[] = {
      "total_seconds",
      "setup_seconds",
      "trace_gen_seconds",
      "sim_seconds",
      "snapshot_seconds",
      "events",
      "peak_rss_bytes",
      "recompute_hit_rate",
      "trace_cache_hit_rate",
      "grid_hit_rate",
      "medium_query_seconds",
      "view_assembly_seconds",
      "protocol_select_seconds",
      "delivery_seconds",
  };
  ASSERT_EQ(std::size(kNames), kLedgerFieldCount);
  for (std::size_t f = 0; f < kLedgerFieldCount; ++f) {
    EXPECT_STREQ(ledger_field_name(static_cast<LedgerField>(f)), kNames[f]);
  }
}

TraceEvent event_at(double time) {
  TraceEvent event;
  event.time = time;
  event.kind = EventKind::kHelloTx;
  return event;
}

TEST(FlightRecorder, KeepsEverythingBeforeWrap) {
  FlightRecorder flight;
  flight.set_capacity(4);
  flight.record(event_at(1.0));
  flight.record(event_at(2.0));
  EXPECT_EQ(flight.size(), 2u);
  EXPECT_EQ(flight.total_recorded(), 2u);
  std::vector<TraceEvent> out;
  flight.snapshot(out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0].time, 1.0);
  EXPECT_DOUBLE_EQ(out[1].time, 2.0);
}

TEST(FlightRecorder, WrapKeepsNewestInOldestFirstOrder) {
  FlightRecorder flight;
  flight.set_capacity(4);
  for (int i = 1; i <= 10; ++i) flight.record(event_at(i));
  EXPECT_EQ(flight.size(), 4u);
  EXPECT_EQ(flight.total_recorded(), 10u);
  std::vector<TraceEvent> out;
  flight.snapshot(out);
  ASSERT_EQ(out.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(out[i].time, 7.0 + static_cast<double>(i));
  }
}

TEST(FlightRecorder, ZeroCapacityRecordsNothing) {
  FlightRecorder flight;
  flight.record(event_at(1.0));  // capacity never set: must be a no-op
  flight.set_capacity(0);
  flight.record(event_at(2.0));
  EXPECT_EQ(flight.size(), 0u);
  EXPECT_EQ(flight.total_recorded(), 0u);
}

TEST(FlightRecorder, ProbeRoutesEventsByFlags) {
  RunObservation observation;
  const Probe probe(&observation);
  EXPECT_FALSE(probe.tracing()) << "no trace, no ring: nothing to record";
  observation.flight.set_capacity(8);  // a capacity turns the ring on
  EXPECT_TRUE(probe.tracing());
  probe.trace(EventKind::kHelloTx, 1.0, 7);
  EXPECT_EQ(observation.flight.total_recorded(), 1u);
  EXPECT_TRUE(observation.trace.empty())
      << "flight recording must not feed the full trace sink";

  observation.trace_on = true;
  probe.trace(EventKind::kHelloRx, 2.0, 8);
  EXPECT_EQ(observation.flight.total_recorded(), 2u);
  EXPECT_EQ(observation.trace.size(), 1u);
}

TEST(PostMortem, WritesOneJsonLinePerIncident) {
  const std::string path = testing::TempDir() + "postmortem.jsonl";
  PostMortemWriter writer;
  ASSERT_TRUE(writer.open(path));

  RunObservation observation = observation_with_total_seconds(12.0);
  observation.flight.set_capacity(2);
  for (int i = 1; i <= 3; ++i) {
    observation.flight.record(event_at(static_cast<double>(i)));
  }
  observation.counters.add(Counter::kHelloTx, 9);

  PostMortem incident;
  incident.config_index = 2;
  incident.replication = 1;
  incident.seed = 777;
  incident.reason = "soft_deadline_exceeded";
  incident.detail = "replication took 12.0s against a 5.0s soft deadline";
  incident.wall_seconds = 12.0;
  incident.soft_deadline_seconds = 5.0;
  incident.config_summary = "protocol=RNG nodes=100";
  incident.observation = &observation;
  writer.write(incident);
  EXPECT_EQ(writer.incidents(), 1u);
  writer.close();

  const std::string content = slurp(path);
  EXPECT_NE(content.find("\"config_index\":2"), std::string::npos);
  EXPECT_NE(content.find("\"seed\":777"), std::string::npos);
  EXPECT_NE(content.find("\"reason\":\"soft_deadline_exceeded\""),
            std::string::npos);
  EXPECT_NE(content.find("\"config\":\"protocol=RNG nodes=100\""),
            std::string::npos);
  EXPECT_NE(content.find("\"total_seconds\":12"), std::string::npos);
  EXPECT_NE(content.find("\"hello_tx\":9"), std::string::npos);
  // Ring dumped oldest-to-newest, wrapped: events at t=2 and t=3 survive.
  EXPECT_NE(content.find("\"flight_total_recorded\":3"), std::string::npos);
  EXPECT_EQ(content.find("\"t\":1,"), std::string::npos);
  EXPECT_LT(content.find("\"t\":2,"), content.find("\"t\":3,"));
  // Exactly one line, ending in a newline.
  ASSERT_FALSE(content.empty());
  EXPECT_EQ(content.back(), '\n');
  EXPECT_EQ(std::count(content.begin(), content.end(), '\n'), 1);
}

RunObservation observation_with_events(std::uint64_t events) {
  RunObservation observation;
  observation.counters.add(Counter::kSimEventsScheduled, events);
  observation.profiler.add_run(events * 1000, events);
  observation.ledger = {events * 1000, 0, true};
  return observation;
}

TEST(MetricsExporter, StreamsJsonlAndPrometheus) {
  const std::string jsonl_path = testing::TempDir() + "metrics.jsonl";
  const std::string prom_path = testing::TempDir() + "metrics.prom";
  MetricsExporter exporter;
  MetricsExporter::Options options;
  options.jsonl_path = jsonl_path;
  options.prom_path = prom_path;
  options.job = "telemetry_test";
  ASSERT_TRUE(exporter.open(options));

  exporter.record(observation_with_events(100));
  exporter.record(observation_with_events(300));
  EXPECT_EQ(exporter.completed(), 2u);
  exporter.close();

  const std::string jsonl = slurp(jsonl_path);
  // One snapshot per record; close() adds none.
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 2);
  EXPECT_NE(jsonl.find("\"type\":\"metrics\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"job\":\"telemetry_test\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"completed\":2"), std::string::npos);
  EXPECT_NE(jsonl.find("\"sim_events_scheduled\":400"), std::string::npos);
  EXPECT_NE(jsonl.find("\"total_seconds\":{\"mean\":"), std::string::npos);

  const std::string prom = slurp(prom_path);
  EXPECT_NE(
      prom.find("mstc_replications_completed{job=\"telemetry_test\"} 2"),
      std::string::npos);
  EXPECT_NE(
      prom.find("mstc_sim_events_scheduled_total{job=\"telemetry_test\"} "
                "400"),
      std::string::npos);
  EXPECT_NE(prom.find("mstc_ledger_events{job=\"telemetry_test\","
                      "stat=\"p50\"} 100"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE mstc_hello_tx_total counter"),
            std::string::npos);
}

TEST(SweepTelemetry, LedgerWatchdogAndExporterRideTheSweep) {
  runner::ScenarioConfig cfg;
  cfg.node_count = 30;
  cfg.duration = 2.0;
  cfg.warmup = 0.5;
  cfg.seed = 4242;
  constexpr std::size_t kRepeats = 3;

  const std::string postmortem_path =
      testing::TempDir() + "sweep_postmortem.jsonl";
  PostMortemWriter postmortem;
  ASSERT_TRUE(postmortem.open(postmortem_path));
  MetricsExporter exporter;
  MetricsExporter::Options options;
  options.jsonl_path = testing::TempDir() + "sweep_metrics.jsonl";
  ASSERT_TRUE(exporter.open(options));

  std::vector<RunObservation> observations;
  runner::SweepHooks hooks;
  hooks.observations = &observations;
  hooks.ledger = true;
  hooks.flight_capacity = 16;
  hooks.exporter = &exporter;
  hooks.postmortem = &postmortem;
  // Impossible soft deadline: every replication must be flagged, proving
  // the watchdog fires and dumps a complete diagnosis.
  hooks.soft_deadline_seconds = 1e-9;

  util::ThreadPool pool(2);
  const auto results = runner::run_batch_raw({cfg}, kRepeats, pool, hooks);
  exporter.close();

  ASSERT_EQ(results.size(), kRepeats);
  ASSERT_EQ(observations.size(), kRepeats);
  LedgerSummary summary;
  for (const RunObservation& observation : observations) {
    EXPECT_TRUE(observation.ledger.captured);
    EXPECT_GT(ledger_value(observation, LedgerField::kEvents), 0.0);
    EXPECT_GT(observation.ledger.total_wall_ns, 0u);
    EXPECT_GT(observation.ledger.peak_rss_bytes, 0u);
    EXPECT_GT(observation.flight.total_recorded(), 0u);
    EXPECT_LE(observation.flight.size(), 16u);
    summary.add(observation);
  }
  EXPECT_EQ(summary.count(), kRepeats);
  EXPECT_GT(summary.stat(LedgerField::kEvents).mean, 0.0);
  EXPECT_EQ(exporter.completed(), kRepeats);
  EXPECT_EQ(postmortem.incidents(), kRepeats);
  postmortem.close();
  const std::string dumped = slurp(postmortem_path);
  EXPECT_NE(dumped.find("\"reason\":\"soft_deadline_exceeded\""),
            std::string::npos);
  EXPECT_NE(dumped.find("\"flight\":["), std::string::npos);
  EXPECT_NE(dumped.find("protocol=RNG"), std::string::npos);
}

TEST(SweepTelemetry, EtaIsUnknownUntilMeasurable) {
  // Satellite regression test for the bogus-ETA fix: the very first
  // progress callback must either flag eta_known or report a finite,
  // non-negative ETA — and SweepProgress's default state must read as
  // "unknown" so consumers can't print a garbage estimate.
  const runner::SweepProgress defaults;
  EXPECT_FALSE(defaults.eta_known);

  runner::ScenarioConfig cfg;
  cfg.node_count = 20;
  cfg.duration = 1.0;
  cfg.warmup = 0.2;
  cfg.seed = 99;
  runner::SweepHooks hooks;
  std::size_t callbacks = 0;
  hooks.on_progress = [&](const runner::SweepProgress& progress) {
    ++callbacks;
    EXPECT_GT(progress.completed, 0u);
    if (progress.eta_known) {
      EXPECT_GE(progress.eta_seconds, 0.0);
      EXPECT_TRUE(std::isfinite(progress.eta_seconds));
    } else {
      EXPECT_EQ(progress.eta_seconds, 0.0);
    }
  };
  util::ThreadPool pool(2);
  (void)runner::run_batch_raw({cfg}, 2, pool, hooks);
  EXPECT_EQ(callbacks, 2u);
}

}  // namespace
}  // namespace mstc::obs
