#include "runner/sweep.hpp"

#include <atomic>
#include <cstdio>
#include <exception>

#include "obs/profile.hpp"
#include "runner/scenario.hpp"
#include "util/mutex.hpp"
#include "util/prng.hpp"
#include "util/rusage.hpp"
#include "util/thread_pool.hpp"

namespace mstc::runner {

namespace {

/// One-line config description for post-mortems (obs stays independent of
/// ScenarioConfig, so the runner renders it).
std::string config_summary(const ScenarioConfig& cfg) {
  char buffer[256];
  std::snprintf(buffer, sizeof buffer,
                "protocol=%s mode=%s nodes=%zu mobility=%s speed=%.3g "
                "buffer=%.3g duration=%.3g",
                cfg.protocol.c_str(),
                std::string(core::to_string(cfg.mode)).c_str(), cfg.node_count,
                cfg.mobility_model.c_str(), cfg.average_speed,
                cfg.buffer_width, cfg.duration);
  return buffer;
}

/// Assembles and writes one incident from whatever the slot holds.
void dump_postmortem(obs::PostMortemWriter& writer, const SweepHooks& hooks,
                     const ScenarioConfig& cfg, std::size_t config_index,
                     std::size_t replication, const char* reason,
                     std::string detail, double wall_seconds,
                     const obs::RunObservation* slot) {
  obs::PostMortem incident;
  incident.config_index = config_index;
  incident.replication = replication;
  incident.seed = cfg.seed;
  incident.reason = reason;
  incident.detail = std::move(detail);
  incident.wall_seconds = wall_seconds;
  incident.soft_deadline_seconds = hooks.soft_deadline_seconds;
  incident.config_summary = config_summary(cfg);
  incident.observation = slot;
  writer.write(incident);
}

}  // namespace

std::vector<metrics::RunStats> run_batch_raw(
    const std::vector<ScenarioConfig>& configs, std::size_t repeats,
    util::ThreadPool& pool, const SweepHooks& hooks) {
  const std::size_t total = configs.size() * repeats;
  std::vector<metrics::RunStats> results(total);

  obs::RunObservation* slots = nullptr;
  if (hooks.observations != nullptr) {
    hooks.observations->assign(total, obs::RunObservation{});
    for (obs::RunObservation& slot : *hooks.observations) {
      slot.trace_on = hooks.trace;
      // The ledger's phase split reads the profiler, so ledger implies
      // profile.
      slot.profile_on = hooks.profile || hooks.ledger;
      slot.flight.set_capacity(hooks.flight_capacity);
    }
    slots = hooks.observations->data();
  }

  // Ledger capture, the straggler watchdog and the exporter all need the
  // replication's wall time; everything else skips the clock reads.
  const bool ledger_on = hooks.ledger && slots != nullptr;
  const bool watchdog_on =
      hooks.postmortem != nullptr && hooks.soft_deadline_seconds > 0.0;
  const bool time_tasks = ledger_on || watchdog_on ||
                          hooks.postmortem != nullptr ||
                          (hooks.exporter != nullptr && slots != nullptr);

  // Progress plumbing. The counter is the only cross-task shared state;
  // the callback itself is serialized (progress_mutex) so user code needs
  // no locking. Result and observation slots need neither: replication r
  // writes slot r and nothing else, so tasks never share a slot.
  std::atomic<std::size_t> completed{0};
  util::Mutex progress_mutex;
  const bool report = static_cast<bool>(hooks.on_progress);
  const std::uint64_t wall_start = report ? obs::wall_now_ns() : 0;

  util::parallel_for(pool, total, [&](std::size_t task) {
    const std::size_t config_index = task / repeats;
    const std::size_t replication = task % repeats;
    ScenarioConfig cfg = configs[config_index];
    cfg.seed = util::derive_seed(cfg.seed, replication + 1);
    obs::RunObservation* slot = slots != nullptr ? &slots[task] : nullptr;
    const std::uint64_t task_start = time_tasks ? obs::wall_now_ns() : 0;
    try {
      results[task] = run_scenario(cfg, slot);
    } catch (const std::exception& error) {
      // Dump the diagnosis to disk first, then let it escape:
      // parallel_for rethrows it on the caller.
      if (hooks.postmortem != nullptr) {
        const double wall_seconds =
            static_cast<double>(obs::wall_now_ns() - task_start) * 1e-9;
        dump_postmortem(*hooks.postmortem, hooks, cfg, config_index,
                        replication, "exception", error.what(), wall_seconds,
                        slot);
      }
      throw;
    }
    const std::uint64_t task_wall_ns =
        time_tasks ? obs::wall_now_ns() - task_start : 0;
    if (ledger_on) {
      slot->ledger = {task_wall_ns, util::peak_rss_bytes(), true};
    }
    if (watchdog_on) {
      const double wall_seconds = static_cast<double>(task_wall_ns) * 1e-9;
      if (wall_seconds > hooks.soft_deadline_seconds) {
        char detail[96];
        std::snprintf(detail, sizeof detail,
                      "replication took %.3fs against a %.3fs soft deadline",
                      wall_seconds, hooks.soft_deadline_seconds);
        dump_postmortem(*hooks.postmortem, hooks, cfg, config_index,
                        replication, "soft_deadline_exceeded", detail,
                        wall_seconds, slot);
      }
    }
    if (hooks.exporter != nullptr && slot != nullptr) {
      // The slot belongs to a finished replication, so reading it here is
      // race-free; the exporter serializes its own aggregates.
      hooks.exporter->record(*slot);
    }
    if (report) {
      const std::size_t done = completed.fetch_add(1) + 1;
      SweepProgress progress;
      progress.completed = done;
      progress.total = total;
      progress.elapsed_seconds =
          static_cast<double>(obs::wall_now_ns() - wall_start) * 1e-9;
      progress.eta_known = done > 0 && progress.elapsed_seconds > 0.0;
      progress.eta_seconds =
          progress.eta_known
              ? progress.elapsed_seconds / static_cast<double>(done) *
                    static_cast<double>(total - done)
              : 0.0;
      const util::MutexLock lock(progress_mutex);
      hooks.on_progress(progress);
    }
  });
  return results;
}

std::vector<metrics::RunAggregator> run_batch(
    const std::vector<ScenarioConfig>& configs, std::size_t repeats,
    util::ThreadPool& pool, const SweepHooks& hooks) {
  const std::vector<metrics::RunStats> results =
      run_batch_raw(configs, repeats, pool, hooks);
  std::vector<metrics::RunAggregator> aggregated(configs.size());
  for (std::size_t task = 0; task < results.size(); ++task) {
    aggregated[task / repeats].add(results[task]);
  }
  return aggregated;
}

metrics::RunAggregator run_repeated(const ScenarioConfig& base,
                                    std::size_t repeats,
                                    const SweepHooks& hooks) {
  return run_batch({base}, repeats, util::global_pool(), hooks).front();
}

}  // namespace mstc::runner
