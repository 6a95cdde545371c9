#include "runner/config.hpp"

#include "util/options.hpp"

namespace mstc::runner {

ScenarioConfig paper_scale(ScenarioConfig base) {
  base.duration = 100.0;
  base.flood_rate = 10.0;
  base.snapshot_rate = 10.0;
  return base;
}

ScenarioConfig apply_env_overrides(ScenarioConfig base) {
  if (util::env_flag("MSTC_PAPER_SCALE")) base = paper_scale(base);
  base.duration = util::env_or("MSTC_SIM_TIME", base.duration);
  base.node_count = static_cast<std::size_t>(util::env_or(
      "MSTC_NODES", static_cast<std::int64_t>(base.node_count)));
  base.flood_rate = util::env_or("MSTC_FLOOD_RATE", base.flood_rate);
  base.snapshot_rate = util::env_or("MSTC_SNAPSHOT_RATE", base.snapshot_rate);
  base.warmup = util::env_or("MSTC_WARMUP", base.warmup);
  if (util::env_flag("MSTC_MEDIUM_BRUTE")) base.medium_brute_force = true;
  if (util::env_flag("MSTC_NO_RECOMPUTE_CACHE")) base.recompute_cache = false;
  if (util::env_flag("MSTC_SNAPSHOT_BRUTE")) base.snapshot_brute_force = true;
  if (util::env_flag("MSTC_NO_TRACE_CACHE")) base.trace_cache = false;
  if (util::env_flag("MSTC_NO_BATCH_DELIVERY")) base.batch_delivery = false;
  if (util::env_flag("MSTC_FILTER_SCALAR")) base.scalar_filter = true;
  base.queue = util::env_or("MSTC_EVENT_QUEUE", base.queue);
  return base;
}

std::size_t sweep_repeats(std::size_t fallback) {
  if (util::env_flag("MSTC_PAPER_SCALE")) fallback = 20;
  return static_cast<std::size_t>(util::env_or(
      "MSTC_REPEATS", static_cast<std::int64_t>(fallback)));
}

}  // namespace mstc::runner
