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
  return base;
}

std::size_t sweep_repeats(std::size_t fallback) {
  if (util::env_flag("MSTC_PAPER_SCALE")) fallback = 20;
  return static_cast<std::size_t>(util::env_or(
      "MSTC_REPEATS", static_cast<std::int64_t>(fallback)));
}

}  // namespace mstc::runner
