// Fixture: library code reading MSTC_* behind the config's back. A
// scenario that consults the environment itself can be overridden by a
// developer's shell; the `env-read` rule routes every such read through
// runner::apply_env_overrides (src/runner/config.cpp).
#include <string>

#include "util/options.hpp"

namespace mstc::fixture {

bool hidden_hatch(bool configured) {
  return configured || util::env_flag("MSTC_FIXTURE_HATCH");
}

std::string hidden_backend(const std::string& configured) {
  return util::env_or("MSTC_FIXTURE_BACKEND", configured);
}

}  // namespace mstc::fixture
