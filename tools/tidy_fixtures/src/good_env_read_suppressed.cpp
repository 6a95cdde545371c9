// Fixture: a deliberate environment read outside the sanctioned files,
// suppressed with a justification, must not be reported.
#include <string>

#include "util/options.hpp"

namespace mstc::fixture {

// Output location only: never changes what a run computes.
std::string dump_directory() {
  // mstc-tidy: allow(env-read)
  return util::env_or("MSTC_FIXTURE_DUMP_DIR", std::string{});
}

}  // namespace mstc::fixture
