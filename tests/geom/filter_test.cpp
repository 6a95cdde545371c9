// Result files record the candidate filter's backend name; the grid paths
// that re-check candidates are covered by the medium and snapshot
// differential suites (tests/sim/medium_grid_test.cpp,
// tests/metrics/snapshot_grid_test.cpp).
#include "geom/filter.hpp"

#include <gtest/gtest.h>

#include <string>

namespace mstc::geom {
namespace {

TEST(Filter, BackendNameIsKnown) {
  EXPECT_EQ(std::string(filter_backend_name()), "scalar");
}

}  // namespace
}  // namespace mstc::geom
