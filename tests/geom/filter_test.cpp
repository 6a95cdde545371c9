// The SoA range filter must accept exactly the ids a plain distance_sq
// loop accepts, in the same order — the contract the medium and snapshot
// paths rely on to reproduce their brute-force scans byte for byte.
#include "geom/filter.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "geom/vec2.hpp"
#include "util/prng.hpp"

namespace mstc::geom {
namespace {

struct Fleet {
  std::vector<double> xs;
  std::vector<double> ys;
  std::vector<std::size_t> ids;
};

Fleet random_fleet(std::uint64_t seed, std::size_t count, double extent) {
  util::Xoshiro256 rng(seed);
  Fleet fleet;
  for (std::size_t i = 0; i < count; ++i) {
    fleet.xs.push_back(rng.uniform(0.0, extent));
    fleet.ys.push_back(rng.uniform(0.0, extent));
    fleet.ids.push_back(i);
  }
  return fleet;
}

std::vector<std::size_t> run_filter(const Fleet& fleet, Vec2 origin,
                                    double range_sq, std::size_t skip) {
  std::vector<std::size_t> out;
  filter_within_range(fleet.xs.data(), fleet.ys.data(), fleet.ids.data(),
                      fleet.ids.size(), origin, range_sq, skip, out);
  return out;
}

// The reference: the brute-force predicate, one point at a time.
std::vector<std::size_t> run_plain(const Fleet& fleet, Vec2 origin,
                                   double range_sq, std::size_t skip) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < fleet.ids.size(); ++i) {
    if (fleet.ids[i] == skip) continue;
    if (distance_sq(origin, Vec2{fleet.xs[i], fleet.ys[i]}) <= range_sq) {
      out.push_back(fleet.ids[i]);
    }
  }
  return out;
}

TEST(Filter, BackendNameIsKnown) {
  EXPECT_EQ(std::string(filter_backend_name()), "scalar");
}

TEST(Filter, RandomizedFleetsMatchScalarByteForByte) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::size_t count = 1 + static_cast<std::size_t>(seed * 7 % 67);
    const Fleet fleet = random_fleet(seed, count, 1000.0);
    util::Xoshiro256 rng(seed ^ 0x9e3779b97f4a7c15ULL);
    const Vec2 origin{rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)};
    const double range = rng.uniform(0.0, 500.0);
    const double range_sq = range * range;
    const auto filtered = run_filter(fleet, origin, range_sq, kFilterNoSkip);
    const auto plain = run_plain(fleet, origin, range_sq, kFilterNoSkip);
    ASSERT_EQ(filtered, plain) << "seed " << seed;
    EXPECT_EQ(count_within_range(fleet.xs.data(), fleet.ys.data(), count,
                                 origin, range_sq),
              plain.size());
    // Input ids are ascending, so accepted ids must be too.
    for (std::size_t i = 1; i < filtered.size(); ++i) {
      EXPECT_LT(filtered[i - 1], filtered[i]);
    }
  }
}

TEST(Filter, ExactRangeBoundaryIsAccepted) {
  // distance_sq == range_sq exactly: 3-4-5 triangles are representable,
  // and the predicate is <=, so the boundary point must be accepted; one
  // ulp outside must be rejected.
  Fleet fleet;
  fleet.xs = {3.0, std::nextafter(3.0, 4.0), 0.0};
  fleet.ys = {4.0, 4.0, 5.0};
  fleet.ids = {0, 1, 2};
  const Vec2 origin{0.0, 0.0};
  const double range_sq = 25.0;
  const auto filtered = run_filter(fleet, origin, range_sq, kFilterNoSkip);
  EXPECT_EQ(filtered, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(filtered, run_plain(fleet, origin, range_sq, kFilterNoSkip));
}

TEST(Filter, DenormalsAndTinyRangesMatch) {
  const double denormal = std::numeric_limits<double>::denorm_min();
  Fleet fleet;
  fleet.xs = {0.0, denormal, 1e-308, -denormal, 5e-324};
  fleet.ys = {denormal, 0.0, -1e-308, denormal, 0.0};
  fleet.ids = {0, 1, 2, 3, 4};
  const Vec2 origin{0.0, 0.0};
  for (const double range_sq : {0.0, denormal, 1e-320, 1e-300}) {
    EXPECT_EQ(run_filter(fleet, origin, range_sq, kFilterNoSkip),
              run_plain(fleet, origin, range_sq, kFilterNoSkip))
        << "range_sq " << range_sq;
  }
}

TEST(Filter, SkipExcludesExactlyThatId) {
  const Fleet fleet = random_fleet(42, 33, 100.0);
  const Vec2 origin{fleet.xs[10], fleet.ys[10]};
  const double range_sq = 50.0 * 50.0;
  const auto with_self = run_filter(fleet, origin, range_sq, kFilterNoSkip);
  const auto without = run_filter(fleet, origin, range_sq, 10);
  ASSERT_EQ(without.size() + 1, with_self.size());
  for (std::size_t id : without) EXPECT_NE(id, 10u);
  EXPECT_EQ(without, run_plain(fleet, origin, range_sq, 10));
}

TEST(Filter, EmptyAndSingleElementInputs) {
  Fleet fleet;
  std::vector<std::size_t> out{99};
  filter_within_range(fleet.xs.data(), fleet.ys.data(), fleet.ids.data(), 0,
                      Vec2{0.0, 0.0}, 1.0, kFilterNoSkip, out);
  EXPECT_EQ(out, std::vector<std::size_t>{99});  // appends, never clears
  fleet.xs = {1.0};
  fleet.ys = {0.0};
  fleet.ids = {7};
  EXPECT_EQ(run_filter(fleet, {0.0, 0.0}, 1.0, kFilterNoSkip),
            (std::vector<std::size_t>{7}));
  EXPECT_EQ(run_filter(fleet, {0.0, 0.0}, 1.0, 7), std::vector<std::size_t>{});
}

}  // namespace
}  // namespace mstc::geom
