// Micro-benchmarks of the per-node kernels (google-benchmark): protocol
// selection over a realistic 1-hop view, view assembly, effective-topology
// snapshots, and trace position queries. These bound the per-event cost of
// the simulator and of a real implementation's Hello handler.
#include <benchmark/benchmark.h>

#include "core/consistency.hpp"
#include "core/effective.hpp"
#include "metrics/snapshot.hpp"
#include "mobility/models.hpp"
#include "topology/builder.hpp"
#include "topology/protocol.hpp"
#include "util/prng.hpp"

namespace {

using namespace mstc;

constexpr double kRange = 250.0;

/// A dense random neighborhood around the origin (paper density: ~18
/// 1-hop neighbors).
std::vector<geom::Vec2> neighborhood(std::size_t total, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<geom::Vec2> positions{{0.0, 0.0}};
  while (positions.size() < total) {
    const geom::Vec2 p{rng.uniform(-kRange, kRange),
                       rng.uniform(-kRange, kRange)};
    if (p.norm() <= kRange) positions.push_back(p);
  }
  return positions;
}

/// A fast fleet's neighborhood around the origin: the first half of the
/// members within the normal range, the rest stale senders out to 2.5x
/// it, as a 160 m/s view still holds them under the 2.5 s expiry.
std::vector<geom::Vec2> stale_neighborhood(std::size_t total,
                                           std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<geom::Vec2> positions{{0.0, 0.0}};
  while (positions.size() < total) {
    const double reach =
        2 * positions.size() < total ? kRange : 2.5 * kRange;
    const geom::Vec2 p{rng.uniform(-reach, reach),
                       rng.uniform(-reach, reach)};
    if (p.norm() <= reach) positions.push_back(p);
  }
  return positions;
}

/// One refresh's topology work as the simulator pays it: ViewGraph::assign
/// (owner row evaluated, every other pair deferred) plus the protocol's
/// select, which evaluates the pairs it reads.
void BM_ProtocolSelect(benchmark::State& state, const char* name) {
  const auto suite = topology::make_protocol(name);
  const auto positions =
      stale_neighborhood(static_cast<std::size_t>(state.range(0)), 99);
  std::vector<topology::NodeId> ids(positions.size());
  std::vector<topology::VersionedPosition> records(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    ids[i] = i;
    records[i] = {positions[i], 1, 0.0};
  }
  std::vector<std::span<const topology::VersionedPosition>> versions;
  for (const auto& record : records) versions.emplace_back(&record, 1);
  topology::ViewGraph view;
  std::vector<std::size_t> chosen;
  for (auto _ : state) {
    view.assign(ids, versions, kRange, *suite.cost);
    suite.protocol->select(view, chosen);
    benchmark::DoNotOptimize(chosen.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK_CAPTURE(BM_ProtocolSelect, rng, "RNG")->Arg(19)->Arg(40);
BENCHMARK_CAPTURE(BM_ProtocolSelect, mst, "MST")->Arg(19)->Arg(40);
BENCHMARK_CAPTURE(BM_ProtocolSelect, spt2, "SPT-2")->Arg(19)->Arg(40);
BENCHMARK_CAPTURE(BM_ProtocolSelect, spt4, "SPT-4")->Arg(19)->Arg(40);
BENCHMARK_CAPTURE(BM_ProtocolSelect, yao, "Yao")->Arg(19)->Arg(40);
BENCHMARK_CAPTURE(BM_ProtocolSelect, cbtc, "CBTC")->Arg(19)->Arg(40);

void BM_ConsistentViewAssembly(benchmark::State& state) {
  const auto positions =
      neighborhood(static_cast<std::size_t>(state.range(0)), 7);
  std::vector<topology::NodeId> ids(positions.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  const topology::DistanceCost cost;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        topology::make_consistent_view(positions, ids, 0, kRange, cost));
  }
}
BENCHMARK(BM_ConsistentViewAssembly)->Arg(19)->Arg(40);

void BM_WeakViewAssembly(benchmark::State& state) {
  // Weak view with k = 3 records per sender.
  const auto positions =
      neighborhood(static_cast<std::size_t>(state.range(0)), 11);
  core::LocalViewStore store(0, 3, 1e9);
  util::Xoshiro256 rng(13);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    for (std::uint64_t version = 1; version <= 3; ++version) {
      const geom::Vec2 drift{rng.uniform(-20.0, 20.0),
                             rng.uniform(-20.0, 20.0)};
      store.record({i, {positions[i] + drift, version,
                        static_cast<double>(version)}});
    }
  }
  const topology::DistanceCost cost;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_weak_view(store, kRange, cost));
  }
}
BENCHMARK(BM_WeakViewAssembly)->Arg(19)->Arg(40);

void BM_EffectiveSnapshot(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(3);
  std::vector<geom::Vec2> positions;
  positions.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    positions.push_back({rng.uniform(0.0, 900.0), rng.uniform(0.0, 900.0)});
  }
  const auto suite = topology::make_protocol("RNG");
  const topology::NoneProtocol keep_all;
  core::ControllerConfig config;
  std::vector<core::NodeController> nodes;
  nodes.reserve(n);
  for (std::size_t u = 0; u < n; ++u) {
    nodes.emplace_back(u, *suite.protocol, *suite.cost, config);
  }
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      if (u != v && geom::distance(positions[u], positions[v]) <= kRange) {
        nodes[u].on_hello_receive({v, {positions[v], 1, 0.0}}, 0.0);
      }
    }
    nodes[u].on_hello_send(0.1, positions[u], 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(metrics::measure_snapshot(nodes, positions));
  }
}
BENCHMARK(BM_EffectiveSnapshot)->Arg(100)->Arg(200);

void BM_WholeTopologyBuild(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(5);
  std::vector<geom::Vec2> positions;
  positions.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    positions.push_back({rng.uniform(0.0, 900.0), rng.uniform(0.0, 900.0)});
  }
  const auto suite = topology::make_protocol("MST");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        topology::build_topology(positions, kRange, *suite.protocol,
                                 *suite.cost));
  }
}
BENCHMARK(BM_WholeTopologyBuild)->Arg(100)->Arg(200);

void BM_TracePositionQuery(benchmark::State& state) {
  const mobility::Area area{900.0, 900.0};
  const mobility::RandomWaypoint model(area, 10.0, 30.0);
  util::Xoshiro256 rng(17);
  const mobility::Trace trace = model.make_trace(rng, 1000.0);
  double t = 0.0;
  for (auto _ : state) {
    t += 0.37;
    if (t > 1000.0) t = 0.0;
    benchmark::DoNotOptimize(trace.position(t));
  }
}
BENCHMARK(BM_TracePositionQuery);

}  // namespace

BENCHMARK_MAIN();
