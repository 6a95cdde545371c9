// Ablation I: greedy geographic unicast over the controlled topology.
//
// The end-to-end purpose of topology control is to carry routes. Each hop
// acts on positions one Hello interval stale; the buffer zone repairs the
// broken-link failures exactly as Theorem 5 predicts, while greedy local
// minima (the "stuck" column) are a property of the thinned topology that
// no buffer can fix — motivating the denser protocols.
#include "common.hpp"
#include "mobility/models.hpp"
#include "routing/greedy.hpp"
#include "topology/protocol.hpp"

int main() {
  using namespace mstc;
  const auto speeds = bench::speed_axis();
  const auto buffers = util::env_list("MSTC_BUFFERS", {0.0, 10.0, 100.0});
  const std::size_t repeats = runner::sweep_repeats(3);
  bench::banner("Ablation: greedy unicast routing",
                2 * buffers.size() * speeds.size(), repeats);

  constexpr double kRange = 250.0;
  constexpr std::size_t kNodes = 100;
  constexpr double kStaleness = 1.0;  // one Hello interval

  util::Table table({"protocol", "buffer_m", "speed_mps", "delivered",
                     "link_broken", "stuck", "mean_hops"});
  table.set_title(
      "Greedy routing over stale views (100 random pairs/snapshot)");

  for (const char* protocol_name : {"RNG", "SPT-2"}) {
    const auto suite = topology::make_protocol(protocol_name);
    for (const double buffer : buffers) {
      for (const double speed : speeds) {
        util::Summary delivered, broken, stuck, hops;
        for (std::size_t repeat = 0; repeat < repeats; ++repeat) {
          const auto model =
              mobility::make_paper_waypoint({900.0, 900.0}, speed);
          const auto traces = mobility::generate_traces(
              *model, kNodes, 30.0,
              util::derive_seed(bench::base_config().seed + repeat, 0x60));
          util::Xoshiro256 rng(
              util::derive_seed(bench::base_config().seed + repeat, 0x61));
          for (double t = 5.0; t <= 30.0; t += 5.0) {
            std::vector<geom::Vec2> believed(kNodes), actual(kNodes);
            for (std::size_t i = 0; i < kNodes; ++i) {
              believed[i] = traces[i].position(t - kStaleness);
              actual[i] = traces[i].position(t);
            }
            const auto topo = topology::build_topology(
                believed, kRange, *suite.protocol, *suite.cost);
            std::size_t ok = 0, dead_link = 0, minimum = 0, hop_total = 0,
                        ok_count = 0;
            constexpr int kPairs = 100;
            for (int pair = 0; pair < kPairs; ++pair) {
              const auto s = rng.uniform_below(kNodes);
              auto d = rng.uniform_below(kNodes);
              if (s == d) d = (d + 1) % kNodes;
              const auto outcome =
                  routing::greedy_route(topo, believed, actual, s, d, buffer);
              ok += outcome.delivered;
              dead_link += outcome.link_broken;
              minimum += outcome.stuck;
              if (outcome.delivered) {
                hop_total += outcome.hops;
                ++ok_count;
              }
            }
            delivered.add(static_cast<double>(ok) / kPairs);
            broken.add(static_cast<double>(dead_link) / kPairs);
            stuck.add(static_cast<double>(minimum) / kPairs);
            if (ok_count > 0) {
              hops.add(static_cast<double>(hop_total) /
                       static_cast<double>(ok_count));
            }
          }
        }
        table.add_row({protocol_name, buffer, speed,
                       bench::ci_cell(delivered), bench::ci_cell(broken),
                       bench::ci_cell(stuck), bench::ci_cell(hops, 1)});
      }
    }
  }
  bench::emit(table, "ablation_routing");
  return 0;
}
