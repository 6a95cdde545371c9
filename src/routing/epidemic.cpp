#include "routing/epidemic.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/algorithms.hpp"
#include "mobility/models.hpp"
#include "sim/medium.hpp"
#include "sim/simulator.hpp"
#include "util/prng.hpp"

namespace mstc::routing {

namespace {

using sim::NodeId;

struct Message {
  NodeId source = 0;
  NodeId destination = 0;
  double injected_at = 0.0;
  double delivered_at = -1.0;  // < 0: still in flight
  std::size_t copies = 1;      // replicas in existence (incl. source's)
};

/// One node's buffer: (message id, hops taken by this copy), FIFO order
/// for eviction of foreign copies.
struct Carried {
  std::size_t message = 0;
  std::size_t hops = 0;
};

class EpidemicSim {
 public:
  EpidemicSim(const EpidemicConfig& cfg, obs::RunObservation* observation)
      : cfg_(cfg),
        probe_(observation),
        traces_(mobility::generate_traces(
            *mobility::make_model(cfg.mobility_model, cfg.area,
                                  cfg.average_speed),
            cfg.node_count, cfg.duration,
            util::derive_seed(cfg.seed, 0xE81D))),
        medium_(traces_, {}),
        rng_(util::derive_seed(cfg.seed, 0xC0FFEE)),
        buffers_(cfg.node_count) {
    medium_.set_probe(&probe_);
  }

  EpidemicResult run() {
    schedule_beacons();
    inject_messages();
    schedule_snapshots();
    const std::uint64_t wall_start =
        probe_.profiler() != nullptr ? obs::wall_now_ns() : 0;
    simulator_.run_until(cfg_.duration);
    if (obs::Profiler* profiler = probe_.profiler()) {
      profiler->add_run(obs::wall_now_ns() - wall_start,
                        simulator_.processed_events());
    }

    EpidemicResult result;
    std::size_t delivered = 0;
    double copies_total = 0.0;
    for (const Message& m : messages_) {
      copies_total += static_cast<double>(m.copies);
      if (m.delivered_at >= 0.0) {
        ++delivered;
        result.delay.add(m.delivered_at - m.injected_at);
      }
    }
    result.delivery_ratio =
        messages_.empty()
            ? 0.0
            : static_cast<double>(delivered) /
                  static_cast<double>(messages_.size());
    result.mean_copies_per_message =
        messages_.empty() ? 0.0
                          : copies_total /
                                static_cast<double>(messages_.size());
    result.snapshot_connectivity = connectivity_.mean();
    return result;
  }

 private:
  void schedule_beacons() {
    for (NodeId u = 0; u < cfg_.node_count; ++u) {
      const double jittered =
          cfg_.beacon_interval * rng_.uniform(0.9, 1.1);
      beacon_interval_.push_back(jittered);
      simulator_.schedule_at(rng_.uniform(0.0, jittered),
                             [this, u] { beacon(u); });
    }
  }

  void beacon(NodeId u) {
    const obs::ScopedTimer timer(probe_.profiler(), obs::Category::kContact);
    const double now = simulator_.now();
    probe_.count(obs::Counter::kHelloTx);
    // A beacon == a contact opportunity: every node in range pulls the
    // copies it lacks from u (ideal anti-entropy; the reverse direction
    // happens on the receiver's own beacon).
    medium_.receivers(u, cfg_.range, now, contact_buffer_);
    for (NodeId v : contact_buffer_) transfer(u, v, now);
    if (now + beacon_interval_[u] <= cfg_.duration) {
      simulator_.schedule_in(beacon_interval_[u], [this, u] { beacon(u); });
    }
  }

  void transfer(NodeId from, NodeId to, double now) {
    for (const Carried& carried : buffers_[from]) {
      Message& m = messages_[carried.message];
      if (m.delivered_at >= 0.0) continue;  // already done: stop spreading
      if (carried.hops >= cfg_.max_relay_hops &&
          m.destination != to) {
        continue;  // relay budget exhausted; only the destination may pull
      }
      if (seen_[carried.message][to]) continue;
      seen_[carried.message][to] = 1;
      ++m.copies;
      probe_.count(obs::Counter::kEpidemicTransfers);
      if (m.destination == to) {
        m.delivered_at = now;
        probe_.count(obs::Counter::kEpidemicDeliveries);
        probe_.observe(obs::Hist::kEpidemicDelay, now - m.injected_at);
        probe_.trace(obs::EventKind::kEpidemicDelivery, now, to,
                     now - m.injected_at, carried.message);
        continue;
      }
      store(to, {carried.message, carried.hops + 1});
    }
  }

  void store(NodeId node, Carried copy) {
    auto& buffer = buffers_[node];
    if (cfg_.buffer_limit > 0 && buffer.size() >= cfg_.buffer_limit) {
      buffer.pop_front();  // evict the oldest copy
    }
    buffer.push_back(copy);
  }

  void inject_messages() {
    for (std::size_t i = 0; i < cfg_.message_count; ++i) {
      const double at = rng_.uniform(0.0, cfg_.inject_window);
      const NodeId source = rng_.uniform_below(cfg_.node_count);
      NodeId destination = rng_.uniform_below(cfg_.node_count);
      while (destination == source) {
        destination = rng_.uniform_below(cfg_.node_count);
      }
      simulator_.schedule_at(at, [this, source, destination] {
        const std::size_t id = messages_.size();
        messages_.push_back({source, destination, simulator_.now(), -1.0, 1});
        seen_.emplace_back(cfg_.node_count, 0);
        seen_[id][source] = 1;
        store(source, {id, 0});
        probe_.trace(obs::EventKind::kEpidemicInject, simulator_.now(),
                     source, 0.0, destination);
      });
    }
  }

  void schedule_snapshots() {
    for (double t = 0.0; t <= cfg_.duration; t += 5.0) {
      simulator_.schedule_at(t, [this] {
        // Union-find over the enumerated links — same double as building a
        // Graph and BFS-labeling it (the snapshot fast path's contract),
        // without the per-snapshot Graph allocation.
        medium_.links_within(cfg_.range, simulator_.now(), links_buffer_);
        connectivity_.add(graph::pair_connectivity_ratio(
            cfg_.node_count, links_buffer_, components_scratch_));
      });
    }
  }

  EpidemicConfig cfg_;
  obs::Probe probe_;
  std::vector<mobility::Trace> traces_;
  sim::Medium medium_;
  sim::Simulator simulator_;
  util::Xoshiro256 rng_;

  std::vector<double> beacon_interval_;
  std::vector<std::deque<Carried>> buffers_;
  std::vector<Message> messages_;
  std::vector<std::vector<char>> seen_;  // per message: node has a copy
  std::vector<NodeId> contact_buffer_;
  std::vector<std::pair<NodeId, NodeId>> links_buffer_;
  graph::UnionFind components_scratch_;
  util::Summary connectivity_;
};

}  // namespace

void validate(const EpidemicConfig& config) {
  const auto reject = [](const char* field, const std::string& why) {
    throw std::invalid_argument(std::string("EpidemicConfig.") + field +
                                ": " + why);
  };
  // A message needs a destination other than its source.
  if (config.node_count < 2) {
    reject("node_count", "needs at least 2 nodes, got " +
                             std::to_string(config.node_count));
  }
  const auto positive = [&](const char* field, double value) {
    if (!(std::isfinite(value) && value > 0.0)) {
      reject(field, "must be finite and > 0, got " + std::to_string(value));
    }
  };
  // Trace generation and the snapshot schedule run until `duration`, and
  // a beacon reschedules itself `beacon_interval` later.
  positive("duration", config.duration);
  positive("range", config.range);
  positive("beacon_interval", config.beacon_interval);
  if (!(std::isfinite(config.average_speed) && config.average_speed >= 0.0)) {
    reject("average_speed", "must be finite and >= 0, got " +
                                std::to_string(config.average_speed));
  }
  try {
    (void)mobility::make_model(config.mobility_model, config.area,
                               config.average_speed);
  } catch (const std::invalid_argument& error) {
    reject("mobility_model", error.what());
  }
}

EpidemicResult run_epidemic(const EpidemicConfig& config) {
  return run_epidemic(config, nullptr);
}

EpidemicResult run_epidemic(const EpidemicConfig& config,
                            obs::RunObservation* observation) {
  validate(config);
  EpidemicSim sim(config, observation);
  return sim.run();
}

}  // namespace mstc::routing
