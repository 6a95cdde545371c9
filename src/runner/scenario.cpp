#include "runner/scenario.hpp"

#include <cassert>
#include <cmath>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>

#include "core/effective.hpp"
#include "mac/channel.hpp"
#include "metrics/snapshot.hpp"
#include "mobility/models.hpp"
#include "mobility/trace_cache.hpp"
#include "sim/medium.hpp"
#include "sim/simulator.hpp"
#include "topology/protocol.hpp"
#include "util/prng.hpp"

namespace mstc::runner {

namespace {

using core::NodeId;

constexpr double kPropagationDelay = 1e-5;   // seconds
constexpr double kMinForwardBackoff = 5e-4;  // seconds
constexpr double kMaxForwardBackoff = 2e-3;  // seconds
constexpr double kReactiveDecisionWait = 0.1;  // seconds after sync flood
constexpr double kProactiveSkewFraction = 0.1;
constexpr std::size_t kHelloBits = 512;   // ~64-byte beacon
constexpr std::size_t kDataBits = 2048;   // ~256-byte data packet
constexpr std::size_t kSyncBits = 320;    // ~40-byte initiation frame

/// True for "csma" (carrier sensing + collision loss; the paper's
/// future-work realistic MAC), false for "ideal" (the paper's
/// collision-free MAC); any other name is a configuration error.
bool uses_csma(const std::string& mac) {
  if (mac == "csma") return true;
  if (mac == "ideal") return false;
  throw std::invalid_argument("unknown MAC: " + mac);
}

/// Obtains the replication's immutable trace set — from the process-wide
/// TraceCache when enabled (sweep points differing only in protocol /
/// mode / buffer share one set), generated privately otherwise.
/// Generation is pure in (mobility inputs, derived seed), so the two
/// sources are bit-identical and trace_cache = false is a pure wall-clock
/// escape hatch.
std::shared_ptr<const mobility::TraceSet> acquire_traces(
    const ScenarioConfig& cfg, const obs::Probe& probe) {
  const obs::ScopedTimer timer(probe.profiler(), obs::Category::kTraceGen);
  const std::uint64_t seed = util::derive_seed(cfg.seed, 0xA11CE);
  const auto generate = [&cfg, seed] {
    return mobility::generate_traces(
        *mobility::make_model(cfg.mobility_model, cfg.area, cfg.average_speed),
        cfg.node_count, cfg.duration, seed);
  };
  if (!cfg.trace_cache) {
    probe.count(obs::Counter::kTraceCacheMisses);
    return std::make_shared<const mobility::TraceSet>(generate());
  }
  const mobility::TraceKey key{cfg.mobility_model, cfg.area.width,
                               cfg.area.height,    cfg.average_speed,
                               cfg.node_count,     cfg.duration,
                               seed};
  bool generated = false;
  auto traces = mobility::TraceCache::global().get(key, generate, &generated);
  probe.count(generated ? obs::Counter::kTraceCacheMisses
                        : obs::Counter::kTraceCacheHits);
  return traces;
}

class Scenario {
 public:
  Scenario(const ScenarioConfig& cfg, obs::RunObservation* observation)
      : cfg_(cfg),
        probe_(observation),
        traces_(acquire_traces(cfg, probe_)),
        medium_(*traces_,
                {.propagation_delay = kPropagationDelay,
                 .brute_force = cfg.medium_brute_force}),
        suite_(topology::make_protocol(cfg.protocol)),
        beacon_rng_(util::derive_seed(cfg.seed, 0xBEAC0)),
        traffic_rng_(util::derive_seed(cfg.seed, 0x7AFF1C)),
        loss_rng_(util::derive_seed(cfg.seed, 0x105535)),
        backoff_rng_(util::derive_seed(cfg.seed, 0xBACC0FF)) {
    core::ControllerConfig controller_config;
    controller_config.normal_range = cfg.normal_range;
    controller_config.mode = cfg.mode;
    controller_config.history_limit = cfg.effective_history();
    controller_config.view_expiry = 2.5 * cfg.hello_interval;
    controller_config.buffer.width = cfg.buffer_width;
    if (cfg.adaptive_buffer) {
      controller_config.buffer.adaptive = true;
      // Speed bound of the paper's waypoint config: 1.5 * average speed.
      controller_config.buffer.max_speed = 1.5 * cfg.average_speed;
      controller_config.buffer.delay_bound = core::delay_bound(
          cfg.mode, 1.25 * cfg.hello_interval, controller_config.history_limit);
    }
    controller_config.accept_physical_neighbors = cfg.physical_neighbors;
    controller_config.recompute_cache = cfg.recompute_cache;

    nodes_.reserve(cfg.node_count);
    for (NodeId u = 0; u < cfg.node_count; ++u) {
      nodes_.emplace_back(u, *suite_.protocol, *suite_.cost,
                          controller_config);
    }
    for (auto& node : nodes_) node.attach_probe(&probe_);
    medium_.set_probe(&probe_);
    simulator_.set_probe(&probe_);
    // Size the event kernel for the whole run up front: per-node beacon
    // chains plus the pre-scheduled flood and snapshot events (x2 covers
    // per-hop forwarding churn and MAC retries).
    simulator_.reserve_events(
        2 * cfg.node_count +
        2 * static_cast<std::size_t>(
                cfg.duration * (2.0 * cfg.flood_rate + cfg.snapshot_rate)) +
        64);
    last_hello_version_.assign(cfg.node_count, 0);

    if (uses_csma(cfg.mac)) {
      channel_ = std::make_unique<mac::ContentionChannel>(
          simulator_, medium_, mac::ContentionChannel::Config{},
          util::derive_seed(cfg.seed, 0x3AC));
    }
  }

  metrics::RunStats run() {
    schedule_beaconing();
    schedule_floods();
    schedule_snapshots();
    const std::uint64_t wall_start =
        probe_.profiler() != nullptr ? obs::wall_now_ns() : 0;
    simulator_.run_until(cfg_.duration);
    if (obs::Profiler* profiler = probe_.profiler()) {
      profiler->add_run(obs::wall_now_ns() - wall_start,
                        simulator_.processed_events());
    }
    metrics::RunStats stats;
    stats.delivery_ratio = delivery_.mean();
    stats.strict_connectivity = strict_.mean();
    stats.mean_range = range_.mean();
    stats.mean_logical_degree = logical_degree_.mean();
    stats.mean_physical_degree = physical_degree_.mean();
    stats.control_tx_rate =
        static_cast<double>(control_transmissions_) /
        (static_cast<double>(nodes_.size()) * cfg_.duration);
    if (channel_) {
      const double total = static_cast<double>(channel_->receptions() +
                                               channel_->collisions());
      stats.mac_collision_fraction =
          total > 0.0 ? static_cast<double>(channel_->collisions()) / total
                      : 0.0;
    }
    return stats;
  }

 private:
  // --- beaconing -----------------------------------------------------

  void schedule_beaconing() {
    switch (cfg_.mode) {
      case core::ConsistencyMode::kLatest:
      case core::ConsistencyMode::kViewSync:
      case core::ConsistencyMode::kWeak:
        for (NodeId u = 0; u < nodes_.size(); ++u) {
          const double interval =
              cfg_.hello_interval *
              (1.0 + cfg_.hello_jitter * beacon_rng_.uniform(-1.0, 1.0));
          async_interval_.push_back(interval);
          simulator_.schedule_at(beacon_rng_.uniform(0.0, interval),
                                 [this, u] { async_hello(u); });
        }
        break;
      case core::ConsistencyMode::kProactive:
        for (NodeId u = 0; u < nodes_.size(); ++u) {
          proactive_skew_.push_back(beacon_rng_.uniform(
              0.0, kProactiveSkewFraction * cfg_.hello_interval));
        }
        schedule_proactive_round(0);
        break;
      case core::ConsistencyMode::kReactive:
        sync_round_seen_.assign(nodes_.size(), 0);
        schedule_reactive_round(1);  // round numbers start at 1 (0 = unseen)
        break;
    }
  }

  void async_hello(NodeId u) {
    const obs::ScopedTimer timer(probe_.profiler(), obs::Category::kBeaconing);
    const double now = simulator_.now();
    const std::uint64_t version = ++last_hello_version_[u];
    broadcast_hello(u, version, now);
    if (now + async_interval_[u] <= cfg_.duration) {
      simulator_.schedule_at(now + async_interval_[u],
                             [this, u] { async_hello(u); });
    }
  }

  void schedule_proactive_round(std::uint64_t round) {
    const double base = static_cast<double>(round) * cfg_.hello_interval;
    if (base > cfg_.duration) return;
    for (NodeId u = 0; u < nodes_.size(); ++u) {
      simulator_.schedule_at(base + proactive_skew_[u], [this, u, round] {
        const obs::ScopedTimer timer(probe_.profiler(),
                                     obs::Category::kBeaconing);
        last_hello_version_[u] = round;
        broadcast_hello(u, round, simulator_.now());
      });
    }
    simulator_.schedule_at(base, [this, round] {
      schedule_proactive_round(round + 1);
    });
  }

  void schedule_reactive_round(std::uint64_t round) {
    const double start = static_cast<double>(round - 1) * cfg_.hello_interval;
    if (start > cfg_.duration) return;
    // The initiator (node 0) starts the synchronization flood; every node
    // sends its Hello on first contact with the round, then decides after
    // a bounded wait.
    simulator_.schedule_at(start, [this, round] { sync_contact(0, round); });
    simulator_.schedule_at(start + kReactiveDecisionWait, [this, round] {
      const obs::ScopedTimer timer(probe_.profiler(),
                                   obs::Category::kSyncFlood);
      for (auto& node : nodes_) {
        node.refresh_selection_versioned(simulator_.now(), round);
      }
    });
    simulator_.schedule_at(start, [this, round] {
      schedule_reactive_round(round + 1);
    });
  }

  void sync_contact(NodeId u, std::uint64_t round) {
    if (sync_round_seen_[u] >= round) return;
    const obs::ScopedTimer timer(probe_.profiler(),
                                 obs::Category::kSyncFlood);
    sync_round_seen_[u] = round;
    const double now = simulator_.now();
    last_hello_version_[u] = round;
    broadcast_hello(u, round, now);
    ++control_transmissions_;  // the separate initiation forward
    probe_.count(obs::Counter::kSyncFloodForwards);
    probe_.trace(obs::EventKind::kSyncContact, now, u, 0.0, round);
    // Forward the initiation (flooding: every node forwards once).
    if (channel_) {
      channel_->transmit(u, cfg_.normal_range, kSyncBits,
                         [this, round](NodeId v) { sync_contact(v, round); });
      return;
    }
    medium_.receivers(u, cfg_.normal_range, now, receiver_buffer_);
    // Each forward draws its own randomized backoff, so the per-receiver
    // delivery times genuinely differ — a shared fan-out event cannot
    // carry per-receiver timestamps.
    // mstc-tidy: allow(per-receiver-schedule)
    for (NodeId v : receiver_buffer_) {
      const double delay = kPropagationDelay +
                           backoff_rng_.uniform(kMinForwardBackoff,
                                                kMaxForwardBackoff);
      simulator_.schedule_at(now + delay, [this, v, round] {
        sync_contact(v, round);
      });
    }
  }

  // mstc:hot — one call per Hello
  void broadcast_hello(NodeId u, std::uint64_t version, double now) {
    ++control_transmissions_;
    const core::HelloRecord hello =
        nodes_[u].on_hello_send(now, medium_.position(u, now), version);
    if (channel_) {
      channel_->transmit(u, cfg_.normal_range, kHelloBits,
                         [this, hello](NodeId v) {
                           if (drop_by_loss_injection()) return;
                           nodes_[v].on_hello_receive(hello,
                                                      simulator_.now());
                         });
      return;
    }
    medium_.receivers(u, cfg_.normal_range, now, receiver_buffer_);
    // Capturing the delivery time at schedule time is bit-identical to
    // reading now() at execution (schedule_in computes the same sum).
    const double at = now + kPropagationDelay;
    // Loss injection is applied here, in ascending receiver order, so the
    // loss_rng_ stream is drawn exactly as a per-receiver schedule_at loop
    // would draw it; the surviving set then schedules as ONE fan-out event
    // whose pre-assigned sequence span reproduces that loop's (time,
    // sequence) keys byte-for-byte.
    fanout_receivers_.clear();
    for (NodeId v : receiver_buffer_) {
      if (drop_by_loss_injection()) continue;
      fanout_receivers_.push_back(static_cast<std::uint32_t>(v));
    }
    auto deliver = [this, hello, at](std::span<const std::uint32_t> targets,
                                     std::size_t i) {
      prefetch_receivers(targets, i, hello.sender);
      nodes_[targets[i]].on_hello_receive(hello, at);
    };
    // The hot-path closure: ONE per Hello (not per receiver). It is shared
    // across deliveries, so it must not mutate its captures;
    // on_hello_receive touches only the receiving node's state.
    static_assert(sim::FanoutHandler::fits_inline<decltype(deliver)>);
    simulator_.schedule_fanout(at, fanout_receivers_, std::move(deliver));
  }

  /// Deliveries between two prefetch stages of a Hello receive.
  static constexpr std::size_t kPrefetchDistance = 3;

  /// A software pipeline over one Hello's receivers. Receives land on
  /// stores last touched a Hello interval ago, so each would wait on three
  /// dependent cache misses: the controller's fields, the slot lines its
  /// sender search reads, and the sender's record window. Delivery i
  /// loads the first for receiver i + 3D, the second for receiver i + 2D
  /// and the third for receiver i + D (D = kPrefetchDistance), each stage
  /// reading what the one before it loaded D deliveries earlier. Hints
  /// only: results never depend on them.
  void prefetch_receivers(std::span<const std::uint32_t> targets,
                          std::size_t i, NodeId sender) const noexcept {
    constexpr std::size_t kD = kPrefetchDistance;
    if (i + 3 * kD < targets.size()) {
      nodes_[targets[i + 3 * kD]].prefetch_receive_header();
    }
    if (i + 2 * kD < targets.size()) {
      nodes_[targets[i + 2 * kD]].store().prefetch_slots();
    }
    if (i + kD < targets.size()) {
      nodes_[targets[i + kD]].store().prefetch_window(sender);
    }
  }

  /// Independent per-reception Hello loss (failure injection).
  [[nodiscard]] bool drop_by_loss_injection() {
    const bool dropped =
        cfg_.hello_loss > 0.0 && loss_rng_.bernoulli(cfg_.hello_loss);
    if (dropped) probe_.count(obs::Counter::kHelloLossDrops);
    return dropped;
  }

  // --- flooding workload ----------------------------------------------

  struct Flood {
    std::vector<char> received;
    std::size_t count = 0;
    std::uint64_t pinned_version = 0;  // proactive routing timestamp
  };

  void schedule_floods() {
    if (cfg_.flood_rate <= 0.0) return;
    const double last_start = cfg_.duration - cfg_.flood_settle;
    double t = cfg_.warmup;
    std::size_t index = 0;
    while (t <= last_start) {
      simulator_.schedule_at(t, [this, index] { start_flood(index); });
      simulator_.schedule_at(t + cfg_.flood_settle,
                             [this, index] { finish_flood(index); });
      t += 1.0 / cfg_.flood_rate;
      ++index;
    }
    floods_.resize(index);
  }

  void start_flood(std::size_t index) {
    const obs::ScopedTimer timer(probe_.profiler(), obs::Category::kDataFlood);
    Flood& flood = floods_[index];
    // Reuse a retired membership vector (finish_flood's free list) so the
    // overlapping-flood steady state allocates nothing.
    if (!flood_pool_.empty()) {
      flood.received = std::move(flood_pool_.back());
      flood_pool_.pop_back();
    }
    flood.received.assign(nodes_.size(), 0);
    const NodeId source = traffic_rng_.uniform_below(nodes_.size());
    flood.received[source] = 1;
    flood.count = 1;
    probe_.trace(obs::EventKind::kFloodStart, simulator_.now(), source, 0.0,
                 index);
    if (cfg_.mode == core::ConsistencyMode::kProactive) {
      // Packets carry the source's latest decidable timestamp.
      flood.pinned_version =
          last_hello_version_[source] > 0 ? last_hello_version_[source] - 1 : 0;
    }
    forward_flood(index, source);
  }

  /// Marks v as having the packet (deduplicated) and lets it forward.
  void deliver_flood(std::size_t index, NodeId sender, NodeId v) {
    const obs::ScopedTimer timer(probe_.profiler(), obs::Category::kDataFlood);
    Flood& flood = floods_[index];
    // Empty => already scored and released; also dedupe deliveries.
    if (flood.received.empty() || flood.received[v]) return;
    // The sender's logical-neighbor list travels in the packet header; a
    // receiver not in it drops the packet (unless PN-enhanced).
    if (!nodes_[v].config().accept_physical_neighbors &&
        !nodes_[sender].is_logical(v)) {
      return;
    }
    flood.received[v] = 1;
    ++flood.count;
    probe_.count(obs::Counter::kFloodDeliveries);
    probe_.trace(obs::EventKind::kFloodDelivery, simulator_.now(), v, 0.0,
                 index);
    forward_flood(index, v);
  }

  void forward_flood(std::size_t index, NodeId u) {
    const double now = simulator_.now();
    probe_.count(obs::Counter::kBroadcastForwards);
    Flood& flood = floods_[index];
    // On-the-fly selection updates at every packet transmission:
    if (cfg_.mode == core::ConsistencyMode::kViewSync) {
      nodes_[u].refresh_selection(now);
    } else if (cfg_.mode == core::ConsistencyMode::kProactive) {
      nodes_[u].refresh_selection_versioned(now, flood.pinned_version);
    }
    if (channel_) {
      channel_->transmit(u, nodes_[u].extended_range(), kDataBits,
                         [this, index, u](NodeId v) {
                           deliver_flood(index, u, v);
                         });
      return;
    }
    medium_.receivers(u, nodes_[u].extended_range(), now, receiver_buffer_);
    forward_targets_.clear();
    for (NodeId v : receiver_buffer_) {
      if (!flood.received[v]) forward_targets_.push_back(v);
    }
    // Flood forwards carry per-receiver randomized backoffs (distinct
    // delivery times), so they cannot share one fan-out event.
    // mstc-tidy: allow(per-receiver-schedule)
    for (NodeId v : forward_targets_) {
      const double delay = kPropagationDelay +
                           backoff_rng_.uniform(kMinForwardBackoff,
                                                kMaxForwardBackoff);
      simulator_.schedule_in(
          delay, [this, index, u, v] { deliver_flood(index, u, v); });
    }
  }

  void finish_flood(std::size_t index) {
    if (nodes_.size() < 2) return;
    const obs::ScopedTimer timer(probe_.profiler(), obs::Category::kDataFlood);
    const double others = static_cast<double>(nodes_.size() - 1);
    const double ratio =
        static_cast<double>(floods_[index].count - 1) / others;
    delivery_.add(ratio);
    probe_.observe(obs::Hist::kFloodDeliveryRatio, ratio);
    probe_.trace(obs::EventKind::kFloodScored, simulator_.now(), 0, ratio,
                 index);
    // Park the membership vector on the free list for the next flood;
    // clear() (not shrink_to_fit) leaves this slot in the empty state
    // deliver_flood reads as "already scored and released".
    flood_pool_.push_back(std::move(floods_[index].received));
    floods_[index].received.clear();
  }

  // --- snapshots -------------------------------------------------------

  void schedule_snapshots() {
    if (cfg_.snapshot_rate <= 0.0) return;
    for (double t = cfg_.warmup; t <= cfg_.duration;
         t += 1.0 / cfg_.snapshot_rate) {
      simulator_.schedule_at(t, [this] { take_snapshot(); });
    }
  }

  void take_snapshot() {
    const obs::ScopedTimer timer(probe_.profiler(), obs::Category::kSnapshot);
    medium_.positions(simulator_.now(), position_buffer_);
    // Grid-backed, scratch-reusing measurement.
    const auto stats = metrics::measure_snapshot(
        nodes_, position_buffer_, snapshot_scratch_,
        {.brute_force = cfg_.snapshot_brute_force}, &probe_);
    strict_.add(stats.strict_connectivity);
    range_.add(stats.mean_range);
    logical_degree_.add(stats.mean_logical_degree);
    physical_degree_.add(stats.mean_physical_degree);
    probe_.count(obs::Counter::kSnapshots);
    probe_.observe(obs::Hist::kSnapshotConnectivity,
                   stats.strict_connectivity);
    probe_.trace(obs::EventKind::kSnapshot, simulator_.now(), 0,
                 stats.strict_connectivity, 0);
  }

  // --- state -----------------------------------------------------------

  ScenarioConfig cfg_;
  obs::Probe probe_;
  // Immutable, possibly shared with concurrent replications (TraceCache);
  // must be declared before medium_, which aliases it.
  std::shared_ptr<const mobility::TraceSet> traces_;
  sim::Medium medium_;
  sim::Simulator simulator_;
  topology::ProtocolSuite suite_;
  std::vector<core::NodeController> nodes_;
  std::unique_ptr<mac::ContentionChannel> channel_;  // null under ideal MAC


  std::vector<double> async_interval_;
  std::vector<double> proactive_skew_;
  std::vector<std::uint64_t> sync_round_seen_;
  std::vector<std::uint64_t> last_hello_version_;
  std::uint64_t control_transmissions_ = 0;

  util::Xoshiro256 beacon_rng_;
  util::Xoshiro256 traffic_rng_;
  util::Xoshiro256 loss_rng_;
  util::Xoshiro256 backoff_rng_;

  std::vector<Flood> floods_;
  std::vector<std::vector<char>> flood_pool_;  // retired `received` vectors
  std::vector<NodeId> receiver_buffer_;
  std::vector<std::uint32_t> fanout_receivers_;  // narrowed Hello fan-out set
  std::vector<NodeId> forward_targets_;
  std::vector<geom::Vec2> position_buffer_;
  metrics::SnapshotScratch snapshot_scratch_;

  util::Summary delivery_;
  util::Summary strict_;
  util::Summary range_;
  util::Summary logical_degree_;
  util::Summary physical_degree_;
};

}  // namespace

void validate(const ScenarioConfig& config) {
  const auto reject = [](const char* field, const std::string& why) {
    throw std::invalid_argument(std::string("ScenarioConfig.") + field +
                                ": " + why);
  };
  if (config.node_count == 0) reject("node_count", "the fleet is empty");
  // Node ids are narrowed to 32 bits in the Hello fan-out and the view
  // stores, so the largest id, node_count - 1, must fit.
  constexpr std::uint64_t kMaxNodes = std::uint64_t{1} << 32;
  if (config.node_count > kMaxNodes) {
    reject("node_count", "at most 2^32 nodes, got " +
                             std::to_string(config.node_count));
  }
  // LocalViewStore keeps each sender's record count in 32 bits.
  constexpr std::uint64_t kMaxHistory = (std::uint64_t{1} << 32) - 1;
  if (config.effective_history() > kMaxHistory) {
    reject("history_limit", "at most 2^32 - 1 records, got " +
                                std::to_string(config.effective_history()));
  }
  const auto positive = [&](const char* field, double value) {
    if (!(std::isfinite(value) && value > 0.0)) {
      reject(field, "must be finite and > 0, got " + std::to_string(value));
    }
  };
  const auto non_negative = [&](const char* field, double value) {
    if (!(std::isfinite(value) && value >= 0.0)) {
      reject(field, "must be finite and >= 0, got " + std::to_string(value));
    }
  };
  positive("normal_range", config.normal_range);
  // The buffer widens every transmission range: an infinite or NaN width
  // reaches the medium's grid cell arithmetic, and a negative one would
  // transmit short of the farthest logical neighbour.
  non_negative("buffer_width", config.buffer_width);
  // The mobility models draw waypoints inside the area.
  positive("area.width", config.area.width);
  positive("area.height", config.area.height);
  // Every mobility model generates legs while t < duration, so an infinite
  // duration never finishes building the fleet.
  positive("duration", config.duration);
  // A negative speed walks a waypoint trace backwards in time.
  non_negative("average_speed", config.average_speed);
  // An infinite rate steps the schedule by 1 / rate = 0, so the flood and
  // snapshot loops never end; zero disables the workload.
  non_negative("flood_rate", config.flood_rate);
  non_negative("snapshot_rate", config.snapshot_rate);
  // Negative offsets would schedule measurements before time 0.
  non_negative("warmup", config.warmup);
  non_negative("flood_settle", config.flood_settle);
  // A Hello period that is not positive (a zero interval, or a jitter of 1
  // or more) reschedules a beacon at or before its own instant, so the
  // run would never end.
  positive("hello_interval", config.hello_interval);
  if (!(config.hello_jitter >= 0.0 && config.hello_jitter < 1.0)) {
    reject("hello_jitter",
           "must lie in [0, 1), got " + std::to_string(config.hello_jitter));
  }
  if (!(config.hello_loss >= 0.0 && config.hello_loss <= 1.0)) {
    reject("hello_loss",
           "must lie in [0, 1], got " + std::to_string(config.hello_loss));
  }
  // Names go through the parsers the scenario itself uses, so each name
  // list stays in one place.
  const auto parses = [&](const char* field, const auto& parse) {
    try {
      parse();
    } catch (const std::invalid_argument& error) {
      reject(field, error.what());
    }
  };
  parses("mac", [&] { (void)uses_csma(config.mac); });
  parses("mobility_model", [&] {
    (void)mobility::make_model(config.mobility_model, config.area,
                               config.average_speed);
  });
  parses("protocol", [&] { (void)topology::make_protocol(config.protocol); });
  // A workload that is on but never runs reports 0 as its mean, which
  // reads as a disconnected network. Both tests are the ones the flood and
  // snapshot schedules make.
  if (config.flood_rate > 0.0 &&
      config.warmup > config.duration - config.flood_settle) {
    reject("warmup", "no flood starts: warmup " +
                         std::to_string(config.warmup) +
                         " > duration - flood_settle " +
                         std::to_string(config.duration - config.flood_settle));
  }
  if (config.snapshot_rate > 0.0 && config.warmup > config.duration) {
    reject("warmup", "no snapshot is taken: warmup " +
                         std::to_string(config.warmup) + " > duration " +
                         std::to_string(config.duration));
  }
}

metrics::RunStats run_scenario(const ScenarioConfig& config) {
  return run_scenario(config, nullptr);
}

metrics::RunStats run_scenario(const ScenarioConfig& config,
                               obs::RunObservation* observation) {
  validate(config);
  const obs::Probe probe(observation);
  std::optional<Scenario> scenario;
  {
    // Trace generation + controller construction dominate startup cost;
    // attribute them separately from the event loop.
    const obs::ScopedTimer timer(probe.profiler(), obs::Category::kSetup);
    scenario.emplace(config, observation);
  }
  return scenario->run();
}

}  // namespace mstc::runner
