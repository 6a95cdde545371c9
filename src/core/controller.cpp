#include "core/controller.hpp"

#include <algorithm>

namespace mstc::core {

namespace {

/// Everything a selection refresh assembles: the builders' scratch, the
/// view and the protocol's output. One per thread, shared by every
/// controller that thread refreshes, so a replication keeps one hot view
/// instead of one cold n^2 view per node. Sharing is sound because no
/// state survives a refresh: ViewGraph::assign defers every pair, and
/// every accessor resolves a pair before it reads it; the builders clear
/// their ids, select clears its output, and a refresh never re-enters
/// another refresh or the thread pool. One thread reads the view at a
/// time (the Protocol scratch contract), and the controller's CostModel
/// outlives the refresh that reads it.
struct SelectionScratch {
  ViewScratch builders;
  topology::ViewGraph view;
  std::vector<std::size_t> chosen;
};

thread_local SelectionScratch t_selection;

}  // namespace

NodeController::NodeController(NodeId id, const topology::Protocol& protocol,
                               const topology::CostModel& cost,
                               ControllerConfig config)
    : id_(id),
      protocol_(&protocol),
      cost_(&cost),
      config_(config),
      store_(id, config.history_limit, config.view_expiry) {}

HelloRecord NodeController::on_hello_send(double now, geom::Vec2 true_position,
                                          std::uint64_t version) {
  const HelloRecord hello{id_, {true_position, version, now}};
  store_.record(hello);
  ++hellos_sent_;
  if (probe_ != nullptr) {
    probe_->count(obs::Counter::kHelloTx);
    probe_->trace(obs::EventKind::kHelloTx, now, id_, 0.0, version);
  }
  post_send_refresh(now, version);
  return hello;
}

void NodeController::post_send_refresh(double now, std::uint64_t version) {
  switch (config_.mode) {
    case ConsistencyMode::kLatest:
    case ConsistencyMode::kViewSync:
    case ConsistencyMode::kWeak:
      refresh_selection(now);
      break;
    case ConsistencyMode::kProactive:
      // Decide one version back: by now every neighbor's previous-version
      // Hello has certainly arrived (Section 4.1, proactive approach).
      if (version > 0) refresh_selection_versioned(now, version - 1);
      break;
    case ConsistencyMode::kReactive:
      // The runner triggers the versioned refresh after the bounded wait
      // that follows the synchronization flood.
      break;
  }
}

// mstc:hot — runs once per delivered Hello (fan-out x fleet size)
void NodeController::on_hello_receive(const HelloRecord& hello, double now) {
  store_.record(hello);
  store_.expire(now);
  if (probe_ != nullptr) {
    probe_->count(obs::Counter::kHelloRx);
    probe_->trace(obs::EventKind::kHelloRx, now, id_, 0.0, hello.sender);
  }
}

// mstc:hot — runs once per selection refresh; all view state lives in
// the per-thread selection scratch
void NodeController::refresh_selection(double now) {
  const obs::ScopedTimer timer(
      probe_ != nullptr ? probe_->profiler() : nullptr,
      obs::Category::kViewAssembly);
  if (probe_ != nullptr) probe_->count(obs::Counter::kViewSyncs);
  store_.expire(now);
  if (!store_.latest(id_)) return;  // nothing advertised yet
  store_.track_version(std::nullopt);
  if (cache_hit()) return;
  if (config_.mode == ConsistencyMode::kWeak) {
    build_weak_view(store_, config_.normal_range, *cost_, t_selection.builders,
                    t_selection.view);
  } else {
    build_latest_view(store_, config_.normal_range, *cost_,
                      t_selection.builders, t_selection.view);
  }
  apply_selection(t_selection.view, now);
}

// mstc:hot — the proactive/reactive counterpart of refresh_selection
void NodeController::refresh_selection_versioned(double now,
                                                 std::uint64_t version) {
  const obs::ScopedTimer timer(
      probe_ != nullptr ? probe_->profiler() : nullptr,
      obs::Category::kViewAssembly);
  if (probe_ != nullptr) probe_->count(obs::Counter::kViewSyncs);
  store_.expire(now);
  // Owner lacking the pinned version keeps the prior selection (the
  // paper's "wait before migrating to the next local view") and must
  // leave the cache untouched: nothing was recomputed.
  if (store_.record_at(id_, version).empty()) return;
  store_.track_version(version);
  if (cache_hit()) return;
  if (!build_versioned_view(store_, version, config_.normal_range, *cost_,
                            t_selection.builders, t_selection.view)) {
    return;  // unreachable: the owner check above already passed
  }
  apply_selection(t_selection.view, now);
}

bool NodeController::cache_hit() const {
  if (!config_.recompute_cache ||
      selection_generation_ != store_.generation()) {
    return false;
  }
  if (probe_ != nullptr) {
    probe_->count(obs::Counter::kTopologyRecomputeSkips);
  }
  return true;  // same inputs => same selection; keep it as-is
}

void NodeController::apply_selection(const topology::ViewGraph& view,
                                     double now) {
  const bool observing = probe_ != nullptr && probe_->counting();
  double previous_extended = 0.0;
  if (observing) {
    previous_logical_ = logical_;
    previous_extended = extended_range();
  }

  {
    const obs::ScopedTimer timer(
        probe_ != nullptr ? probe_->profiler() : nullptr,
        obs::Category::kProtocolSelect);
    protocol_->select(view, t_selection.chosen);
  }
  logical_.clear();
  logical_.reserve(t_selection.chosen.size());
  actual_range_ = 0.0;
  for (std::size_t index : t_selection.chosen) {
    logical_.push_back(view.id(index));
    // Cover every stored position of the neighbor (conservative under
    // interval views; equals the viewed distance for point views). The
    // relative pad rounds the power *up* so the farthest neighbor is never
    // lost to sqrt round-off when ranges are compared against squared
    // distances.
    actual_range_ =
        std::max(actual_range_, view.distance_max(0, index) * (1.0 + 1e-9));
  }
  std::sort(logical_.begin(), logical_.end());
  selection_generation_ = store_.generation();

  if (observing) {
    probe_->count(obs::Counter::kTopologyRecomputes);
    probe_->count(obs::Counter::kViewLinksEvaluated, view.links_evaluated());
    probe_->trace(obs::EventKind::kTopologyRecompute, now, id_, actual_range_,
                  logical_.size());
    // Logical neighbors present before the recompute but absent after:
    // the link-removal churn weak consistency is designed to suppress.
    for (NodeId neighbor : previous_logical_) {
      if (!std::binary_search(logical_.begin(), logical_.end(), neighbor)) {
        probe_->count(obs::Counter::kLinkRemovals);
        probe_->trace(obs::EventKind::kLinkRemoval, now, id_, 0.0, neighbor);
      }
    }
    const double extended = extended_range();
    if (extended > previous_extended) {
      probe_->count(obs::Counter::kBufferZoneExpansions);
      probe_->trace(obs::EventKind::kBufferZoneExpansion, now, id_, extended,
                    0);
    }
  }
}

bool NodeController::is_logical(NodeId neighbor) const {
  return std::binary_search(logical_.begin(), logical_.end(), neighbor);
}

double NodeController::extended_range() const noexcept {
  // Theorem 5 requires the full r + l; the buffer may push a node's power
  // past the normal range (the paper does not cap it either).
  if (logical_.empty()) return 0.0;
  return actual_range_ + buffer_width(config_.buffer);
}

}  // namespace mstc::core
