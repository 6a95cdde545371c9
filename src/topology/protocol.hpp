// Topology-control protocol interface and registry.
//
// A protocol is a pure function from the owner's ViewGraph to the owner's
// logical-neighbor choice. All state (what the node knows, and from which
// Hello versions) lives in the view; this is what lets one mobility
// framework wrap every protocol without modification — the paper's
// central design point.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "topology/view_graph.hpp"

namespace mstc::topology {

class Protocol {
 public:
  virtual ~Protocol() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Writes the view indices (1..neighbor_count) of the owner's logical
  /// neighbors into `out` (cleared first). With point cost intervals this
  /// implements the protocol's original link-removal condition; with
  /// interval costs it implements the enhanced (weakly consistent)
  /// condition.
  ///
  /// Threading: implementations reuse per-instance mutable scratch, so a
  /// Protocol instance must only be driven by one thread at a time. The
  /// sanctioned pattern gives each replication its own ProtocolSuite,
  /// mirroring sim::Medium's per-replication contract.
  virtual void select(const ViewGraph& view,
                      std::vector<std::size_t>& out) const = 0;

  /// Returning convenience overload (tests and one-shot callers). Derived
  /// classes re-expose it via `using Protocol::select;`.
  [[nodiscard]] std::vector<std::size_t> select(const ViewGraph& view) const {
    std::vector<std::size_t> chosen;
    select(view, chosen);
    return chosen;
  }
};

/// Relative neighborhood graph (link-removal condition 1): remove (u, v)
/// when a witness w sees both c(u, w) and c(w, v) below c(u, v). The
/// (w, v) link is read only after the owner-row test passes and its cost
/// floor (ViewGraph::cost_floor) does not exceed c(u, v).
class RngProtocol final : public Protocol {
 public:
  [[nodiscard]] std::string_view name() const override { return "RNG"; }
  using Protocol::select;
  void select(const ViewGraph& view,
              std::vector<std::size_t>& out) const override;
};

/// Gabriel graph: remove (u, v) when a witness lies in the disk with
/// diameter uv. A special case of RNG (smaller witness region → keeps more
/// links than RNG removes... i.e. Gabriel keeps a superset of RNG's links).
/// Under interval views the witness test is applied conservatively: the
/// witness must lie in the disk for every stored position combination.
class GabrielProtocol final : public Protocol {
 public:
  [[nodiscard]] std::string_view name() const override { return "Gabriel"; }
  using Protocol::select;
  void select(const ViewGraph& view,
              std::vector<std::size_t>& out) const override;
};

/// Local MST (Li, Hou & Sha; link-removal condition 3): remove (u, v) when
/// a u-v path exists whose every link is cheaper than (u, v). Equivalent to
/// keeping exactly the local-MST edges at u by the cycle property.
/// Decided for every neighbor by one O(d^2) bottleneck-label scan, which
/// evaluates a link only when its cost floor does not exceed the label it
/// would relax.
class LmstProtocol final : public Protocol {
 public:
  [[nodiscard]] std::string_view name() const override { return "MST"; }
  using Protocol::select;
  void select(const ViewGraph& view,
              std::vector<std::size_t>& out) const override;

 private:
  // Per-instance scratch (see Protocol::select's threading contract).
  mutable std::vector<CostKey> bottleneck_;
  mutable std::vector<char> settled_;
};

/// Reusable state of spt_children (one per protocol instance).
struct SptScratch {
  std::vector<double> dist;
  std::vector<char> settled;
};

/// Link-removal condition 2 for every neighbor in one O(d^2) pass: writes
/// into `out` (cleared first) each view index v that no strictly cheaper
/// multi-hop path (cost_max links) undercuts cost_min(0, v), i.e. whose
/// shortest-path label is not below cost_min(0, v). A link is evaluated
/// only when its cost floor could still lower a label. Only members with
/// inside[v] != 0 take part, as targets and as relays; an empty `inside`
/// admits every member. Shared by SptProtocol and SearchRegionSptProtocol.
void spt_children(const ViewGraph& view, std::span<const char> inside,
                  SptScratch& scratch, std::vector<std::size_t>& out);

/// Minimum-energy / shortest-path-tree protocol (condition 2): remove
/// (u, v) when a multi-hop u-v path costs less than the direct link.
class SptProtocol final : public Protocol {
 public:
  /// `display_name` distinguishes parameterizations, e.g. "SPT-2"/"SPT-4".
  explicit SptProtocol(std::string display_name)
      : display_name_(std::move(display_name)) {}
  [[nodiscard]] std::string_view name() const override { return display_name_; }
  using Protocol::select;
  void select(const ViewGraph& view,
              std::vector<std::size_t>& out) const override;

 private:
  std::string display_name_;
  // Per-instance scratch (see Protocol::select's threading contract).
  mutable SptScratch scratch_;
};

/// Minimum-energy protocol with a dynamic search region (Rodoplu-Meng /
/// Li-Halpern, the paper's future-work Section 6 target): the owner only
/// *uses* neighbors inside a search radius that starts small and doubles
/// until every neighbor beyond it has a certainly-cheaper 2-hop relay
/// through the region. Logical neighbors are the SPT children within the
/// final region — so the protocol reaches the same kind of decision as
/// SptProtocol while needing position data only for nearby nodes (less
/// control overhead in a real deployment).
class SearchRegionSptProtocol final : public Protocol {
 public:
  SearchRegionSptProtocol(std::string display_name,
                          double initial_fraction = 0.25);
  [[nodiscard]] std::string_view name() const override { return display_name_; }
  using Protocol::select;
  void select(const ViewGraph& view,
              std::vector<std::size_t>& out) const override;

 private:
  std::string display_name_;
  double initial_fraction_;
  // Per-instance scratch (see Protocol::select's threading contract).
  mutable std::vector<char> inside_;
  mutable SptScratch spt_;
};

/// Yao graph: divide the plane around the owner into k equal cones and keep
/// the cheapest neighbor in each. Connected for k >= 6. Under interval
/// views, every neighbor that could be its sector's cheapest is kept.
class YaoProtocol final : public Protocol {
 public:
  explicit YaoProtocol(int sectors = 6);
  [[nodiscard]] std::string_view name() const override { return display_name_; }
  using Protocol::select;
  void select(const ViewGraph& view,
              std::vector<std::size_t>& out) const override;

 private:
  int sectors_;
  std::string display_name_;
  // Per-instance scratch (see Protocol::select's threading contract).
  mutable std::vector<CostKey> sector_best_;
  mutable std::vector<std::size_t> sector_of_;
};

/// Cone-based topology control (Li, Halpern et al.): grow the neighbor set
/// nearest-first until every cone of angle `rho` contains a neighbor (or
/// neighbors are exhausted); the kept set is the minimal nearest prefix
/// achieving coverage. rho <= 5*pi/6 preserves connectivity with
/// unidirectional links; rho <= 2*pi/3 keeps the symmetric subgraph
/// (this library's logical-link rule) connected.
class CbtcProtocol final : public Protocol {
 public:
  explicit CbtcProtocol(double rho);
  [[nodiscard]] std::string_view name() const override { return "CBTC"; }
  using Protocol::select;
  void select(const ViewGraph& view,
              std::vector<std::size_t>& out) const override;

 private:
  double rho_;
  // Per-instance scratch (see Protocol::select's threading contract).
  mutable std::vector<std::size_t> order_;
  mutable std::vector<geom::Vec2> directions_;
};

/// Fault-tolerant Yao variant: keep the k cheapest neighbors in each of
/// `sectors` cones (k = 1 is the classic Yao graph). Analogous to the
/// k-redundant structures of the fault-tolerant topology-control line of
/// work ([1], [15], [18] in the paper): extra per-sector neighbors buy
/// resilience to node failures and — relevant here — to mobility.
class KYaoProtocol final : public Protocol {
 public:
  KYaoProtocol(int sectors, int per_sector);
  [[nodiscard]] std::string_view name() const override { return display_name_; }
  using Protocol::select;
  void select(const ViewGraph& view,
              std::vector<std::size_t>& out) const override;

 private:
  int sectors_;
  int per_sector_;
  std::string display_name_;
  // Per-instance scratch (see Protocol::select's threading contract).
  mutable std::vector<std::vector<std::size_t>> sector_;
  mutable std::vector<CostKey> costs_;
};

/// K-Neigh probabilistic baseline (Blough et al.): keep the k nearest
/// neighbors; no hard connectivity guarantee.
class KNeighProtocol final : public Protocol {
 public:
  explicit KNeighProtocol(int k);
  [[nodiscard]] std::string_view name() const override { return display_name_; }
  using Protocol::select;
  void select(const ViewGraph& view,
              std::vector<std::size_t>& out) const override;

 private:
  int k_;
  std::string display_name_;
};

/// No topology control: every 1-hop neighbor is logical (normal range).
class NoneProtocol final : public Protocol {
 public:
  [[nodiscard]] std::string_view name() const override { return "None"; }
  using Protocol::select;
  void select(const ViewGraph& view,
              std::vector<std::size_t>& out) const override;
};

/// Protocol + its cost model, bundled because the removal conditions only
/// make sense against the cost model the view was built with.
struct ProtocolSuite {
  std::unique_ptr<Protocol> protocol;
  std::unique_ptr<CostModel> cost;
};

/// Factory for the paper's protocol lineup: "RNG", "MST", "SPT-2", "SPT-4",
/// plus extensions "Gabriel", "Yao", "CBTC", "KNeigh", "None".
/// Throws std::invalid_argument for unknown names.
[[nodiscard]] ProtocolSuite make_protocol(std::string_view name);

/// Names usable with make_protocol, paper lineup first.
[[nodiscard]] std::vector<std::string> protocol_names();

}  // namespace mstc::topology
