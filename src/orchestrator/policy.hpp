#pragma once

#include <memory>
#include <string>
#include <vector>

/// \file policy.hpp
/// Online placement policies for the fleet orchestrator. Unlike
/// `cluster::place_chains` (one-shot, whole chain set known up front),
/// these decide per *arrival* against the live fleet state — committed
/// cores, power states — and the consolidating policy additionally
/// proposes migrations that drain underutilized nodes so power gating can
/// put them to sleep. This is the joint placement + allocation lever the
/// related work (Tajiki et al., Sang et al.) identifies as where the
/// energy/QoS trade-off is decided.
///
/// Every decision reads the engine's `FleetIndex` (fleet_index.hpp): the
/// registry policies answer from its occupancy buckets in O(core levels).

namespace greennfv::topology {
class PathTable;
}  // namespace greennfv::topology

namespace greennfv::orchestrator {

class FleetIndex;

/// One proposed chain move (consolidation).
struct Migration {
  int chain = 0;
  int from = 0;
  int to = 0;
};

/// Everything an arriving chain asks of the fleet — cores on a node plus
/// (when a topology is live) a routed path wide enough for its traffic.
struct ArrivalRequest {
  double cores = 0.0;
  double offered_gbps = 0.0;
};

class FleetPolicy {
 public:
  virtual ~FleetPolicy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Node to host a `cores`-wide arrival, or -1 when nothing fits (the
  /// chain is rejected). Choosing a sleeping node wakes it (the caller
  /// charges the wake latency/energy). Down nodes are never candidates.
  [[nodiscard]] virtual int choose(const FleetIndex& index,
                                   double cores) const = 0;

  /// Consolidation pass: migrations that drain nodes whose utilization
  /// sits below `below` when their chains fit on other awake occupied
  /// nodes. Default: none (only the consolidating policy migrates).
  [[nodiscard]] virtual std::vector<Migration> consolidate(
      const FleetIndex& index, double below) const {
    (void)index;
    (void)below;
    return {};
  }

  /// Arrival placement with the network in view. `net` is the live
  /// routing/commitment table when the scenario runs a topology, null
  /// otherwise. The default ignores the network and defers to choose();
  /// only topology-aware policies override it. Whatever node is
  /// returned, the *engine* still admission-checks the path — a policy
  /// cannot oversubscribe a link, only pick badly.
  [[nodiscard]] virtual int choose_arrival(
      const FleetIndex& index, const ArrivalRequest& request,
      const topology::PathTable* net) const {
    (void)net;
    return choose(index, request.cores);
  }
};

/// Registry lookup by name — one of scenario::FleetSpec::policy_names(),
/// the list campaign expansion validates fleet.policy against before
/// anything runs. Throws std::invalid_argument listing that registry on
/// unknown names.
[[nodiscard]] std::unique_ptr<FleetPolicy> make_fleet_policy(
    const std::string& name);

}  // namespace greennfv::orchestrator
