#pragma once

#include <memory>
#include <string>
#include <vector>

#include "orchestrator/policy.hpp"

/// \file reference_policy.hpp
/// Linear-scan twins of the registry placement policies, over a plain
/// per-node snapshot of the fleet (`FleetView`). They are the test
/// oracle for the indexed policies in src/orchestrator/policy.cpp: the
/// window-synchronous reference engine (fleet_reference.hpp) places with
/// them, and the property suite checks every indexed decision against
/// its scan on random fleet states. Nothing in the shipped library links
/// this code.

namespace greennfv::orchestrator::oracle {

/// One hosted chain from the policy's perspective.
struct ChainLoad {
  int id = 0;
  double cores = 0.0;
};

/// Live state of one node as the scan policies see it.
struct NodeView {
  double capacity_cores = 0.0;
  double committed_cores = 0.0;
  bool asleep = false;
  /// Crashed/out-of-service (fault injection). Down nodes are also
  /// presented at capacity 0, so fits() already masks them for every
  /// scan policy; the flag is informational for custom policies.
  bool down = false;
  std::vector<ChainLoad> chains;

  [[nodiscard]] bool occupied() const { return !chains.empty(); }
  [[nodiscard]] double free_cores() const {
    return capacity_cores - committed_cores;
  }
  [[nodiscard]] double utilization() const {
    return capacity_cores > 0.0 ? committed_cores / capacity_cores : 0.0;
  }
  [[nodiscard]] bool fits(double cores) const {
    return committed_cores + cores <= capacity_cores + 1e-9;
  }
};

struct FleetView {
  std::vector<NodeView> nodes;
};

/// The scan-side policy interface: FleetPolicy's three decisions over a
/// FleetView instead of a FleetIndex.
class ReferencePolicy {
 public:
  virtual ~ReferencePolicy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] virtual int choose(const FleetView& view,
                                   double cores) const = 0;

  [[nodiscard]] virtual std::vector<Migration> consolidate(
      const FleetView& view, double below) const {
    (void)view;
    (void)below;
    return {};
  }

  [[nodiscard]] virtual int choose_arrival(
      const FleetView& view, const ArrivalRequest& request,
      const topology::PathTable* net) const {
    (void)net;
    return choose(view, request.cores);
  }
};

/// The scan twin of make_fleet_policy(name); throws std::invalid_argument
/// on names outside scenario::FleetSpec::policy_names().
[[nodiscard]] std::unique_ptr<ReferencePolicy> make_reference_policy(
    const std::string& name);

}  // namespace greennfv::orchestrator::oracle
