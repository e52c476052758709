#pragma once

#include <memory>
#include <string>
#include <vector>

#include "orchestrator/fleet_index.hpp"
#include "orchestrator/policy.hpp"
#include "tests/orchestrator/oracle/reference_policy.hpp"

/// \file scan_adapter.hpp
/// Presents a scan policy to the discrete-event engine: every decision
/// snapshots the FleetIndex into a FleetView and asks the scan. Costs
/// O(nodes + chains) per query — a test tool for running view-based
/// custom policies through FleetOrchestrator's policy seam.

namespace greennfv::orchestrator::oracle {

/// The FleetView the window-synchronous engine would build for the same
/// fleet state. Down nodes are presented at capacity 0 (so fits() masks
/// them) and never asleep; hosted chains keep the index's list order.
[[nodiscard]] FleetView view_of(const FleetIndex& index);

class ScanPolicyAdapter final : public FleetPolicy {
 public:
  explicit ScanPolicyAdapter(std::unique_ptr<ReferencePolicy> scan)
      : scan_(std::move(scan)) {}

  [[nodiscard]] std::string name() const override { return scan_->name(); }

  [[nodiscard]] int choose(const FleetIndex& index,
                           double cores) const override {
    return scan_->choose(view_of(index), cores);
  }

  [[nodiscard]] std::vector<Migration> consolidate(
      const FleetIndex& index, double below) const override {
    return scan_->consolidate(view_of(index), below);
  }

  [[nodiscard]] int choose_arrival(
      const FleetIndex& index, const ArrivalRequest& request,
      const topology::PathTable* net) const override {
    return scan_->choose_arrival(view_of(index), request, net);
  }

 private:
  std::unique_ptr<ReferencePolicy> scan_;
};

}  // namespace greennfv::orchestrator::oracle
