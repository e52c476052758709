#pragma once

#include "orchestrator/fleet.hpp"
#include "tests/orchestrator/oracle/reference_policy.hpp"

/// \file fleet_reference.hpp
/// The window-synchronous fleet timeline builder the discrete-event
/// engine replaced. It scans every node every window — O(nodes x
/// windows) even when nothing changes — which is exactly why it was
/// replaced, and exactly why it stays: it is the oracle the equivalence
/// tests pin the event engine against. Its core loop (departures,
/// arrivals, consolidation, accounting) is the pre-refactor builder; the
/// network fabric, fault injection and the per-window series sampler
/// were added to it alongside the event engine as those features landed.
/// New fleet features are pinned by goldens and property tests instead
/// of by extending it further. It lives with the tests: nothing in the
/// shipped library links it.

namespace greennfv::orchestrator::oracle {

/// Builds the fleet history the window-synchronous engine produces.
/// `spec` must be a valid fleet scenario (fleet.enabled, schedulable
/// cores). Placement uses the scan twin of the spec's named policy, or
/// `policy_override` when non-null (the hook custom-policy equivalence
/// tests use).
[[nodiscard]] FleetTimeline build_reference_timeline(
    const scenario::ScenarioSpec& spec,
    const ReferencePolicy* policy_override = nullptr);

}  // namespace greennfv::orchestrator::oracle
