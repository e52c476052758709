#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

/// \file nf_cost.hpp
/// Per-NF cost profiles: the cycle/memory footprint of one packet through
/// one network function. The catalog covers the NF taxonomy the paper calls
/// out ("CPU intensive, memory-intensive, lightweight (e.g., NAT, firewall),
/// and more heavyweight (e.g., Evolved Packet Core)"). Numbers are
/// order-of-magnitude figures from the NFV literature (NFVnice, ResQ,
/// OpenNetVM evaluations) — what matters for reproduction is their relative
/// weight, which drives where each SLA policy spends its resource budget.

namespace greennfv::hwmodel {

struct NfCostProfile {
  std::string name;
  /// Fixed per-packet work at full cache hit (header parsing, lookups).
  double base_cycles = 100.0;
  /// Payload-proportional work (DPI scanning, crypto, checksums).
  double cycles_per_byte = 0.0;
  /// LLC references per packet subject to the chain's miss ratio.
  double mem_refs_per_pkt = 4.0;
  /// Resident state competing for LLC (rule tables, FIBs, automata).
  std::uint64_t state_bytes = 0;
};

/// Catalog of the NF types used across the paper's experiments.
namespace nf_catalog {

[[nodiscard]] NfCostProfile firewall();     ///< ACL matching, light state
[[nodiscard]] NfCostProfile nat();          ///< address translation table
[[nodiscard]] NfCostProfile router();       ///< LPM lookup, FIB-heavy
[[nodiscard]] NfCostProfile ids();          ///< DPI: payload-proportional
[[nodiscard]] NfCostProfile tunnel_gw();    ///< encap/decap + checksum
[[nodiscard]] NfCostProfile epc();          ///< heavyweight Evolved Packet Core
[[nodiscard]] NfCostProfile flow_monitor(); ///< per-flow counters

/// Profile by name; throws std::invalid_argument for unknown names.
[[nodiscard]] NfCostProfile by_name(const std::string& name);

/// All catalog names.
[[nodiscard]] std::vector<std::string> names();

}  // namespace nf_catalog

/// Sum of resident state across a chain.
[[nodiscard]] std::uint64_t total_state_bytes(
    std::span<const NfCostProfile> nfs);

}  // namespace greennfv::hwmodel
