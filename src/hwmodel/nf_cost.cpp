#include "hwmodel/nf_cost.hpp"

#include <stdexcept>

#include "common/units.hpp"

namespace greennfv::hwmodel {

namespace nf_catalog {

NfCostProfile firewall() {
  return NfCostProfile{"firewall", 120.0, 0.0, 4.0, 256 * units::kKiB};
}

NfCostProfile nat() {
  return NfCostProfile{"nat", 150.0, 0.0, 5.0, 512 * units::kKiB};
}

NfCostProfile router() {
  return NfCostProfile{"router", 180.0, 0.0, 6.0, 1 * units::kMiB};
}

NfCostProfile ids() {
  // DPI cost is dominated by the per-byte automaton walk; ~2 cycles/byte is
  // the published ballpark for pattern-matching IDS data planes.
  return NfCostProfile{"ids", 450.0, 2.0, 10.0, 2 * units::kMiB};
}

NfCostProfile tunnel_gw() {
  return NfCostProfile{"tunnel_gw", 250.0, 0.18, 7.0, 128 * units::kKiB};
}

NfCostProfile epc() {
  return NfCostProfile{"epc", 800.0, 0.30, 16.0, 4 * units::kMiB};
}

NfCostProfile flow_monitor() {
  return NfCostProfile{"flow_monitor", 90.0, 0.0, 3.0, 768 * units::kKiB};
}

NfCostProfile by_name(const std::string& name) {
  if (name == "firewall") return firewall();
  if (name == "nat") return nat();
  if (name == "router") return router();
  if (name == "ids") return ids();
  if (name == "tunnel_gw") return tunnel_gw();
  if (name == "epc") return epc();
  if (name == "flow_monitor") return flow_monitor();
  throw std::invalid_argument("unknown NF profile: " + name);
}

std::vector<std::string> names() {
  return {"firewall", "nat",       "router",      "ids",
          "tunnel_gw", "epc",      "flow_monitor"};
}

}  // namespace nf_catalog

std::uint64_t total_state_bytes(std::span<const NfCostProfile> nfs) {
  std::uint64_t total = 0;
  for (const auto& nf : nfs) total += nf.state_bytes;
  return total;
}

}  // namespace greennfv::hwmodel
