#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nfvsim/nf.hpp"
#include "nfvsim/packet.hpp"
#include "nfvsim/ring.hpp"

/// \file chain.hpp
/// A service chain: NFs in series connection (the paper's deployment:
/// "Each node hosts an NF chain with three Network functions. Network
/// functions are chained with a series connection."). The chain owns its
/// NF objects and inter-NF SPSC rings — the packet datapath. Only the
/// threaded engine builds chains; the analytic model reads the same cost
/// profiles from OnvmController's compositions instead.

namespace greennfv::nfvsim {

class ServiceChain {
 public:
  /// Builds a chain from catalog names, e.g. {"firewall","router","ids"}.
  ServiceChain(std::string name, const std::vector<std::string>& nf_names,
               std::size_t ring_capacity = 4096);

  ServiceChain(const ServiceChain&) = delete;
  ServiceChain& operator=(const ServiceChain&) = delete;
  ServiceChain(ServiceChain&&) = default;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t num_nfs() const { return nfs_.size(); }
  [[nodiscard]] NetworkFunction& nf(std::size_t i) { return *nfs_.at(i); }
  [[nodiscard]] const NetworkFunction& nf(std::size_t i) const {
    return *nfs_.at(i);
  }

  /// Input ring of NF `i` (ring 0 is the chain's RX queue); ring
  /// `num_nfs()` is the TX/output ring.
  [[nodiscard]] SpscRing<Packet*>& ring(std::size_t i) {
    return *rings_.at(i);
  }
  [[nodiscard]] std::size_t num_rings() const { return rings_.size(); }

  /// Runs one packet through every NF inline (no rings); returns false if
  /// some NF dropped it. Used by tests and the quickstart example.
  bool process_inline(Packet& pkt);

  /// Runs a burst through every NF inline; returns delivered count.
  std::size_t process_batch_inline(std::span<Packet* const> batch);

  /// Sum of per-NF drop counters.
  [[nodiscard]] std::uint64_t total_nf_drops() const;

  void reset_stats();

 private:
  std::string name_;
  std::vector<std::unique_ptr<NetworkFunction>> nfs_;
  std::vector<std::unique_ptr<SpscRing<Packet*>>> rings_;
};

/// The 3-NF chains used throughout the paper's evaluation. Index selects a
/// composition; compositions differ in weight so nodes are heterogeneous.
[[nodiscard]] std::vector<std::string> standard_chain_nfs(int variant);

}  // namespace greennfv::nfvsim
