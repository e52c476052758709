#pragma once

#include <cstdint>
#include <string>
#include <vector>

/// \file topology.hpp
/// The inter-node network model: a graph of hosting nodes, switches, and
/// capacitated links that the fleet orchestrator routes chain traffic
/// over. Until this layer existed, chains consumed node cores only — the
/// wire between nodes was free, so placement policies that scatter a
/// chain across the cluster paid nothing for it. A `Topology` carries
/// per-link capacity, latency, and an idle + per-bit energy model; preset
/// generators build the canonical datacenter fabrics (fat-tree,
/// leaf-spine, edge-core, and the degenerate single-rack) sized to the
/// fleet's node count. Routing and committed-bandwidth accounting live in
/// `PathTable` (path_table.hpp).
///
/// All bandwidth accounting downstream runs in integral kilobits/s and
/// all latency in integral nanoseconds — exact arithmetic, so committed
/// bandwidth returns to exactly zero when every chain departs and both
/// fleet engines agree bit-for-bit regardless of mutation order.

namespace greennfv::topology {

/// The `topology.*` scenario key family: preset + scale knobs + link
/// capacity/latency/energy coefficients. Serialized, validated, and
/// help-listed by `scenario::ScenarioSpec` exactly like `fleet.*`.
struct TopologySpec {
  bool enabled = false;  ///< topology.enabled (0 = wire is free, as before)
  /// Fabric preset: single-rack | leaf-spine | fat-tree | edge-core.
  std::string preset = "leaf-spine";  ///< topology.preset
  /// Path selection: shortest (min hops, widest tie-break) | widest
  /// (max bottleneck free capacity).
  std::string routing = "shortest";  ///< topology.routing
  /// Hosts attached per leaf/edge switch (leaf-spine, edge-core).
  int hosts_per_leaf = 4;  ///< topology.hosts_per_leaf
  /// Spine count (leaf-spine) / core count (edge-core).
  int spines = 2;  ///< topology.spines
  /// Fat-tree arity k (even, >= 2; capacity k^3/4 hosts).
  int fat_k = 4;  ///< topology.fat_k
  /// Host-to-switch (edge) link capacity / latency.
  double link_gbps = 40.0;       ///< topology.link_gbps
  double link_latency_us = 5.0;  ///< topology.link_latency_us
  /// Switch-to-switch and gateway (core) link capacity / latency.
  double core_gbps = 100.0;       ///< topology.core_gbps
  double core_latency_us = 10.0;  ///< topology.core_latency_us
  /// Per-link energy model: constant idle draw plus energy per bit
  /// carried (nanojoules/bit — ~0.5 nJ/bit is switch-ASIC territory).
  double link_idle_w = 2.0;        ///< topology.link_idle_w
  double link_nj_per_bit = 0.5;    ///< topology.link_nj_per_bit

  /// The preset/routing names `build` accepts — mirrored into scenario
  /// validation so a typo'd topology.preset fails at campaign expansion,
  /// before anything runs.
  [[nodiscard]] static const std::vector<std::string>& preset_names();
  [[nodiscard]] static const std::vector<std::string>& routing_names();
};

/// Throws std::invalid_argument naming the offending field. Name and
/// fat_k parity checks always run (so sweeps fail fast even on disabled
/// cells); the preset-capacity fit check (can this fabric attach
/// `num_hosts` hosts?) only binds when `spec.enabled`. The numeric ranges
/// of the topology.* keys live in the scenario key table.
void validate_spec(const TopologySpec& spec, int num_hosts);

/// One undirected link. Capacity is integral kbps and latency integral
/// ns — the exact units every accounting path downstream uses.
struct Link {
  int a = 0;  ///< vertex endpoint
  int b = 0;  ///< vertex endpoint
  std::int64_t capacity_kbps = 0;
  std::int64_t latency_ns = 0;
  double idle_w = 0.0;
  double nj_per_bit = 0.0;
};

/// An immutable-after-build network graph. Vertices 0..num_hosts-1 ARE
/// the fleet's hosting nodes (vertex id == node id); switches and the
/// ingress gateway follow. Construction is fully deterministic: vertex
/// and link ids depend only on the spec and host count.
class Topology {
 public:
  /// A bare graph with `num_hosts` host vertices and nothing else —
  /// the seam tests and custom fabrics build through.
  explicit Topology(int num_hosts);

  /// Builds the preset fabric named by `spec` (validates first).
  [[nodiscard]] static Topology build(const TopologySpec& spec,
                                      int num_hosts);

  /// Adds a switch vertex; returns its id.
  int add_switch();
  /// Marks `vertex` as the traffic ingress (where every chain's flows
  /// enter the fabric).
  void set_ingress(int vertex);
  /// Adds an undirected link; returns its id. Capacity/latency are
  /// quantized to kbps/ns here, once.
  int add_link(int a, int b, double capacity_gbps, double latency_us,
               double idle_w, double nj_per_bit);

  [[nodiscard]] int num_hosts() const { return num_hosts_; }
  [[nodiscard]] int num_switches() const {
    return num_vertices() - num_hosts_;
  }
  [[nodiscard]] int num_vertices() const {
    return static_cast<int>(adjacency_.size());
  }
  [[nodiscard]] int num_links() const {
    return static_cast<int>(links_.size());
  }
  [[nodiscard]] int ingress() const { return ingress_; }
  [[nodiscard]] const std::vector<Link>& links() const { return links_; }
  /// Link ids incident to `vertex`, ascending (relaxation order — part of
  /// the routing determinism contract).
  [[nodiscard]] const std::vector<int>& adjacency(int vertex) const {
    return adjacency_[static_cast<std::size_t>(vertex)];
  }
  /// The link's endpoint that is not `from`.
  [[nodiscard]] int other_end(int link, int from) const {
    const Link& l = links_[static_cast<std::size_t>(link)];
    return l.a == from ? l.b : l.a;
  }

  /// Throws std::invalid_argument unless an ingress is set and every
  /// host is reachable from it.
  void check() const;

 private:
  int num_hosts_;
  int ingress_ = -1;
  std::vector<Link> links_;
  std::vector<std::vector<int>> adjacency_;
};

/// Quantization helpers — the single place gbps/us become integers.
[[nodiscard]] std::int64_t kbps_from_gbps(double gbps);
[[nodiscard]] std::int64_t ns_from_us(double us);

}  // namespace greennfv::topology
