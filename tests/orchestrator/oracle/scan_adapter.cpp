#include "tests/orchestrator/oracle/scan_adapter.hpp"

namespace greennfv::orchestrator::oracle {

FleetView view_of(const FleetIndex& index) {
  FleetView view;
  view.nodes.reserve(static_cast<std::size_t>(index.num_nodes()));
  for (int n = 0; n < index.num_nodes(); ++n) {
    NodeView node;
    node.down = index.down(n);
    node.capacity_cores = node.down ? 0.0 : index.capacity_cores();
    node.committed_cores = index.committed_cores(n);
    node.asleep = index.asleep(n);
    node.chains.reserve(index.hosted(n).size());
    for (const int id : index.hosted(n))
      node.chains.push_back({id, index.chain_cores(id)});
    view.nodes.push_back(std::move(node));
  }
  return view;
}

}  // namespace greennfv::orchestrator::oracle
