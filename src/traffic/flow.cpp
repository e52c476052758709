#include "traffic/flow.hpp"

#include <stdexcept>

namespace greennfv::traffic {

std::string to_string(Protocol proto) {
  return proto == Protocol::kUdp ? "udp" : "tcp";
}

std::string to_string(ArrivalKind kind) {
  switch (kind) {
    case ArrivalKind::kCbr:     return "cbr";
    case ArrivalKind::kPoisson: return "poisson";
    case ArrivalKind::kMmpp:    return "mmpp";
    case ArrivalKind::kOnOff:   return "onoff";
  }
  return "?";
}

std::unique_ptr<ArrivalProcess> make_arrival(const FlowSpec& spec) {
  validate(spec);
  switch (spec.arrival) {
    case ArrivalKind::kCbr:
      return std::make_unique<CbrArrival>(spec.mean_rate_pps);
    case ArrivalKind::kPoisson:
      return std::make_unique<PoissonArrival>(spec.mean_rate_pps);
    case ArrivalKind::kMmpp:
      return std::make_unique<MmppArrival>(spec.mean_rate_pps,
                                           spec.peak_to_mean, spec.dwell_s);
    case ArrivalKind::kOnOff:
      return std::make_unique<OnOffArrival>(spec.mean_rate_pps,
                                            spec.peak_to_mean, spec.dwell_s);
  }
  throw std::invalid_argument("unknown arrival kind");
}

void validate(const FlowSpec& spec) {
  if (!(spec.mean_rate_pps >= 0.0))
    throw std::invalid_argument("flow: negative rate");
  if (spec.pkt_bytes < 64 || spec.pkt_bytes > 1518)
    throw std::invalid_argument(
        "flow: packet size outside Ethernet's 64-1518 byte range");
  if (!(spec.peak_to_mean >= 1.0))
    throw std::invalid_argument("flow: peak_to_mean must be >= 1");
  if (!(spec.dwell_s > 0.0))
    throw std::invalid_argument("flow: dwell must be positive");
  if (spec.chain_index < 0)
    throw std::invalid_argument("flow: negative chain index");
}

}  // namespace greennfv::traffic
