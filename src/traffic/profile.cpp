#include "traffic/profile.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace greennfv::traffic {

double RateProfile::multiplier(double t_s) const {
  switch (kind) {
    case Kind::kSteady:
      return 1.0;
    case Kind::kDiurnal:
      return 1.0 +
             amplitude * std::sin(2.0 * std::numbers::pi * t_s / period_s);
    case Kind::kBursty: {
      const double phase = std::fmod(t_s, period_s);
      return phase < 0.5 * period_s ? 1.0 + amplitude : 1.0 - amplitude;
    }
    case Kind::kFlashCrowd:
      return (t_s >= surge_start_s && t_s < surge_start_s + surge_duration_s)
                 ? surge_factor
                 : 1.0;
  }
  return 1.0;
}

void RateProfile::validate() const {
  if (kind == Kind::kDiurnal || kind == Kind::kBursty) {
    if (!(period_s > 0.0))
      throw std::invalid_argument("RateProfile: period_s must be positive");
    if (!(amplitude >= 0.0 && amplitude < 1.0))
      throw std::invalid_argument("RateProfile: amplitude must be in [0, 1)");
  }
  if (kind == Kind::kFlashCrowd) {
    if (!(surge_start_s >= 0.0))
      throw std::invalid_argument(
          "RateProfile: surge_start_s must be non-negative");
    if (!(surge_duration_s > 0.0))
      throw std::invalid_argument(
          "RateProfile: surge_duration_s must be positive");
    if (!(surge_factor > 0.0))
      throw std::invalid_argument(
          "RateProfile: surge_factor must be positive");
  }
}

std::string to_string(RateProfile::Kind kind) {
  switch (kind) {
    case RateProfile::Kind::kSteady: return "steady";
    case RateProfile::Kind::kDiurnal: return "diurnal";
    case RateProfile::Kind::kBursty: return "bursty";
    case RateProfile::Kind::kFlashCrowd: return "flash-crowd";
  }
  return "steady";
}

RateProfile::Kind profile_kind_from_string(const std::string& name) {
  if (name == "steady") return RateProfile::Kind::kSteady;
  if (name == "diurnal") return RateProfile::Kind::kDiurnal;
  if (name == "bursty") return RateProfile::Kind::kBursty;
  if (name == "flash-crowd" || name == "flash_crowd")
    return RateProfile::Kind::kFlashCrowd;
  throw std::invalid_argument(
      "RateProfile: unknown kind '" + name +
      "' (expected steady|diurnal|bursty|flash-crowd)");
}

}  // namespace greennfv::traffic
