#include "src/chaos/arrival.h"

#include <algorithm>
#include <cmath>
#include <charconv>
#include <string>

namespace o1mem {

namespace {

// Consumes a decimal number (integer or fraction) from the front of `s`.
Result<double> EatNumber(std::string_view& s) {
  double value = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr == s.data()) {
    return Status(StatusCode::kInvalidArgument,
                  "arrival: expected number at '" + std::string(s) + "'");
  }
  s.remove_prefix(static_cast<size_t>(ptr - s.data()));
  return value;
}

Result<uint64_t> EatInt(std::string_view& s) {
  uint64_t value = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr == s.data()) {
    return Status(StatusCode::kInvalidArgument,
                  "arrival: expected integer at '" + std::string(s) + "'");
  }
  s.remove_prefix(static_cast<size_t>(ptr - s.data()));
  return value;
}

// Every rate the config samples lies in [0, kMaxArrivalRate] (a NaN fails
// both comparisons), the mean is positive, and a burst phase has a length.
Status Validate(const ArrivalConfig& config) {
  const bool ramp = config.kind == ArrivalConfig::Kind::kRamp;
  const double lo = ramp ? config.ramp_lo : config.rate;
  const double hi = ramp ? config.ramp_hi : config.rate;
  if (!(lo >= 0.0 && lo <= kMaxArrivalRate && hi >= 0.0 && hi <= kMaxArrivalRate)) {
    return Status(StatusCode::kInvalidArgument,
                  "arrival: rates must lie in [0, " +
                      std::to_string(static_cast<int>(kMaxArrivalRate)) + "] per tick");
  }
  if (config.MeanRate() <= 0.0) {
    return Status(StatusCode::kInvalidArgument, "arrival: mean rate must be positive");
  }
  if (config.kind == ArrivalConfig::Kind::kBurst && config.burst_ticks == 0) {
    return Status(StatusCode::kInvalidArgument, "arrival: burst length 0");
  }
  return OkStatus();
}

}  // namespace

Result<ArrivalConfig> ParseArrival(std::string_view spec) {
  ArrivalConfig config;
  config.enabled = true;
  const size_t colon = spec.find(':');
  if (colon == std::string_view::npos) {
    return Status(StatusCode::kInvalidArgument,
                  "arrival: missing ':' in '" + std::string(spec) + "'");
  }
  const std::string_view kind = spec.substr(0, colon);
  std::string_view rest = spec.substr(colon + 1);
  if (kind == "poisson") {
    config.kind = ArrivalConfig::Kind::kPoisson;
    auto rate = EatNumber(rest);
    O1_RETURN_IF_ERROR(rate.status());
    config.rate = *rate;
  } else if (kind == "burst") {
    config.kind = ArrivalConfig::Kind::kBurst;
    auto rate = EatNumber(rest);
    O1_RETURN_IF_ERROR(rate.status());
    config.rate = *rate;
    if (rest.empty() || rest.front() != 'x') {
      return Status(StatusCode::kInvalidArgument,
                    "arrival: burst needs 'x<len>' in '" + std::string(spec) + "'");
    }
    rest.remove_prefix(1);
    auto len = EatInt(rest);
    O1_RETURN_IF_ERROR(len.status());
    config.burst_ticks = *len;
  } else if (kind == "ramp") {
    config.kind = ArrivalConfig::Kind::kRamp;
    auto lo = EatNumber(rest);
    O1_RETURN_IF_ERROR(lo.status());
    config.ramp_lo = *lo;
    if (rest.empty() || rest.front() != '-') {
      return Status(StatusCode::kInvalidArgument,
                    "arrival: ramp needs '-<hi>' in '" + std::string(spec) + "'");
    }
    rest.remove_prefix(1);
    auto hi = EatNumber(rest);
    O1_RETURN_IF_ERROR(hi.status());
    config.ramp_hi = *hi;
  } else {
    return Status(StatusCode::kInvalidArgument,
                  "arrival: unknown process '" + std::string(kind) + "'");
  }
  if (!rest.empty()) {
    return Status(StatusCode::kInvalidArgument,
                  "arrival: trailing junk '" + std::string(rest) + "' in '" +
                      std::string(spec) + "'");
  }
  O1_RETURN_IF_ERROR(Validate(config));
  return config;
}

ArrivalProcess::ArrivalProcess(const ArrivalConfig& config, uint64_t total_ops, uint64_t seed)
    : config_(config), total_ops_(total_ops), rng_(seed) {
  O1_CHECK(Validate(config).ok());
  horizon_ticks_ = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(static_cast<double>(total_ops) / config.MeanRate())));
}

double ArrivalProcess::RateAt(uint64_t tick) const {
  switch (config_.kind) {
    case ArrivalConfig::Kind::kPoisson:
      return config_.rate;
    case ArrivalConfig::Kind::kBurst:
      return (tick / config_.burst_ticks) % 2 == 0 ? config_.rate : 0.0;
    case ArrivalConfig::Kind::kRamp: {
      if (tick >= horizon_ticks_) {
        return config_.ramp_hi;
      }
      const double frac = static_cast<double>(tick) / static_cast<double>(horizon_ticks_);
      return config_.ramp_lo + (config_.ramp_hi - config_.ramp_lo) * frac;
    }
  }
  return config_.rate;
}

uint32_t ArrivalProcess::ArrivalsAt(uint64_t tick) {
  if (generated_ >= total_ops_) {
    return 0;
  }
  if (!config_.enabled) {
    ++generated_;
    return 1;
  }
  const double lambda = RateAt(tick);
  if (lambda <= 0.0) {
    return 0;
  }
  // Knuth: count uniforms whose product stays above e^-lambda. Exact and
  // deterministic from the Rng stream; kMaxArrivalRate keeps e^-lambda a
  // normal double.
  const double limit = std::exp(-lambda);
  uint32_t count = 0;
  double product = rng_.NextDouble();
  while (product > limit) {
    ++count;
    product *= rng_.NextDouble();
  }
  const uint64_t remaining = total_ops_ - generated_;
  count = static_cast<uint32_t>(std::min<uint64_t>(count, remaining));
  generated_ += count;
  return count;
}

}  // namespace o1mem
