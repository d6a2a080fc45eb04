#include "core/options.hpp"

#include <cmath>
#include <limits>
#include <string>

#include "support/error.hpp"

namespace parsvd {

std::vector<double> FaultReport::to_doubles() const {
  std::vector<double> flat;
  flat.reserve(7 + dead_ranks.size());
  flat.push_back(degraded ? 1.0 : 0.0);
  flat.push_back(static_cast<double>(dead_ranks.size()));
  for (int r : dead_ranks) flat.push_back(static_cast<double>(r));
  flat.push_back(static_cast<double>(surviving_rows));
  flat.push_back(static_cast<double>(lost_rows));
  flat.push_back(extent_known ? 1.0 : 0.0);
  flat.push_back(coverage);
  flat.push_back(accuracy_bound);
  return flat;
}

namespace {

// One field of the flat encoding checked before any cast: the payload
// crossed the wire, and casting a NaN, negative or huge double to an
// integer type is undefined behaviour.
double checked_field(double v, double lo, double hi, bool integral,
                     const char* what) {
  if (!(std::isfinite(v) && v >= lo && v <= hi) ||
      (integral && v != std::floor(v))) {
    throw CommError(std::string("FaultReport: bad ") + what + " field " +
                    std::to_string(v));
  }
  return v;
}

}  // namespace

FaultReport FaultReport::from_doubles(const std::vector<double>& flat) {
  if (flat.size() < 7) throw CommError("FaultReport: truncated encoding");
  // Largest row count a double carries exactly.
  constexpr double kMaxRows = 9007199254740992.0;  // 2^53
  FaultReport out;
  std::size_t i = 0;
  out.degraded = checked_field(flat[i++], 0, 1, true, "degraded") != 0.0;
  const auto ndead = static_cast<std::size_t>(checked_field(
      flat[i++], 0, static_cast<double>(flat.size() - 7), true, "ndead"));
  if (flat.size() != 7 + ndead) throw CommError("FaultReport: length mismatch");
  out.dead_ranks.reserve(ndead);
  for (std::size_t k = 0; k < ndead; ++k) {
    out.dead_ranks.push_back(static_cast<int>(checked_field(
        flat[i++], 0, std::numeric_limits<int>::max(), true, "dead rank")));
  }
  out.surviving_rows = static_cast<Index>(
      checked_field(flat[i++], 0, kMaxRows, true, "surviving_rows"));
  out.lost_rows = static_cast<Index>(
      checked_field(flat[i++], 0, kMaxRows, true, "lost_rows"));
  out.extent_known =
      checked_field(flat[i++], 0, 1, true, "extent_known") != 0.0;
  out.coverage = checked_field(flat[i++], 0, 1, false, "coverage");
  out.accuracy_bound = checked_field(flat[i++], 0, 1, false, "accuracy_bound");
  return out;
}

void StreamingOptions::validate() const {
  PARSVD_REQUIRE(num_modes > 0, "num_modes must be positive");
  PARSVD_REQUIRE(forget_factor > 0.0 && forget_factor <= 1.0,
                 "forget_factor must lie in (0, 1]");
  for (Index i = 0; i < row_weights.size(); ++i) {
    PARSVD_REQUIRE(row_weights[i] > 0.0, "row weights must be positive");
  }
  if (low_rank) {
    PARSVD_REQUIRE(randomized.rank > 0, "randomized rank must be positive");
    PARSVD_REQUIRE(randomized.oversampling >= 0, "oversampling must be >= 0");
    PARSVD_REQUIRE(randomized.power_iterations >= 0,
                   "power_iterations must be >= 0");
  }
}

void ApmosOptions::validate() const {
  PARSVD_REQUIRE(r1 > 0, "r1 must be positive");
  PARSVD_REQUIRE(r2 > 0, "r2 must be positive");
  if (low_rank) {
    PARSVD_REQUIRE(randomized.rank > 0, "randomized rank must be positive");
    PARSVD_REQUIRE(randomized.oversampling >= 0, "oversampling must be >= 0");
    PARSVD_REQUIRE(randomized.power_iterations >= 0,
                   "power_iterations must be >= 0");
  }
}

}  // namespace parsvd
