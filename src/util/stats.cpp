#include "util/stats.hpp"

#include <array>
#include <cmath>

namespace mstc::util {

void Summary::merge(const Summary& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double combined = na + nb;
  mean_ += delta * nb / combined;
  m2_ += other.m2_ + delta * delta * na * nb / combined;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Summary::stddev() const noexcept { return std::sqrt(variance()); }

double t_quantile_975(std::size_t dof) noexcept {
  // Two-tailed 95 % critical values of the Student-t distribution.
  static constexpr std::array<double, 31> kTable = {
      0.0,    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
      2.228,  2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
      2.086,  2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
      2.042};
  if (dof == 0) return std::numeric_limits<double>::infinity();
  if (dof < kTable.size()) return kTable[dof];
  if (dof < 40) return 2.03;
  if (dof < 60) return 2.01;
  if (dof < 120) return 1.99;
  return 1.96;
}

ConfidenceInterval Summary::ci95() const noexcept {
  ConfidenceInterval ci;
  ci.mean = mean_;
  if (n_ < 2) {
    ci.half_width = std::numeric_limits<double>::infinity();
    return ci;
  }
  const double standard_error = stddev() / std::sqrt(static_cast<double>(n_));
  ci.half_width = t_quantile_975(n_ - 1) * standard_error;
  return ci;
}

Summary summarize(std::span<const double> sample) noexcept {
  Summary s;
  for (double x : sample) s.add(x);
  return s;
}

double median(std::vector<double> sample) noexcept {
  if (sample.empty()) return 0.0;
  const auto mid =
      sample.begin() + static_cast<std::ptrdiff_t>(sample.size() / 2);
  std::nth_element(sample.begin(), mid, sample.end());
  if (sample.size() % 2 == 1) return *mid;
  const double hi = *mid;
  const double lo = *std::max_element(sample.begin(), mid);
  return 0.5 * (lo + hi);
}

}  // namespace mstc::util
