// Fixed-width-bin histogram over a bounded range.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pftk::stats {

/// Histogram with `bins` equal-width bins covering [lo, hi).
/// Samples below lo land in an underflow counter, samples >= hi in an
/// overflow counter, so no observation is silently dropped.
class Histogram {
 public:
  /// @throws std::invalid_argument if bins == 0 or hi <= lo.
  Histogram(double lo, double hi, std::size_t bins);

  /// Adds one observation.
  void add(double x) noexcept;

  [[nodiscard]] std::size_t bin_count() const noexcept { return counts_.size(); }
  [[nodiscard]] std::uint64_t count_in_bin(std::size_t i) const;
  [[nodiscard]] std::uint64_t underflow() const noexcept { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

  /// Inclusive lower edge of bin i.
  [[nodiscard]] double bin_lo(std::size_t i) const;
  /// Exclusive upper edge of bin i.
  [[nodiscard]] double bin_hi(std::size_t i) const;

  /// Fraction of all observations (including under/overflow) in bin i.
  [[nodiscard]] double fraction_in_bin(std::size_t i) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace pftk::stats
