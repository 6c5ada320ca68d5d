#include "stats/histogram.hpp"

#include <cmath>
#include <stdexcept>

namespace pftk::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)), counts_(bins, 0) {
  if (bins == 0) {
    throw std::invalid_argument("Histogram: bins must be > 0");
  }
  if (!(hi > lo)) {
    throw std::invalid_argument("Histogram: hi must exceed lo");
  }
}

void Histogram::add(double x) noexcept {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  auto idx = static_cast<std::size_t>((x - lo_) / width_);
  if (idx >= counts_.size()) {  // guard FP edge at the top boundary
    idx = counts_.size() - 1;
  }
  ++counts_[idx];
}

std::uint64_t Histogram::count_in_bin(std::size_t i) const { return counts_.at(i); }

double Histogram::bin_lo(std::size_t i) const {
  if (i >= counts_.size()) {
    throw std::out_of_range("Histogram::bin_lo");
  }
  return lo_ + width_ * static_cast<double>(i);
}

double Histogram::bin_hi(std::size_t i) const { return bin_lo(i) + width_; }

double Histogram::fraction_in_bin(std::size_t i) const {
  if (total_ == 0) {
    return 0.0;
  }
  return static_cast<double>(count_in_bin(i)) / static_cast<double>(total_);
}

}  // namespace pftk::stats
