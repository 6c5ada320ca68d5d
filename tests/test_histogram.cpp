#include <gtest/gtest.h>

#include <stdexcept>

#include "stats/histogram.hpp"

namespace pftk::stats {
namespace {

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(2.0, 1.0, 4), std::invalid_argument);
}

TEST(Histogram, BinsAndEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_EQ(h.bin_count(), 5u);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(4), 8.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(4), 10.0);
  EXPECT_THROW((void)h.bin_lo(5), std::out_of_range);
}

TEST(Histogram, CountsFallInCorrectBins) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.0);   // bin 0
  h.add(1.99);  // bin 0
  h.add(2.0);   // bin 1
  h.add(9.99);  // bin 4
  EXPECT_EQ(h.count_in_bin(0), 2u);
  EXPECT_EQ(h.count_in_bin(1), 1u);
  EXPECT_EQ(h.count_in_bin(4), 1u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, UnderAndOverflowAreTracked) {
  Histogram h(0.0, 1.0, 2);
  h.add(-0.5);
  h.add(1.0);   // hi is exclusive -> overflow
  h.add(42.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, FractionsIncludeOutliers) {
  Histogram h(0.0, 1.0, 1);
  h.add(0.5);
  h.add(2.0);
  EXPECT_DOUBLE_EQ(h.fraction_in_bin(0), 0.5);
}

}  // namespace
}  // namespace pftk::stats
