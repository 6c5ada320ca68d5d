// Newline scanning for the trace reader.
//
// The reader (trace_reader_fast.*) asks "where is the next '\n'?" once
// per record, and serve's CALIB verb uses the same answer to cut a trace
// into 4096-line slices. find_newline is a wide memchr: it compares 8
// input bytes per step with the classic SWAR zero-in-word trick, and the
// scalar tail keeps it exact at any alignment and length. It lives in
// the header so the per-record call in the parser inlines — taking it
// out of line costs ~10% of ingest throughput. A unit test cross-checks
// it byte-for-byte against std::memchr.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace pftk::trace {

namespace scan_detail {

inline constexpr std::uint64_t kLowBits = 0x0101010101010101ULL;
inline constexpr std::uint64_t kHighBits = 0x8080808080808080ULL;

/// Nonzero iff some byte of `word` is zero (Mycroft's trick); the high
/// bit of each zero byte's lane is set in the result.
constexpr std::uint64_t zero_byte_mask(std::uint64_t word) noexcept {
  return (word - kLowBits) & ~word & kHighBits;
}

}  // namespace scan_detail

/// Index of the first '\n' at or after `pos`, or std::string_view::npos.
[[nodiscard]] inline std::size_t find_newline(std::string_view data,
                                              std::size_t pos = 0) noexcept {
  const char* const base = data.data();
  const char* p = base + pos;
  const char* const end = base + data.size();
  if (p >= end) {
    return std::string_view::npos;
  }

  // SWAR: 8 bytes per step. XOR maps '\n' bytes to zero; the zero-byte
  // mask's lowest set bit then indexes the first match (little-endian:
  // byte i of the word is bits [8i, 8i+8), so countr_zero/8 is exact).
  const std::uint64_t pattern =
      scan_detail::kLowBits * static_cast<unsigned char>('\n');
  while (p + 8 <= end) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    const std::uint64_t mask = scan_detail::zero_byte_mask(word ^ pattern);
    if (mask != 0) {
      return static_cast<std::size_t>(p - base) +
             (static_cast<std::size_t>(std::countr_zero(mask)) >> 3);
    }
    p += 8;
  }
  while (p < end) {
    if (*p == '\n') {
      return static_cast<std::size_t>(p - base);
    }
    ++p;
  }
  return std::string_view::npos;
}

}  // namespace pftk::trace
