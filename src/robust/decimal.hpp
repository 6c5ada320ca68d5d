// The one reader of decimal integers in the text pftk parses: campaign
// specs, failpoint specs, CLI flags and JSON fields.
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

namespace pftk::robust {

/// `text` as a plain decimal integer in [0, max]: digits only. Empty
/// text, a sign, whitespace, a fraction, an exponent or a value above
/// `max` (overflow included) gives nullopt, never a negated, wrapped or
/// saturated number.
[[nodiscard]] inline std::optional<std::uint64_t> parse_decimal(
    std::string_view text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) noexcept {
  std::uint64_t out = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec != std::errc{} || ptr != end || out > max) {
    return std::nullopt;
  }
  return out;
}

}  // namespace pftk::robust
