// One JSON codec for the files pftk writes and reads back: the campaign
// journal, pftk-obs/1, pftk-spans/1 and its Chrome rendering, and the
// prof, summary and bench reports. Writers use
// escape() and g17(); readers parse each line into one Object, whose
// integer getters are exact, never rounded through a double. Each format
// keeps its own bad-line policy (EXPERIMENTS.md, "One JSON grammar").
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace pftk::robust::json {

/// A line that is not one JSON object, or a missing or mistyped field.
/// Every reader already treats a std::invalid_argument as a bad line.
class ParseError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// The body of a JSON string holding `text`, without the quotes. `"`,
/// `\`, newline, tab and CR get short escapes, every other byte below
/// 0x20 becomes \u00xx, and all other bytes (UTF-8 included) are copied.
[[nodiscard]] std::string escape(std::string_view text);

/// `value` as printf's "%.17g" in the C locale: enough digits for every
/// double to read back bit for bit. Infinities and NaNs come out as inf,
/// -inf, nan and -nan.
[[nodiscard]] std::string g17(double value);

/// One JSON object filling one line, checked against the grammar once and
/// kept as a copy. Whitespace between tokens is allowed, bytes after the
/// closing brace are not. Numbers follow strtod, so the inf and nan g17()
/// writes read back. A \uXXXX escape must be ASCII (0000-007f), as every
/// one escape() writes is. A repeated key resolves to its first value.
class Object {
 public:
  /// @throws ParseError when `line` is not exactly one object.
  explicit Object(std::string_view line);

  // Each getter throws ParseError when the field is missing or holds
  // another type.
  /// A string, escapes decoded.
  [[nodiscard]] std::string str(std::string_view key) const;
  /// Any number, rounded as strtod rounds it.
  [[nodiscard]] double f64(std::string_view key) const;
  /// A plain decimal integer in [0, max]. A sign, fraction, exponent or
  /// larger value is an error, never a rounded or wrapped number.
  [[nodiscard]] std::uint64_t u64(
      std::string_view key,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const;
  /// Arrays whose every element is read as f64(), u64() or an Object.
  [[nodiscard]] std::vector<double> f64s(std::string_view key) const;
  [[nodiscard]] std::vector<std::uint64_t> u64s(std::string_view key) const;
  [[nodiscard]] std::vector<Object> objects(std::string_view key) const;

 private:
  struct Field {
    std::string key;
    std::size_t begin;  ///< where the value's text starts in line_
    std::size_t size;
  };
  /// The text of `key`'s value: a quoted string, a number or literal
  /// token, or a whole array or object with its brackets. A non-NUL
  /// `open` is the byte the value must start with.
  [[nodiscard]] std::string_view value(std::string_view key, char open = '\0') const;
  /// `read` applied to the text of each element of the array at `key`.
  template <typename Read>
  [[nodiscard]] auto each(std::string_view key, Read&& read) const;

  std::string line_;
  std::vector<Field> fields_;
};

}  // namespace pftk::robust::json
