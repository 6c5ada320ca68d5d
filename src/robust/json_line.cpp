#include "robust/json_line.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "robust/decimal.hpp"

namespace pftk::robust::json {

namespace {

/// Deeper nesting than any pftk format uses is hostile input, refused
/// before it can exhaust the stack.
constexpr int kMaxDepth = 32;

constexpr std::string_view kSpace = " \t\r\n";
/// Bytes that end a number or literal token.
constexpr std::string_view kDelimiters = " \t\r\n,:[]{}\"";

[[noreturn]] void fail(const std::string& what) { throw ParseError(what); }

/// strtod over the whole token. Overflow is an error; underflow to a
/// subnormal or zero is a value.
double number(std::string_view token) {
  char buf[64];
  if (!token.empty() && token.size() < sizeof buf) {
    std::memcpy(buf, token.data(), token.size());
    buf[token.size()] = '\0';
    char* end = nullptr;
    errno = 0;
    const double out = std::strtod(buf, &end);
    if (end == buf + token.size() && !(errno == ERANGE && std::isinf(out))) {
      return out;
    }
  }
  fail("'" + std::string(token) + "' is not a number");
}

std::uint64_t to_u64(std::string_view token, std::string_view key, std::uint64_t max) {
  if (const auto out = parse_decimal(token, max)) {
    return *out;
  }
  fail("field '" + std::string(key) + "' = " + std::string(token) +
       " is not an integer in [0, " + std::to_string(max) + "]");
}

/// Left-to-right scanner that checks the grammar as it goes.
class Cursor {
 public:
  explicit Cursor(std::string_view text, std::size_t pos = 0) : s_(text), pos_(pos) {}

  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }

  void skip_space() {
    while (pos_ < s_.size() && kSpace.find(s_[pos_]) != std::string_view::npos) {
      ++pos_;
    }
  }

  /// Skips whitespace, then consumes `c` if it comes next.
  bool eat(char c) {
    skip_space();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!eat(c)) {
      error(std::string("expected '") + c + "'");
    }
  }

  /// Reads the string whose opening quote was just consumed, through its
  /// closing quote, appending the decoded bytes to `out` if non-null.
  void string(std::string* out) {
    while (true) {
      if (pos_ >= s_.size()) {
        error("unterminated string");
      }
      char c = s_[pos_++];
      if (c == '"') {
        return;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        error("unescaped control byte in a string");
      }
      if (c == '\\') {
        const char e = pos_ < s_.size() ? s_[pos_++] : '\0';
        const std::size_t at = std::string_view("\"\\/bfnrt").find(e);
        if (e == 'u') {
          unsigned cp = 0;
          const char* hex = s_.data() + pos_;
          const auto r = std::from_chars(hex, hex + std::min<std::size_t>(4, s_.size() - pos_),
                                         cp, 16);
          if (r.ptr - hex != 4 || cp > 0x7F) {
            error("\\u needs four hex digits of an ASCII byte");
          }
          pos_ += 4;
          c = static_cast<char>(cp);
        } else if (at == std::string_view::npos) {
          error("unknown escape");
        } else {
          c = "\"\\/\b\f\n\r\t"[at];
        }
      }
      if (out != nullptr) {
        *out += c;
      }
    }
  }

  /// Skips one value of any kind; returns where it starts.
  std::size_t value(int depth) {
    if (depth > kMaxDepth) {
      error("nested too deep");
    }
    skip_space();
    const std::size_t start = pos_;
    if (eat('"')) {
      string(nullptr);
    } else if (eat('{')) {
      members(depth, [](std::string&&, std::size_t, std::size_t) {});
    } else if (eat('[')) {
      list(']', [&] { value(depth + 1); });
    } else {
      while (pos_ < s_.size() && kDelimiters.find(s_[pos_]) == std::string_view::npos) {
        ++pos_;
      }
      const std::string_view token = s_.substr(start, pos_ - start);
      if (token != "true" && token != "false" && token != "null") {
        (void)number(token);
      }
    }
    return start;
  }

  /// The comma-separated items up to `close`, whose opener was just
  /// consumed; `item()` reads each one.
  template <typename Item>
  void list(char close, Item&& item) {
    if (!eat(close)) {
      do {
        item();
      } while (eat(','));
      expect(close);
    }
  }

  /// The members of the object whose '{' was just consumed, through its
  /// '}'; `on_field(key, begin, end)` sees each one's value span.
  template <typename OnField>
  void members(int depth, OnField&& on_field) {
    list('}', [&] {
      expect('"');
      std::string key;
      string(&key);
      expect(':');
      const std::size_t begin = value(depth + 1);
      on_field(std::move(key), begin, pos_);
    });
  }

  [[noreturn]] void error(const std::string& what) const {
    fail(what + " at byte " + std::to_string(pos_));
  }

 private:
  std::string_view s_;
  std::size_t pos_;
};

}  // namespace

std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    const std::size_t at = std::string_view("\"\\\n\t\r").find(c);
    if (at != std::string_view::npos) {
      out += '\\';
      out += "\"\\ntr"[at];
    } else if (static_cast<unsigned char>(c) < 0x20) {
      constexpr std::string_view kHex = "0123456789abcdef";
      out += "\\u00";
      out += kHex[c >> 4];
      out += kHex[c & 0xF];
    } else {
      out += c;
    }
  }
  return out;
}

std::string g17(double value) {
  // to_chars at precision 17 in general format is specified to print
  // what printf's "%.17g" prints, independent of the global locale.
  char buf[32];
  const auto result =
      std::to_chars(buf, buf + sizeof buf, value, std::chars_format::general, 17);
  return std::string(buf, result.ptr);
}

Object::Object(std::string_view line) : line_(line) {
  Cursor cursor(line_);
  cursor.expect('{');
  cursor.members(0, [this](std::string&& key, std::size_t begin, std::size_t end) {
    fields_.push_back({std::move(key), begin, end - begin});
  });
  cursor.skip_space();
  if (cursor.pos() != line_.size()) {
    cursor.error("bytes after the object");
  }
}

std::string_view Object::value(std::string_view key, char open) const {
  for (const Field& field : fields_) {
    if (field.key != key) {
      continue;
    }
    const std::string_view text = std::string_view(line_).substr(field.begin, field.size);
    if (open != '\0' && text.front() != open) {
      fail("field '" + std::string(key) + "' is not " + (open == '"' ? "a string" : "an array"));
    }
    return text;
  }
  fail("missing field '" + std::string(key) + "'");
}

template <typename Read>
auto Object::each(std::string_view key, Read&& read) const {
  const std::string_view array = value(key, '[');
  std::vector<decltype(read(array))> out;
  Cursor cursor(array, 1);
  cursor.list(']', [&] {
    const std::size_t begin = cursor.value(1);
    out.push_back(read(array.substr(begin, cursor.pos() - begin)));
  });
  return out;
}

std::string Object::str(std::string_view key) const {
  std::string out;
  Cursor(value(key, '"'), 1).string(&out);
  return out;
}

double Object::f64(std::string_view key) const { return number(value(key)); }

std::uint64_t Object::u64(std::string_view key, std::uint64_t max) const {
  return to_u64(value(key), key, max);
}

std::vector<double> Object::f64s(std::string_view key) const { return each(key, number); }

std::vector<std::uint64_t> Object::u64s(std::string_view key) const {
  return each(key, [key](std::string_view item) {
    return to_u64(item, key, std::numeric_limits<std::uint64_t>::max());
  });
}

std::vector<Object> Object::objects(std::string_view key) const {
  return each(key, [](std::string_view item) { return Object(item); });
}

}  // namespace pftk::robust::json
