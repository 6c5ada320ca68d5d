#include "mc/trace_file.hpp"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "robust/decimal.hpp"
#include "robust/durable_file.hpp"
#include "robust/json_line.hpp"

namespace pftk::mc {

namespace {

constexpr const char* kMagic = "pftk-mc/1";

std::string one_line(std::string text) {
  std::replace(text.begin(), text.end(), '\n', ' ');
  std::replace(text.begin(), text.end(), '\r', ' ');
  return text;
}

/// `value` as a plain decimal integer in [min, max]: no sign, suffix,
/// fraction or wrap-around.
std::uint64_t integer(const std::string& value, std::uint64_t min, std::uint64_t max) {
  const auto parsed = robust::parse_decimal(value, max);
  if (!parsed || *parsed < min) {
    throw std::invalid_argument("not an integer in [" + std::to_string(min) + ", " +
                                std::to_string(max) + "]");
  }
  return *parsed;
}

std::uint32_t u32(const std::string& value) {
  return static_cast<std::uint32_t>(integer(value, 0, UINT32_MAX));
}

/// `value` as a number that consumes the whole text.
double real(const std::string& value) {
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size()) {
    throw std::invalid_argument("not a number");
  }
  return parsed;
}

}  // namespace

std::string serialize_trace(const CounterexampleTrace& trace) {
  const ExploreConfig& c = trace.config;
  std::ostringstream os;
  os << kMagic << '\n';
  os << "packets=" << c.packets << '\n';
  os << "window=" << robust::json::g17(c.window) << '\n';
  os << "ack_every=" << c.ack_every << '\n';
  os << "one_way_delay=" << robust::json::g17(c.one_way_delay) << '\n';
  os << "min_rto=" << robust::json::g17(c.min_rto) << '\n';
  os << "time_cap=" << robust::json::g17(c.time_cap) << '\n';
  if (!c.fault_schedule.empty()) {
    os << "faults=" << one_line(c.fault_schedule) << '\n';
  }
  os << "ack_loss=" << (c.ack_loss ? 1 : 0) << '\n';
  os << "loss_choices=" << c.loss_choices << '\n';
  os << "tie_width=" << c.tie_width << '\n';
  os << "tie_choices=" << c.tie_choices << '\n';
  os << "depth=" << c.depth << '\n';
  os << "seed=" << c.seed << '\n';
  os << "check=" << one_line(trace.check) << '\n';
  os << "message=" << one_line(trace.message) << '\n';
  os << "digest=" << trace.digest.hex() << '\n';
  os << "choices=" << encode_choices(trace.choices) << '\n';
  return os.str();
}

CounterexampleTrace parse_trace(const std::string& content) {
  std::istringstream is(content);
  std::string line;
  if (!std::getline(is, line) || line != kMagic) {
    throw std::invalid_argument("trace file: missing pftk-mc/1 magic");
  }
  CounterexampleTrace trace;
  bool saw_digest = false;
  for (std::size_t number = 2; std::getline(is, line); ++number) {
    if (line.empty()) {
      continue;
    }
    try {
      const std::size_t eq = line.find('=');
      if (eq == std::string::npos) {
        throw std::invalid_argument("no '='");
      }
      const std::string key = line.substr(0, eq);
      const std::string value = line.substr(eq + 1);
      ExploreConfig& c = trace.config;
      if (key == "packets") {
        c.packets = u32(value);
      } else if (key == "window") {
        c.window = real(value);
      } else if (key == "ack_every") {
        c.ack_every = static_cast<int>(integer(value, 1, INT_MAX));
      } else if (key == "one_way_delay") {
        c.one_way_delay = real(value);
      } else if (key == "min_rto") {
        c.min_rto = real(value);
      } else if (key == "time_cap") {
        c.time_cap = real(value);
      } else if (key == "faults") {
        c.fault_schedule = value;
      } else if (key == "ack_loss") {
        c.ack_loss = integer(value, 0, 1) == 1;
      } else if (key == "loss_choices") {
        c.loss_choices = u32(value);
      } else if (key == "tie_width") {
        c.tie_width = u32(value);
      } else if (key == "tie_choices") {
        c.tie_choices = u32(value);
      } else if (key == "depth") {
        c.depth = u32(value);
      } else if (key == "seed") {
        c.seed = integer(value, 0, UINT64_MAX);
      } else if (key == "check") {
        trace.check = value;
      } else if (key == "message") {
        trace.message = value;
      } else if (key == "digest") {
        trace.digest = McDigest::from_hex(value);
        saw_digest = true;
      } else if (key == "choices") {
        trace.choices = decode_choices(value);
      } else {
        throw std::invalid_argument("unknown key");
      }
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("trace file: line " + std::to_string(number) + ": " +
                                  e.what() + " in '" + line + "'");
    }
  }
  if (!saw_digest) {
    throw std::invalid_argument("trace file: missing digest");
  }
  return trace;
}

void save_trace_file(const std::string& path, const CounterexampleTrace& trace) {
  robust::atomic_write_file(path, serialize_trace(trace), "mc.trace.write");
}

CounterexampleTrace load_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw robust::IoError("cannot open trace file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    throw robust::IoError("read failed on trace file: " + path);
  }
  return parse_trace(buffer.str());
}

}  // namespace pftk::mc
