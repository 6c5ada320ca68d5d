#include "mc/trace_file.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

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
  while (std::getline(is, line)) {
    if (line.empty()) {
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("trace file: malformed line '" + line + "'");
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    ExploreConfig& c = trace.config;
    try {
      if (key == "packets") {
        c.packets = static_cast<std::uint32_t>(std::stoul(value));
      } else if (key == "window") {
        c.window = std::stod(value);
      } else if (key == "ack_every") {
        c.ack_every = std::stoi(value);
      } else if (key == "one_way_delay") {
        c.one_way_delay = std::stod(value);
      } else if (key == "min_rto") {
        c.min_rto = std::stod(value);
      } else if (key == "time_cap") {
        c.time_cap = std::stod(value);
      } else if (key == "faults") {
        c.fault_schedule = value;
      } else if (key == "ack_loss") {
        c.ack_loss = std::stoi(value) != 0;
      } else if (key == "loss_choices") {
        c.loss_choices = static_cast<std::uint32_t>(std::stoul(value));
      } else if (key == "tie_width") {
        c.tie_width = static_cast<std::uint32_t>(std::stoul(value));
      } else if (key == "tie_choices") {
        c.tie_choices = static_cast<std::uint32_t>(std::stoul(value));
      } else if (key == "depth") {
        c.depth = static_cast<std::uint32_t>(std::stoul(value));
      } else if (key == "seed") {
        c.seed = std::stoull(value);
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
    } catch (const std::invalid_argument&) {
      throw std::invalid_argument("trace file: bad line '" + line + "'");
    } catch (const std::out_of_range&) {
      throw std::invalid_argument("trace file: value out of range in '" + line + "'");
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
