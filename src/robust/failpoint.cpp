#include "robust/failpoint.hpp"

#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "robust/decimal.hpp"

namespace pftk::robust {

namespace detail {
std::atomic<int> g_armed{0};
}  // namespace detail

namespace {

struct ArmedEntry {
  FailpointSpec spec;
  std::uint64_t hits = 0;  ///< evaluations seen by this entry
  bool fired = false;
};

/// Canonical failpoint sites baked into the binary. Sites with
/// configurable names (DurableAppender's append/flush) register their
/// custom names at construction on top of these.
constexpr std::array<std::pair<std::string_view, std::string_view>, 13> kBuiltinSites{{
    {"checkpoint.rename", "campaign checkpoint atomic-rename commit"},
    {"export.jsonl.write", "metrics JSONL export write"},
    {"export.prom.write", "Prometheus textfile export write"},
    {"flight.write", "atomic write of the flight-recorder span export"},
    {"journal.append", "campaign journal record append"},
    {"journal.flush", "campaign journal fsync"},
    {"mc.trace.write", "model-checker counterexample trace write"},
    {"serve.accept", "serve daemon connection accept"},
    {"serve.enqueue", "serve daemon request admission (forced shed)"},
    {"serve.read", "serve daemon client-socket read"},
    {"serve.write", "serve daemon response write"},
    {"trace.read.line", "trace file line read"},
    {"trace.write", "trace file write"},
}};

struct RegistryState {
  std::mutex mu;
  std::vector<ArmedEntry> entries;
  std::map<std::string, std::uint64_t, std::less<>> evaluations;
  std::map<std::string, std::uint64_t, std::less<>> fired;
  std::map<std::string, std::string, std::less<>> sites;

  RegistryState() {
    for (const auto& [name, description] : kBuiltinSites) {
      sites.emplace(std::string(name), std::string(description));
    }
  }
};

RegistryState& state() {
  static RegistryState* s = new RegistryState();  // leaked: usable at exit
  return *s;
}

constexpr std::array<std::pair<FailpointAction, std::string_view>, 6>
    kActionNames{{
        {FailpointAction::kOff, "off"},
        {FailpointAction::kError, "error"},
        {FailpointAction::kShortWrite, "short_write"},
        {FailpointAction::kEnospc, "enospc"},
        {FailpointAction::kDelay, "delay"},
        {FailpointAction::kCrash, "crash"},
    }};

/// The clauses of a `;`-separated spec list, empty clauses skipped.
std::vector<FailpointSpec> parse_specs(std::string_view text) {
  std::vector<FailpointSpec> specs;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t semi = text.find(';', pos);
    const std::string_view clause =
        text.substr(pos, semi == std::string_view::npos ? semi : semi - pos);
    if (!clause.empty()) {
      specs.push_back(FailpointSpec::parse_one(clause));
    }
    if (semi == std::string_view::npos) {
      break;
    }
    pos = semi + 1;
  }
  return specs;
}

std::uint64_t parse_u64(std::string_view key, std::string_view value) {
  if (const auto out = parse_decimal(value)) {
    return *out;
  }
  throw std::invalid_argument(
      "failpoint spec: '" + std::string(key) + "' = '" + std::string(value) +
      "' is not an integer in [0, " +
      std::to_string(std::numeric_limits<std::uint64_t>::max()) + "]");
}

}  // namespace

std::string_view failpoint_action_name(FailpointAction a) noexcept {
  for (const auto& [action, name] : kActionNames) {
    if (action == a) {
      return name;
    }
  }
  return "off";
}

FailpointAction failpoint_action_from_name(std::string_view name) {
  for (const auto& [action, token] : kActionNames) {
    if (token == name) {
      return action;
    }
  }
  throw std::invalid_argument("failpoint spec: unknown action '" +
                              std::string(name) + "'");
}

std::string FailpointSpec::describe() const {
  std::ostringstream os;
  os << name << ":after=" << after
     << ":action=" << failpoint_action_name(action);
  if (arg != 0) {
    os << ":arg=" << arg;
  }
  return os.str();
}

FailpointSpec FailpointSpec::parse_one(std::string_view text) {
  FailpointSpec spec;
  std::size_t pos = 0;
  bool first = true;
  while (pos <= text.size()) {
    const std::size_t colon = text.find(':', pos);
    const std::string_view field =
        text.substr(pos, colon == std::string_view::npos ? colon : colon - pos);
    if (first) {
      if (field.empty()) {
        throw std::invalid_argument("failpoint spec: empty name in '" +
                                    std::string(text) + "'");
      }
      spec.name = std::string(field);
      first = false;
    } else {
      const std::size_t eq = field.find('=');
      if (eq == std::string_view::npos) {
        throw std::invalid_argument("failpoint spec: expected key=value, got '" +
                                    std::string(field) + "'");
      }
      const std::string_view key = field.substr(0, eq);
      const std::string_view value = field.substr(eq + 1);
      if (key == "after") {
        spec.after = parse_u64(key, value);
      } else if (key == "action") {
        spec.action = failpoint_action_from_name(value);
        if (spec.action == FailpointAction::kOff) {
          throw std::invalid_argument("failpoint spec: 'off' is not armable");
        }
      } else if (key == "arg") {
        spec.arg = parse_u64(key, value);
      } else {
        throw std::invalid_argument("failpoint spec: unknown key '" +
                                    std::string(key) + "'");
      }
    }
    if (colon == std::string_view::npos) {
      break;
    }
    pos = colon + 1;
  }
  return spec;
}

FailpointRegistry& FailpointRegistry::instance() {
  static FailpointRegistry registry;
  return registry;
}

void FailpointRegistry::arm(const FailpointSpec& spec) {
  if (spec.name.empty()) {
    throw std::invalid_argument("failpoint spec: empty name");
  }
  if (spec.action == FailpointAction::kOff) {
    throw std::invalid_argument("failpoint spec: 'off' is not armable");
  }
  RegistryState& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  s.entries.push_back(ArmedEntry{spec});
  detail::g_armed.fetch_add(1, std::memory_order_relaxed);
}

void FailpointRegistry::arm_specs(std::string_view text) {
  for (const FailpointSpec& spec : parse_specs(text)) {
    arm(spec);
  }
}

void FailpointRegistry::check_specs(std::string_view text) const {
  const std::vector<FailpointSpec> specs = parse_specs(text);
  RegistryState& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  for (const FailpointSpec& spec : specs) {
    if (!s.sites.contains(spec.name)) {
      throw std::invalid_argument("failpoint spec: unknown site '" + spec.name + "'");
    }
  }
}

void FailpointRegistry::disarm_all() {
  RegistryState& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  s.entries.clear();
  s.evaluations.clear();
  s.fired.clear();
  detail::g_armed.store(0, std::memory_order_relaxed);
}

std::size_t FailpointRegistry::armed_count() const {
  RegistryState& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  std::size_t count = 0;
  for (const ArmedEntry& entry : s.entries) {
    count += entry.fired ? 0 : 1;
  }
  return count;
}

std::uint64_t FailpointRegistry::fired_count(std::string_view name) const {
  RegistryState& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.fired.find(name);
  return it == s.fired.end() ? 0 : it->second;
}

std::uint64_t FailpointRegistry::evaluation_count(std::string_view name) const {
  RegistryState& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.evaluations.find(name);
  return it == s.evaluations.end() ? 0 : it->second;
}

FailpointHit FailpointRegistry::evaluate(std::string_view name) {
  FailpointHit hit;
  {
    RegistryState& s = state();
    const std::lock_guard<std::mutex> lock(s.mu);
    auto eval_it = s.evaluations.find(name);
    if (eval_it == s.evaluations.end()) {
      eval_it = s.evaluations.emplace(std::string(name), 0).first;
    }
    ++eval_it->second;
    // Every un-fired spec for this site sees the evaluation, so each
    // spec's `after` counts site evaluations, not prior firings.
    ArmedEntry* chosen = nullptr;
    for (ArmedEntry& entry : s.entries) {
      if (entry.fired || entry.spec.name != name) {
        continue;
      }
      ++entry.hits;
      if (chosen == nullptr && entry.hits > entry.spec.after) {
        chosen = &entry;
      }
    }
    if (chosen != nullptr) {
      chosen->fired = true;
      detail::g_armed.fetch_sub(1, std::memory_order_relaxed);
      auto fired_it = s.fired.find(name);
      if (fired_it == s.fired.end()) {
        fired_it = s.fired.emplace(std::string(name), 0).first;
      }
      ++fired_it->second;
      hit.action = chosen->spec.action;
      hit.arg = chosen->spec.arg;
    }
  }
  if (hit.action == FailpointAction::kDelay) {
    // A delay perturbs wall time only — it must not change any output
    // byte. Consumed here so sites need no special handling.
    std::this_thread::sleep_for(std::chrono::milliseconds(hit.arg));
    return {};
  }
  return hit;
}

void FailpointRegistry::register_site(std::string_view name,
                                      std::string_view description) {
  if (name.empty()) {
    throw std::invalid_argument("failpoint site: empty name");
  }
  RegistryState& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  s.sites.emplace(std::string(name), std::string(description));
}

std::vector<std::pair<std::string, std::string>> FailpointRegistry::known_sites()
    const {
  RegistryState& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(s.sites.size());
  for (const auto& [name, description] : s.sites) {
    out.emplace_back(name, description);  // std::map: already sorted
  }
  return out;
}

void crash_now() {
  // _Exit: no stream flush, no atexit — pending user-space buffers die
  // with the process, exactly like a SIGKILL after the last syscall.
  std::_Exit(kCrashExitCode);
}

}  // namespace pftk::robust
