#include "exp/campaign/campaign_spec.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "robust/decimal.hpp"

namespace pftk::exp::campaign {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) {
    return "";
  }
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::string current;
  std::istringstream in(s);
  while (std::getline(in, current, sep)) {
    parts.push_back(trim(current));
  }
  if (!s.empty() && s.back() == sep) {
    parts.emplace_back();
  }
  return parts;
}

/// A seed range may name at most this many seeds (fig8's spec has 100).
constexpr std::uint64_t kMaxSeedRange = 1000000;

double parse_double(const std::string& value, const std::string& where) {
  try {
    std::size_t used = 0;
    const double parsed = std::stod(value, &used);
    if (used != value.size()) {
      throw std::invalid_argument(value);
    }
    return parsed;
  } catch (const std::exception&) {
    throw std::invalid_argument("campaign spec " + where + ": bad number '" + value +
                                "'");
  }
}

std::uint64_t parse_u64(const std::string& value, const std::string& where,
                        std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  if (const auto parsed = robust::parse_decimal(value, max)) {
    return *parsed;
  }
  throw std::invalid_argument("campaign spec " + where + ": '" + value +
                              "' is not an integer in [0, " + std::to_string(max) +
                              "]");
}

std::chrono::milliseconds parse_ms(const std::string& value, const std::string& where) {
  using Rep = std::chrono::milliseconds::rep;
  return std::chrono::milliseconds{
      static_cast<Rep>(parse_u64(value, where, std::numeric_limits<Rep>::max()))};
}

PathProfile resolve_profile(const std::string& label) {
  const auto arrow = label.find("->");
  if (arrow == std::string::npos) {
    throw std::invalid_argument("campaign spec: profile '" + label +
                                "' is not of the form sender->receiver");
  }
  return profile_by_label(trim(label.substr(0, arrow)), trim(label.substr(arrow + 2)));
}

}  // namespace

std::string CampaignItem::key() const {
  std::string key = profile.sender + "->" + profile.receiver;
  key += "/s" + std::to_string(seed);
  key += "/" + scenario.name;
  key += "/";
  key += model_token(model);
  return key;
}

void CampaignSpec::validate() const {
  if (!(duration > 0.0) || !std::isfinite(duration)) {
    throw std::invalid_argument("CampaignSpec: duration must be positive and finite");
  }
  if (!std::isfinite(interval_length) ||
      (kind == CampaignKind::kHourTrace && !(interval_length > 0.0))) {
    throw std::invalid_argument(
        "CampaignSpec: interval_length must be positive and finite");
  }
  if (profiles.empty()) {
    throw std::invalid_argument("CampaignSpec: no profiles");
  }
  if (seeds.empty()) {
    throw std::invalid_argument("CampaignSpec: no seeds");
  }
  if (!(deadline_s >= 0.0) || !std::isfinite(deadline_s)) {
    throw std::invalid_argument("CampaignSpec: deadline must be finite and >= 0");
  }
  for (const FaultScenario& scenario : scenarios) {
    if (scenario.name.empty()) {
      throw std::invalid_argument("CampaignSpec: scenario with empty name");
    }
    scenario.forward.validate();
    scenario.reverse.validate();
  }
  retry.validate();
}

std::size_t CampaignSpec::item_count() const noexcept {
  const std::size_t n_scenarios = scenarios.empty() ? 1 : scenarios.size();
  const std::size_t n_models = models.empty() ? 1 : models.size();
  return profiles.size() * seeds.size() * n_scenarios * n_models;
}

std::vector<CampaignItem> CampaignSpec::expand() const {
  validate();
  const std::vector<FaultScenario> scenario_list =
      scenarios.empty() ? std::vector<FaultScenario>{FaultScenario{}} : scenarios;
  const std::vector<model::ModelKind> model_list =
      models.empty() ? std::vector<model::ModelKind>{model::ModelKind::kFull} : models;

  std::vector<CampaignItem> items;
  items.reserve(profiles.size() * seeds.size() * scenario_list.size() *
                model_list.size());
  for (const PathProfile& profile : profiles) {
    for (const std::uint64_t seed : seeds) {
      for (const FaultScenario& scenario : scenario_list) {
        for (const model::ModelKind model : model_list) {
          CampaignItem item;
          item.index = items.size();
          item.profile = profile;
          item.seed = seed;
          item.scenario = scenario;
          item.model = model;
          items.push_back(std::move(item));
        }
      }
    }
  }
  return items;
}

CampaignSpec CampaignSpec::parse(std::istream& in) {
  CampaignSpec spec;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    line = trim(line);
    if (line.empty()) {
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("campaign spec line " + std::to_string(line_no) +
                                  ": expected key = value, got '" + line + "'");
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    const std::string where = "line " + std::to_string(line_no) + " (" + key + ")";

    if (key == "kind") {
      if (value == "short") {
        spec.kind = CampaignKind::kShortTrace;
      } else if (value == "hour") {
        spec.kind = CampaignKind::kHourTrace;
      } else {
        throw std::invalid_argument("campaign spec: kind must be short|hour, got '" +
                                    value + "'");
      }
    } else if (key == "duration") {
      spec.duration = parse_double(value, where);
    } else if (key == "interval") {
      spec.interval_length = parse_double(value, where);
    } else if (key == "profiles") {
      if (value == "all") {
        spec.profiles = table2_profiles();
      } else {
        for (const std::string& label : split(value, ',')) {
          spec.profiles.push_back(resolve_profile(label));
        }
      }
    } else if (key == "seeds") {
      const auto dots = value.find("..");
      if (dots != std::string::npos) {
        const std::uint64_t lo = parse_u64(trim(value.substr(0, dots)), where);
        const std::uint64_t hi = parse_u64(trim(value.substr(dots + 2)), where);
        if (hi < lo) {
          throw std::invalid_argument("campaign spec " + where + ": seed range " +
                                      value + " is descending");
        }
        if (hi - lo >= kMaxSeedRange) {
          throw std::invalid_argument("campaign spec " + where + ": seed range " +
                                      value + " has more than " +
                                      std::to_string(kMaxSeedRange) + " seeds");
        }
        for (std::uint64_t s = lo;; ++s) {  // stops at hi, even at UINT64_MAX
          spec.seeds.push_back(s);
          if (s == hi) {
            break;
          }
        }
      } else {
        for (const std::string& token : split(value, ',')) {
          spec.seeds.push_back(parse_u64(token, where));
        }
      }
    } else if (key == "models") {
      for (const std::string& token : split(value, ',')) {
        spec.models.push_back(model_from_token(token));
      }
    } else if (key == "scenario") {
      // name | forward-schedule | reverse-schedule (either may be empty)
      const std::vector<std::string> parts = split(value, '|');
      if (parts.empty() || parts[0].empty()) {
        throw std::invalid_argument("campaign spec line " + std::to_string(line_no) +
                                    ": scenario needs a name");
      }
      FaultScenario scenario;
      scenario.name = parts[0];
      if (parts.size() > 1 && !parts[1].empty()) {
        scenario.forward = sim::FaultSchedule::parse(parts[1]);
      }
      if (parts.size() > 2 && !parts[2].empty()) {
        scenario.reverse = sim::FaultSchedule::parse(parts[2]);
      }
      spec.scenarios.push_back(std::move(scenario));
    } else if (key == "deadline") {
      spec.deadline_s = parse_double(value, where);
    } else if (key == "max_events") {
      spec.watchdog.max_events = parse_u64(value, where);
    } else if (key == "stall_rtos") {
      spec.watchdog.stall_rtos = parse_double(value, where);
    } else if (key == "retries") {
      spec.retry.max_attempts = static_cast<int>(
          parse_u64(value, where, std::numeric_limits<int>::max()));
    } else if (key == "backoff_ms") {
      spec.retry.backoff_base = parse_ms(value, where);
    } else if (key == "backoff_cap_ms") {
      spec.retry.backoff_cap = parse_ms(value, where);
    } else {
      throw std::invalid_argument("campaign spec line " + std::to_string(line_no) +
                                  ": unknown key '" + key + "'");
    }
  }
  spec.validate();
  return spec;
}

CampaignSpec CampaignSpec::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("cannot open campaign spec: " + path);
  }
  return parse(in);
}

std::string_view model_token(model::ModelKind kind) noexcept {
  switch (kind) {
    case model::ModelKind::kFull:
      return "full";
    case model::ModelKind::kApproximate:
      return "approx";
    case model::ModelKind::kTdOnly:
      break;
  }
  return "td";
}

model::ModelKind model_from_token(std::string_view token) {
  for (const model::ModelKind kind : model::all_model_kinds) {
    if (model_token(kind) == token) {
      return kind;
    }
  }
  throw std::invalid_argument("unknown model token: " + std::string(token));
}

}  // namespace pftk::exp::campaign
