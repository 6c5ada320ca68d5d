// Declarative description of a measurement campaign.
//
// The paper's validation is a grid: dozens of paths, each measured for
// an hour plus a 100-connection series, and our robustness studies add
// fault scenarios on top. A CampaignSpec captures that grid as plain
// data — the cartesian product of path profiles x seeds x fault
// scenarios x model variants — and expands it into a flat, deterministic
// work-item list. The expansion order is the contract: item index i is
// the same (profile, seed, scenario, model) tuple on every machine, at
// every thread count, on every resume, which is what makes the journal
// a simple ordered prefix and results reproducible.
//
// Specs are constructed programmatically (benches, tests) or parsed from
// a small line-based file format (the `pftk campaign` CLI):
//
//   # short | hour
//   kind = short
//   duration = 100
//   profiles = manic->ganef, void->ganef     # or: all
//   seeds = 424242, 424243                   # or: 1998..2007
//   models = full, approx, td
//   scenario = clean | |
//   scenario = blackout | blackout@25+2#60 |
//   scenario = ackloss | | loss@10+50:0.3
//   deadline = 30            # per-attempt wall seconds, 0 = off
//   max_events = 50000000    # watchdog event budget, 0 = off
//   retries = 3              # attempts per trace, incl. the first
//   backoff_ms = 25
//   backoff_cap_ms = 2000
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/model_registry.hpp"
#include "exp/campaign/retry_policy.hpp"
#include "exp/path_profile.hpp"
#include "sim/fault_injector.hpp"
#include "sim/sim_watchdog.hpp"

namespace pftk::exp::campaign {

/// One named impairment scenario (both link directions).
struct FaultScenario {
  std::string name = "clean";
  sim::FaultSchedule forward;
  sim::FaultSchedule reverse;
};

/// Which experiment each work item runs.
enum class CampaignKind {
  kShortTrace,  ///< one 100-s-style connection per item (Figs. 8/10)
  kHourTrace,   ///< one 1-h-style trace per item (Table II, Figs. 7/9)
};

/// One cell of the expanded grid.
struct CampaignItem {
  std::size_t index = 0;  ///< position in spec expansion order
  PathProfile profile;
  std::uint64_t seed = 0;
  FaultScenario scenario;
  model::ModelKind model = model::ModelKind::kFull;

  /// Stable identity string, e.g. "manic->ganef/s1998/clean/full"; used
  /// to cross-check journal entries against the spec on resume.
  [[nodiscard]] std::string key() const;
};

/// The declarative campaign description.
struct CampaignSpec {
  CampaignKind kind = CampaignKind::kShortTrace;
  double duration = 100.0;         ///< simulated seconds per trace
  double interval_length = 100.0;  ///< hour kind: Fig.-7 interval split

  std::vector<PathProfile> profiles;
  std::vector<std::uint64_t> seeds;
  std::vector<FaultScenario> scenarios;      ///< empty -> implicit clean
  std::vector<model::ModelKind> models;      ///< empty -> {kFull}

  /// Per-attempt wall-clock deadline in real seconds (0 = none); trips
  /// are classified transient and retried.
  double deadline_s = 0.0;
  /// Simulated-side supervision (event budget, stall detector). The
  /// runner layers `deadline_s` on top as max_wall_time.
  sim::WatchdogConfig watchdog;
  RetryPolicy retry;

  /// @throws std::invalid_argument on an empty grid or invalid knobs.
  void validate() const;

  /// Number of grid cells (profiles x seeds x scenarios x models).
  [[nodiscard]] std::size_t item_count() const noexcept;

  /// Expands the grid in deterministic order: profile-major, then seed,
  /// then scenario, then model. @throws like validate().
  [[nodiscard]] std::vector<CampaignItem> expand() const;

  /// Parses the line-based spec format (see header comment). Profile
  /// labels are resolved against the Table-II catalogue.
  /// @throws std::invalid_argument naming the offending line.
  [[nodiscard]] static CampaignSpec parse(std::istream& in);

  /// File wrapper. @throws std::invalid_argument if unreadable.
  [[nodiscard]] static CampaignSpec parse_file(const std::string& path);
};

/// Short token for a model kind ("full" / "approx" / "td"), used in item
/// keys and spec files.
[[nodiscard]] std::string_view model_token(model::ModelKind kind) noexcept;

/// Inverse of model_token. @throws std::invalid_argument on bad token.
[[nodiscard]] model::ModelKind model_from_token(std::string_view token);

}  // namespace pftk::exp::campaign
