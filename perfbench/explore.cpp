// explore — mc::Explorer::run on 2 threads over a config far above the
// documented 246-state one: 20 packets, window 16, 14 loss choices with
// ACK loss, tie branching (width 2, 4 choices) — 37,142 states, small
// enough that a run repeats it in batches for steady medians. Hundreds of
// thousands of freshly built tiny connections plus state digests: the
// opposite shape of sim use to capture and grid.
#include <optional>

#include "harness.hpp"
#include "mc/explorer.hpp"
#include "sim/connection.hpp"

namespace perfbench {

namespace {

using namespace pftk;

mc::ExploreConfig explore_config(std::uint64_t seed) {
  mc::ExploreConfig config;
  config.packets = 20;
  config.window = 16.0;
  config.loss_choices = 14;
  config.ack_loss = true;
  config.tie_width = 2;
  config.tie_choices = 4;
  config.threads = 2;
  config.seed = seed;  // the tree itself does not depend on it without faults
  return config;
}

struct ExploreOutcome {
  double seconds = 0.0;
  mc::ExploreResult result;
};

class Explore {
 public:
  explicit Explore(std::uint64_t seed) : explorer_(explore_config(seed)) {}

  [[nodiscard]] const mc::ExploreConfig& config() const noexcept {
    return explorer_.config();
  }

  ExploreOutcome run(Report& report) {
    ExploreOutcome out;
    {
      PFTK_SPAN("bench.mc.explore");
      out.seconds = time_call([&] { out.result = explorer_.run(); });
    }
    PFTK_SPAN("bench.check");
    const mc::ExploreResult& r = out.result;
    report.check(r.complete && !r.interrupted, "enumeration complete");
    report.check(r.stats.violations == 0 && r.violations.empty(), "0 violations");
    if (!states_) {
      states_ = r.stats.states;
    }
    report.check(r.stats.states == *states_, "state count repeats");
    return out;
  }

 private:
  mc::Explorer explorer_;
  std::optional<std::uint64_t> states_;
};

/// Median microseconds to build one sim::Connection the way a branch
/// does (oracle loss on both paths), timed from outside.
double connection_setup_us(const mc::ExploreConfig& cfg) {
  sim::ConnectionConfig conn;
  conn.sender.initial_cwnd = 1.0;
  conn.sender.advertised_window = cfg.window;
  conn.sender.initial_rto = cfg.min_rto;
  conn.sender.min_rto = cfg.min_rto;
  conn.sender.timer_tick = 0.0;
  conn.sender.total_packets = cfg.packets;
  conn.receiver.ack_every = cfg.ack_every;
  conn.forward_link.propagation_delay = cfg.one_way_delay;
  conn.reverse_link.propagation_delay = cfg.one_way_delay;
  conn.seed = cfg.seed;
  conn.forward_loss = sim::OracleLossSpec{[](sim::Time) { return false; }};
  conn.reverse_loss = sim::OracleLossSpec{[](sim::Time) { return false; }};
  constexpr int kBuilds = 2000;
  std::vector<double> per_build;
  for (int rep = 0; rep < 5; ++rep) {
    per_build.push_back(time_call([&] {
                          for (int i = 0; i < kBuilds; ++i) {
                            const sim::Connection built(conn);
                          }
                        }) *
                        1e6 / kBuilds);
  }
  return median(per_build);
}

}  // namespace

void run_explore(Report& report) {
  const Options& opt = report.options();
  // Set-up: a validated explorer and one unmeasured warm-up exploration.
  std::optional<ExploreOutcome> warm;
  auto explore = timed_setup<Explore>(report, 5, [&] {
    auto state = std::make_unique<Explore>(opt.seed);
    warm = state->run(report);
    return state;
  });
  const mc::ExploreStats stats = warm->result.stats;

  if (!opt.trace) {
    constexpr int kBatch = 8;
    UnitStats units;
    repeat_for(opt.seconds, [&] {
      std::vector<double> run_ms;
      double seconds = 0.0;
      for (int i = 0; i < kBatch; ++i) {
        const ExploreOutcome out = explore->run(report);
        report.attempted();
        run_ms.push_back(out.seconds * 1e3);
        seconds += out.seconds;
      }
      units.add(stats.states * kBatch, seconds, std::move(run_ms));
    });
    units.report(report, "states_per_s", "states/s",
                 "batches of " + std::to_string(kBatch) + " explorations of " +
                     std::to_string(stats.states) + " states");
    return;
  }

  // Two spans per branch (mc.branch, sim.run_slice) on whichever worker
  // runs it: even if one worker ran every branch they fit its ring. Each
  // run's workers are new threads and the recorder keeps every thread's
  // ring, so a traced run holds 2 x 4 MB per traced exploration.
  Tracer tracer(1 << 17);
  const std::vector<double> ratios = run_pairs(
      tracer, opt.seconds, 1, [&](std::size_t, bool) {
        report.attempted();
        (void)explore->run(report);
      });
  report.set("sim.run_s", tracer.mean_s("sim.run_slice"),
             "mean per branch over " + std::to_string(tracer["sim.run_slice"].count));
  report.set("sim.setup_us", connection_setup_us(explore->config()),
             "one explore-config sim::Connection, median of 5 x 2000 builds");
  report.set("mc.states", static_cast<double>(stats.states), "per exploration");
  report.set("mc.branches", static_cast<double>(stats.branches), "per exploration");
  report.set("mc.pruned", static_cast<double>(stats.pruned), "per exploration");
  report.set("mc.pruned_frac",
             static_cast<double>(stats.pruned) / static_cast<double>(stats.branches),
             std::to_string(stats.pruned) + " pruned / " +
                 std::to_string(stats.branches) + " branches");
  report.set("mc.us_per_branch", tracer.mean_s("mc.branch") * 1e6,
             "mean over " + std::to_string(tracer["mc.branch"].count) + " branches");
  report_tracing(report, tracer, ratios);
}

}  // namespace perfbench
