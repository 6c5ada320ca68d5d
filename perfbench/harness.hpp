// Shared machinery of the end-to-end benchmark: run options, the result
// report (checks, op counts, metrics, the JSON result line), outside-in
// timing, set-up medians, and the traced half of a run, which records
// the benchmark's own PFTK_SPAN scopes (plus the library's) through the
// existing flight recorder and aggregates them with profile_spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/flight/flight_recorder.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start);

/// Wall seconds of one call, timed from outside.
template <class F>
double time_call(F&& fn) {
  const auto start = Clock::now();
  fn();
  return seconds_since(start);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measuring time of the run
  bool trace = false;     ///< traced run: report per-layer metrics
};

struct MetricDef {
  std::string_view name;
  std::string_view unit;
};

/// What an untraced run reports (BENCHMARK.json `end_to_end`).
extern const std::vector<MetricDef> kEndToEnd;
/// What a traced run reports (BENCHMARK.json `per_layer`). A layer a
/// workload does not exercise reads 0.
extern const std::vector<MetricDef> kPerLayer;

/// One run's outcome: op counts, checks, metrics, and the printed report.
class Report {
 public:
  explicit Report(Options options) : options_(std::move(options)) {}

  [[nodiscard]] const Options& options() const noexcept { return options_; }

  void attempted(std::uint64_t n = 1) noexcept { attempted_ += n; }
  void failed(std::uint64_t n = 1) noexcept { failed_ += n; }

  /// A correctness check. A failed check counts as a failed op, is named
  /// in the report, and makes the run exit nonzero. Returns `ok`.
  bool check(bool ok, const std::string& what);

  /// Sets a metric from kEndToEnd or kPerLayer (throws on other names)
  /// and prints it with `detail` (sample counts, ratio bases).
  void set(std::string_view name, double value, const std::string& detail = "");

  /// Prints a report line that is not a metric of the contract (the
  /// workload's own metric names, such as traces_per_s).
  void show(std::string_view name, double value, std::string_view unit,
            const std::string& detail = "");

  /// Spans were lost: the per-layer numbers would be a false verdict, so
  /// the run prints them as indeterminate and prints no result line.
  void set_indeterminate(std::uint64_t dropped) noexcept { dropped_ = dropped; }

  /// Prints the report and, unless indeterminate, the JSON result line as
  /// the last line of stdout. Returns the process exit code: 0 when every
  /// check passed, 1 when one failed, 3 when indeterminate.
  [[nodiscard]] int finish();

 private:
  Options options_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t checks_ = 0;
  std::uint64_t dropped_ = 0;
  std::map<std::string, double, std::less<>> values_;
  std::vector<std::string> lines_;
};

[[nodiscard]] double median(std::span<const double> sample);
/// Type-7 quantile (stats::quantile); 0 for an empty sample.
[[nodiscard]] double quantile(std::span<const double> sample, double q);

/// Runs `make` `reps` times and keeps the last product; the median build
/// time is the run's set-up time (setup_s).
template <class T>
std::unique_ptr<T> timed_setup(Report& report, int reps,
                               const std::function<std::unique_ptr<T>()>& make) {
  std::unique_ptr<T> state;
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    state.reset();
    times.push_back(time_call([&] { state = make(); }));
  }
  report.set("setup_s", median(times),
             "median of " + std::to_string(reps) + " set-ups");
  return state;
}

/// Calls `unit` until `seconds` have passed, at least once.
void repeat_for(double seconds, const std::function<void()>& unit);

/// The untraced half of a run. A workload repeats one unit (a pass over
/// the profiles, a campaign, a load pass, a batch of explorations) until
/// its time is up; the end-to-end metrics are medians over units, so a
/// slow unit on a shared host moves them little.
class UnitStats {
 public:
  /// One unit: `ops` operations in `seconds`, whose latencies had these
  /// quantiles.
  void add(std::uint64_t ops, double seconds, double p50_ms, double p99_ms);
  /// Same, from every operation's latency.
  void add(std::uint64_t ops, double seconds, std::vector<double> op_ms);

  /// Sets throughput_per_s (shown again as `rate_name`, e.g.
  /// traces_per_s), latency_p50_ms and latency_p99_ms, and shows the
  /// run's peak_rss_mb.
  /// `unit` describes one unit, e.g. "passes of 24 traces".
  void report(Report& report, std::string_view rate_name, std::string_view rate_unit,
              std::string_view unit) const;

 private:
  std::vector<double> rates_;
  std::vector<double> p50s_;
  std::vector<double> p99s_;
  std::uint64_t ops_ = 0;
};

/// Aggregates flight-recorder spans over the traced units of a run. Each
/// unit arms the recorder, runs, disarms, drains and clears, so a ring
/// only has to hold one unit's spans and timestamps share one epoch.
class Tracer {
 public:
  struct NameTotals {
    std::uint64_t count = 0;
    double inclusive_s = 0.0;
  };

  /// `ring_capacity` slots per recording thread; size it so one unit
  /// never wraps a ring.
  explicit Tracer(std::size_t ring_capacity) : ring_capacity_(ring_capacity) {}

  /// Runs `fn` armed and returns its wall seconds (arm/drain excluded).
  double run(const std::function<void()>& fn);

  /// Called with every unit's drained spans before they are cleared.
  std::function<void(const pftk::obs::flight::DrainedSpans&)> inspect;

  [[nodiscard]] const NameTotals& operator[](std::string_view name) const;
  /// Mean inclusive seconds per span of `name` (0 when none).
  [[nodiscard]] double mean_s(std::string_view name) const;
  [[nodiscard]] double wall_s() const noexcept { return wall_s_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  /// Share of traced wall time inside the benchmark's own `bench.*`
  /// spans (they never nest and run on the benchmark thread only).
  [[nodiscard]] double attributed_frac() const;

 private:
  std::size_t ring_capacity_;
  std::map<std::string, NameTotals, std::less<>> totals_;
  double wall_s_ = 0.0;
  std::uint64_t dropped_ = 0;
};

/// Runs `unit(k, traced)` as untraced/traced pairs whose order alternates
/// (so warm-cache effects cancel), until `seconds` have passed and at
/// least `min_pairs` pairs ran. Returns each pair's traced/untraced wall
/// ratio.
std::vector<double> run_pairs(Tracer& tracer, double seconds, std::size_t min_pairs,
                              const std::function<void(std::size_t, bool)>& unit);

/// Fills the validity metrics of a traced run (attributed_frac,
/// trace_overhead_ratio, spans_dropped) and flags lost spans.
void report_tracing(Report& report, const Tracer& tracer,
                    std::span<const double> overhead_ratios);

/// 64-bit FNV-1a.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t hash = 14695981039346656037ULL);
[[nodiscard]] std::string read_file(const std::string& path);
/// Peak resident set of this process so far, MB.
[[nodiscard]] double peak_rss_mb();

// Workloads (one file each).
void run_capture(Report& report);
void run_grid(Report& report);
void run_serve(Report& report);
void run_explore(Report& report);

}  // namespace perfbench
