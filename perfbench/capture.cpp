// capture — the paper's measurement loop, one hour-trace at a time:
// simulate the 24 Table-2 profiles for 3600 s with a TraceRecorder, save
// the trace, reload it, validate, summarize, cut it into 100-s intervals
// and score eq 32/33/20 against them (Section III, Figs 7 and 9).
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <numeric>
#include <optional>

#include "exp/model_comparison.hpp"
#include "exp/path_profile.hpp"
#include "harness.hpp"
#include "sim/connection.hpp"
#include "trace/interval_analyzer.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_recorder.hpp"
#include "trace/trace_summary.hpp"
#include "trace/trace_validator.hpp"

namespace perfbench {

namespace {

using namespace pftk;

constexpr double kDuration = 3600.0;
constexpr double kInterval = 100.0;

/// Reals are written with 9 decimals; a reload must land within half a
/// unit of that last digit, plus the double's own rounding at `a`.
bool same_real(double a, double b) {
  return std::fabs(a - b) <= 5e-10 + 1e-15 * std::max(1.0, std::fabs(a));
}

bool same_events(std::span<const trace::TraceEvent> a,
                 std::span<const trace::TraceEvent> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const trace::TraceEvent& x, const trace::TraceEvent& y) {
                      return x.type == y.type && x.seq == y.seq &&
                             x.retransmission == y.retransmission &&
                             x.duplicate == y.duplicate &&
                             x.consecutive == y.consecutive &&
                             x.in_flight == y.in_flight && same_real(x.t, y.t) &&
                             same_real(x.value, y.value) && same_real(x.cwnd, y.cwnd);
                    });
}

bool close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(a));
}

/// Counts equal exactly; averages agree to the precision the format keeps.
bool same_summary(const trace::TraceSummary& a, const trace::TraceSummary& b) {
  return a.packets_sent == b.packets_sent && a.loss_indications == b.loss_indications &&
         a.td_events == b.td_events && a.timeouts_by_depth == b.timeouts_by_depth &&
         close(a.avg_rtt, b.avg_rtt) && close(a.avg_timeout, b.avg_timeout) &&
         close(a.observed_p, b.observed_p) &&
         close(a.rtt_window_correlation, b.rtt_window_correlation);
}

/// Trace-level model inputs, derived as run_hour_trace derives them.
model::ModelParams trace_params(const exp::PathProfile& profile,
                                const trace::TraceSummary& summary) {
  model::ModelParams params;
  params.p = summary.observed_p;
  params.rtt = summary.avg_rtt > 0.0 ? summary.avg_rtt : profile.nominal_rtt();
  params.t0 = summary.avg_timeout > 0.0 ? summary.avg_timeout : profile.min_rto;
  params.b = 2;
  params.wm = profile.advertised_window;
  return params;
}

/// What one pass of the pipeline produced for one profile.
struct TraceOutcome {
  double seconds = 0.0;  ///< pipeline wall, simulate through score
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t digest = 0;  ///< FNV-1a of the saved file
  double error_full = 0.0;   ///< Fig-9 average relative error of eq 32
};

class Capture {
 public:
  explicit Capture(std::uint64_t seed) : profiles_(exp::table2_profiles()) {
    for (const exp::PathProfile& profile : profiles_) {
      configs_.push_back(exp::make_connection_config(profile, seed));
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return profiles_.size(); }

  /// Runs the pipeline for profile `index % size()` and checks it; every
  /// call into the library sits in its own bench.* span.
  TraceOutcome run(std::size_t index, Report& report) {
    const std::size_t i = index % profiles_.size();
    const exp::PathProfile& profile = profiles_[i];
    const int threshold = profile.dupack_threshold();
    const std::string path = "trace-" + std::to_string(i) + ".tsv";
    TraceOutcome out;

    const auto start = Clock::now();
    std::optional<trace::TraceRecorder> recorder(std::in_place);
    {
      PFTK_SPAN("bench.sim");
      sim::Connection connection(configs_[i]);
      recorder->reserve(static_cast<std::size_t>(kDuration * 100.0));
      connection.set_observer(&*recorder);
      out.packets = connection.run_for(kDuration).packets_sent;
    }
    {
      PFTK_SPAN("bench.trace.save");
      trace::save_trace_file(path, recorder->events());
    }
    std::vector<trace::TraceEvent> loaded;
    {
      PFTK_SPAN("bench.trace.load");
      loaded = trace::load_trace_file(path);
    }
    trace::TraceValidation validation;
    {
      PFTK_SPAN("bench.trace.validate");
      validation = trace::validate_trace(loaded);
    }
    trace::TraceSummary summary;
    {
      PFTK_SPAN("bench.trace.summarize");
      summary = trace::summarize_trace(loaded, threshold);
    }
    std::vector<trace::IntervalObservation> intervals;
    {
      PFTK_SPAN("bench.trace.intervals");
      intervals = trace::analyze_intervals(loaded, kDuration, kInterval, threshold);
    }
    {
      PFTK_SPAN("bench.exp.score");
      out.error_full = exp::score_hour_trace(profile.label(),
                                             trace_params(profile, summary),
                                             intervals, kInterval)
                           .avg_error[0];
    }
    out.seconds = seconds_since(start);

    PFTK_SPAN("bench.check");
    const std::string label = profile.label() + ": ";
    const std::string bytes = read_file(path);
    out.bytes = bytes.size();
    out.digest = fnv1a(bytes);
    report.check(same_events(recorder->events(), loaded),
                 label + "reloaded events equal recorded events");
    report.check(validation.ok(), label + "validate_trace is clean");
    report.check(same_summary(trace::summarize_trace(recorder->events(), threshold),
                              summary),
                 label + "reloaded summary equals in-memory summary");
    report.check(std::isfinite(out.error_full), label + "eq-32 error is finite");
    std::filesystem::remove(path);
    recorder.reset();  // free the trace inside the span
    std::vector<trace::TraceEvent>().swap(loaded);
    return out;
  }

 private:
  std::vector<exp::PathProfile> profiles_;
  std::vector<sim::ConnectionConfig> configs_;
};

/// First outcome per profile; every later pass must repeat it exactly.
class PassLedger {
 public:
  void record(std::size_t index, const TraceOutcome& out, Report& report) {
    const auto [it, fresh] = first_.try_emplace(index, out);
    if (!fresh) {
      report.check(it->second.digest == out.digest && it->second.bytes == out.bytes &&
                       it->second.packets == out.packets &&
                       it->second.error_full == out.error_full,
                   "trace " + std::to_string(index) + " repeats byte for byte");
    }
  }
  [[nodiscard]] std::uint64_t total(std::uint64_t TraceOutcome::*field) const {
    std::uint64_t sum = 0;
    for (const auto& [index, out] : first_) {
      sum += out.*field;
    }
    return sum;
  }
  [[nodiscard]] double mean_error_full() const {
    double sum = 0.0;
    for (const auto& [index, out] : first_) {
      sum += out.error_full;
    }
    return first_.empty() ? 0.0 : sum / static_cast<double>(first_.size());
  }

 private:
  std::map<std::size_t, TraceOutcome> first_;
};

}  // namespace

void run_capture(Report& report) {
  const Options& opt = report.options();
  // Set-up: the profile catalogue, seeded connection configs, and one
  // unmeasured warm-up trace that faults in the allocator and file paths.
  auto capture = timed_setup<Capture>(report, 7, [&] {
    auto state = std::make_unique<Capture>(opt.seed);
    (void)state->run(0, report);
    return state;
  });
  const std::size_t profiles = capture->size();
  PassLedger ledger;

  if (!opt.trace) {
    // Whole passes only, so every profile weighs the same. A trace's time
    // is its pipeline (simulate through score), not its checks. Each
    // profile's time is its median over the run's passes: a slow stretch
    // of a shared host that hits some traces of a pass moves nothing.
    std::vector<std::vector<double>> trace_ms(profiles);
    repeat_for(opt.seconds, [&] {
      for (std::size_t i = 0; i < profiles; ++i) {
        report.attempted();
        const TraceOutcome out = capture->run(i, report);
        ledger.record(i, out, report);
        trace_ms[i].push_back(out.seconds * 1e3);
      }
    });
    std::vector<double> typical_ms;
    for (const std::vector<double>& times : trace_ms) {
      typical_ms.push_back(median(times));
    }
    const double pass_s = std::accumulate(typical_ms.begin(), typical_ms.end(), 0.0) / 1e3;
    const std::string base = "per-profile medians over " +
                             std::to_string(trace_ms.front().size()) + " passes of " +
                             std::to_string(profiles) + " traces";
    report.set("throughput_per_s", static_cast<double>(profiles) / pass_s,
               "traces_per_s: a pass of " + base);
    report.show("traces_per_s", static_cast<double>(profiles) / pass_s, "traces/s");
    report.set("latency_p50_ms", median(typical_ms), "p50 of " + base);
    report.set("latency_p99_ms", quantile(typical_ms, 0.99), "p99 of " + base);
    report.show("peak_rss_mb", peak_rss_mb(), "MB", "getrusage peak of the run");
    report.show("model_error_full", ledger.mean_error_full(), "ratio",
                "mean Fig-9 error of eq 32 over " + std::to_string(profiles) +
                    " hour traces");
    return;
  }

  // ~15 spans per trace on the benchmark thread, one per parse thread.
  Tracer tracer(1 << 10);
  std::uint64_t traced_packets = 0;
  std::uint64_t traced_bytes = 0;
  const std::vector<double> ratios =
      run_pairs(tracer, opt.seconds, profiles, [&](std::size_t k, bool traced) {
        report.attempted();
        const TraceOutcome out = capture->run(k, report);
        ledger.record(k % profiles, out, report);
        if (traced) {
          traced_packets += out.packets;
          traced_bytes += out.bytes;
        }
      });
  const auto per_mb = [&](std::string_view span) {
    const double s = tracer[span].inclusive_s;
    return s > 0.0 ? static_cast<double>(traced_bytes) / 1e6 / s : 0.0;
  };
  const std::string per_trace =
      "mean per trace over " + std::to_string(tracer["bench.sim"].count);
  report.set("sim.run_s", tracer.mean_s("sim.run_slice"), per_trace);
  report.set("sim.ns_per_packet",
             traced_packets > 0
                 ? tracer["sim.run_slice"].inclusive_s * 1e9 /
                       static_cast<double>(traced_packets)
                 : 0.0,
             std::to_string(traced_packets) + " packets");
  report.set("sim.packets", static_cast<double>(ledger.total(&TraceOutcome::packets)),
             "per pass of " + std::to_string(profiles) + " profiles");
  report.set("trace.save_s", tracer.mean_s("bench.trace.save"), per_trace);
  report.set("trace.save_mb_per_s", per_mb("bench.trace.save"));
  report.set("trace.bytes", static_cast<double>(ledger.total(&TraceOutcome::bytes)),
             "per pass of " + std::to_string(profiles) + " profiles");
  report.set("trace.load_s", tracer.mean_s("bench.trace.load"), per_trace);
  report.set("trace.load_mb_per_s", per_mb("bench.trace.load"));
  report.set("trace.validate_s", tracer.mean_s("bench.trace.validate"), per_trace);
  report.set("trace.summarize_s", tracer.mean_s("bench.trace.summarize"), per_trace);
  report.set("trace.intervals_s", tracer.mean_s("bench.trace.intervals"), per_trace);
  report.set("exp.score_s", tracer.mean_s("bench.exp.score"), per_trace);
  report.show("bench.check_s", tracer.mean_s("bench.check"), "s",
              "correctness checks, " + per_trace);
  report_tracing(report, tracer, ratios);
}

}  // namespace perfbench
