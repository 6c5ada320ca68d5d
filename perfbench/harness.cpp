#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "obs/flight/prof.hpp"
#include "stats/quantile.hpp"

namespace perfbench {

namespace flight = pftk::obs::flight;

const std::vector<MetricDef> kEndToEnd = {
    {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"setup_s", "s"},
};

const std::vector<MetricDef> kPerLayer = {
    {"sim.run_s", "s"},
    {"sim.ns_per_packet", "ns"},
    {"sim.packets", "count"},
    {"sim.setup_us", "us"},
    {"trace.save_s", "s"},
    {"trace.save_mb_per_s", "MB/s"},
    {"trace.bytes", "bytes"},
    {"trace.load_s", "s"},
    {"trace.load_mb_per_s", "MB/s"},
    {"trace.validate_s", "s"},
    {"trace.summarize_s", "s"},
    {"trace.intervals_s", "s"},
    {"exp.score_s", "s"},
    {"exp.campaign.item_busy_s", "s"},
    {"exp.campaign.item_p50_ms", "ms"},
    {"exp.campaign.item_p99_ms", "ms"},
    {"exp.campaign.worker_util", "ratio"},
    {"exp.campaign.sims_per_trace", "ratio"},
    {"exp.campaign.sims", "count"},
    {"exp.campaign.traces", "count"},
    {"exp.campaign.attempts_per_item", "ratio"},
    {"exp.campaign.attempts", "count"},
    {"exp.campaign.items", "count"},
    {"robust.journal_writes", "count"},
    {"robust.journal_bytes", "bytes"},
    {"robust.journal_flushes", "count"},
    {"robust.journal_append_us", "us"},
    {"serve.parse_ns", "ns"},
    {"serve.format_ns", "ns"},
    {"core.model_eval_ns", "ns"},
    {"core.inverse_ns", "ns"},
    {"serve.transport_frac", "ratio"},
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.queue_wait_p99_ms", "ms"},
    {"serve.queue_peak", "count"},
    {"serve.batch_frac", "ratio"},
    {"serve.batched_requests", "count"},
    {"serve.served", "count"},
    {"serve.client_server_ratio", "ratio"},
    {"mc.states", "count"},
    {"mc.branches", "count"},
    {"mc.pruned", "count"},
    {"mc.pruned_frac", "ratio"},
    {"mc.us_per_branch", "us"},
    {"attributed_frac", "ratio"},
    {"trace_overhead_ratio", "ratio"},
    {"spans_dropped", "count"},
};

namespace {

const MetricDef* find_metric(std::string_view name) {
  for (const auto* defs : {&kEndToEnd, &kPerLayer}) {
    for (const MetricDef& def : *defs) {
      if (def.name == name) {
        return &def;
      }
    }
  }
  return nullptr;
}

/// Shortest text that reads back as exactly `v`: every digit measured.
std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string metric_line(std::string_view name, double value, std::string_view unit,
                        const std::string& detail) {
  std::ostringstream os;
  os << "  " << name << ' ';
  for (std::size_t pad = name.size(); pad < 31; ++pad) {
    os << ' ';
  }
  os << number(value) << ' ' << unit;
  if (!detail.empty()) {
    os << "  (" << detail << ")";
  }
  return os.str();
}

}  // namespace

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

bool Report::check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) {
    ++failed_;
    lines_.push_back("  CHECK FAILED: " + what);
  }
  return ok;
}

void Report::set(std::string_view name, double value, const std::string& detail) {
  const MetricDef* def = find_metric(name);
  if (def == nullptr) {
    throw std::logic_error("unknown metric " + std::string(name));
  }
  check(std::isfinite(value), std::string(name) + " is finite");
  values_[std::string(name)] = value;
  lines_.push_back(metric_line(name, value, def->unit, detail));
}

void Report::show(std::string_view name, double value, std::string_view unit,
                  const std::string& detail) {
  lines_.push_back(metric_line(name, value, unit, detail));
}

int Report::finish() {
  const bool correct = failed_ == 0;
  std::cout << "workload " << options_.workload << "  seed " << options_.seed
            << "  seconds " << number(options_.seconds) << "  trace "
            << (options_.trace ? 1 : 0) << "\n";
  for (const std::string& line : lines_) {
    std::cout << line << "\n";
  }
  std::cout << "  " << checks_ << " checks, " << failed_ << " failed ops of "
            << attempted_ << " attempted (error_rate "
            << number(attempted_ > 0 ? static_cast<double>(failed_) /
                                           static_cast<double>(attempted_)
                                     : 0.0)
            << ")\n";
  if (dropped_ > 0) {
    std::cout << "  per-layer metrics: indeterminate (" << dropped_
              << " spans dropped; enlarge the ring)\n";
    return 3;
  }
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
  const auto& defs = options_.trace ? kPerLayer : kEndToEnd;
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = values_.find(defs[i].name);
    const double value = it == values_.end() ? 0.0 : it->second;
    json << (i == 0 ? "" : ", ") << "\"" << defs[i].name << "\": {\"value\": "
         << number(value) << ", \"unit\": \"" << defs[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct && attempted_ > 0 ? 0 : 1;
}

double median(std::span<const double> sample) { return quantile(sample, 0.5); }

double quantile(std::span<const double> sample, double q) {
  return sample.empty() ? 0.0 : pftk::stats::quantile(sample, q);
}

void repeat_for(double seconds, const std::function<void()>& unit) {
  const auto start = Clock::now();
  do {
    unit();
  } while (seconds_since(start) < seconds);
}

void UnitStats::add(std::uint64_t ops, double seconds, double p50_ms, double p99_ms) {
  rates_.push_back(static_cast<double>(ops) / seconds);
  p50s_.push_back(p50_ms);
  p99s_.push_back(p99_ms);
  ops_ += ops;
}

void UnitStats::add(std::uint64_t ops, double seconds, std::vector<double> op_ms) {
  add(ops, seconds, quantile(op_ms, 0.5), quantile(op_ms, 0.99));
}

void UnitStats::report(Report& report, std::string_view rate_name,
                       std::string_view rate_unit, std::string_view unit) const {
  const std::string base = "median over " + std::to_string(rates_.size()) + " " +
                           std::string(unit) + ", " + std::to_string(ops_) + " samples";
  const auto [lo, hi] = std::minmax_element(rates_.begin(), rates_.end());
  report.set("throughput_per_s", median(rates_),
             std::string(rate_name) + ", " + base + ", units from " + number(*lo) +
                 " to " + number(*hi));
  report.show(rate_name, median(rates_), rate_unit);
  report.set("latency_p50_ms", median(p50s_), "p50 within a unit, " + base);
  report.set("latency_p99_ms", median(p99s_), "p99 within a unit, " + base);
  report.show("peak_rss_mb", peak_rss_mb(), "MB", "getrusage peak of the run");
}

double Tracer::run(const std::function<void()>& fn) {
  auto& recorder = flight::Recorder::instance();
  recorder.arm(ring_capacity_);
  const double wall = time_call(fn);
  recorder.disarm();
  const flight::DrainedSpans drained = recorder.drain();
  recorder.clear();
  if (inspect) {
    inspect(drained);
  }
  const flight::ProfReport prof = flight::profile_spans(drained);
  for (const flight::NameStats& stats : prof.names) {
    NameTotals& totals = totals_[stats.name];
    totals.count += stats.count;
    totals.inclusive_s += static_cast<double>(stats.inclusive_ns) * 1e-9;
  }
  wall_s_ += wall;
  dropped_ += prof.dropped;
  return wall;
}

const Tracer::NameTotals& Tracer::operator[](std::string_view name) const {
  static const NameTotals kNone;
  const auto it = totals_.find(name);
  return it == totals_.end() ? kNone : it->second;
}

double Tracer::mean_s(std::string_view name) const {
  const NameTotals& totals = (*this)[name];
  return totals.count > 0 ? totals.inclusive_s / static_cast<double>(totals.count)
                          : 0.0;
}

double Tracer::attributed_frac() const {
  double covered = 0.0;
  for (const auto& [name, totals] : totals_) {
    if (name.starts_with("bench.")) {
      covered += totals.inclusive_s;
    }
  }
  return wall_s_ > 0.0 ? covered / wall_s_ : 0.0;
}

std::vector<double> run_pairs(Tracer& tracer, double seconds, std::size_t min_pairs,
                              const std::function<void(std::size_t, bool)>& unit) {
  std::vector<double> ratios;
  const auto start = Clock::now();
  for (std::size_t k = 0; ratios.size() < min_pairs || seconds_since(start) < seconds;
       ++k) {
    const auto untraced = [&] { return time_call([&] { unit(k, false); }); };
    const auto traced = [&] { return tracer.run([&] { unit(k, true); }); };
    double plain = 0.0;
    double armed = 0.0;
    if (k % 2 == 0) {
      plain = untraced();
      armed = traced();
    } else {
      armed = traced();
      plain = untraced();
    }
    ratios.push_back(armed / plain);
  }
  return ratios;
}

void report_tracing(Report& report, const Tracer& tracer,
                    std::span<const double> overhead_ratios) {
  report.set("attributed_frac", tracer.attributed_frac(),
             "bench.* spans over " + number(tracer.wall_s()) + " s traced wall");
  report.set("trace_overhead_ratio", median(overhead_ratios),
             "median traced/untraced wall of " +
                 std::to_string(overhead_ratios.size()) + " interleaved pairs");
  report.set("spans_dropped", static_cast<double>(tracer.dropped()));
  if (tracer.dropped() > 0) {
    report.set_indeterminate(tracer.dropped());
  }
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
