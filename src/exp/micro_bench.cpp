#include "exp/micro_bench.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <thread>
#include <utility>

#ifdef __unix__
#include <unistd.h>
#endif

#include "obs/event_loop_stats.hpp"
#include "obs/flight/flight_recorder.hpp"
#include "robust/failpoint.hpp"
#include "robust/json_line.hpp"
#include "sim/event_queue.hpp"
#include "stats/quantile.hpp"

namespace pftk::exp {

namespace {

/// Every timed run's checksum lands here, so no loop's work is dead.
std::atomic<std::uint64_t> g_checksum{0};

double run_seconds(const TimedLoop& loop) {
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t checksum = loop.body();
  const auto stop = std::chrono::steady_clock::now();
  g_checksum.fetch_add(checksum, std::memory_order_relaxed);
  return std::chrono::duration<double>(stop - start).count();
}

/// Tiny deterministic generator for irregular-but-reproducible delays.
struct Lcg {
  std::uint64_t state;
  std::uint64_t next() noexcept {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  }
};

/// Self-rescheduling chain event: the simulator's steady-state pattern
/// (every executed event schedules its successor). Small enough to sit
/// in the queue's inline callback storage.
struct ChainEvent {
  sim::EventQueue* q;
  std::uint64_t* budget;
  Lcg* rng;
  void operator()() const {
    if (*budget == 0) {
      return;
    }
    --*budget;
    const double gap = 1e-4 * static_cast<double>(1 + (rng->next() & 7));
    q->schedule_in(gap, ChainEvent{q, budget, rng});
  }
};

constexpr int kChains = 64;  // a realistic number of live timers

// Work per run. Long enough that clock reads and per-run set-up vanish
// and warm-up does not favour either side, short enough (0.2-1.3 ms)
// that a pair's two runs see the same host state: on a shared 4-vCPU
// Xeon VM a single pair's journal ratio spread 0.80-1.29 (p10-p90) at
// 50k records per run and 0.86-1.15 at 5k.
constexpr std::uint64_t kQueueEvents = 2'000;
constexpr std::uint64_t kJournalRecords = 2'000;

/// Dispatches `events` chain events plus each chain's final no-op
/// (events + kChains in all), optionally with an EventLoopStats sink.
std::uint64_t dispatch_chains(std::uint64_t events, bool with_sink) {
  sim::EventQueue q;
  obs::EventLoopStats stats;
  if (with_sink) {
    q.set_stats_sink(&stats);
  }
  std::uint64_t budget = events;
  Lcg rng{12345};
  for (int c = 0; c < kChains; ++c) {
    q.schedule_in(1e-4 * static_cast<double>(c + 1), ChainEvent{&q, &budget, &rng});
  }
  q.run_all();
  return q.executed();
}

/// Formats `records` journal-shaped records — the per-record work around
/// every append on the campaign persistence path — calling `site()` once
/// per record.
template <typename Site>
std::uint64_t serialize_journal(std::uint64_t records, Site site) {
  std::string buf;
  std::uint64_t checksum = 0;
  for (std::uint64_t i = 0; i < records; ++i) {
    checksum += site();
    buf.clear();
    buf += "{\"index\": ";
    buf += std::to_string(i);
    buf += ", \"status\": \"ok\", \"value\": ";
    buf += std::to_string(1e-3 * static_cast<double>(i & 1023));
    buf += "}";
    checksum += buf.size();
  }
  return checksum;
}

}  // namespace

MicroBenchConfig MicroBenchConfig::smoke() {
  MicroBenchConfig config;
  config.mode = "smoke";
  config.repeats = 401;
  return config;
}

BenchHostInfo collect_host_info() {
  BenchHostInfo info;
  info.cores = std::thread::hardware_concurrency();
#ifdef __unix__
  info.page_size = sysconf(_SC_PAGESIZE);
#endif
  // First "model name" line of /proc/cpuinfo; absent on non-Linux (and
  // some arm kernels), in which case the field stays "".
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') {
          ++start;
        }
        info.cpu_model = line.substr(start);
      }
      break;
    }
  }
  return info;
}

OverheadGate measure_gate(std::string name, int pairs, const TimedLoop& baseline,
                          const TimedLoop& seam, std::vector<MicroBenchResult>& results) {
  const auto n = static_cast<std::size_t>(std::max(1, pairs));
  std::vector<double> baseline_s(n);
  std::vector<double> seam_s(n);
  std::vector<double> ratios(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 2 == 0) {
      baseline_s[i] = run_seconds(baseline);
      seam_s[i] = run_seconds(seam);
    } else {
      seam_s[i] = run_seconds(seam);
      baseline_s[i] = run_seconds(baseline);
    }
    ratios[i] = seam_s[i] / baseline_s[i];
  }
  const auto add_series = [&results](const TimedLoop& loop,
                                     const std::vector<double>& seconds) {
    const bool present = std::any_of(results.begin(), results.end(),
                                     [&](const auto& r) { return r.name == loop.name; });
    if (!present) {
      const double median_s = stats::median(seconds);
      const auto items = static_cast<double>(loop.items);
      results.push_back(
          {loop.name, loop.unit, median_s * 1e9 / items, items / median_s, loop.items});
    }
  };
  add_series(baseline, baseline_s);
  add_series(seam, seam_s);
  return OverheadGate{std::move(name), baseline.name, seam.name, stats::median(ratios)};
}

MicroBenchReport run_micro_bench(const MicroBenchConfig& config) {
  MicroBenchReport report;
  report.mode = config.mode;
  report.repeats = config.repeats;
  report.host = collect_host_info();
  const int pairs = config.repeats;
  auto& results = report.results;

  // An attached EventLoopStats sink is what `--metrics-out` costs the
  // simulator's inner loop.
  report.gates.push_back(measure_gate(
      "obs", pairs,
      {"event_queue.dispatch", "ns/event", kQueueEvents + kChains,
       [] { return dispatch_chains(kQueueEvents, false); }},
      {"event_queue.dispatch_obs", "ns/event", kQueueEvents + kChains,
       [] { return dispatch_chains(kQueueEvents, true); }},
      results));

  // A disarmed failpoint is what DurableAppender::append_line pays per
  // record when no chaos spec is armed.
  const TimedLoop journal{"journal.serialize", "ns/record", kJournalRecords, [] {
                            return serialize_journal(kJournalRecords, [] { return 0; });
                          }};
  report.gates.push_back(measure_gate(
      "failpoint", pairs, journal,
      {"journal.serialize_failpoint", "ns/record", kJournalRecords,
       [] {
         return serialize_journal(kJournalRecords, [] {
           return static_cast<int>(robust::failpoint("journal.append").fired());
         });
       }},
      results));

  // A disarmed PFTK_SPAN site is one relaxed load plus a dead branch.
  // The gate measures exactly that, so the recorder is disarmed for it
  // whatever state the process is in (`pftk --trace-spans F bench`
  // arrives here armed) and re-armed afterwards.
  const bool was_armed = obs::flight::armed();
  auto& recorder = obs::flight::Recorder::instance();
  recorder.disarm();
  report.gates.push_back(measure_gate(
      "span", pairs, journal,
      {"span.record_disarmed", "ns/record", kJournalRecords,
       [] {
         return serialize_journal(kJournalRecords, [] {
           PFTK_SPAN("bench.span_site");
           return 0;
         });
       }},
      results));
  if (was_armed) {
    recorder.arm();
  }
  return report;
}

void write_bench_json(std::ostream& os, const MicroBenchReport& report) {
  const auto saved_precision = os.precision();
  os << std::setprecision(12);
  os << "{\n"
     << "  \"schema\": \"pftk-bench-micro/4\",\n"
     << "  \"mode\": \"" << report.mode << "\",\n"
     << "  \"repeats\": " << report.repeats << ",\n"
     << "  \"host\": {\n"
     << "    \"cpu_model\": \"" << robust::json::escape(report.host.cpu_model) << "\",\n"
     << "    \"cores\": " << report.host.cores << ",\n"
     << "    \"page_size\": " << report.host.page_size << "\n"
     << "  },\n"
     << "  \"results\": [\n";
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    const auto& r = report.results[i];
    os << "    {\"name\": \"" << r.name << "\", \"unit\": \"" << r.unit
       << "\", \"value\": " << r.value << ", \"per_second\": " << r.per_second
       << ", \"items\": " << r.items << "}"
       << (i + 1 == report.results.size() ? "\n" : ",\n");
  }
  os << "  ],\n"
     << "  \"gates\": [\n";
  for (std::size_t i = 0; i < report.gates.size(); ++i) {
    const auto& g = report.gates[i];
    os << "    {\"name\": \"" << g.name << "\", \"baseline\": \"" << g.baseline
       << "\", \"seam\": \"" << g.seam << "\", \"ratio\": " << g.ratio
       << ", \"tolerance\": " << kOverheadTolerance
       << ", \"ok\": " << (g.ok() ? "true" : "false") << "}"
       << (i + 1 == report.gates.size() ? "\n" : ",\n");
  }
  os << "  ]\n"
     << "}\n";
  os << std::setprecision(static_cast<int>(saved_precision));
}

}  // namespace pftk::exp
