#include "exp/micro_bench.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>
#include <vector>

#include <thread>

#ifdef __unix__
#include <unistd.h>
#endif

#include "core/approx_model.hpp"
#include "core/batch_eval.hpp"
#include "core/full_model.hpp"
#include "obs/event_loop_stats.hpp"
#include "obs/flight/flight_recorder.hpp"
#include "robust/failpoint.hpp"
#include "serve/prepared_cache.hpp"
#include "serve/protocol.hpp"
#include "sim/event_queue.hpp"
#include "trace/trace_event.hpp"
#include "trace/trace_io.hpp"

namespace pftk::exp {

namespace {

/// Wall-clock seconds of the best of `repeats` runs of `body`.
template <typename F>
double best_seconds(int repeats, F&& body) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < std::max(1, repeats); ++r) {
    const auto start = std::chrono::steady_clock::now();
    body();
    const auto stop = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(stop - start).count());
  }
  return best;
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

/// Chain event that also re-arms a long timer each firing, cancelling
/// the previous one — the retransmission-timer pattern that makes
/// fault-heavy runs cancel millions of entries.
struct ChurnEvent {
  sim::EventQueue* q;
  std::uint64_t* budget;
  sim::EventId* armed;
  void operator()() const {
    if (*budget == 0) {
      return;
    }
    --*budget;
    q->cancel(*armed);
    *armed = q->schedule_in(50.0, [] {});
    q->schedule_in(1e-3, ChurnEvent{q, budget, armed});
  }
};

MicroBenchResult bench_queue_dispatch(const MicroBenchConfig& config) {
  std::uint64_t executed = 0;
  const double secs = best_seconds(config.repeats, [&] {
    sim::EventQueue q;
    std::uint64_t budget = config.queue_events;
    Lcg rng{12345};
    constexpr int kChains = 64;  // a realistic number of live timers
    for (int c = 0; c < kChains; ++c) {
      q.schedule_in(1e-4 * static_cast<double>(c + 1), ChainEvent{&q, &budget, &rng});
    }
    q.run_all();
    executed = q.executed();
  });
  MicroBenchResult r;
  r.name = "event_queue.dispatch";
  r.unit = "ns/event";
  r.items = executed;
  r.value = secs * 1e9 / static_cast<double>(executed);
  r.per_second = static_cast<double>(executed) / secs;
  return r;
}

/// The dispatch workload again, with an EventLoopStats sink attached —
/// exactly what `--metrics-out` costs the inner loop. Paired with
/// bench_queue_dispatch it yields the obs overhead ratio the CI gate
/// holds at <= 1.10.
MicroBenchResult bench_queue_dispatch_obs(const MicroBenchConfig& config) {
  std::uint64_t executed = 0;
  const double secs = best_seconds(config.repeats, [&] {
    sim::EventQueue q;
    obs::EventLoopStats stats;
    q.set_stats_sink(&stats);
    std::uint64_t budget = config.queue_events;
    Lcg rng{12345};
    constexpr int kChains = 64;
    for (int c = 0; c < kChains; ++c) {
      q.schedule_in(1e-4 * static_cast<double>(c + 1), ChainEvent{&q, &budget, &rng});
    }
    q.run_all();
    executed = stats.executed;
  });
  MicroBenchResult r;
  r.name = "event_queue.dispatch_obs";
  r.unit = "ns/event";
  r.items = executed;
  r.value = secs * 1e9 / static_cast<double>(executed);
  r.per_second = static_cast<double>(executed) / secs;
  return r;
}

MicroBenchResult bench_queue_churn(const MicroBenchConfig& config) {
  std::uint64_t executed = 0;
  const double secs = best_seconds(config.repeats, [&] {
    sim::EventQueue q;
    std::uint64_t budget = config.churn_events;
    sim::EventId armed = q.schedule_in(50.0, [] {});
    q.schedule_in(1e-3, ChurnEvent{&q, &budget, &armed});
    q.run_until(1e-3 * static_cast<double>(config.churn_events + 2));
    executed = q.executed();
  });
  MicroBenchResult r;
  r.name = "event_queue.cancel_churn";
  r.unit = "ns/event";
  r.items = executed;
  r.value = secs * 1e9 / static_cast<double>(executed);
  r.per_second = static_cast<double>(executed) / secs;
  return r;
}

/// Log-spaced loss-probability grid over the models' practical domain.
std::vector<double> make_p_grid(std::size_t n) {
  std::vector<double> grid(n);
  const double lo = std::log(1e-6);
  const double hi = std::log(0.99);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = n > 1 ? static_cast<double>(i) / static_cast<double>(n - 1) : 0.0;
    grid[i] = std::exp(lo + (hi - lo) * t);
  }
  return grid;
}

model::ModelParams bench_params() {
  model::ModelParams mp;
  mp.p = 0.01;
  mp.rtt = 0.2;
  mp.t0 = 2.0;
  mp.b = 2;
  mp.wm = 32.0;
  return mp;
}

struct ModelBenchOutcome {
  MicroBenchResult scalar;
  MicroBenchResult batched;
  double speedup = 0.0;
  double max_rel_err = 0.0;
};

template <typename ScalarFn>
ModelBenchOutcome bench_model(const MicroBenchConfig& config, model::ModelKind kind,
                              const char* label, ScalarFn&& scalar_rate) {
  const auto grid = make_p_grid(config.model_grid_points);
  const auto base = bench_params();
  std::vector<double> scalar_out(grid.size());
  std::vector<double> batched_out(grid.size());

  const double scalar_secs = best_seconds(config.repeats, [&] {
    model::ModelParams mp = base;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      mp.p = grid[i];
      scalar_out[i] = scalar_rate(mp);
    }
  });
  const double batched_secs = best_seconds(config.repeats, [&] {
    model::evaluate_batch_p(kind, base, grid, batched_out);
  });

  ModelBenchOutcome out;
  const auto n = static_cast<double>(grid.size());
  out.scalar.name = std::string("model.") + label + "_scalar";
  out.scalar.unit = "ns/eval";
  out.scalar.items = grid.size();
  out.scalar.value = scalar_secs * 1e9 / n;
  out.scalar.per_second = n / scalar_secs;
  out.batched.name = std::string("model.") + label + "_batched";
  out.batched.unit = "ns/eval";
  out.batched.items = grid.size();
  out.batched.value = batched_secs * 1e9 / n;
  out.batched.per_second = n / batched_secs;
  out.speedup = out.scalar.value / out.batched.value;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const double denom = std::max(std::abs(scalar_out[i]), 1e-300);
    out.max_rel_err =
        std::max(out.max_rel_err, std::abs(batched_out[i] - scalar_out[i]) / denom);
  }
  return out;
}

/// A synthetic but format-complete trace: send/ACK pairs with periodic
/// retransmissions, timeouts and RTT samples, so the parser sees every
/// record type at realistic field widths.
std::vector<trace::TraceEvent> make_trace_events(std::size_t events) {
  std::vector<trace::TraceEvent> trace;
  trace.reserve(events);
  sim::SeqNo seq = 0;
  double t = 0.0;
  for (std::size_t i = 0; i < events; ++i) {
    trace::TraceEvent e;
    t += 0.0125;
    e.t = t;
    switch (i % 8) {
      case 6: {
        e.type = trace::TraceEventType::kAckReceived;
        e.seq = seq;
        e.duplicate = (i % 24) == 6;
        break;
      }
      case 7: {
        if (i % 40 == 7) {
          e.type = trace::TraceEventType::kTimeout;
          e.seq = seq;
          e.consecutive = 1;
          e.value = 1.5;
        } else {
          e.type = trace::TraceEventType::kRttSample;
          e.value = 0.21;
          e.in_flight = 8;
        }
        break;
      }
      default: {
        e.type = trace::TraceEventType::kSegmentSent;
        e.seq = ++seq;
        e.retransmission = (i % 32) == 5;
        e.in_flight = 1 + i % 12;
        e.cwnd = 2.0 + static_cast<double>(i % 24);
        break;
      }
    }
    trace.push_back(e);
  }
  return trace;
}

std::string make_trace_text(std::size_t events) {
  return trace::format_trace(make_trace_events(events));
}

/// Formats one journal-shaped record into `buf` — the per-record work
/// that surrounds every failpoint check on the campaign append path.
void format_journal_record(std::string& buf, std::uint64_t i, double value) {
  buf.clear();
  buf += "{\"index\": ";
  buf += std::to_string(i);
  buf += ", \"status\": \"ok\", \"value\": ";
  buf += std::to_string(value);
  buf += "}";
}

MicroBenchResult bench_journal_serialize(const MicroBenchConfig& config) {
  std::string buf;
  std::uint64_t sink = 0;
  const double secs = best_seconds(config.repeats, [&] {
    sink = 0;
    for (std::uint64_t i = 0; i < config.journal_records; ++i) {
      format_journal_record(buf, i, 1e-3 * static_cast<double>(i & 1023));
      sink += buf.size();
    }
  });
  MicroBenchResult r;
  r.name = "journal.serialize";
  r.unit = "ns/record";
  r.items = config.journal_records + (sink & 1);  // keep `sink` observable
  r.value = secs * 1e9 / static_cast<double>(config.journal_records);
  r.per_second = static_cast<double>(config.journal_records) / secs;
  return r;
}

/// The same serialization loop with a disarmed failpoint evaluated per
/// record — exactly what DurableAppender::append_line pays when no chaos
/// spec is armed. Paired with bench_journal_serialize it yields the
/// failpoint overhead ratio the CI gate holds at <= 1.10.
MicroBenchResult bench_journal_serialize_failpoint(const MicroBenchConfig& config) {
  std::string buf;
  std::uint64_t sink = 0;
  const double secs = best_seconds(config.repeats, [&] {
    sink = 0;
    for (std::uint64_t i = 0; i < config.journal_records; ++i) {
      format_journal_record(buf, i, 1e-3 * static_cast<double>(i & 1023));
      const robust::FailpointHit hit = robust::failpoint("journal.append");
      sink += buf.size() + static_cast<std::uint64_t>(hit.fired());
    }
  });
  MicroBenchResult r;
  r.name = "journal.serialize_failpoint";
  r.unit = "ns/record";
  r.items = config.journal_records + (sink & 1);
  r.value = secs * 1e9 / static_cast<double>(config.journal_records);
  r.per_second = static_cast<double>(config.journal_records) / secs;
  return r;
}

/// The serialization loop again with a disarmed PFTK_SPAN per record —
/// the flight recorder's fixed per-site cost when no --trace-spans flag
/// was given (one relaxed atomic load plus a dead branch). Paired with
/// journal.serialize it yields the span overhead ratio the CI gate
/// holds at <= 1.10. Must run while the recorder is disarmed.
MicroBenchResult bench_span_record_disarmed(const MicroBenchConfig& config) {
  std::string buf;
  std::uint64_t sink = 0;
  const double secs = best_seconds(config.repeats, [&] {
    sink = 0;
    for (std::uint64_t i = 0; i < config.journal_records; ++i) {
      PFTK_SPAN("bench.span_site");
      format_journal_record(buf, i, 1e-3 * static_cast<double>(i & 1023));
      sink += buf.size();
    }
  });
  MicroBenchResult r;
  r.name = "span.record_disarmed";
  r.unit = "ns/record";
  r.items = config.journal_records + (sink & 1);
  r.value = secs * 1e9 / static_cast<double>(config.journal_records);
  r.per_second = static_cast<double>(config.journal_records) / secs;
  return r;
}

/// The same loop armed: two clock reads, a name-cache lookup and one
/// ring-slot write per record — what `--trace-spans` costs a hot loop
/// that is instrumented at record granularity. Reported for the
/// trajectory but not gated (arming is explicit opt-in). Must run while
/// the recorder is armed.
MicroBenchResult bench_span_record_armed(const MicroBenchConfig& config) {
  std::string buf;
  std::uint64_t sink = 0;
  const double secs = best_seconds(config.repeats, [&] {
    sink = 0;
    for (std::uint64_t i = 0; i < config.journal_records; ++i) {
      PFTK_SPAN("bench.span_site");
      format_journal_record(buf, i, 1e-3 * static_cast<double>(i & 1023));
      sink += buf.size();
    }
  });
  MicroBenchResult r;
  r.name = "span.record";
  r.unit = "ns/record";
  r.items = config.journal_records + (sink & 1);
  r.value = secs * 1e9 / static_cast<double>(config.journal_records);
  r.per_second = static_cast<double>(config.journal_records) / secs;
  return r;
}

/// A rotating pool of well-formed MODEL request lines: 4 parameter sets
/// (so the PreparedCache sees realistic hit runs) x 16 p values.
std::vector<std::string> make_request_lines() {
  std::vector<std::string> lines;
  for (int set = 0; set < 4; ++set) {
    const double rtt = 0.05 + 0.05 * set;
    const double t0 = 4.0 * rtt;
    const double wm = static_cast<double>(8 << set);
    for (int i = 0; i < 16; ++i) {
      const double p = 0.001 * static_cast<double>(1 + i * 7 % 97);
      std::ostringstream os;
      os << "MODEL r" << set << "-" << i << " p=" << p << " rtt=" << rtt
         << " t0=" << t0 << " wm=" << wm << " b=2 model="
         << (set % 2 == 0 ? "full" : "approx");
      lines.push_back(os.str());
    }
  }
  return lines;
}

MicroBenchResult bench_serve_parse(const MicroBenchConfig& config) {
  const auto lines = make_request_lines();
  std::uint64_t sink = 0;
  const double secs = best_seconds(config.repeats, [&] {
    sink = 0;
    for (std::uint64_t i = 0; i < config.serve_requests; ++i) {
      const auto req = serve::parse_request(lines[i % lines.size()]);
      sink += req.id.size();
    }
  });
  MicroBenchResult r;
  r.name = "serve.parse";
  r.unit = "ns/request";
  r.items = config.serve_requests + (sink & 1);
  r.value = secs * 1e9 / static_cast<double>(config.serve_requests);
  r.per_second = static_cast<double>(config.serve_requests) / secs;
  return r;
}

/// The daemon worker's whole per-request CPU cost, socket I/O excluded:
/// parse the line, hit the PreparedModel cache, evaluate, format the OK
/// response. This is the number the serve capacity plan starts from.
MicroBenchResult bench_serve_request_path(const MicroBenchConfig& config) {
  const auto lines = make_request_lines();
  serve::PreparedCache cache(32);
  std::uint64_t sink = 0;
  const double secs = best_seconds(config.repeats, [&] {
    sink = 0;
    for (std::uint64_t i = 0; i < config.serve_requests; ++i) {
      const auto req = serve::parse_request(lines[i % lines.size()]);
      const auto& prepared = cache.get(req.kind, req.params);
      const double rate = prepared(req.params.p);
      const std::string response = serve::format_ok(
          req.id, {{"rate", serve::format_number(rate)},
                   {"model", std::string(serve::model_kind_token(req.kind))}});
      sink += response.size();
    }
  });
  MicroBenchResult r;
  r.name = "serve.request_path";
  r.unit = "ns/request";
  r.items = config.serve_requests + (sink & 1);
  r.value = secs * 1e9 / static_cast<double>(config.serve_requests);
  r.per_second = static_cast<double>(config.serve_requests) / secs;
  return r;
}

/// The identical request loop plus what supervised-pool membership adds
/// per request: one disarmed `serve.worker.crash` failpoint evaluation
/// (the worker-loop chaos site) and one relaxed load of the shared
/// degrade flag (the MAP_SHARED page every worker polls). Their cost is
/// the supervision_overhead_ratio `--gate` enforces.
MicroBenchResult bench_serve_request_path_supervised(
    const MicroBenchConfig& config) {
  const auto lines = make_request_lines();
  serve::PreparedCache cache(32);
  std::atomic<std::uint32_t> degrade_flag{0};
  std::uint64_t sink = 0;
  const double secs = best_seconds(config.repeats, [&] {
    sink = 0;
    for (std::uint64_t i = 0; i < config.serve_requests; ++i) {
      const auto hit = robust::failpoint("serve.worker.crash");
      sink += static_cast<std::uint64_t>(hit.action);
      const bool degraded =
          degrade_flag.load(std::memory_order_relaxed) != 0;
      auto req = serve::parse_request(lines[i % lines.size()]);
      if (degraded) {
        req.kind = model::ModelKind::kApproximate;
      }
      const auto& prepared = cache.get(req.kind, req.params);
      const double rate = prepared(req.params.p);
      const std::string response = serve::format_ok(
          req.id, {{"rate", serve::format_number(rate)},
                   {"model", std::string(serve::model_kind_token(req.kind))}});
      sink += response.size();
    }
  });
  MicroBenchResult r;
  r.name = "serve.request_path_supervised";
  r.unit = "ns/request";
  r.items = config.serve_requests + (sink & 1);
  r.value = secs * 1e9 / static_cast<double>(config.serve_requests);
  r.per_second = static_cast<double>(config.serve_requests) / secs;
  return r;
}

/// The write path's formatting half: format_trace over the synthetic
/// capture, in MB/s of text produced (the durable write is excluded).
MicroBenchResult bench_trace_format(const MicroBenchConfig& config) {
  const auto events = make_trace_events(config.trace_events);
  std::size_t bytes = 0;
  const double secs = best_seconds(config.repeats, [&] {
    bytes = trace::format_trace(events).size();
  });
  MicroBenchResult r;
  r.name = "trace.format";
  r.unit = "MB/s";
  r.items = events.size();
  r.per_second = static_cast<double>(bytes) / secs;
  r.value = r.per_second / (1024.0 * 1024.0);
  return r;
}

/// The ingest path, timed end to end through load_trace_file_lenient
/// on a real temp file — open, map, scan, parse, unmap — so the number
/// is what a campaign actually pays per capture byte.
MicroBenchResult bench_trace_parse_mmap(const MicroBenchConfig& config) {
  const std::string text = make_trace_text(config.trace_events);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("pftk_bench_trace_" +
        std::to_string(std::chrono::steady_clock::now().time_since_epoch().count()) +
        ".tsv"))
          .string();
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << text;
  }
  std::size_t parsed = 0;
  const double secs = best_seconds(config.repeats, [&] {
    parsed = trace::load_trace_file_lenient(path).size();
  });
  std::remove(path.c_str());

  MicroBenchResult r;
  r.name = "trace.parse_mmap";
  r.unit = "MB/s";
  r.items = parsed;
  r.per_second = static_cast<double>(text.size()) / secs;
  r.value = r.per_second / (1024.0 * 1024.0);
  return r;
}

/// Minimal JSON string escaping for host strings (quotes, backslashes,
/// control bytes — cpuinfo model names are ASCII but not guaranteed).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

void write_result(std::ostream& os, const MicroBenchResult& r, bool last) {
  os << "    {\"name\": \"" << r.name << "\", \"unit\": \"" << r.unit
     << "\", \"value\": " << r.value << ", \"per_second\": " << r.per_second
     << ", \"items\": " << r.items << "}" << (last ? "\n" : ",\n");
}

}  // namespace

MicroBenchConfig MicroBenchConfig::smoke() {
  MicroBenchConfig config;
  config.mode = "smoke";
  config.repeats = 2;
  config.queue_events = 50'000;
  config.churn_events = 20'000;
  config.model_grid_points = 10'000;  // full size: the equivalence grid is cheap
  config.trace_events = 10'000;
  config.journal_records = 50'000;
  config.serve_requests = 20'000;
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

const MicroBenchResult* MicroBenchReport::find(const std::string& name) const noexcept {
  for (const auto& r : results) {
    if (r.name == name) {
      return &r;
    }
  }
  return nullptr;
}

MicroBenchReport run_micro_bench(const MicroBenchConfig& config) {
  MicroBenchReport report;
  report.mode = config.mode;
  report.repeats = config.repeats;
  report.host = collect_host_info();

  report.results.push_back(bench_queue_dispatch(config));
  report.results.push_back(bench_queue_dispatch_obs(config));
  report.results.push_back(bench_queue_churn(config));
  report.obs_overhead_ratio = report.results[1].value / report.results[0].value;

  const auto approx =
      bench_model(config, model::ModelKind::kApproximate, "approx",
                  [](const model::ModelParams& mp) { return approx_model_send_rate(mp); });
  const auto full =
      bench_model(config, model::ModelKind::kFull, "full",
                  [](const model::ModelParams& mp) { return full_model_send_rate(mp); });
  report.results.push_back(approx.scalar);
  report.results.push_back(approx.batched);
  report.results.push_back(full.scalar);
  report.results.push_back(full.batched);
  report.approx_batch_speedup = approx.speedup;
  report.full_batch_speedup = full.speedup;
  report.batch_max_rel_err = std::max(approx.max_rel_err, full.max_rel_err);
  report.equivalence_ok = report.batch_max_rel_err <= report.batch_tolerance;

  report.results.push_back(bench_journal_serialize(config));
  const double journal_ns = report.results.back().value;
  report.results.push_back(bench_journal_serialize_failpoint(config));
  report.failpoint_overhead_ratio = report.results.back().value / journal_ns;

  {
    // The disarmed measurement must see a disarmed recorder and the
    // armed one an armed recorder, whatever state the process is in
    // (`pftk bench --trace-spans ...` arrives here armed). Restore the
    // caller's state afterwards: a tracing run keeps the bench spans
    // (the user asked to trace this process), otherwise the rings are
    // cleared so a later arm starts empty.
    auto& recorder = obs::flight::Recorder::instance();
    const bool was_armed = obs::flight::armed();
    if (was_armed) {
      recorder.disarm();
    }
    report.results.push_back(bench_span_record_disarmed(config));
    report.span_overhead_ratio = report.results.back().value / journal_ns;
    recorder.arm();
    report.results.push_back(bench_span_record_armed(config));
    recorder.disarm();
    if (was_armed) {
      recorder.arm();
    } else {
      recorder.clear();
    }
  }

  report.results.push_back(bench_trace_parse_mmap(config));
  report.results.push_back(bench_trace_format(config));

  report.results.push_back(bench_serve_parse(config));
  report.results.push_back(bench_serve_request_path(config));
  const double request_path_ns = report.results.back().value;
  report.results.push_back(bench_serve_request_path_supervised(config));
  report.supervision_overhead_ratio =
      report.results.back().value / request_path_ns;
  return report;
}

void write_bench_json(std::ostream& os, const MicroBenchReport& report) {
  const auto saved_precision = os.precision();
  os << std::setprecision(12);
  os << "{\n"
     << "  \"schema\": \"pftk-bench-micro/2\",\n"
     << "  \"mode\": \"" << report.mode << "\",\n"
     << "  \"repeats\": " << report.repeats << ",\n"
     << "  \"host\": {\n"
     << "    \"cpu_model\": \"" << json_escape(report.host.cpu_model) << "\",\n"
     << "    \"cores\": " << report.host.cores << ",\n"
     << "    \"page_size\": " << report.host.page_size << "\n"
     << "  },\n"
     << "  \"results\": [\n";
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    write_result(os, report.results[i], i + 1 == report.results.size());
  }
  os << "  ],\n"
     << "  \"derived\": {\n"
     << "    \"approx_batch_speedup\": " << report.approx_batch_speedup << ",\n"
     << "    \"full_batch_speedup\": " << report.full_batch_speedup << ",\n"
     << "    \"obs_overhead_ratio\": " << report.obs_overhead_ratio << ",\n"
     << "    \"obs_overhead_tolerance\": " << report.obs_overhead_tolerance << ",\n"
     << "    \"obs_overhead_ok\": " << (report.obs_overhead_ok() ? "true" : "false")
     << ",\n"
     << "    \"failpoint_overhead_ratio\": " << report.failpoint_overhead_ratio
     << ",\n"
     << "    \"failpoint_overhead_tolerance\": "
     << report.failpoint_overhead_tolerance << ",\n"
     << "    \"failpoint_overhead_ok\": "
     << (report.failpoint_overhead_ok() ? "true" : "false") << ",\n"
     << "    \"span_overhead_ratio\": " << report.span_overhead_ratio << ",\n"
     << "    \"span_overhead_tolerance\": " << report.span_overhead_tolerance
     << ",\n"
     << "    \"span_overhead_ok\": " << (report.span_overhead_ok() ? "true" : "false")
     << ",\n"
     << "    \"supervision_overhead_ratio\": "
     << report.supervision_overhead_ratio << ",\n"
     << "    \"supervision_overhead_tolerance\": "
     << report.supervision_overhead_tolerance << ",\n"
     << "    \"supervision_overhead_ok\": "
     << (report.supervision_overhead_ok() ? "true" : "false") << "\n"
     << "  },\n"
     << "  \"equivalence\": {\n"
     << "    \"batch_max_rel_err\": " << report.batch_max_rel_err << ",\n"
     << "    \"tolerance\": " << report.batch_tolerance << ",\n"
     << "    \"ok\": " << (report.equivalence_ok ? "true" : "false") << "\n"
     << "  }\n"
     << "}\n";
  os << std::setprecision(static_cast<int>(saved_precision));
}

}  // namespace pftk::exp
