// pftk — command-line front end to the library.
//
// Every command is one row of the table in command_table(): its
// positionals, its flags (name, metavariable, one help line, a setter)
// and its help prose. parse_argv() walks argv against the table once,
// main() dispatches, and usage() prints from the same rows, so `pftk`
// with no arguments lists exactly what the parser accepts.
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error (an unknown
// flag, a missing positional, or a value its reader rejects), 3
// interrupted or cut short, 5 indeterminate.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/markov_model.hpp"
#include "core/model_registry.hpp"
#include "core/inverse_model.hpp"
#include "core/short_flow_model.hpp"
#include "core/throughput_model.hpp"
#include "exp/campaign/campaign_runner.hpp"
#include "exp/campaign/chaos.hpp"
#include "mc/explorer.hpp"
#include "mc/trace_file.hpp"
#include "exp/hour_trace_experiment.hpp"
#include "exp/micro_bench.hpp"
#include "exp/table_format.hpp"
#include "obs/conn_event_trace.hpp"
#include "obs/event_loop_stats.hpp"
#include "obs/export.hpp"
#include "obs/flight/flight_recorder.hpp"
#include "obs/flight/prof.hpp"
#include "obs/flight/span_export.hpp"
#include "obs/metrics.hpp"
#include "obs/standard_metrics.hpp"
#include "obs/summarize.hpp"
#include "robust/decimal.hpp"
#include "robust/exit_codes.hpp"
#include "robust/failpoint.hpp"
#include "robust/shutdown.hpp"
#include "serve/load_client.hpp"
#include "serve/serve_metrics.hpp"
#include "serve/server.hpp"
#include "sim/fault_injector.hpp"
#include "sim/sim_watchdog.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_recorder.hpp"
#include "trace/trace_summary.hpp"
#include "trace/trace_validator.hpp"

namespace {

// Typed numeric argument parsing, unified across subcommands: every
// numeric argv goes through one of these, so "model 0.01 abc 2 8" or a
// NaN deadline is a ParamError (exit 2, like any other usage error)
// instead of atof's silent 0.0.
double parse_number(const char* text, const char* what) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v)) {
    throw pftk::model::ParamError(std::string(what) +
                                  " must be a finite number, got '" + text +
                                  "'");
  }
  return v;
}

double parse_positive(const char* text, const char* what) {
  const double v = parse_number(text, what);
  if (!(v > 0.0)) {
    throw pftk::model::ParamError(std::string(what) + " must be > 0, got '" +
                                  text + "'");
  }
  return v;
}

double parse_nonnegative(const char* text, const char* what) {
  const double v = parse_number(text, what);
  if (!(v >= 0.0)) {
    throw pftk::model::ParamError(std::string(what) + " must be >= 0, got '" +
                                  text + "'");
  }
  return v;
}

int parse_positive_int(const char* text, const char* what) {
  const auto v = pftk::robust::parse_decimal(text, std::numeric_limits<int>::max());
  if (!v || *v == 0) {
    throw pftk::model::ParamError(std::string(what) +
                                  " must be a positive integer, got '" + text +
                                  "'");
  }
  return static_cast<int>(*v);
}

std::uint64_t parse_u64(const char* text, const char* what) {
  const auto v = pftk::robust::parse_decimal(text);
  if (!v) {
    throw pftk::model::ParamError(std::string(what) +
                                  " must be an integer >= 0, got '" + text + "'");
  }
  return *v;
}

std::uint32_t parse_u32(const char* text, const char* what) {
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  const std::uint64_t v = parse_u64(text, what);
  if (v > kMax) {
    throw pftk::model::ParamError(std::string(what) + " must be at most " +
                                  std::to_string(kMax) + ", got '" + text + "'");
  }
  return static_cast<std::uint32_t>(v);
}

std::size_t parse_size(const char* text, const char* what) {
  return static_cast<std::size_t>(parse_positive_int(text, what));
}

/// One flag row. `metavar` is null for a switch, and a bracketed name
/// ("[FILE]") for an optional value, which takes the next word only
/// when that word does not start with '-'. `set` gets the value, or
/// null when there is none.
struct Flag {
  const char* name;
  const char* metavar;
  const char* help;
  std::function<void(const char*)> set;
};

/// One positional row: "<name>" is required, "[name]" optional, a bare
/// word is required and typed as is, and a name ending in "..." takes
/// every further word that does not start with '-'.
struct Positional {
  const char* name;
  std::function<void(const char*)> set;
};

struct Command {
  const char* name;
  std::vector<Positional> positionals;
  std::vector<Flag> flags;
  const char* prose;  ///< help text, one line per '\n'
  std::function<int()> run;
};

std::vector<Flag> operator+(std::vector<Flag> rows, const std::vector<Flag>& more) {
  rows.insert(rows.end(), more.begin(), more.end());
  return rows;
}

/// A word no row accepts: `message` (if any) and the usage of `command`
/// (of every command when null) go to stderr, exit 2.
struct UsageError {
  std::string message;
  const Command* command = nullptr;
};

const Flag* find_flag(const std::vector<Flag>& rows, const std::string& word) {
  const auto it = std::find_if(rows.begin(), rows.end(),
                               [&word](const Flag& row) { return word == row.name; });
  return it != rows.end() ? &*it : nullptr;
}

/// Walks argv once: a global row anywhere on the line, the first other
/// word names the command, then its flag rows and positionals in any
/// order. Returns the command (null when none was named) and sets
/// `complete` when every required positional was given. Setters throw
/// on values their readers reject; a word no row accepts throws
/// UsageError.
const Command* parse_argv(int argc, char** argv, const std::vector<Flag>& globals,
                          const std::vector<Command>& table, bool& complete) {
  const auto is_rest = [](const Positional& row) {
    return std::string_view(row.name).ends_with("...");
  };
  const auto accepts = [&is_rest](const Positional& row, const std::string& word) {
    if (is_rest(row)) {
      return word[0] != '-';
    }
    return row.name[0] == '<' || row.name[0] == '[' || word == row.name;
  };
  const Command* cmd = nullptr;
  std::size_t next = 0;   // the positional row the next plain word fills
  std::size_t given = 0;  // positional rows given at least one word
  for (int i = 1; i < argc; ++i) {
    const std::string word = argv[i];
    const Flag* flag = find_flag(globals, word);
    if (flag == nullptr && cmd != nullptr) {
      flag = find_flag(cmd->flags, word);
    }
    if (flag != nullptr) {
      const char* meta = flag->metavar;
      const bool optional = meta != nullptr && meta[0] == '[';
      if (meta != nullptr && !optional && i + 1 >= argc) {
        throw pftk::model::ParamError(word + " needs a value");
      }
      const bool takes =
          meta != nullptr && !(optional && (i + 1 >= argc || argv[i + 1][0] == '-'));
      flag->set(takes ? argv[++i] : nullptr);
    } else if (cmd == nullptr) {
      const auto it = std::find_if(table.begin(), table.end(),
                                   [&word](const Command& c) { return word == c.name; });
      if (it == table.end()) {
        throw UsageError{};
      }
      cmd = &*it;
    } else if (next < cmd->positionals.size() && accepts(cmd->positionals[next], word)) {
      const Positional& row = cmd->positionals[next];
      row.set(argv[i]);
      given = std::max(given, next + 1);
      next += is_rest(row) ? 0 : 1;
    } else {
      throw UsageError{"unknown " + std::string(cmd->name) + " option: " + word, cmd};
    }
  }
  if (cmd != nullptr) {
    const auto is_required = [](const Positional& row) { return row.name[0] != '['; };
    const auto required =
        std::count_if(cmd->positionals.begin(), cmd->positionals.end(), is_required);
    complete = given >= static_cast<std::size_t>(required);
  }
  return cmd;
}

void print_flags(const std::vector<Flag>& rows) {
  for (const auto& row : rows) {
    const std::string left = std::string(row.name) + (row.metavar ? " " : "") +
                             (row.metavar ? row.metavar : "");
    std::cerr << "      " << left << std::string(left.size() < 22 ? 22 - left.size() : 1, ' ')
              << row.help << "\n";
  }
}

/// The usage block, printed from the rows: one command's, or every
/// command's, then the global flags.
int usage(const std::vector<Command>& table, const std::vector<Flag>& globals,
          const Command* only = nullptr) {
  std::cerr << "usage:\n";
  for (const auto& cmd : table) {
    if (only != nullptr && only != &cmd) {
      continue;
    }
    std::cerr << "  pftk " << cmd.name;
    for (const auto& row : cmd.positionals) {
      std::cerr << " " << row.name;
    }
    std::cerr << (cmd.flags.empty() ? "" : " [options]") << "\n      ";
    for (const char* c = cmd.prose; *c != '\0'; ++c) {
      std::cerr << *c << (*c == '\n' ? "      " : "");
    }
    std::cerr << "\n";
    print_flags(cmd.flags);
  }
  std::cerr << "every command accepts:\n";
  print_flags(globals);
  return 2;
}

/// Runs `write` on the file at `path`, or on stdout when `path` is empty.
/// Returns the exit code: 1 when the file cannot be opened.
template <typename Write>
int write_json(const std::string& path, Write&& write) {
  if (path.empty()) {
    write(std::cout);
    return 0;
  }
  std::ofstream os(path);
  if (!os) {
    std::cerr << "error: cannot open " << path << " for writing\n";
    return 1;
  }
  write(os);
  std::cout << "json written to " << path << "\n";
  return 0;
}

/// Observability outputs requested on the command line.
struct ObsOptions {
  std::string metrics_out;   ///< --metrics-out FILE
  std::string trace_events;  ///< --trace-events FILE
  [[nodiscard]] bool enabled() const noexcept {
    return !metrics_out.empty() || !trace_events.empty();
  }
};

/// Mirrors a finished connection's counters into `shard`. Reads only
/// already-computed state, so it is safe after a watchdog abort too.
void record_run_metrics(const pftk::obs::StandardMetrics& met,
                        pftk::obs::MetricsShard& shard,
                        const pftk::sim::Connection& conn,
                        const pftk::obs::ConnEventTrace& etrace,
                        const pftk::obs::EventLoopStats& loop, double avg_rtt, bool tripped,
                        const pftk::trace::TraceReadReport& trace_report) {
  const auto& s = conn.sender().stats();
  shard.add(met.packets_sent, static_cast<double>(s.transmissions));
  shard.add(met.retransmissions, static_cast<double>(s.retransmissions));
  shard.add(met.td_indications, static_cast<double>(s.fast_retransmits));
  shard.add(met.timeouts, static_cast<double>(s.timeouts));
  shard.add(met.acks, static_cast<double>(s.acks_received));
  shard.add(met.dup_acks, static_cast<double>(s.dup_acks_received));
  met.record_event_loop(shard, loop);
  shard.add(met.conn_events, static_cast<double>(etrace.recorded()));
  shard.add(met.conn_events_dropped, static_cast<double>(etrace.dropped()));
  pftk::sim::FaultStats faults;
  if (const auto* f = conn.forward_link().faults()) {
    faults += f->stats();
  }
  if (const auto* f = conn.reverse_link().faults()) {
    faults += f->stats();
  }
  shard.add(met.fault_offered, static_cast<double>(faults.offered));
  shard.add(met.fault_dropped, static_cast<double>(faults.total_dropped()));
  shard.add(met.fault_duplicated, static_cast<double>(faults.duplicated));
  shard.add(met.fault_reordered, static_cast<double>(faults.reordered));
  shard.add(met.fault_delayed, static_cast<double>(faults.delayed));
  if (avg_rtt > 0.0) {
    shard.observe(met.rtt_seconds, avg_rtt);
  }
  shard.add(met.watchdog_trips, tripped ? 1.0 : 0.0);
  shard.add(met.trace_lines_dropped, static_cast<double>(trace_report.lines_dropped));
  shard.add(met.trace_bytes_dropped, static_cast<double>(trace_report.bytes_dropped));
  shard.add(met.trace_files_dirty, trace_report.clean() ? 0.0 : 1.0);
}

/// Writes the requested obs files. Notices go to stderr so stdout stays
/// byte-identical with and without the flags (CI compares them).
void export_obs_outputs(const ObsOptions& opts, const pftk::obs::ObsBundle& bundle) {
  if (!opts.metrics_out.empty()) {
    pftk::obs::save_obs_file(opts.metrics_out, bundle);
    std::cerr << "obs: metrics written to " << opts.metrics_out << "\n";
  }
  if (!opts.trace_events.empty()) {
    pftk::obs::ObsBundle events_only;
    events_only.source = bundle.source;
    events_only.events = bundle.events;
    events_only.events_dropped = bundle.events_dropped;
    pftk::obs::save_obs_file(opts.trace_events, events_only);
    std::cerr << "obs: " << events_only.events.size() << " connection events written to "
              << opts.trace_events << "\n";
  }
}

using RecordMetrics =
    std::function<void(const pftk::obs::StandardMetrics&, pftk::obs::MetricsShard&)>;

/// The obs bundle of one run: `record` fills one shard of the standard
/// metrics, and `events` (when given) adds the connection timeline.
void write_obs(const ObsOptions& opts, const char* source, const RecordMetrics& record,
               const pftk::obs::ConnEventTrace* events = nullptr) {
  pftk::obs::MetricsRegistry registry;
  const auto met = pftk::obs::StandardMetrics::register_on(registry);
  registry.freeze(1);
  record(met, registry.shard(0));
  pftk::obs::ObsBundle bundle;
  bundle.source = source;
  bundle.metrics = registry.snapshot();
  if (events != nullptr) {
    bundle.events = events->events();
    bundle.events_dropped = events->dropped();
  }
  export_obs_outputs(opts, bundle);
}

int cmd_model(const pftk::model::ModelParams& params) {
  params.validate();
  std::cout << params.describe() << "\n";
  for (const auto kind : pftk::model::all_model_kinds) {
    std::cout << "  " << pftk::model::model_name(kind) << ": "
              << pftk::model::evaluate_model(kind, params) << " pkts/s\n";
  }
  std::cout << "  throughput T(p): " << pftk::model::throughput_model_rate(params)
            << " pkts/s\n";
  if (params.p > 0.0) {
    std::cout << "  Markov (numerical): " << pftk::model::markov_model_send_rate(params)
              << " pkts/s\n";
  }
  return 0;
}

int cmd_latency(std::uint64_t d, const pftk::model::ModelParams& params) {
  const auto bd = pftk::model::short_flow_breakdown(d, params);
  std::cout << "transfer of " << d << " packets @ " << params.describe() << "\n"
            << "  slow start:    " << bd.slow_start_seconds << " s ("
            << bd.expected_slow_start_packets << " pkts)\n"
            << "  loss recovery: " << bd.loss_recovery_seconds << " s (P[loss] = "
            << bd.loss_probability << ")\n"
            << "  steady state:  " << bd.steady_state_seconds << " s\n"
            << "  total:         " << bd.total_seconds << " s\n";
  return 0;
}

int cmd_provision(double target, pftk::model::ModelParams params) {
  params.p = 0.01;  // placeholder; each inversion ignores one field
  const double max_p = pftk::model::max_loss_for_rate(params, target);
  std::cout << "target " << target << " pkts/s @ RTT " << params.rtt << " s, T0 "
            << params.t0 << " s, Wm " << params.wm << ":\n"
            << "  max tolerable loss-indication rate: " << max_p
            << (max_p == 0.0 ? "  (unreachable: ceiling Wm/RTT is below target)" : "")
            << "\n";
  for (const double p : {0.001, 0.01, 0.05}) {
    pftk::model::ModelParams probe = params;
    probe.p = p;
    const double wm = pftk::model::required_window_for_rate(probe, target);
    std::cout << "  required window at p=" << p << ": " << wm << " packets\n";
  }
  return 0;
}

int cmd_list() {
  for (const auto& profile : pftk::exp::table2_profiles()) {
    std::cout << profile.label() << "\n";
  }
  std::cout << pftk::exp::modem_profile().label() << " (modem; use the fig11 bench)\n";
  return 0;
}

/// A long simulation run in SIGINT-checkable slices. Connection::run_for
/// is resumable, so the run advances `kSliceSeconds` of simulated time at
/// a time and polls the shutdown flag between slices: long `simulate` /
/// `faultsim` runs honor the repo-wide interrupted contract (stop at an
/// event boundary, still write trace/metrics, exit 3) instead of
/// ignoring the first signal until the run completes.
struct SlicedRun {
  pftk::sim::ConnectionSummary total;
  bool interrupted = false;
};

SlicedRun run_sliced(pftk::sim::Connection& conn, double duration) {
  constexpr double kSliceSeconds = 5.0;
  SlicedRun out;
  double done = 0.0;
  while (done < duration) {
    if (pftk::robust::ShutdownGuard::stop_requested()) {
      out.interrupted = true;
      break;
    }
    const double step = std::min(kSliceSeconds, duration - done);
    const auto slice = conn.run_for(step);
    done += step;
    out.total.duration += slice.duration;
    out.total.packets_sent += slice.packets_sent;
    out.total.packets_delivered += slice.packets_delivered;
    // These come from cumulative sender/fault state; the last slice's
    // values are the run totals.
    out.total.retransmissions = slice.retransmissions;
    out.total.fast_retransmits = slice.fast_retransmits;
    out.total.timeouts = slice.timeouts;
    out.total.forward_faults = slice.forward_faults;
    out.total.reverse_faults = slice.reverse_faults;
  }
  if (out.total.duration > 0.0) {
    out.total.send_rate =
        static_cast<double>(out.total.packets_sent) / out.total.duration;
    out.total.throughput =
        static_cast<double>(out.total.packets_delivered) / out.total.duration;
  }
  return out;
}

/// What `simulate` and `faultsim` run: one seeded connection over a
/// Table-2 path, captured the way the paper's tcpdump runs were.
struct Capture {
  std::string sender;
  pftk::exp::PathProfile profile;
  double seconds = 0.0;
  /// faultsim's schedule; a run with one also arms the watchdog and
  /// re-reads its trace file to catch a torn write.
  std::optional<pftk::sim::FaultSchedule> faults;
  std::uint64_t seed = 1998;
  std::string trace_path;
};

using ReportRun =
    std::function<void(const pftk::sim::ConnectionSummary&, const pftk::trace::TraceSummary&)>;

/// Runs a capture: the connection, the trace recorder, the sliced run,
/// the trace file and the obs files. It prints the header line before
/// the run and leaves the result lines to `report`. Returns the run, or
/// nothing when the watchdog tripped (reported on stderr).
std::optional<SlicedRun> run_capture(const Capture& c, const ObsOptions& obs,
                                     const char* source, const ReportRun& report) {
  // First SIGINT/SIGTERM stops at the next slice boundary (partial
  // results + trace/metrics still written, exit 3); second hard-exits.
  pftk::robust::ShutdownGuard shutdown(/*hard_exit_code=*/130);

  auto config = pftk::exp::make_connection_config(c.profile, c.seed);
  if (c.faults) {
    config.forward_faults = *c.faults;
  }
  pftk::sim::Connection conn(config);
  if (c.faults) {
    conn.enable_watchdog();
  }
  pftk::trace::TraceRecorder recorder;
  conn.set_observer(&recorder);
  pftk::obs::ConnEventTrace etrace;
  pftk::obs::EventLoopStats loop;
  if (obs.enabled()) {
    conn.attach_observability(&etrace, &loop);
  }

  std::cout << c.profile.label() << ", " << c.seconds << " s, seed " << c.seed << "\n";
  if (c.faults) {
    std::cout << "  schedule: " << c.faults->describe() << "\n";
  }
  std::optional<SlicedRun> run;
  double avg_rtt = 0.0;
  try {
    run = run_sliced(conn, c.seconds);
    const auto row =
        pftk::trace::summarize_trace(recorder.events(), c.profile.dupack_threshold());
    avg_rtt = row.avg_rtt;
    report(run->total, row);
  } catch (const pftk::sim::WatchdogError& e) {
    run.reset();
    std::cerr << "watchdog tripped:\n" << e.snapshot().describe() << "\n";
  }

  // Trace write + verification. The immediate lenient re-read catches
  // torn writes (full disk, crashed filesystem) while the capture can
  // still be regenerated instead of at analysis time weeks later.
  pftk::trace::TraceReadReport trace_report;
  if (run && !c.trace_path.empty()) {
    pftk::trace::save_trace_file(c.trace_path, recorder.events());
    std::cout << "  trace written to " << c.trace_path << " (" << recorder.events().size()
              << " events)\n";
    if (c.faults) {
      (void)pftk::trace::load_trace_file_lenient(c.trace_path, &trace_report);
      if (!trace_report.clean()) {
        std::cerr << "warning: " << c.trace_path << ": " << trace_report.describe() << "\n";
      }
    }
  }

  if (obs.enabled()) {
    write_obs(
        obs, source,
        [&](const pftk::obs::StandardMetrics& met, pftk::obs::MetricsShard& shard) {
          record_run_metrics(met, shard, conn, etrace, loop, avg_rtt, !run, trace_report);
        },
        &etrace);
  }
  return run;
}

int cmd_simulate(const Capture& c, const ObsOptions& obs) {
  const auto run = run_capture(
      c, obs, "simulate",
      [](const pftk::sim::ConnectionSummary& run, const pftk::trace::TraceSummary& row) {
        std::cout << "  packets sent " << row.packets_sent << ", loss indications "
                  << row.loss_indications << " (p = " << pftk::exp::fmt(row.observed_p, 4)
                  << "), TD " << row.td_events << "\n"
                  << "  RTT " << pftk::exp::fmt(row.avg_rtt, 3) << " s, T0 "
                  << pftk::exp::fmt(row.avg_timeout, 3) << " s, send rate "
                  << pftk::exp::fmt(run.send_rate, 2) << " pkts/s\n";
      });
  if (run->interrupted) {
    std::cout << "interrupted: stopped after " << pftk::exp::fmt(run->total.duration, 1)
              << " of " << pftk::exp::fmt(c.seconds, 1)
              << " simulated seconds; outputs above cover the partial run\n";
    return 3;
  }
  return 0;
}

int cmd_faultsim(const Capture& c, const ObsOptions& obs, bool list_failpoints) {
  if (list_failpoints) {
    for (const auto& [name, description] :
         pftk::robust::FailpointRegistry::instance().known_sites()) {
      std::cout << name << "\t" << description << "\n";
    }
    return 0;
  }
  const auto run = run_capture(
      c, obs, "faultsim",
      [](const pftk::sim::ConnectionSummary& run, const pftk::trace::TraceSummary& row) {
        const auto& f = run.forward_faults;
        std::cout << "  packets sent " << row.packets_sent << ", loss indications "
                  << row.loss_indications << " (p = " << pftk::exp::fmt(row.observed_p, 4)
                  << "), send rate " << pftk::exp::fmt(run.send_rate, 2) << " pkts/s\n"
                  << "  faults: " << f.total_dropped() << " dropped (" << f.dropped_blackout
                  << " blackout, " << f.dropped_loss << " loss), " << f.duplicated
                  << " duplicated, " << f.reordered << " reordered, " << f.delayed
                  << " delayed, of " << f.offered << " offered\n";
      });
  if (!run) {
    return 1;
  }
  if (run->interrupted) {
    std::cout << "interrupted: partial run; outputs above cover what completed\n";
    return 3;
  }
  return 0;
}

int cmd_campaign(const std::string& spec_path,
                 pftk::exp::campaign::CampaignRunnerOptions options,
                 const ObsOptions& obs_opts) {
  // Graceful shutdown: first SIGINT/SIGTERM stops admitting items and
  // drains; the second hard-exits. The runner flushes the journal on the
  // way out, so an interrupted campaign is always resumable.
  pftk::robust::ShutdownGuard shutdown(/*hard_exit_code=*/130);
  options.stop = pftk::robust::ShutdownGuard::stop_flag();

  const auto spec = pftk::exp::campaign::CampaignSpec::parse_file(spec_path);
  pftk::exp::campaign::CampaignRunner runner(spec, options);
  const auto result = runner.run();

  std::cout << "campaign: " << result.items.size() << " items ("
            << spec.profiles.size() << " profiles x " << spec.seeds.size()
            << " seeds x " << std::max<std::size_t>(1, spec.scenarios.size())
            << " scenarios x " << std::max<std::size_t>(1, spec.models.size())
            << " models), " << options.threads << " worker(s)";
  if (result.resumed > 0) {
    std::cout << ", " << result.resumed << " replayed from journal";
  }
  std::cout << "\n\n";

  pftk::exp::TextTable t(
      {"item", "status", "tries", "packets", "rate", "predicted", "p", "rtt"});
  for (const auto& item : result.items) {
    using pftk::exp::campaign::ItemStatus;
    const char* status = item.status == ItemStatus::kOk ? "ok"
                         : item.status == ItemStatus::kNotRun ? "not run"
                         : item.status == ItemStatus::kFailedTransient
                             ? "lost (transient)"
                             : "lost (permanent)";
    if (item.ok()) {
      t.add_row({item.item.key(), status, std::to_string(item.attempts),
                 pftk::exp::fmt_u(item.metrics.packets_sent),
                 pftk::exp::fmt(item.metrics.send_rate, 2),
                 pftk::exp::fmt(item.metrics.predicted, 0),
                 pftk::exp::fmt(item.metrics.p, 4),
                 pftk::exp::fmt(item.metrics.rtt, 3)});
    } else {
      t.add_row({item.item.key(), status, std::to_string(item.attempts)});
    }
  }
  t.print(std::cout);

  std::cout << "\n" << result.report.describe() << "\n";

  if (obs_opts.enabled()) {
    pftk::obs::ObsBundle bundle;
    bundle.source = "campaign";
    bundle.metrics = result.report.metrics;
    export_obs_outputs(obs_opts, bundle);
  }

  if (result.interrupted) {
    // Dedicated exit code so supervisors can tell "stopped on request,
    // resume me" apart from "lost items". The journal was flushed and
    // contains only fully-settled records.
    std::cout << "interrupted: " << result.not_run
              << " item(s) not run; resume with --resume\n";
    if (!result.all_ok()) {
      std::cout << result.taxonomy_summary() << "\n";
    }
    return 3;
  }
  if (!result.all_ok()) {
    std::cout << result.taxonomy_summary() << "\n";
    return 1;
  }
  return 0;
}

/// Re-executes a saved counterexample and verifies it reproduces: same
/// divergence-free run, same violated check, same end-state digest.
int explore_replay(const std::string& path) {
  const auto trace = pftk::mc::load_trace_file(path);
  pftk::mc::Explorer explorer(trace.config);
  const auto outcome = explorer.replay(trace.choices);

  std::cout << "replay: " << path << "\n  config: " << trace.config.describe()
            << "\n  choices: " << pftk::mc::encode_choices(trace.choices) << "\n";
  if (outcome.diverged) {
    std::cout << "  DIVERGED: " << outcome.message << "\n";
    return 1;
  }
  const bool check_matches = outcome.violated ? (outcome.check == trace.check)
                                              : trace.check.empty();
  const bool digest_matches = outcome.digest == trace.digest;
  if (outcome.violated) {
    std::cout << "  violation reproduced: [" << outcome.check << "] "
              << outcome.message << "\n";
  } else {
    std::cout << "  branch ran clean\n";
  }
  std::cout << "  digest: " << outcome.digest.hex()
            << (digest_matches ? " (matches trace)" : " (MISMATCH)") << "\n";
  if (!check_matches) {
    std::cout << "  check mismatch: trace recorded ["
              << (trace.check.empty() ? "<none>" : trace.check) << "]\n";
  }
  return (check_matches && digest_matches) ? 0 : 1;
}

int cmd_explore(const pftk::mc::ExploreConfig& config, const std::string& out_path,
                const std::string& replay_path, const ObsOptions& obs) {
  if (!replay_path.empty()) {
    return explore_replay(replay_path);
  }
  // Every field came from argv, so a value the explorer refuses is a
  // usage error; a --replay file's contents stay runtime failures.
  try {
    config.validate();
  } catch (const std::invalid_argument& e) {
    throw pftk::model::ParamError(e.what());
  }

  // First SIGINT/SIGTERM stops between branches (partial counts are
  // reported, exit 3); the second hard-exits with 130.
  pftk::robust::ShutdownGuard shutdown(/*hard_exit_code=*/130);

  pftk::mc::Explorer explorer(config);
  const auto result = explorer.run(pftk::robust::ShutdownGuard::stop_flag());
  const auto& st = result.stats;

  std::cout << "explore: " << config.describe() << "\n"
            << "  states " << st.states << ", branches " << st.branches
            << " (terminal " << st.terminals << ", pruned " << st.pruned
            << ", truncated " << st.truncated << "), jobs " << result.jobs << "\n"
            << "  enumeration " << (result.complete ? "complete" : "INCOMPLETE")
            << (result.interrupted ? " (interrupted)" : "") << ", violations "
            << st.violations << "\n";

  int exit_code = 0;
  if (!result.violations.empty()) {
    const auto& violation = result.violations.front();
    pftk::mc::CounterexampleTrace trace;
    trace.config = config;
    trace.choices = violation.path;
    trace.check = violation.check;
    trace.message = violation.message;
    trace.digest = violation.digest;
    pftk::mc::save_trace_file(out_path, trace);
    std::cout << "  VIOLATION [" << violation.check << "]: " << violation.message
              << "\n  counterexample written to " << out_path
              << " (replay with: pftk explore --replay " << out_path << ")\n";
    exit_code = 1;
  } else if (result.interrupted || !result.complete) {
    exit_code = 3;
  }

  if (obs.enabled()) {
    write_obs(obs, "explore",
              [&st](const pftk::obs::StandardMetrics& met, pftk::obs::MetricsShard& shard) {
                shard.add(met.mc_explored_states, static_cast<double>(st.states));
                shard.add(met.mc_pruned, static_cast<double>(st.pruned));
                shard.add(met.mc_violations, static_cast<double>(st.violations));
              });
  }
  return exit_code;
}

int cmd_chaos(const std::string& spec_path,
              const pftk::exp::campaign::ChaosOptions& options) {
  const auto spec = pftk::exp::campaign::CampaignSpec::parse_file(spec_path);
  const auto report = pftk::exp::campaign::run_chaos_matrix(spec, options);
  std::cout << pftk::exp::campaign::describe(report) << "\n";
  return report.all_ok() ? 0 : 1;
}

/// In-process selftest: start a daemon, replay a deterministic load
/// against it, drain, and cross-check both accounting identities
/// (client-side and server-side) against each other.
int serve_selftest(const pftk::serve::ServeConfig& config,
                   pftk::serve::LoadConfig load) {
  config.validate();
  pftk::serve::Server server(config);
  server.start();
  load.socket_path = config.socket_path;
  const auto report = pftk::serve::run_load(load);
  server.request_stop();
  const auto summary = server.wait();

  std::cout << "serve selftest @ " << config.socket_path << "\n"
            << "client: " << report.describe() << "\n"
            << "server: " << summary.describe() << "\n";

  bool ok = true;
  const auto check = [&ok](bool cond, const char* what) {
    if (!cond) {
      std::cout << "FAIL: " << what << "\n";
      ok = false;
    }
  };
  check(report.accounting_ok(), "client accounting identity");
  check(summary.accounting_ok(), "server accounting identity");
  check(report.protocol_errors == 0, "client saw protocol errors");
  check(report.verify_failures == 0, "served rates diverged from the library");
  check(report.lost == 0, "responses lost");
  check(report.sent == summary.requests, "client sent != server admitted");
  check(report.ok == summary.served, "client ok != server served");
  check(report.busy == summary.shed, "client busy != server shed");
  check(report.deadline == summary.deadline_missed,
        "client deadline != server deadline-missed");
  std::cout << (ok ? "selftest ok" : "selftest FAILED") << "\n";
  return ok ? 0 : 1;
}

int cmd_serve(pftk::serve::ServeConfig config, const pftk::serve::LoadConfig& load,
              bool selftest) {
  config.default_deadline_ms = load.deadline_ms;  // --deadline-ms sets both
  if (selftest) {
    return serve_selftest(config, load);
  }

  config.validate();
  // First SIGINT/SIGTERM: stop accepting, drain every admitted request,
  // flush the durable metrics snapshot, exit 3. Second signal: 130.
  pftk::robust::ShutdownGuard shutdown(/*hard_exit_code=*/130);

  pftk::serve::Server server(config);
  server.start();
  std::cout << "serve: listening on " << config.socket_path << " ("
            << config.shards << " shard(s), queue depth " << config.queue_depth
            << ", batch max " << pftk::serve::Server::kBatchMax << ")" << std::endl;
  while (!pftk::robust::ShutdownGuard::stop_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::cout << "serve: draining..." << std::endl;
  server.request_stop();
  const auto summary = server.wait();
  std::cout << summary.describe() << "\n";
  if (!summary.accounting_ok()) {
    std::cerr << "error: serve accounting identity violated\n";
    return 1;
  }
  // The daemon only ever stops on request — the documented interrupted
  // exit code is the *successful* outcome here.
  return 3;
}

/// Replays the fixed-seed request stream against a running daemon.
/// BUSY sheds are expected under overload and do not fail the run; a
/// broken identity, a protocol error, a wrong rate or a lost response
/// does.
int cmd_load(const pftk::serve::LoadConfig& load) {
  const auto report = pftk::serve::run_load(load);
  std::cout << report.describe() << "\n";
  const bool ok = report.accounting_ok() && report.protocol_errors == 0 &&
                  report.verify_failures == 0 && report.lost == 0;
  std::cout << (ok ? "load ok" : "load FAILED") << "\n";
  return ok ? 0 : 1;
}

int cmd_bench(const pftk::exp::MicroBenchConfig& config, bool gate,
              const std::optional<std::string>& json_path) {
  const auto report = pftk::exp::run_micro_bench(config);

  pftk::exp::TextTable t({"series", "median", "unit", "per second"});
  for (const auto& r : report.results) {
    t.add_row({r.name, pftk::exp::fmt(r.value, 2), r.unit,
               pftk::exp::fmt(r.per_second, 0)});
  }
  std::cout << "micro-benchmarks, mode " << report.mode << ", median of "
            << report.repeats << " interleaved pairs\n\n";
  t.print(std::cout);
  std::cout << "\n";
  int rc = 0;
  const std::string tolerance = pftk::exp::fmt(pftk::exp::kOverheadTolerance, 2) + "x";
  for (const auto& g : report.gates) {
    const std::string ratio = pftk::exp::fmt(g.ratio, 3) + "x";
    std::cout << "disarmed " << g.name << " overhead " << ratio << " (" << g.seam
              << " / " << g.baseline << ", tolerance " << tolerance << "): "
              << (g.ok() ? "ok" : (gate ? "FAIL" : "high")) << "\n";
    if (gate && !g.ok()) {
      std::cerr << "error: " << g.name << " overhead gate failed (" << ratio << " > "
                << tolerance << ")\n";
      rc = 1;
    }
  }

  if (json_path && write_json(*json_path, [&report](std::ostream& os) {
        pftk::exp::write_bench_json(os, report);
      }) != 0) {
    return 1;
  }
  return rc;
}

int cmd_obs_summarize(const std::vector<std::string>& paths,
                      const std::optional<std::string>& json_path) {
  // Several files fold into one bundle with the shard-merge semantics
  // before summarizing — counters sum, gauges max, events concatenate.
  pftk::obs::ObsBundle bundle;
  for (const auto& path : paths) {
    pftk::obs::ObsReadReport read_report;
    const auto part = pftk::obs::load_obs_file(path, &read_report);
    if (!read_report.clean()) {
      std::cerr << "warning: " << path << ": salvaged "
                << read_report.records_parsed << " of "
                << read_report.lines_total << " line(s), "
                << read_report.lines_dropped << " dropped (first error: "
                << read_report.first_error << ")\n";
    }
    pftk::obs::merge_obs_bundles(bundle, part);
  }

  const auto breakdown = pftk::obs::summarize_events(bundle.events);
  if (!json_path) {
    std::cout << pftk::obs::render_breakdown_text(breakdown, bundle.source,
                                                  bundle.events_dropped);
  } else if (write_json(*json_path, [&](std::ostream& os) {
               pftk::obs::write_breakdown_json(os, breakdown, bundle.source,
                                               bundle.events_dropped);
             }) != 0) {
    return 1;
  }
  // Events lost to ring overwrite can hide TD and TO indications alike,
  // so the split is indeterminate, the same verdict `pftk prof` gives.
  if (bundle.events_dropped > 0) {
    std::cerr << "error: " << bundle.events_dropped
              << " events dropped; the TD/TO split cannot be determined\n";
    return pftk::robust::kExitIndeterminate;
  }
  return pftk::robust::kExitOk;
}

int cmd_prof(const std::string& path, const std::optional<std::string>& json_path) {
  const auto drained = pftk::obs::flight::load_spans_file(path);
  const auto report = pftk::obs::flight::profile_spans(drained);
  if (!json_path) {
    std::cout << pftk::obs::flight::render_prof_text(report);
  } else if (write_json(*json_path, [&report](std::ostream& os) {
               pftk::obs::flight::write_prof_json(os, report);
             }) != 0) {
    return 1;
  }
  // The span-count accounting identity is a correctness contract, not a
  // report detail: a serve recording whose markers do not balance means
  // a request path bumped a counter without its marker (or vice versa).
  // A recording that overflowed its rings can neither prove nor refute
  // it, so drops make the verdict indeterminate, never OK or VIOLATED.
  if (!report.serve.present) {
    return pftk::robust::kExitOk;
  }
  switch (report.serve_verdict()) {
    case pftk::obs::flight::ServeVerdict::kOk:
      return pftk::robust::kExitOk;
    case pftk::obs::flight::ServeVerdict::kViolated:
      std::cerr << "error: serve span counts violate the accounting identity\n";
      return pftk::robust::kExitFailure;
    case pftk::obs::flight::ServeVerdict::kIndeterminate:
      break;
  }
  std::cerr << "error: " << report.dropped
            << " spans dropped; the serve identity cannot be checked "
               "(re-record with a larger --span-ring)\n";
  return pftk::robust::kExitIndeterminate;
}

int cmd_analyze(const std::string& path, int threshold) {
  const auto events = pftk::trace::load_trace_file(path);

  const auto validation = pftk::trace::validate_trace(events);
  if (!validation.ok()) {
    std::cerr << "trace has " << validation.violations.size() << " violations; first: "
              << validation.violations.front().message << " (event "
              << validation.violations.front().event_index << ")\n";
    return 1;
  }
  const auto row = pftk::trace::summarize_trace(events, threshold);
  std::cout << "events " << events.size() << ", packets " << row.packets_sent
            << ", loss indications " << row.loss_indications << " (p = "
            << pftk::exp::fmt(row.observed_p, 4) << ")\n"
            << "TD " << row.td_events << "; timeout depths";
  for (std::size_t k = 0; k < row.timeouts_by_depth.size(); ++k) {
    std::cout << " T" << k << "=" << row.timeouts_by_depth[k];
  }
  std::cout << "\nRTT " << pftk::exp::fmt(row.avg_rtt, 3) << " s, T0 "
            << pftk::exp::fmt(row.avg_timeout, 3) << " s, RTT/window corr "
            << pftk::exp::fmt(row.rtt_window_correlation, 3) << "\n";
  return 0;
}

/// Everything argv can set. Only one command runs, so commands that
/// take the same kind of value share its field.
struct Args {
  std::string trace_spans;
  std::size_t span_ring = pftk::obs::flight::Recorder::kDefaultRingCapacity;
  pftk::model::ModelParams model;
  std::uint64_t packets = 0;  ///< latency
  double rate = 0.0;          ///< provision
  Capture capture;
  ObsOptions obs;
  bool list_failpoints = false;
  std::string path;  ///< analyze's trace, a campaign/chaos spec, prof's spans
  int dupack_threshold = 3;
  pftk::exp::campaign::CampaignRunnerOptions campaign;
  pftk::exp::campaign::ChaosOptions chaos;
  pftk::mc::ExploreConfig explore;
  std::string explore_out = "counterexample.pftk-mc";
  std::string replay;
  pftk::serve::ServeConfig serve;
  pftk::serve::LoadConfig serve_load;  ///< serve --selftest's client
  bool selftest = false;
  pftk::serve::LoadConfig load;
  pftk::exp::MicroBenchConfig bench;
  bool gate = false;
  std::optional<std::string> json;
  std::vector<std::string> obs_files;
  Args() {
    chaos.work_dir = "pftk-chaos";
    serve.socket_path = pftk::serve::default_socket_path();
    serve_load.requests = 5000;
  }
};

/// The replay client's knobs, shared by `load` and `serve --selftest`.
std::vector<Flag> load_rows(pftk::serve::LoadConfig& l) {
  return {{"--requests", "N", "requests across all connections",
           [&l](const char* v) { l.requests = parse_u64(v, "--requests"); }},
          {"--connections", "N", "concurrent client connections",
           [&l](const char* v) { l.connections = parse_positive_int(v, "--connections"); }},
          {"--pipeline", "N", "max in-flight requests per connection",
           [&l](const char* v) { l.pipeline = parse_size(v, "--pipeline"); }},
          {"--deadline-ms", "F", "per-request deadline in ms (0 = none)",
           [&l](const char* v) { l.deadline_ms = parse_nonnegative(v, "--deadline-ms"); }},
          {"--seed", "N", "request-stream seed",
           [&l](const char* v) { l.seed = parse_u64(v, "--seed"); }}};
}

std::vector<Command> command_table(Args& a) {
  auto& m = a.model;
  auto& c = a.capture;
  auto& x = a.explore;
  auto& s = a.serve;
  const Positional p{"<p>", [&](const char* v) { m.p = parse_nonnegative(v, "p"); }};
  const Positional rtt{"<rtt_s>", [&](const char* v) { m.rtt = parse_positive(v, "rtt_s"); }};
  const Positional t0{"<t0_s>", [&](const char* v) { m.t0 = parse_positive(v, "t0_s"); }};
  const Positional wm{"<wm>", [&](const char* v) { m.wm = parse_positive(v, "wm"); }};
  const Positional sender{"<sender>", [&](const char* v) { c.sender = v; }};
  const Positional receiver{"<receiver>", [&](const char* v) {
                              c.profile = pftk::exp::profile_by_label(c.sender, v);
                            }};
  const Positional seconds{"<seconds>",
                           [&](const char* v) { c.seconds = parse_positive(v, "seconds"); }};
  const Positional seed{"[seed]", [&](const char* v) { c.seed = parse_u64(v, "seed"); }};
  const Positional trace_file{"[trace-file]", [&](const char* v) { c.trace_path = v; }};
  const Positional spec{"<spec-file>", [&](const char* v) { a.path = v; }};
  // --metrics-out and --trace-events, shared by every command that runs
  // a simulation or a search. Observability is passive: stdout and any
  // trace file stay byte-identical with the flags present.
  const std::vector<Flag> obs = {
      {"--metrics-out", "FILE", "write a pftk-obs/1 bundle (Prometheus text if FILE is .prom)",
       [&](const char* v) { a.obs.metrics_out = v; }},
      {"--trace-events", "FILE", "write the connection-event timeline as JSONL",
       [&](const char* v) { a.obs.trace_events = v; }}};
  const auto threads = [](int& field) {
    return Flag{"--threads", "N", "worker threads",
                [&field](const char* v) { field = parse_positive_int(v, "--threads"); }};
  };
  const auto fsync_every = [](std::uint64_t& field) {
    return Flag{"--fsync-every", "N", "fsync the journal every N records (0 = at close)",
                [&field](const char* v) { field = parse_u64(v, "--fsync-every"); }};
  };
  const auto json = [&](const char* fallback, const char* help) {
    return Flag{"--json", "[FILE]", help,
                [&a, fallback](const char* v) { a.json = v != nullptr ? v : fallback; }};
  };

  return {
      {"model",
       {p, rtt, t0, wm, {"[b]", [&](const char* v) { m.b = parse_positive_int(v, "b"); }}},
       {}, "eqs (20), (32), (33), T(p) and the Markov chain at one operating point",
       [&] { return cmd_model(m); }},
      {"latency",
       {{"<packets>", [&](const char* v) { a.packets = parse_u64(v, "packets"); }},
        p, rtt, t0, wm},
       {}, "expected latency of a short transfer (slow start, loss recovery, steady state)",
       [&] { return cmd_latency(a.packets, m); }},
      {"provision",
       {{"<rate_pps>", [&](const char* v) { a.rate = parse_positive(v, "rate_pps"); }},
        rtt, t0, wm},
       {}, "inverse model: the max loss rate, and the window each loss rate needs",
       [&] { return cmd_provision(a.rate, m); }},
      {"list", {}, {}, "the Table-2 path profiles", [] { return cmd_list(); }},
      {"simulate", {sender, receiver, seconds, seed, trace_file}, obs,
       "a seeded run over a path and its Table-2 row; the trace is `analyze`'s input",
       [&] { return cmd_simulate(c, a.obs); }},
      {"analyze",
       {{"<trace-file>", [&](const char* v) { a.path = v; }},
        {"[dupack_threshold]",
         [&](const char* v) {
           a.dupack_threshold = parse_positive_int(v, "dupack_threshold");
         }}},
       {}, "offline analysis of a capture: loss indications, TD/timeout split, RTT",
       [&] { return cmd_analyze(a.path, a.dupack_threshold); }},
      {"faultsim",
       {sender, receiver, seconds,
        {"<schedule>", [&](const char* v) { c.faults = pftk::sim::FaultSchedule::parse(v); }},
        seed, trace_file},
       obs + std::vector<Flag>{{"--list-failpoints", nullptr,
                                "list every failpoint site, one per line, and exit",
                                [&](const char*) { a.list_failpoints = true; }}},
       "a run under an impairment schedule, watchdog armed\n"
       "schedule: kind@start[+duration][#count][:rate[:magnitude]] ';'-separated\n"
       "kinds: blackout, loss, dup, reorder, delay  (e.g. blackout@120+5)",
       [&] { return cmd_faultsim(c, a.obs, a.list_failpoints); }},
      {"campaign", {spec},
       std::vector<Flag>{threads(a.campaign.threads),
                         {"--journal", "FILE", "checkpoint journal (JSONL)",
                          [&](const char* v) { a.campaign.journal_path = v; }},
                         {"--resume", nullptr, "replay the journal's settled items first",
                          [&](const char*) { a.campaign.resume = true; }},
                         fsync_every(a.campaign.fsync_every)} +
           obs,
       "supervised grid campaign (spec and journal formats: EXPERIMENTS.md);\n"
       "exits 1 with a taxonomy summary on partial loss, 3 when interrupted\n"
       "(the journal stays resumable; a second signal hard-exits with 130)",
       [&] { return cmd_campaign(a.path, a.campaign, a.obs); }},
      {"explore", {},
       std::vector<Flag>{
           {"--packets", "N", "finite transfer length",
            [&](const char* v) { x.packets = parse_u32(v, "--packets"); }},
           {"--window", "W", "advertised window Wm",
            [&](const char* v) { x.window = parse_positive(v, "--window"); }},
           {"--ack-every", "B", "receiver ACKs every B packets",
            [&](const char* v) { x.ack_every = parse_positive_int(v, "--ack-every"); }},
           {"--ack-loss", nullptr, "also branch on per-ACK loss",
            [&](const char*) { x.ack_loss = true; }},
           {"--loss-choices", "N", "loss decisions branched per branch",
            [&](const char* v) { x.loss_choices = parse_u32(v, "--loss-choices"); }},
           {"--ties", "K", "branch on the order of up to K tied events",
            [&](const char* v) {
              x.tie_width = parse_u32(v, "--ties");
              x.tie_choices = x.tie_choices == 0 ? 4 : x.tie_choices;  // default once on
            }},
           {"--tie-choices", "N", "tie decisions branched per branch (4 with --ties)",
            [&](const char* v) { x.tie_choices = parse_u32(v, "--tie-choices"); }},
           {"--faults", "SPEC", "forward-path fault schedule (faultsim's grammar)",
            [&](const char* v) { x.fault_schedule = v; }},
           {"--depth", "N", "max recorded choices per branch",
            [&](const char* v) { x.depth = parse_u32(v, "--depth"); }},
           {"--max-states", "N", "stop after N states (0 = no cap)",
            [&](const char* v) { x.max_states = parse_u64(v, "--max-states"); }},
           {"--no-prune", nullptr, "turn off visited-state pruning",
            [&](const char*) { x.prune_visited = false; }},
           {"--split-depth", "N", "frontier depth of the parallel job split",
            [&](const char* v) { x.split_depth = parse_u32(v, "--split-depth"); }},
           threads(x.threads),
           {"-j", "N", "same as --threads",
            [&](const char* v) { x.threads = parse_positive_int(v, "-j"); }},
           {"--seed", "N", "master seed",
            [&](const char* v) { x.seed = parse_u64(v, "--seed"); }},
           {"--time-cap", "S", "simulated-seconds backstop per branch",
            [&](const char* v) { x.time_cap = parse_positive(v, "--time-cap"); }},
           {"--out", "FILE", "counterexample file (default counterexample.pftk-mc)",
            [&](const char* v) { a.explore_out = v; }},
           {"--replay", "FILE", "re-run a counterexample; exit 0 iff it reproduces",
            [&](const char* v) { a.replay = v; }}} +
           obs,
       "exhaustive bounded exploration of loss/timing nondeterminism in a small\n"
       "transfer, every branch checked; exits 1 on a violation (counterexample in\n"
       "--out), 3 when interrupted or a budget cut the search",
       [&] { return cmd_explore(x, a.explore_out, a.replay, a.obs); }},
      {"chaos", {spec},
       {threads(a.chaos.threads),
        {"--dir", "DIR", "working directory (default pftk-chaos)",
         [&](const char* v) { a.chaos.work_dir = v; }},
        fsync_every(a.chaos.fsync_every),
        {"--failpoint", "SPEC", "crash case to run (repeatable; default: the journal matrix)",
         [&](const char* v) {
           pftk::robust::FailpointRegistry::instance().check_specs(v);
           a.chaos.failpoints.emplace_back(v);
         }}},
       "crash-recovery matrix: fork, crash at each journal failpoint, resume,\n"
       "and verify byte-identical convergence; exits 1 on any divergence",
       [&] { return cmd_chaos(a.path, a.chaos); }},
      {"serve", {},
       std::vector<Flag>{
           {"--socket", "PATH", "unix socket path", [&](const char* v) { s.socket_path = v; }},
           {"--shards", "N", "event loops, one thread each",
            [&](const char* v) { s.shards = parse_positive_int(v, "--shards"); }},
           {"--queue-depth", "N", "admission watermark per shard",
            [&](const char* v) { s.queue_depth = parse_size(v, "--queue-depth"); }},
           {"--max-line-bytes", "N", "request-line cap (TOOBIG beyond)",
            [&](const char* v) { s.max_line_bytes = parse_size(v, "--max-line-bytes"); }},
           {"--max-clients", "N", "concurrent connections",
            [&](const char* v) { s.max_clients = parse_size(v, "--max-clients"); }},
           {"--metrics-out", "FILE", "durable pftk-obs/1 metrics snapshot",
            [&](const char* v) { s.metrics_out = v; }},
           {"--metrics-every", "N", "flush the snapshot every N served requests",
            [&](const char* v) { s.metrics_every = parse_u64(v, "--metrics-every"); }},
           {"--slow-us", "N", "busy-wait N us per request (overload tests)",
            [&](const char* v) { s.slow_us = parse_u64(v, "--slow-us"); }},
           {"--selftest", nullptr, "serve in-process and replay a load against it",
            [&](const char*) { a.selftest = true; }},
           {"--param-sets", "N", "selftest: parameter sets the stream rotates through",
            [&](const char* v) {
              a.serve_load.param_sets = parse_positive_int(v, "--param-sets");
            }},
           {"--inverse-every", "N", "selftest: every Nth request is INVERSE",
            [&](const char* v) {
              a.serve_load.inverse_every = parse_positive_int(v, "--inverse-every");
            }}} +
           load_rows(a.serve_load),
       "throughput-prediction daemon on a unix socket (EXPERIMENTS.md): sheds with\n"
       "BUSY at the queue watermark, --deadline-ms is also the server's default,\n"
       "and SIGINT/SIGTERM drains and exits 3. --selftest checks served rates\n"
       "against the library and both accounting identities",
       [&] { return cmd_serve(s, a.serve_load, a.selftest); }},
      {"load", {{"<socket>", [&](const char* v) { a.load.socket_path = v; }}},
       load_rows(a.load),
       "replay the fixed-seed request stream against a running daemon; exits 1\n"
       "unless every response arrived well-formed and verified (BUSY is fine)",
       [&] { return cmd_load(a.load); }},
      {"bench", {},
       {{"--smoke", nullptr, "401 pairs instead of 2001",
         [&](const char*) { a.bench = pftk::exp::MicroBenchConfig::smoke(); }},
        {"--gate", nullptr, "exit 1 if a seam's median ratio exceeds 1.10x",
         [&](const char*) { a.gate = true; }},
        json("BENCH_micro.json", "write the report as JSON (default BENCH_micro.json)")},
       "times three disarmed seams (obs, failpoint, span) against their loops\n"
       "as interleaved pairs",
       [&] { return cmd_bench(a.bench, a.gate, a.json); }},
      {"obs",
       {{"summarize", [](const char*) {}},
        {"<obs-file>...", [&](const char* v) { a.obs_files.emplace_back(v); }}},
       {json("", "write the breakdown as JSON to FILE or stdout")},
       "TD/TO loss-indication breakdown of pftk-obs/1 files, merged with the\n"
       "shard-merge semantics (exit 5 when dropped events leave it indeterminate)",
       [&] { return cmd_obs_summarize(a.obs_files, a.json); }},
      {"prof", {{"<spans.jsonl>", [&](const char* v) { a.path = v; }}},
       {json("", "write the profile as JSON to FILE or stdout")},
       "self-time table of a pftk-spans/1 recording; re-checks a serve recording's\n"
       "accounting identity (exit 1 if violated, 5 if dropped spans hide it)",
       [&] { return cmd_prof(a.path, a.json); }},
  };
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  // Accepted anywhere on the line, so every command can be chaos-tested
  // and record spans with no plumbing of its own. The span file is
  // written after the command returns, so arming never touches a
  // command's stdout or data files.
  const std::vector<Flag> globals = {
      {"--failpoints", "SPEC",
       "arm \"name:after=N:action=A[:arg=K];...\" (error, short_write, enospc, delay, crash)",
       [](const char* v) {
         auto& registry = pftk::robust::FailpointRegistry::instance();
         registry.check_specs(v);  // a misspelled site is a usage error
         registry.arm_specs(v);
       }},
      {"--trace-spans", "FILE", "record spans to FILE (Chrome JSON if .json, else prof's)",
       [&](const char* v) { args.trace_spans = v; }},
      {"--span-ring", "N", "per-thread span ring, overwrite-oldest (default 65536)",
       [&](const char* v) { args.span_ring = parse_size(v, "--span-ring"); }}};
  const std::vector<Command> table = command_table(args);
  const Command* cmd = nullptr;
  bool complete = false;
  try {
    cmd = parse_argv(argc, argv, globals, table, complete);
  } catch (const UsageError& e) {
    std::cerr << e.message << (e.message.empty() ? "" : "\n");
    return usage(table, globals, e.command);
  } catch (const std::exception& e) {
    // A value argv gave that its reader (or the library parser behind
    // it) rejects is a usage error, never a runtime failure to retry.
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  if (!args.trace_spans.empty()) {
    pftk::obs::flight::Recorder::instance().arm(args.span_ring);
  } else if (args.span_ring != pftk::obs::flight::Recorder::kDefaultRingCapacity) {
    std::cerr << "error: --span-ring requires --trace-spans\n";
    return 2;
  }
  // `faultsim --list-failpoints` is the one form that needs none of its
  // command's positionals.
  if (cmd == nullptr || (!complete && !args.list_failpoints)) {
    return usage(table, globals, cmd);
  }
  // Drains the rings and writes the span file; called on every exit
  // path below (including errors — a failing command's partial
  // recording is often exactly what the user wants to see).
  const auto flush_spans = [&args, cmd](int rc) -> int {
    if (args.trace_spans.empty()) {
      return rc;
    }
    auto& recorder = pftk::obs::flight::Recorder::instance();
    recorder.disarm();
    try {
      const auto drained = recorder.drain();
      pftk::obs::flight::save_spans_file(args.trace_spans, drained,
                                         std::string("pftk ") + cmd->name);
      std::cerr << "flight recorder: " << drained.spans.size() << " span(s) from "
                << drained.threads << " thread(s) written to " << args.trace_spans
                << (drained.dropped > 0
                        ? " (" + std::to_string(drained.dropped) +
                              " overwritten; raise --span-ring)"
                        : "")
                << "\n";
    } catch (const std::exception& e) {
      std::cerr << "error: flight recorder: " << e.what() << "\n";
      return rc == 0 ? 1 : rc;
    }
    return rc;
  };
  try {
    return flush_spans(cmd->run());
  } catch (const pftk::model::ParamError& e) {
    // Bad parameter values are usage errors (exit 2), distinct from
    // runtime failures (exit 1) — supervisors retry the latter, not the
    // former.
    std::cerr << "error: " << e.what() << "\n";
    return flush_spans(2);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return flush_spans(1);
  }
}
