// pftk — command-line front end to the library.
//
//   pftk model <p> <rtt_s> <t0_s> <wm> [b]         closed-form predictions
//   pftk latency <packets> <p> <rtt_s> <t0_s> <wm> short-flow latency
//   pftk provision <rate_pps> <rtt_s> <t0_s> <wm>   inverse model: max loss
//                                                   rate / required window
//   pftk list                                      path-profile catalogue
//   pftk simulate <sender> <receiver> <secs> [seed] [trace-file]
//                                                  run + Table-II row
//   pftk analyze <trace-file> [dupack_threshold]   offline trace analysis
//   pftk faultsim <sender> <receiver> <secs> <schedule> [seed] [trace-file]
//                                                  run under injected faults
//   pftk campaign <spec-file> [--threads N] [--journal FILE] [--resume]
//                                                  supervised grid campaign
//   pftk explore [options | --replay FILE]         bounded model checking:
//                                                  exhaustive loss/timing
//                                                  nondeterminism exploration
//   pftk serve [options]                           throughput-prediction daemon
//                                                  with admission control and
//                                                  load shedding (unix socket)
//   pftk serve --selftest [options]                daemon + replay load client
//                                                  in one process
//   pftk bench [--smoke] [--gate] [--json [FILE]]  disarmed-overhead gates
//   pftk obs summarize <obs-file> [--json [FILE]]  TD/TO loss-indication split
//
// simulate, faultsim, campaign, and explore additionally accept
//   --metrics-out FILE    write a pftk-obs/1 metrics+events bundle
//                         (Prometheus text when FILE ends in .prom)
//   --trace-events FILE   write the connection-event timeline as JSONL
// Observability is passive: with the flags present, stdout and any trace
// file stay byte-identical to a run without them (all obs notices go to
// stderr), and a fixed seed yields a byte-identical event stream.
//
// The simulate/analyze pair mirrors the paper's tcpdump-then-postprocess
// workflow: `simulate ... trace.tsv` writes a capture that `analyze`
// (or any external tool) can consume later. `faultsim` layers a
// declarative impairment schedule (see sim/fault_injector.hpp, e.g.
// "blackout@120+5;loss@600+60:0.05") over the path's loss process and
// runs with a watchdog armed, so pathological schedules fail with a
// diagnostic instead of hanging. `campaign` runs a declarative
// profile x seed x scenario x model grid (see exp/campaign/) on a worker
// pool with per-run deadlines, retry-with-backoff on transient failures,
// and a resumable JSONL checkpoint journal; it exits nonzero with a
// failure-taxonomy summary when items were lost. `bench` measures what
// three disarmed seams (obs sink, failpoint, span) cost their hot loops and emits schema-stable BENCH_micro.json; with --gate
// it exits nonzero if a seam costs more than 1.10x.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
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

int usage() {
  std::cerr << "usage:\n"
               "  pftk model <p> <rtt_s> <t0_s> <wm> [b]\n"
               "  pftk latency <packets> <p> <rtt_s> <t0_s> <wm>\n"
               "  pftk provision <rate_pps> <rtt_s> <t0_s> <wm>\n"
               "  pftk list\n"
               "  pftk simulate <sender> <receiver> <seconds> [seed] [trace-file]\n"
               "  pftk analyze <trace-file> [dupack_threshold]\n"
               "  pftk faultsim <sender> <receiver> <seconds> <schedule> [seed] [trace-file]\n"
               "      schedule: kind@start[+duration][#count][:rate[:magnitude]] ';'-separated\n"
               "      kinds: blackout, loss, dup, reorder, delay  (e.g. blackout@120+5)\n"
               "  pftk faultsim --list-failpoints\n"
               "      enumerate every registered failpoint site, one per line\n"
               "  pftk explore [--packets N] [--window W] [--ack-every B] [--ack-loss]\n"
               "               [--loss-choices N] [--ties K] [--tie-choices N]\n"
               "               [--faults SPEC] [--depth N] [--max-states N] [--no-prune]\n"
               "               [--split-depth N] [--threads N|-j N] [--seed N] [--time-cap S]\n"
               "               [--out FILE]\n"
               "      exhaustive bounded exploration of loss/timing nondeterminism in a\n"
               "      small finite transfer; every branch runs the live invariant\n"
               "      checker plus model-assumption checks. exits 0 on a complete clean\n"
               "      enumeration, 1 with a replayable counterexample written to --out\n"
               "      on a violation, 3 when interrupted or a budget cut the search\n"
               "  pftk explore --replay FILE\n"
               "      re-execute a recorded counterexample under strict verification;\n"
               "      exits 0 iff the trace reproduces (same checks, same end digest)\n"
               "  pftk campaign <spec-file> [--threads N] [--journal FILE] [--resume]\n"
               "                [--fsync-every N]\n"
               "      supervised grid campaign (see EXPERIMENTS.md for the spec and\n"
               "      journal formats); exits 1 with a taxonomy summary on partial\n"
               "      loss, 3 when interrupted by SIGINT/SIGTERM (journal stays\n"
               "      resumable; a second signal hard-exits with 130)\n"
               "  pftk chaos <spec-file> [--threads N] [--dir DIR] [--fsync-every N]\n"
               "             [--failpoint SPEC]...\n"
               "      crash-recovery matrix: fork, crash at each journal failpoint,\n"
               "      resume, and verify byte-identical convergence; exits 1 on any\n"
               "      divergence\n"
               "  pftk serve --socket PATH [--shards N] [--queue-depth N] [--batch-max N]\n"
               "             [--max-line-bytes N] [--max-clients N] [--deadline-ms F]\n"
               "             [--metrics-out FILE] [--metrics-every N] [--slow-us N]\n"
               "      throughput-prediction daemon on a unix socket (line protocol:\n"
               "      MODEL/INVERSE/CALIB/PING, see EXPERIMENTS.md): one process of\n"
               "      N shard loops. Sheds load with BUSY at the per-shard queue\n"
               "      watermark, enforces per-request deadlines, and on SIGINT/SIGTERM\n"
               "      drains in-flight work, flushes metrics durably, and exits 3\n"
               "      (second signal: 130)\n"
               "  pftk serve --selftest [--requests N] [--connections N] [--pipeline N]\n"
               "             [--seed N] [--param-sets N] [--inverse-every N]\n"
               "             [--slow-us N] [--queue-depth N] ...\n"
               "      in-process daemon + deterministic replay load; verifies served\n"
               "      rates against the library and both accounting identities\n"
               "  pftk bench [--smoke] [--gate] [--json [FILE]]\n"
               "      times three disarmed seams (obs, failpoint, span) against\n"
               "      their loops as interleaved pairs; --json writes\n"
               "      BENCH_micro.json (or FILE); with --gate, exits 1 if a seam's\n"
               "      median overhead ratio exceeds 1.10x\n"
               "  pftk obs summarize <obs-file>... [--json [FILE]]\n"
               "      TD/TO loss-indication breakdown of pftk-obs/1 file(s); several\n"
               "      files merge with the shard-merge semantics before summarizing\n"
               "      (exit 5 when dropped events leave the split indeterminate)\n"
               "  pftk prof <spans.jsonl> [--json [FILE]]\n"
               "      aggregate a pftk-spans/1 flight recording into an inclusive/\n"
               "      exclusive self-time table (p50/p99 per span) with a\n"
               "      parent-child rollup; for serve recordings, re-derives and\n"
               "      checks the request accounting identity from span counts\n"
               "      (exit 1 on violation, 5 when dropped spans leave it\n"
               "      indeterminate)\n"
               "\n"
               "simulate/faultsim/campaign/explore also accept --metrics-out FILE\n"
               "(pftk-obs/1 bundle; Prometheus text if FILE ends in .prom) and\n"
               "--trace-events FILE (connection-event JSONL); stdout stays\n"
               "byte-identical either way\n"
               "\n"
               "every command accepts --failpoints \"name:after=N:action=A[:arg=K];...\"\n"
               "(actions: error, short_write, enospc, delay, crash) to inject faults\n"
               "on persistence paths; disarmed failpoints are byte-invisible\n"
               "\n"
               "every command accepts --trace-spans FILE [--span-ring N] to arm the\n"
               "flight recorder: span scopes on the hot paths (serve request path,\n"
               "campaign items, mc branches, trace-ingest chunks) record into\n"
               "per-thread rings (capacity N, default 65536, overwrite-oldest) and\n"
               "drain to FILE on exit — Chrome/Perfetto trace JSON when FILE ends\n"
               "in .json, pftk-spans/1 JSONL otherwise (the `pftk prof` input).\n"
               "Disarmed span sites cost one relaxed load and are byte-invisible\n";
  return 2;
}

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

/// The value of the flag at argv[i], advancing i past it. A flag that
/// ends argv is a usage error, never silently dropped or left behind.
const char* flag_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    throw pftk::model::ParamError(std::string(argv[i]) + " needs a value");
  }
  return argv[++i];
}

/// The optional FILE of `--json [FILE]` at argv[i], advancing i past it;
/// a next word that starts with '-' is the next flag, so `fallback` is
/// returned instead. An empty path means stdout (see write_json).
std::string json_flag_path(int argc, char** argv, int& i, const char* fallback = "") {
  return i + 1 < argc && argv[i + 1][0] != '-' ? argv[++i] : fallback;
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

/// Pulls --metrics-out/--trace-events out of argv in place (compacting
/// the remainder) so the positional grammars stay untouched.
ObsOptions extract_obs_flags(int& argc, char** argv) {
  ObsOptions opts;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--metrics-out") {
      opts.metrics_out = flag_value(argc, argv, i);
    } else if (arg == "--trace-events") {
      opts.trace_events = flag_value(argc, argv, i);
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return opts;
}

/// Mirrors a finished connection's counters into `shard`. Reads only
/// already-computed state, so it is safe after a watchdog abort too.
void record_run_metrics(const pftk::obs::StandardMetrics& met,
                        pftk::obs::MetricsShard& shard,
                        const pftk::sim::Connection& conn,
                        const pftk::obs::ConnEventTrace& etrace,
                        const pftk::obs::EventLoopStats& loop, double avg_rtt) {
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

int cmd_model(int argc, char** argv) {
  if (argc < 6) {
    return usage();
  }
  pftk::model::ModelParams params;
  params.p = parse_nonnegative(argv[2], "p");
  params.rtt = parse_positive(argv[3], "rtt_s");
  params.t0 = parse_positive(argv[4], "t0_s");
  params.wm = parse_positive(argv[5], "wm");
  params.b = argc > 6 ? parse_positive_int(argv[6], "b") : 2;
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

int cmd_latency(int argc, char** argv) {
  if (argc < 7) {
    return usage();
  }
  const std::uint64_t d = parse_u64(argv[2], "packets");
  pftk::model::ModelParams params;
  params.p = parse_nonnegative(argv[3], "p");
  params.rtt = parse_positive(argv[4], "rtt_s");
  params.t0 = parse_positive(argv[5], "t0_s");
  params.wm = parse_positive(argv[6], "wm");
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

int cmd_provision(int argc, char** argv) {
  if (argc < 6) {
    return usage();
  }
  const double target = parse_positive(argv[2], "rate_pps");
  pftk::model::ModelParams params;
  params.rtt = parse_positive(argv[3], "rtt_s");
  params.t0 = parse_positive(argv[4], "t0_s");
  params.wm = parse_positive(argv[5], "wm");
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

int cmd_simulate(int argc, char** argv) {
  const ObsOptions obs_opts = extract_obs_flags(argc, argv);
  if (argc < 5) {
    return usage();
  }
  const auto profile = pftk::exp::profile_by_label(argv[2], argv[3]);
  const double duration = parse_positive(argv[4], "seconds");
  const std::uint64_t seed = argc > 5 ? parse_u64(argv[5], "seed") : 1998;
  const std::string trace_path = argc > 6 ? argv[6] : "";

  // First SIGINT/SIGTERM stops at the next slice boundary (partial
  // results + trace/metrics still written, exit 3); second hard-exits.
  pftk::robust::ShutdownGuard shutdown(/*hard_exit_code=*/130);

  pftk::sim::Connection conn(pftk::exp::make_connection_config(profile, seed));
  pftk::trace::TraceRecorder recorder;
  conn.set_observer(&recorder);
  pftk::obs::ConnEventTrace etrace;
  pftk::obs::EventLoopStats loop;
  if (obs_opts.enabled()) {
    conn.attach_observability(&etrace, &loop);
  }
  const auto sliced = run_sliced(conn, duration);
  const auto& run = sliced.total;

  auto row = pftk::trace::summarize_trace(recorder.events(), profile.dupack_threshold());
  std::cout << profile.label() << ", " << duration << " s, seed " << seed << "\n"
            << "  packets sent " << row.packets_sent << ", loss indications "
            << row.loss_indications << " (p = " << pftk::exp::fmt(row.observed_p, 4)
            << "), TD " << row.td_events << "\n"
            << "  RTT " << pftk::exp::fmt(row.avg_rtt, 3) << " s, T0 "
            << pftk::exp::fmt(row.avg_timeout, 3) << " s, send rate "
            << pftk::exp::fmt(run.send_rate, 2) << " pkts/s\n";
  if (!trace_path.empty()) {
    pftk::trace::save_trace_file(trace_path, recorder.events());
    std::cout << "  trace written to " << trace_path << " (" << recorder.events().size()
              << " events)\n";
  }
  if (obs_opts.enabled()) {
    pftk::obs::MetricsRegistry registry;
    const auto met = pftk::obs::StandardMetrics::register_on(registry);
    registry.freeze(1);
    record_run_metrics(met, registry.shard(0), conn, etrace, loop, row.avg_rtt);
    pftk::obs::ObsBundle bundle;
    bundle.source = "simulate";
    bundle.metrics = registry.snapshot();
    bundle.events = etrace.events();
    bundle.events_dropped = etrace.dropped();
    export_obs_outputs(obs_opts, bundle);
  }
  if (sliced.interrupted) {
    std::cout << "interrupted: stopped after " << pftk::exp::fmt(run.duration, 1)
              << " of " << pftk::exp::fmt(duration, 1)
              << " simulated seconds; outputs above cover the partial run\n";
    return 3;
  }
  return 0;
}

int cmd_faultsim(int argc, char** argv) {
  // Site discovery: which code paths can be chaos-tested right now.
  if (argc >= 3 && std::string(argv[2]) == "--list-failpoints") {
    for (const auto& [name, description] :
         pftk::robust::FailpointRegistry::instance().known_sites()) {
      std::cout << name << "\t" << description << "\n";
    }
    return 0;
  }
  const ObsOptions obs_opts = extract_obs_flags(argc, argv);
  if (argc < 6) {
    return usage();
  }
  const auto profile = pftk::exp::profile_by_label(argv[2], argv[3]);
  const double duration = parse_positive(argv[4], "seconds");
  const auto schedule = pftk::sim::FaultSchedule::parse(argv[5]);
  const std::uint64_t seed = argc > 6 ? parse_u64(argv[6], "seed") : 1998;
  const std::string trace_path = argc > 7 ? argv[7] : "";

  // Same interrupted contract as simulate: stop at a slice boundary,
  // still write the trace/metrics, exit 3 (second signal: 130).
  pftk::robust::ShutdownGuard shutdown(/*hard_exit_code=*/130);

  auto config = pftk::exp::make_connection_config(profile, seed);
  config.forward_faults = schedule;
  pftk::sim::Connection conn(config);
  conn.enable_watchdog();
  pftk::trace::TraceRecorder recorder;
  conn.set_observer(&recorder);
  pftk::obs::ConnEventTrace etrace;
  pftk::obs::EventLoopStats loop;
  if (obs_opts.enabled()) {
    conn.attach_observability(&etrace, &loop);
  }

  std::cout << profile.label() << ", " << duration << " s, seed " << seed
            << "\n  schedule: " << schedule.describe() << "\n";
  int exit_code = 0;
  double avg_rtt = 0.0;
  bool interrupted = false;
  try {
    const auto sliced = run_sliced(conn, duration);
    const auto& run = sliced.total;
    interrupted = sliced.interrupted;
    auto row =
        pftk::trace::summarize_trace(recorder.events(), profile.dupack_threshold());
    avg_rtt = row.avg_rtt;
    std::cout << "  packets sent " << row.packets_sent << ", loss indications "
              << row.loss_indications << " (p = " << pftk::exp::fmt(row.observed_p, 4)
              << "), send rate " << pftk::exp::fmt(run.send_rate, 2) << " pkts/s\n"
              << "  faults: " << run.forward_faults.total_dropped() << " dropped ("
              << run.forward_faults.dropped_blackout << " blackout, "
              << run.forward_faults.dropped_loss << " loss), "
              << run.forward_faults.duplicated << " duplicated, "
              << run.forward_faults.reordered << " reordered, "
              << run.forward_faults.delayed << " delayed, of "
              << run.forward_faults.offered << " offered\n";
  } catch (const pftk::sim::WatchdogError& e) {
    std::cerr << "watchdog tripped:\n" << e.snapshot().describe() << "\n";
    exit_code = 1;
  }

  // Trace write + verification. The immediate lenient re-read catches
  // torn writes (full disk, crashed filesystem) while the capture can
  // still be regenerated instead of at analysis time weeks later.
  pftk::trace::TraceReadReport trace_report;
  if (exit_code != 1 && !trace_path.empty()) {
    pftk::trace::save_trace_file(trace_path, recorder.events());
    std::cout << "  trace written to " << trace_path << " (" << recorder.events().size()
              << " events)\n";
    (void)pftk::trace::load_trace_file_lenient(trace_path, &trace_report);
    if (!trace_report.clean()) {
      std::cerr << "warning: " << trace_path << ": " << trace_report.describe() << "\n";
    }
  }

  if (obs_opts.enabled()) {
    pftk::obs::MetricsRegistry registry;
    const auto met = pftk::obs::StandardMetrics::register_on(registry);
    registry.freeze(1);
    auto& shard = registry.shard(0);
    record_run_metrics(met, shard, conn, etrace, loop, avg_rtt);
    if (exit_code != 0) {
      shard.add(met.watchdog_trips, 1.0);
    }
    shard.add(met.trace_lines_dropped, static_cast<double>(trace_report.lines_dropped));
    shard.add(met.trace_bytes_dropped, static_cast<double>(trace_report.bytes_dropped));
    if (!trace_report.clean()) {
      shard.add(met.trace_files_dirty, 1.0);
    }
    pftk::obs::ObsBundle bundle;
    bundle.source = "faultsim";
    bundle.metrics = registry.snapshot();
    bundle.events = etrace.events();
    bundle.events_dropped = etrace.dropped();
    export_obs_outputs(obs_opts, bundle);
  }
  if (exit_code == 0 && interrupted) {
    std::cout << "interrupted: partial run; outputs above cover what completed\n";
    return 3;
  }
  return exit_code;
}

int cmd_campaign(int argc, char** argv) {
  const ObsOptions obs_opts = extract_obs_flags(argc, argv);
  if (argc < 3) {
    return usage();
  }
  const std::string spec_path = argv[2];
  pftk::exp::campaign::CampaignRunnerOptions options;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads") {
      options.threads = parse_positive_int(flag_value(argc, argv, i), "--threads");
    } else if (arg == "--journal") {
      options.journal_path = flag_value(argc, argv, i);
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (arg == "--fsync-every") {
      options.fsync_every = parse_u64(flag_value(argc, argv, i), "--fsync-every");
    } else {
      std::cerr << "unknown campaign option: " << arg << "\n";
      return usage();
    }
  }

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

int cmd_explore(int argc, char** argv) {
  const ObsOptions obs_opts = extract_obs_flags(argc, argv);
  pftk::mc::ExploreConfig config;
  std::string out_path = "counterexample.pftk-mc";
  std::string replay_path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--replay") {
      replay_path = flag_value(argc, argv, i);
    } else if (arg == "--packets") {
      config.packets = parse_u32(flag_value(argc, argv, i), "--packets");
    } else if (arg == "--window") {
      config.window = parse_positive(flag_value(argc, argv, i), "--window");
    } else if (arg == "--ack-every") {
      config.ack_every = parse_positive_int(flag_value(argc, argv, i), "--ack-every");
    } else if (arg == "--ack-loss") {
      config.ack_loss = true;
    } else if (arg == "--loss-choices") {
      config.loss_choices = parse_u32(flag_value(argc, argv, i), "--loss-choices");
    } else if (arg == "--ties") {
      config.tie_width = parse_u32(flag_value(argc, argv, i), "--ties");
      if (config.tie_choices == 0) {
        config.tie_choices = 4;  // sensible default once ties are on
      }
    } else if (arg == "--tie-choices") {
      config.tie_choices = parse_u32(flag_value(argc, argv, i), "--tie-choices");
    } else if (arg == "--faults") {
      config.fault_schedule = flag_value(argc, argv, i);
    } else if (arg == "--depth") {
      config.depth = parse_u32(flag_value(argc, argv, i), "--depth");
    } else if (arg == "--max-states") {
      config.max_states = parse_u64(flag_value(argc, argv, i), "--max-states");
    } else if (arg == "--no-prune") {
      config.prune_visited = false;
    } else if (arg == "--split-depth") {
      config.split_depth = parse_u32(flag_value(argc, argv, i), "--split-depth");
    } else if (arg == "--threads" || arg == "-j") {
      config.threads = parse_positive_int(flag_value(argc, argv, i), arg.c_str());
    } else if (arg == "--seed") {
      config.seed = parse_u64(flag_value(argc, argv, i), "--seed");
    } else if (arg == "--time-cap") {
      config.time_cap = parse_positive(flag_value(argc, argv, i), "--time-cap");
    } else if (arg == "--out") {
      out_path = flag_value(argc, argv, i);
    } else {
      std::cerr << "unknown explore option: " << arg << "\n";
      return usage();
    }
  }
  if (!replay_path.empty()) {
    return explore_replay(replay_path);
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

  if (obs_opts.enabled()) {
    pftk::obs::MetricsRegistry registry;
    const auto met = pftk::obs::StandardMetrics::register_on(registry);
    registry.freeze(1);
    auto& shard = registry.shard(0);
    shard.add(met.mc_explored_states, static_cast<double>(st.states));
    shard.add(met.mc_pruned, static_cast<double>(st.pruned));
    shard.add(met.mc_violations, static_cast<double>(st.violations));
    pftk::obs::ObsBundle bundle;
    bundle.source = "explore";
    bundle.metrics = registry.snapshot();
    export_obs_outputs(obs_opts, bundle);
  }
  return exit_code;
}

int cmd_chaos(int argc, char** argv) {
  if (argc < 3) {
    return usage();
  }
  const std::string spec_path = argv[2];
  pftk::exp::campaign::ChaosOptions options;
  options.work_dir = "pftk-chaos";
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads") {
      options.threads = parse_positive_int(flag_value(argc, argv, i), "--threads");
    } else if (arg == "--dir") {
      options.work_dir = flag_value(argc, argv, i);
    } else if (arg == "--fsync-every") {
      options.fsync_every = parse_u64(flag_value(argc, argv, i), "--fsync-every");
    } else if (arg == "--failpoint") {
      options.failpoints.emplace_back(flag_value(argc, argv, i));
    } else {
      std::cerr << "unknown chaos option: " << arg << "\n";
      return usage();
    }
  }
  const auto spec = pftk::exp::campaign::CampaignSpec::parse_file(spec_path);
  const auto report = pftk::exp::campaign::run_chaos_matrix(spec, options);
  std::cout << pftk::exp::campaign::describe(report) << "\n";
  return report.all_ok() ? 0 : 1;
}

/// In-process selftest: start a daemon, replay a deterministic load
/// against it, drain, and cross-check both accounting identities
/// (client-side and server-side) against each other.
int serve_selftest(pftk::serve::ServeConfig config,
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

int cmd_serve(int argc, char** argv) {
  pftk::serve::ServeConfig config;
  config.socket_path = pftk::serve::default_socket_path();
  pftk::serve::LoadConfig load;
  load.requests = 5000;
  bool selftest = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* flag = arg.c_str();
    const auto value = [&] { return flag_value(argc, argv, i); };
    const auto size = [&] {
      return static_cast<std::size_t>(parse_positive_int(value(), flag));
    };
    if (arg == "--socket") {
      config.socket_path = value();
    } else if (arg == "--shards") {
      config.shards = parse_positive_int(value(), flag);
    } else if (arg == "--queue-depth") {
      config.queue_depth = size();
    } else if (arg == "--batch-max") {
      config.batch_max = size();
    } else if (arg == "--max-line-bytes") {
      config.max_line_bytes = size();
    } else if (arg == "--max-clients") {
      config.max_clients = size();
    } else if (arg == "--deadline-ms") {
      config.default_deadline_ms = parse_nonnegative(value(), flag);
      load.deadline_ms = config.default_deadline_ms;
    } else if (arg == "--metrics-out") {
      config.metrics_out = value();
    } else if (arg == "--metrics-every") {
      config.metrics_every = parse_u64(value(), flag);
    } else if (arg == "--slow-us") {
      config.slow_us = parse_u64(value(), flag);
    } else if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--requests") {
      load.requests = parse_u64(value(), flag);
    } else if (arg == "--connections") {
      load.connections = parse_positive_int(value(), flag);
    } else if (arg == "--pipeline") {
      load.pipeline = size();
    } else if (arg == "--seed") {
      load.seed = parse_u64(value(), flag);
    } else if (arg == "--param-sets") {
      load.param_sets = parse_positive_int(value(), flag);
    } else if (arg == "--inverse-every") {
      load.inverse_every = parse_positive_int(value(), flag);
    } else {
      std::cerr << "unknown serve option: " << arg << "\n";
      return usage();
    }
  }

  if (selftest) {
    return serve_selftest(std::move(config), std::move(load));
  }

  config.validate();
  // First SIGINT/SIGTERM: stop accepting, drain every admitted request,
  // flush the durable metrics snapshot, exit 3. Second signal: 130.
  pftk::robust::ShutdownGuard shutdown(/*hard_exit_code=*/130);

  pftk::serve::Server server(config);
  server.start();
  std::cout << "serve: listening on " << config.socket_path << " ("
            << config.shards << " shard(s), queue depth " << config.queue_depth
            << ", batch max " << config.batch_max << ")" << std::endl;
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

int cmd_bench(int argc, char** argv) {
  pftk::exp::MicroBenchConfig config;
  bool gate = false;
  std::optional<std::string> json_path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      config = pftk::exp::MicroBenchConfig::smoke();
    } else if (arg == "--gate") {
      gate = true;
    } else if (arg == "--json") {
      json_path = json_flag_path(argc, argv, i, "BENCH_micro.json");
    } else {
      std::cerr << "unknown bench option: " << arg << "\n";
      return usage();
    }
  }

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

int cmd_obs(int argc, char** argv) {
  if (argc < 4 || std::string(argv[2]) != "summarize") {
    return usage();
  }
  std::vector<std::string> paths;
  std::optional<std::string> json_path;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json_path = json_flag_path(argc, argv, i);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown obs option: " << arg << "\n";
      return usage();
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    return usage();
  }

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

int cmd_prof(int argc, char** argv) {
  if (argc < 3) {
    return usage();
  }
  const std::string path = argv[2];
  std::optional<std::string> json_path;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json_path = json_flag_path(argc, argv, i);
    } else {
      std::cerr << "unknown prof option: " << arg << "\n";
      return usage();
    }
  }

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

int cmd_analyze(int argc, char** argv) {
  if (argc < 3) {
    return usage();
  }
  const int threshold = argc > 3 ? parse_positive_int(argv[3], "dupack_threshold") : 3;
  const auto events = pftk::trace::load_trace_file(argv[2]);

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

}  // namespace

int main(int argc, char** argv) {
  // Global flags, pulled out before dispatch so every subcommand can be
  // chaos-tested (--failpoints; disarmed, a check is one relaxed atomic
  // load) and can record spans (--trace-spans, --span-ring) with zero
  // per-command plumbing. The span drain+write happens after the command
  // returns (below), so arming never touches a command's stdout or data
  // files.
  std::string trace_spans_path;
  std::size_t ring = pftk::obs::flight::Recorder::kDefaultRingCapacity;
  try {
    int out = 1;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--failpoints") {
        pftk::robust::FailpointRegistry::instance().arm_specs(flag_value(argc, argv, i));
      } else if (arg == "--trace-spans") {
        trace_spans_path = flag_value(argc, argv, i);
      } else if (arg == "--span-ring") {
        ring = static_cast<std::size_t>(
            parse_positive_int(flag_value(argc, argv, i), "--span-ring"));
      } else {
        argv[out++] = argv[i];
      }
    }
    argc = out;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  if (!trace_spans_path.empty()) {
    pftk::obs::flight::Recorder::instance().arm(ring);
  } else if (ring != pftk::obs::flight::Recorder::kDefaultRingCapacity) {
    std::cerr << "error: --span-ring requires --trace-spans\n";
    return 2;
  }
  if (argc < 2) {
    return usage();
  }
  const std::string cmd = argv[1];
  // Drains the rings and writes the span file; called on every exit
  // path below (including errors — a failing command's partial
  // recording is often exactly what the user wants to see).
  const auto flush_spans = [&trace_spans_path, &cmd](int rc) -> int {
    if (trace_spans_path.empty()) {
      return rc;
    }
    auto& recorder = pftk::obs::flight::Recorder::instance();
    recorder.disarm();
    try {
      const auto drained = recorder.drain();
      pftk::obs::flight::save_spans_file(trace_spans_path, drained,
                                         "pftk " + cmd);
      std::cerr << "flight recorder: " << drained.spans.size() << " span(s) from "
                << drained.threads << " thread(s) written to "
                << trace_spans_path
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
    if (cmd == "model") {
      return flush_spans(cmd_model(argc, argv));
    }
    if (cmd == "latency") {
      return flush_spans(cmd_latency(argc, argv));
    }
    if (cmd == "provision") {
      return flush_spans(cmd_provision(argc, argv));
    }
    if (cmd == "list") {
      return flush_spans(cmd_list());
    }
    if (cmd == "simulate") {
      return flush_spans(cmd_simulate(argc, argv));
    }
    if (cmd == "analyze") {
      return flush_spans(cmd_analyze(argc, argv));
    }
    if (cmd == "faultsim") {
      return flush_spans(cmd_faultsim(argc, argv));
    }
    if (cmd == "campaign") {
      return flush_spans(cmd_campaign(argc, argv));
    }
    if (cmd == "explore") {
      return flush_spans(cmd_explore(argc, argv));
    }
    if (cmd == "chaos") {
      return flush_spans(cmd_chaos(argc, argv));
    }
    if (cmd == "serve") {
      return flush_spans(cmd_serve(argc, argv));
    }
    if (cmd == "bench") {
      return flush_spans(cmd_bench(argc, argv));
    }
    if (cmd == "obs") {
      return flush_spans(cmd_obs(argc, argv));
    }
    if (cmd == "prof") {
      return flush_spans(cmd_prof(argc, argv));
    }
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
  return usage();
}
