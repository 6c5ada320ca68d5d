// Hot-path micro-benchmark harness — the source of BENCH_micro.json.
//
// Times the three inner loops that dominate paper-scale runs:
//   * event-queue dispatch (schedule/execute and schedule/cancel churn),
//     in ns per executed event — once bare and once with an
//     obs::EventLoopStats sink attached, so the observability layer's
//     hot-path cost is a measured ratio, not a promise;
//   * model evaluation, scalar entry points vs. the PreparedModel
//     batched fast path, in ns per evaluation over a 10k-point p grid;
//   * trace ingest, in MB/s — the mmap + chunk-parallel reader
//     (trace.parse_mmap, timed through load_trace_file_lenient on a
//     real temp file);
//   * trace formatting, in MB/s of text — format_trace over the same
//     synthetic capture (trace.format), the write path minus the disk;
//   * the `pftk serve` request path: wire-line parsing alone
//     (serve.parse) and parse -> PreparedModel-cache evaluate -> response
//     format (serve.request_path), in ns per request — what one daemon
//     worker pays per MODEL request before any socket I/O.
//
// Each benchmark runs `repeats` times and reports the best repeat (the
// standard way to suppress scheduler noise on a shared machine). The
// batched-vs-scalar comparison doubles as a numerical equivalence check:
// the report carries the max relative error over the grid and an ok flag
// against the 1e-12 contract, which `pftk bench` turns into its exit
// code so CI fails if the fast path ever drifts.
//
// The JSON schema is stable within a version ("pftk-bench-micro/2"):
// fields are only ever added, never renamed, so trajectory files from
// different commits can be diffed mechanically; removing a field bumps
// the version. See EXPERIMENTS.md, "Micro-benchmarks".
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace pftk::exp {

/// Tunables for one harness run. Defaults are the full-fidelity sizes;
/// smoke() shrinks everything for CI smoke jobs where only the schema
/// and the equivalence check matter, not the absolute numbers.
struct MicroBenchConfig {
  std::string mode = "full";           ///< recorded verbatim in the JSON
  int repeats = 5;                     ///< best-of-N timing repeats
  std::uint64_t queue_events = 2'000'000;   ///< executed events per repeat
  std::uint64_t churn_events = 500'000;     ///< executed events, cancel-heavy mix
  std::size_t model_grid_points = 10'000;   ///< p-grid size for model benches
  std::size_t trace_events = 200'000;       ///< synthetic trace records
  std::uint64_t journal_records = 1'000'000;  ///< records for failpoint bench
  std::uint64_t serve_requests = 200'000;     ///< request lines for serve benches

  /// Reduced-size configuration for CI smoke runs (~100x cheaper).
  [[nodiscard]] static MicroBenchConfig smoke();
};

/// Where the numbers came from — committed trajectory points are only
/// comparable within a host, so the header records enough to tell.
struct BenchHostInfo {
  std::string cpu_model;      ///< /proc/cpuinfo "model name" ("" if unreadable)
  unsigned cores = 0;         ///< std::thread::hardware_concurrency()
  long page_size = 0;         ///< sysconf(_SC_PAGESIZE)
};

/// Best-effort host snapshot; never throws, blanks what it cannot read.
[[nodiscard]] BenchHostInfo collect_host_info();

/// One timed series.
struct MicroBenchResult {
  std::string name;       ///< e.g. "event_queue.dispatch"
  std::string unit;       ///< "ns/event", "ns/eval" or "MB/s"
  double value = 0.0;     ///< best repeat, in `unit`
  double per_second = 0.0;  ///< derived rate (events/s, evals/s, bytes/s)
  std::uint64_t items = 0;  ///< work items timed per repeat
};

/// Everything `pftk bench --json` serializes.
struct MicroBenchReport {
  std::string mode;
  int repeats = 0;
  BenchHostInfo host;
  std::vector<MicroBenchResult> results;
  double approx_batch_speedup = 0.0;  ///< scalar ns / batched ns, eq (33)
  double full_batch_speedup = 0.0;    ///< scalar ns / batched ns, eq (32)
  double batch_max_rel_err = 0.0;     ///< max over both models' grids
  double batch_tolerance = 1e-12;
  /// True when the batched path matched the scalar path within tolerance.
  bool equivalence_ok = false;
  /// event_queue.dispatch_obs ns over event_queue.dispatch ns: what an
  /// attached EventLoopStats sink costs per dispatched event. `--gate`
  /// runs fail when this exceeds obs_overhead_tolerance.
  double obs_overhead_ratio = 0.0;
  double obs_overhead_tolerance = 1.10;
  /// journal.serialize_failpoint ns over journal.serialize ns: what the
  /// disarmed failpoint check costs per journal record on the campaign
  /// persistence path. Gated alongside the obs ratio — the chaos layer
  /// must be free when it is not injecting.
  double failpoint_overhead_ratio = 0.0;
  double failpoint_overhead_tolerance = 1.10;
  /// span.record_disarmed ns over journal.serialize ns: what a disarmed
  /// PFTK_SPAN site costs per record on the same serialization loop —
  /// the flight recorder's "one relaxed load" contract as a measured
  /// number. Gated alongside the obs and failpoint ratios. (The armed
  /// cost is reported as span.record but not gated: arming is opt-in.)
  double span_overhead_ratio = 0.0;
  double span_overhead_tolerance = 1.10;
  /// serve.request_path_supervised ns over serve.request_path ns: what a
  /// worker pays per request for living inside the supervised pool with
  /// nothing injected — one disarmed `serve.worker.crash` failpoint
  /// check plus one relaxed load of the shared degrade flag. Gated with
  /// the other disarmed-overhead ratios: self-healing must be free when
  /// no one is dying.
  double supervision_overhead_ratio = 0.0;
  double supervision_overhead_tolerance = 1.10;

  [[nodiscard]] bool obs_overhead_ok() const noexcept {
    return obs_overhead_ratio <= obs_overhead_tolerance;
  }

  [[nodiscard]] bool failpoint_overhead_ok() const noexcept {
    return failpoint_overhead_ratio <= failpoint_overhead_tolerance;
  }

  [[nodiscard]] bool span_overhead_ok() const noexcept {
    return span_overhead_ratio <= span_overhead_tolerance;
  }

  [[nodiscard]] bool supervision_overhead_ok() const noexcept {
    return supervision_overhead_ratio <= supervision_overhead_tolerance;
  }

  [[nodiscard]] const MicroBenchResult* find(const std::string& name) const noexcept;
};

/// Runs every benchmark; deterministic workloads, wall-clock timings.
[[nodiscard]] MicroBenchReport run_micro_bench(const MicroBenchConfig& config);

/// Serializes the report as schema-stable JSON ("pftk-bench-micro/2").
void write_bench_json(std::ostream& os, const MicroBenchReport& report);

}  // namespace pftk::exp
