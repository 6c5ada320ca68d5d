// Disarmed-overhead gates — the source of BENCH_micro.json.
//
// `pftk bench` holds one contract and times nothing else (the
// end-to-end benchmark in perfbench/ times the layers inside real
// workloads): three seams that are compiled into hot loops but disarmed
// by default must each cost at most kOverheadTolerance times the loop
// without them. They are an obs::EventLoopStats sink on event-queue
// dispatch (obs), a disarmed failpoint on journal-record serialization
// (failpoint), and a disarmed PFTK_SPAN on the same loop (span).
//
// A gate times its baseline and seam loops as interleaved pairs,
// alternating which one runs first, and judges the median of the
// per-pair seam/baseline ratios. Each run lasts 0.2-1.3 ms, so the two
// runs of a pair see the same host state; host noise that slows one run
// spoils one sample, not one whole side of the comparison.
//
// The JSON schema is stable within a version ("pftk-bench-micro/4"):
// fields are only ever added, never renamed, so trajectory files from
// different commits can be diffed mechanically; removing a field bumps
// the version. See EXPERIMENTS.md, "Micro-benchmarks".
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

namespace pftk::exp {

/// Seam/baseline ratio above which a gate fails: a disarmed seam may
/// cost at most 10% of the loop it sits in.
inline constexpr double kOverheadTolerance = 1.10;

/// One harness run. The loops are the same in both modes; smoke()
/// takes fewer pairs for CI.
struct MicroBenchConfig {
  std::string mode = "full";  ///< recorded verbatim in the JSON
  int repeats = 2001;         ///< interleaved pairs per gate

  /// The CI configuration: 401 pairs per gate.
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
  std::string unit;       ///< "ns/event" or "ns/record"
  double value = 0.0;     ///< median over the gate's runs, in `unit`
  double per_second = 0.0;  ///< items per second at `value`
  std::uint64_t items = 0;  ///< work items per run
};

/// A loop one side of a gate times.
struct TimedLoop {
  std::string name;         ///< series name, e.g. "journal.serialize"
  std::string unit;         ///< per-item unit of the series
  std::uint64_t items = 0;  ///< work items one run of `body` does
  /// One run of the loop. Returns a checksum of the work so the
  /// compiler cannot drop it.
  std::function<std::uint64_t()> body;
};

/// One disarmed-overhead gate.
struct OverheadGate {
  std::string name;      ///< "obs", "failpoint" or "span"
  std::string baseline;  ///< series name of the loop without the seam
  std::string seam;      ///< series name of the same loop with the seam
  double ratio = 0.0;    ///< median of the per-pair seam/baseline ratios

  [[nodiscard]] bool ok() const noexcept { return ratio <= kOverheadTolerance; }
};

/// Runs `baseline` and `seam` back to back `pairs` times, alternating
/// which goes first, and returns the gate over the median per-pair
/// ratio. Appends both series (median per-item cost) to `results`,
/// skipping a name already there.
[[nodiscard]] OverheadGate measure_gate(std::string name, int pairs,
                                        const TimedLoop& baseline,
                                        const TimedLoop& seam,
                                        std::vector<MicroBenchResult>& results);

/// Everything `pftk bench --json` serializes.
struct MicroBenchReport {
  std::string mode;
  int repeats = 0;  ///< interleaved pairs per gate
  BenchHostInfo host;
  std::vector<MicroBenchResult> results;  ///< the gates' series, in gate order
  std::vector<OverheadGate> gates;        ///< obs, failpoint, span
};

/// Measures the three gates. The span gate always measures a disarmed
/// recorder; an armed caller's recorder is armed again afterwards.
[[nodiscard]] MicroBenchReport run_micro_bench(const MicroBenchConfig& config);

/// Serializes the report as schema-stable JSON ("pftk-bench-micro/4").
void write_bench_json(std::ostream& os, const MicroBenchReport& report);

}  // namespace pftk::exp
