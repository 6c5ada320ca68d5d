// Fixed-seed hour traces stay byte-identical: each line of
// tests/data/table2_hour_traces.fnv re-simulates one 3600-s trace in
// process — the 24 Table-2 profiles at seeds 7 and 1998 plus one faulted
// run — and compares the packet count and the FNV-1a 64 of the bytes
// `pftk simulate` / `pftk faultsim` would write. Any change to the
// simulator's event order, arithmetic or trace format fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "exp/path_profile.hpp"
#include "sim/connection.hpp"
#include "sim/fault_injector.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_recorder.hpp"

namespace pftk {
namespace {

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

struct TraceDigest {
  std::uint64_t packets_sent = 0;
  std::uint64_t fnv = 0;
};

/// Simulates one hour the way the CLI does: `simulate` for an empty
/// schedule, `faultsim` (forward faults, default watchdog) otherwise.
TraceDigest simulate_hour(const std::string& sender, const std::string& receiver,
                          std::uint64_t seed, const std::string& faults) {
  const exp::PathProfile profile = exp::profile_by_label(sender, receiver);
  sim::ConnectionConfig config = exp::make_connection_config(profile, seed);
  if (!faults.empty()) {
    config.forward_faults = sim::FaultSchedule::parse(faults);
  }
  sim::Connection conn(config);
  if (!faults.empty()) {
    conn.enable_watchdog();
  }
  trace::TraceRecorder recorder;
  conn.set_observer(&recorder);
  const sim::ConnectionSummary run = conn.run_for(3600.0);
  return TraceDigest{run.packets_sent, fnv1a64(trace::format_trace(recorder.events()))};
}

TEST(HourTraceDigests, MatchTheCommittedTable) {
  std::ifstream in(std::string(PFTK_TEST_DATA_DIR) + "/table2_hour_traces.fnv");
  ASSERT_TRUE(in) << "missing table2_hour_traces.fnv";
  std::string line;
  int traces = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string sender;
    std::string receiver;
    std::string faults;
    std::uint64_t seed = 0;
    std::uint64_t packets = 0;
    std::string hex;
    ASSERT_TRUE(fields >> sender >> receiver >> seed >> packets >> hex) << line;
    fields >> faults;  // optional
    const TraceDigest got = simulate_hour(sender, receiver, seed, faults);
    EXPECT_EQ(got.packets_sent, packets) << line;
    EXPECT_EQ(got.fnv, std::stoull(hex, nullptr, 16)) << line;
    ++traces;
  }
  EXPECT_EQ(traces, 49);
}

}  // namespace
}  // namespace pftk
