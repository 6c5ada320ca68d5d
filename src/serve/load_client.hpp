// Deterministic replay load client for `pftk serve`.
//
// Drives the daemon with a fixed-seed request stream over N concurrent
// connections with bounded pipelining, and verifies answers against
// locally computed expectations: the expected MODEL rates are
// precomputed with evaluate_batch_p, which runs the same model kernels
// as the server, so a served rate must equal its expectation exactly.
//
// The client keeps its own accounting identity, mirror of the server's:
//
//   sent == ok + busy + deadline + errors + lost
//
// where `lost` counts requests whose response never arrived (connection
// dropped). Overload/chaos tests assert both identities and
// cross-check them (client busy == server shed, etc.).
#pragma once

#include <cstdint>
#include <string>

namespace pftk::serve {

struct LoadConfig {
  std::string socket_path;
  std::uint64_t requests = 10'000;  ///< total across all connections
  int connections = 4;
  std::uint64_t pipeline = 32;  ///< max in-flight requests per connection
  std::uint64_t seed = 1998;    ///< request-stream LCG seed
  /// Number of distinct (RTT, T0, Wm) parameter sets the stream rotates
  /// through — small keeps the server's PreparedCache hot, large forces
  /// misses.
  int param_sets = 4;
  /// Every Nth request is INVERSE instead of MODEL (0 = MODEL only).
  int inverse_every = 0;
  /// Per-request deadline_ms sent to the server (0 = none).
  double deadline_ms = 0.0;
  /// Verify OK payloads against locally computed expected rates.
  bool verify = true;
};

struct LoadReport {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t busy = 0;      ///< BUSY (shed) responses
  std::uint64_t deadline = 0;  ///< DEADLINE_EXCEEDED responses
  std::uint64_t errors = 0;    ///< BADREQ/TOOBIG/SHUTDOWN/INTERNAL responses
  std::uint64_t lost = 0;      ///< in-flight when the connection died
  std::uint64_t reconnects = 0;  ///< successful mid-stream reconnects
  std::uint64_t protocol_errors = 0;  ///< unparseable response lines
  std::uint64_t verify_failures = 0;  ///< OK payload != local expectation
  double p50_ms = 0.0;  ///< request-to-response wall latency, exact
  double p99_ms = 0.0;
  double max_ms = 0.0;
  double wall_s = 0.0;

  [[nodiscard]] bool accounting_ok() const noexcept {
    return sent == ok + busy + deadline + errors + lost;
  }
  [[nodiscard]] std::string describe() const;
};

/// Runs the load synchronously; returns when every connection finished.
/// @throws robust::IoError when the socket cannot be reached at all.
[[nodiscard]] LoadReport run_load(const LoadConfig& config);

}  // namespace pftk::serve
