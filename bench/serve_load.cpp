// Replay load driver for a running `pftk serve` daemon.
//
//   serve_load <socket> [requests] [connections] [pipeline] [deadline_ms]
//              [seed]
//
// Sends the deterministic fixed-seed request stream (serve/load_client)
// against the socket, prints the client-side report (p50/p99 latency,
// served/shed/deadline counts), and exits 0 iff the stream survived
// intact: accounting identity holds, zero protocol errors, zero verify
// failures, zero lost responses. BUSY sheds are *expected* under
// overload and do not fail the run — the CI serve-smoke job asserts
// they are nonzero while this binary asserts they are well-formed.
#include <cstdlib>
#include <iostream>

#include "serve/load_client.hpp"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: serve_load <socket> [requests] [connections] "
                 "[pipeline] [deadline_ms] [seed]\n";
    return 2;
  }
  pftk::serve::LoadConfig config;
  config.socket_path = argv[1];
  if (argc > 2) {
    config.requests = std::strtoull(argv[2], nullptr, 10);
  }
  if (argc > 3) {
    config.connections = std::atoi(argv[3]);
  }
  if (argc > 4) {
    config.pipeline = std::strtoull(argv[4], nullptr, 10);
  }
  if (argc > 5) {
    config.deadline_ms = std::atof(argv[5]);
  }
  if (argc > 6) {
    config.seed = std::strtoull(argv[6], nullptr, 10);
  }

  try {
    const auto report = pftk::serve::run_load(config);
    std::cout << report.describe() << "\n";
    const bool ok = report.accounting_ok() && report.protocol_errors == 0 &&
                    report.verify_failures == 0 && report.lost == 0;
    std::cout << (ok ? "load ok" : "load FAILED") << "\n";
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
