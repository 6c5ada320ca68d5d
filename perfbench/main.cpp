// pftk_perfbench — the end-to-end benchmark (see README.md).
//
//   pftk_perfbench --workload capture|grid|serve|explore --seed N
//                  --seconds S --trace 0|1 [--work-dir DIR]
//
// Runs one fixed-seed workload against the public pftk API for about S
// seconds, checks every output, prints a human-readable report and, as
// the last line of stdout, one JSON result object. --trace 0 reports the
// end-to-end metrics; --trace 1 reruns the same work as interleaved
// untraced/traced pairs and reports the per-layer metrics. Scratch files
// (traces, journal, socket) live in DIR/<workload>-<pid>, removed at exit.
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "harness.hpp"

namespace {

int usage() {
  std::cerr << "usage: pftk_perfbench --workload capture|grid|serve|explore "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  perfbench::Options options;
  std::string work_root = ".";
  std::string trace_flag;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace_flag = value;
    } else if (flag == "--work-dir") {
      work_root = value;
    } else {
      return usage();
    }
  }
  const std::map<std::string, void (*)(perfbench::Report&)> workloads = {
      {"capture", perfbench::run_capture},
      {"grid", perfbench::run_grid},
      {"serve", perfbench::run_serve},
      {"explore", perfbench::run_explore},
  };
  const auto workload = workloads.find(options.workload);
  if (argc % 2 != 1 || workload == workloads.end() || !(options.seconds > 0.0) ||
      (trace_flag != "0" && trace_flag != "1")) {
    return usage();
  }
  options.trace = trace_flag == "1";

  // Relative scratch names keep the serve socket path short whatever the
  // checkout's location.
  const fs::path start_dir = fs::current_path();
  const fs::path work_dir = fs::absolute(work_root) /
                            (options.workload + "-" + std::to_string(::getpid()));
  fs::create_directories(work_dir);
  fs::current_path(work_dir);

  perfbench::Report report(options);
  int code = 0;
  try {
    workload->second(report);
  } catch (const std::exception& ex) {
    std::cerr << "pftk_perfbench: " << options.workload << " failed: " << ex.what()
              << "\n";
    code = 2;
  }
  fs::current_path(start_dir);
  std::error_code ec;
  fs::remove_all(work_dir, ec);
  return code != 0 ? code : report.finish();
}
