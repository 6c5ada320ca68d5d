#include "exp/run_report.hpp"

#include <sstream>

namespace pftk::exp {

RunReport& RunReport::merge(const RunReport& other) {
  if (&other == this) {
    // Self-merge: vector self-insertion is UB under reallocation, so
    // double through a copy instead. Every additive field doubles.
    const RunReport copy = other;
    return merge(copy);
  }
  attempted += other.attempted;
  succeeded += other.succeeded;
  failures.insert(failures.end(), other.failures.begin(), other.failures.end());
  forward_faults += other.forward_faults;
  reverse_faults += other.reverse_faults;
  metrics.merge(other.metrics);
  interrupted = interrupted || other.interrupted;
  return *this;
}

std::string RunReport::describe() const {
  std::ostringstream os;
  os << succeeded << "/" << attempted << " runs ok";
  if (interrupted) {
    os << " (interrupted)";
  }
  if (!failures.empty()) {
    os << "; " << failures.size() << " failed:";
    for (const RunFailure& failure : failures) {
      os << "\n  " << failure.label << ": " << failure.error;
    }
  }
  const auto fault_line = [&os](const char* name, const sim::FaultStats& stats) {
    if (stats.offered == 0) {
      return;
    }
    os << "\n  " << name << " faults: " << stats.total_dropped() << " dropped ("
       << stats.dropped_blackout << " blackout, " << stats.dropped_loss << " loss), "
       << stats.duplicated << " duplicated, " << stats.reordered << " reordered, "
       << stats.delayed << " delayed, of " << stats.offered << " offered";
  };
  fault_line("forward", forward_faults);
  fault_line("reverse", reverse_faults);
  return os.str();
}

}  // namespace pftk::exp
