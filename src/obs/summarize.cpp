#include "obs/summarize.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "robust/json_line.hpp"

namespace pftk::obs {

double LossBreakdown::td_fraction() const noexcept {
  const std::uint64_t total = loss_indications();
  return total == 0 ? 0.0 : static_cast<double>(td) / static_cast<double>(total);
}

double LossBreakdown::to_fraction() const noexcept {
  const std::uint64_t total = loss_indications();
  return total == 0 ? 0.0
                    : static_cast<double>(to_sequences) / static_cast<double>(total);
}

LossBreakdown summarize_events(std::span<const ConnEvent> events) {
  LossBreakdown bd;
  int sequence_depth = 0;  // open TO sequence's deepest level, 0 = none
  double first_t = 0.0;
  double last_t = 0.0;
  bool any = false;
  const auto commit_sequence = [&bd, &sequence_depth] {
    if (sequence_depth > 0) {
      const auto idx = static_cast<std::size_t>(
          std::min(sequence_depth - 1, static_cast<int>(bd.timeouts_by_depth.size()) - 1));
      ++bd.timeouts_by_depth[idx];
      sequence_depth = 0;
    }
  };
  for (const ConnEvent& event : events) {
    if (!any) {
      first_t = event.t;
      any = true;
    }
    last_t = std::max(last_t, event.t);
    switch (event.kind) {
      case ConnEventKind::kFastRetransmit:
        ++bd.td;
        commit_sequence();  // a TD indication ends any open TO sequence
        break;
      case ConnEventKind::kRtoFire: {
        ++bd.timeout_events;
        const int level = std::max(1, static_cast<int>(event.value));
        if (level == 1) {
          commit_sequence();  // back-to-back sequences: level reset to 1
          ++bd.to_sequences;
        }
        sequence_depth = std::max(sequence_depth, level);
        bd.max_backoff_level = std::max(bd.max_backoff_level, level);
        break;
      }
      case ConnEventKind::kSlowStartEnter:
        ++bd.slow_start_entries;
        break;
      case ConnEventKind::kCongAvoidEnter:
        ++bd.cong_avoid_entries;
        commit_sequence();  // growth resumed: the TO episode is over
        break;
      case ConnEventKind::kRwndClamp:
        ++bd.rwnd_clamps;
        break;
      case ConnEventKind::kFaultDrop:
        ++bd.fault_drops;
        break;
      case ConnEventKind::kWatchdogTrip:
        ++bd.watchdog_trips;
        break;
      default:
        break;
    }
  }
  commit_sequence();
  bd.duration = any ? last_t - first_t : 0.0;
  return bd;
}

std::string render_breakdown_text(const LossBreakdown& bd, const std::string& source,
                                  std::uint64_t events_dropped) {
  std::ostringstream os;
  os << std::fixed;
  os << "loss-indication breakdown (" << source << ", " << std::setprecision(1)
     << bd.duration << " s of events)\n";
  os << "  loss indications " << bd.loss_indications() << ": TD " << bd.td;
  if (events_dropped > 0) {
    // Overwritten events can hide either kind, so the split is unknown,
    // not bounded.
    os << ", TO sequences " << bd.to_sequences << " [INDETERMINATE: " << events_dropped
       << " events dropped]\n";
  } else {
    os << " (" << std::setprecision(1) << 100.0 * bd.td_fraction() << "%), TO sequences "
       << bd.to_sequences << " (" << 100.0 * bd.to_fraction() << "%)\n";
  }
  os << "  timeout events " << bd.timeout_events << ", max backoff level "
     << bd.max_backoff_level << "; depth";
  for (std::size_t k = 0; k < bd.timeouts_by_depth.size(); ++k) {
    os << " T" << k + 1 << (k + 1 == bd.timeouts_by_depth.size() ? "+" : "") << "="
       << bd.timeouts_by_depth[k];
  }
  os << "\n  regime: " << bd.slow_start_entries << " slow-start entries, "
     << bd.cong_avoid_entries << " congestion-avoidance entries, " << bd.rwnd_clamps
     << " receiver-window clamps\n";
  if (bd.fault_drops > 0 || bd.watchdog_trips > 0) {
    os << "  injected: " << bd.fault_drops << " fault drops, " << bd.watchdog_trips
       << " watchdog trips\n";
  }
  if (events_dropped > 0) {
    os << "  warning: " << events_dropped
       << " events were overwritten in the ring before export; counts are lower "
          "bounds\n";
  }
  return os.str();
}

void write_breakdown_json(std::ostream& os, const LossBreakdown& bd,
                          const std::string& source, std::uint64_t events_dropped) {
  std::ostringstream frac;
  frac.imbue(std::locale::classic());
  frac << std::fixed << std::setprecision(6);
  if (events_dropped > 0) {
    frac << "\"td_fraction\":null,\"to_fraction\":null";
  } else {
    frac << "\"td_fraction\":" << bd.td_fraction() << ",\"to_fraction\":" << bd.to_fraction();
  }
  frac << ",\"duration_s\":" << bd.duration;
  os << "{\"schema\":\"pftk-obs/1\",\"kind\":\"summary\",\"source\":\""
     << robust::json::escape(source) << "\",\"loss_indications\":" << bd.loss_indications()
     << ",\"td\":" << bd.td
     << ",\"to_sequences\":" << bd.to_sequences
     << ",\"timeout_events\":" << bd.timeout_events
     << ",\"max_backoff_level\":" << bd.max_backoff_level << ",\"timeouts_by_depth\":[";
  for (std::size_t k = 0; k < bd.timeouts_by_depth.size(); ++k) {
    os << (k ? "," : "") << bd.timeouts_by_depth[k];
  }
  os << "]," << frac.str() << ",\"slow_start_entries\":" << bd.slow_start_entries
     << ",\"cong_avoid_entries\":" << bd.cong_avoid_entries
     << ",\"rwnd_clamps\":" << bd.rwnd_clamps << ",\"fault_drops\":" << bd.fault_drops
     << ",\"watchdog_trips\":" << bd.watchdog_trips
     << ",\"events_dropped\":" << events_dropped << "}\n";
}

}  // namespace pftk::obs
