#include "exp/campaign/campaign_journal.hpp"

#include <fstream>
#include <limits>
#include <stdexcept>

#include "robust/json_line.hpp"

namespace pftk::exp::campaign {

namespace {

using robust::json::escape;
using robust::json::g17;

/// The six FaultStats counters in journal order.
std::string fault_stats_json(const sim::FaultStats& s) {
  std::string out;
  for (const std::uint64_t v : {s.offered, s.dropped_blackout, s.dropped_loss,
                                s.duplicated, s.reordered, s.delayed}) {
    out += (out.empty() ? "[" : ",") + std::to_string(v);
  }
  return out + ']';
}

sim::FaultStats fault_stats_from(const std::vector<std::uint64_t>& v) {
  if (v.size() != 6) {
    throw std::invalid_argument("journal entry: fault-stats array needs 6 fields");
  }
  return {v[0], v[1], v[2], v[3], v[4], v[5]};
}

}  // namespace

std::string JournalEntry::to_json() const {
  std::string out = "{\"item\":" + std::to_string(index) + ",\"key\":\"" + escape(key) + '"';
  out += ",\"status\":";
  out += ok ? "\"ok\"" : "\"failed\"";
  out += ",\"attempts\":" + std::to_string(attempts);
  if (ok) {
    out += ",\"packets\":" + std::to_string(metrics.packets_sent);
    out += ",\"send_rate\":" + g17(metrics.send_rate);
    out += ",\"p\":" + g17(metrics.p);
    out += ",\"rtt\":" + g17(metrics.rtt);
    out += ",\"t0\":" + g17(metrics.t0);
    out += ",\"predicted\":" + g17(metrics.predicted);
    out += ",\"ff\":" + fault_stats_json(metrics.forward_faults);
    out += ",\"rf\":" + fault_stats_json(metrics.reverse_faults);
  } else {
    out += ",\"class\":\"";
    out += failure_class_name(failure_class);
    out += "\",\"kind\":\"";
    out += failure_kind_name(failure_kind);
    out += "\",\"error\":\"" + escape(error) + '"';
  }
  out += '}';
  return out;
}

JournalEntry JournalEntry::from_json(const std::string& line) {
  const robust::json::Object obj(line);
  JournalEntry entry;
  entry.index = obj.u64("item");
  entry.key = obj.str("key");
  const std::string status = obj.str("status");
  if (entry.key.empty() || (status != "ok" && status != "failed")) {
    throw std::invalid_argument("journal entry: needs a key and status ok|failed");
  }
  entry.ok = status == "ok";
  entry.attempts = static_cast<int>(obj.u64("attempts", std::numeric_limits<int>::max()));
  if (entry.ok) {
    // ItemMetrics' field order, which is also the journal's.
    entry.metrics = {obj.u64("packets"), obj.f64("send_rate"), obj.f64("p"), obj.f64("rtt"),
                     obj.f64("t0"), obj.f64("predicted"), fault_stats_from(obj.u64s("ff")),
                     fault_stats_from(obj.u64s("rf"))};
  } else {
    entry.failure_class = obj.str("class") == "transient" ? FailureClass::kTransient
                                                           : FailureClass::kPermanent;
    entry.failure_kind = failure_kind_from_name(obj.str("kind"));
    entry.error = obj.str("error");
  }
  return entry;
}

JournalReplay replay_journal(std::istream& in) {
  JournalReplay replay;
  std::string line;
  while (std::getline(in, line)) {
    const bool complete = !in.eof();  // getline hit '\n', not end-of-file
    if (line.empty()) {
      replay.valid_bytes += complete ? 1 : 0;
      continue;
    }
    JournalEntry entry;
    try {
      entry = JournalEntry::from_json(line);
    } catch (const std::invalid_argument&) {
      // A malformed line can only be the torn tail of a killed append;
      // everything before it is intact. Drop it and resume from here.
      replay.truncated_tail = true;
      break;
    }
    if (!complete) {
      // Parsed but missing its newline: the flush may not have covered
      // the full line. Treat as torn; the item will simply re-run.
      replay.truncated_tail = true;
      break;
    }
    if (entry.index != replay.entries.size()) {
      throw std::invalid_argument(
          "journal out of order: line " + std::to_string(replay.entries.size()) +
          " has item index " + std::to_string(entry.index));
    }
    replay.valid_bytes += line.size() + 1;
    replay.entries.push_back(std::move(entry));
  }
  return replay;
}

JournalReplay replay_journal_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return {};
  }
  return replay_journal(in);
}

}  // namespace pftk::exp::campaign
