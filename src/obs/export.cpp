#include "obs/export.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "robust/durable_file.hpp"
#include "robust/json_line.hpp"

namespace pftk::obs {

namespace {

using robust::json::escape;
using robust::json::g17;

const char* kind_name(MetricKind kind) noexcept {
  return kind == MetricKind::kCounter ? "counter"
         : kind == MetricKind::kGauge ? "gauge"
                                      : "histogram";
}

// ---- record writers --------------------------------------------------

void write_metric_line(std::ostream& os, const MetricValue& mv) {
  os << "{\"kind\":\"metric\",\"type\":\"" << kind_name(mv.kind) << "\",\"name\":\""
     << escape(mv.name) << "\",\"help\":\"" << escape(mv.help) << "\"";
  if (mv.kind == MetricKind::kHistogram) {
    os << ",\"bounds\":[";
    for (std::size_t i = 0; i < mv.bounds.size(); ++i) {
      os << (i ? "," : "") << g17(mv.bounds[i]);
    }
    os << "],\"buckets\":[";
    for (std::size_t i = 0; i < mv.buckets.size(); ++i) {
      os << (i ? "," : "") << mv.buckets[i];
    }
    os << "],\"count\":" << mv.count << ",\"sum\":" << g17(mv.sum)
       << ",\"rejected\":" << mv.rejected;
  } else {
    os << ",\"value\":" << g17(mv.value);
  }
  os << "}\n";
}

void write_event_line(std::ostream& os, const ConnEvent& event) {
  os << "{\"kind\":\"event\",\"t\":" << g17(event.t) << ",\"event\":\""
     << conn_event_name(event.kind) << "\",\"value\":" << g17(event.value)
     << ",\"aux\":" << g17(event.aux) << "}\n";
}

MetricValue parse_metric_line(const robust::json::Object& obj) {
  MetricValue mv;
  const std::string type = obj.str("type");
  mv.kind = type == "counter"     ? MetricKind::kCounter
            : type == "gauge"     ? MetricKind::kGauge
            : type == "histogram" ? MetricKind::kHistogram
                                  : throw std::invalid_argument(
                                        "unknown metric type '" + type + "'");
  mv.name = obj.str("name");
  mv.help = obj.str("help");
  if (mv.kind == MetricKind::kHistogram) {
    mv.bounds = obj.f64s("bounds");
    mv.buckets = obj.u64s("buckets");
    mv.count = obj.u64("count");
    mv.sum = obj.f64("sum");
    mv.rejected = obj.u64("rejected");
    if (mv.buckets.size() != mv.bounds.size() + 1) {
      throw std::invalid_argument("histogram bucket/bound count mismatch");
    }
  } else {
    mv.value = obj.f64("value");
  }
  return mv;
}

}  // namespace

void write_prometheus(std::ostream& os, const MetricsSnapshot& snapshot) {
  for (const MetricValue& mv : snapshot.metrics) {
    os << "# HELP " << mv.name << " " << mv.help << "\n"
       << "# TYPE " << mv.name << " " << kind_name(mv.kind) << "\n";
    if (mv.kind == MetricKind::kHistogram) {
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < mv.bounds.size(); ++i) {
        cumulative += mv.buckets[i];
        os << mv.name << "_bucket{le=\"" << g17(mv.bounds[i]) << "\"} "
           << cumulative << "\n";
      }
      cumulative += mv.buckets.back();
      os << mv.name << "_bucket{le=\"+Inf\"} " << cumulative << "\n"
         << mv.name << "_sum " << g17(mv.sum) << "\n"
         << mv.name << "_count " << mv.count << "\n";
      if (mv.rejected > 0) {
        os << mv.name << "_rejected " << mv.rejected << "\n";
      }
    } else {
      os << mv.name << " " << g17(mv.value) << "\n";
    }
  }
}

void write_obs_jsonl(std::ostream& os, const ObsBundle& bundle) {
  os << "{\"schema\":\"" << kObsSchema << "\",\"kind\":\"header\",\"source\":\""
     << escape(bundle.source) << "\",\"events_dropped\":" << bundle.events_dropped
     << "}\n";
  for (const MetricValue& mv : bundle.metrics.metrics) {
    write_metric_line(os, mv);
  }
  for (const ConnEvent& event : bundle.events) {
    write_event_line(os, event);
  }
}

ObsBundle read_obs_jsonl(std::istream& is, ObsReadReport* report) {
  ObsBundle bundle;
  ObsReadReport local;
  ObsReadReport& rr = report != nullptr ? *report : local;
  rr = ObsReadReport{};

  std::string line;
  bool have_header = false;
  while (std::getline(is, line)) {
    ++rr.lines_total;
    if (line.empty()) {
      continue;
    }
    try {
      const robust::json::Object obj(line);
      if (!have_header) {
        // The first non-empty line must be the header; anything else
        // means this is not an obs file at all.
        const std::string schema = obj.str("schema");
        if (schema != kObsSchema) {
          throw std::invalid_argument("unsupported obs schema '" + schema + "'");
        }
        bundle.source = obj.str("source");
        bundle.events_dropped = obj.u64("events_dropped");
        have_header = true;
        ++rr.records_parsed;
        continue;
      }
      const std::string kind = obj.str("kind");
      if (kind == "metric") {
        bundle.metrics.metrics.push_back(parse_metric_line(obj));
      } else if (kind == "event") {
        bundle.events.push_back({obj.f64("t"), conn_event_from_name(obj.str("event")),
                                 obj.f64("value"), obj.f64("aux")});
      } else {
        throw std::invalid_argument("unknown record kind '" + kind + "'");
      }
      ++rr.records_parsed;
    } catch (const std::exception& ex) {
      if (!have_header) {
        throw std::invalid_argument(std::string("not a pftk-obs/1 file: ") +
                                    ex.what());
      }
      ++rr.lines_dropped;
      if (rr.first_error.empty()) {
        rr.first_error = "line " + std::to_string(rr.lines_total) + ": " + ex.what();
      }
    }
  }
  if (!have_header) {
    throw std::invalid_argument("not a pftk-obs/1 file: no header line");
  }
  return bundle;
}

bool is_prometheus_path(const std::string& path) noexcept {
  constexpr std::string_view kSuffix = ".prom";
  return path.size() >= kSuffix.size() &&
         path.compare(path.size() - kSuffix.size(), kSuffix.size(), kSuffix) == 0;
}

void save_obs_file(const std::string& path, const ObsBundle& bundle) {
  // Serialize in memory, then durably replace the target: write-temp +
  // fsync + atomic rename. A crash (or injected export.* failpoint)
  // mid-write never leaves a half-written export behind, and every
  // write/flush/close error surfaces as robust::IoError — which the
  // campaign failure taxonomy classifies instead of dropping.
  std::ostringstream os;
  const bool prometheus = is_prometheus_path(path);
  if (prometheus) {
    write_prometheus(os, bundle.metrics);
  } else {
    write_obs_jsonl(os, bundle);
  }
  robust::atomic_write_file(
      path, os.str(), prometheus ? "export.prom.write" : "export.jsonl.write");
}

ObsBundle load_obs_file(const std::string& path, ObsReadReport* report) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::invalid_argument("cannot open " + path);
  }
  return read_obs_jsonl(is, report);
}

void merge_obs_bundles(ObsBundle& bundle, const ObsBundle& other) {
  if (bundle.source.empty()) {
    bundle.source = other.source;
  } else if (!other.source.empty() && other.source != bundle.source) {
    bundle.source += "+" + other.source;
  }
  bundle.metrics.merge(other.metrics);
  bundle.events.insert(bundle.events.end(), other.events.begin(),
                       other.events.end());
  bundle.events_dropped += other.events_dropped;
}

}  // namespace pftk::obs
