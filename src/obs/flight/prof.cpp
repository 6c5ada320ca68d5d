#include "obs/flight/prof.hpp"

#include <algorithm>
#include <iomanip>
#include <map>
#include <sstream>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "robust/json_line.hpp"

namespace pftk::obs::flight {

namespace {

std::uint64_t duration_ns(const DrainedSpan& span) noexcept {
  return span.end_ns - span.begin_ns;
}

/// Lower order statistic of a sorted sample (exact, not interpolated —
/// prof works on raw durations, unlike the bucketed serve histograms).
std::uint64_t percentile(const std::vector<std::uint64_t>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1));
  return sorted[std::min(idx, sorted.size() - 1)];
}

std::string fmt_ms(std::uint64_t ns) {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << std::fixed << std::setprecision(3)
     << static_cast<double>(ns) / 1e6;
  return os.str();
}

std::string fmt_us(std::uint64_t ns) {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << std::fixed << std::setprecision(1)
     << static_cast<double>(ns) / 1e3;
  return os.str();
}

}  // namespace

const char* serve_verdict_name(ServeVerdict verdict) noexcept {
  switch (verdict) {
    case ServeVerdict::kOk:
      return "ok";
    case ServeVerdict::kViolated:
      return "violated";
    case ServeVerdict::kIndeterminate:
      return "indeterminate";
  }
  return "indeterminate";
}

ProfReport profile_spans(const DrainedSpans& drained) {
  ProfReport report;
  report.spans = drained.spans.size();
  report.dropped = drained.dropped;
  report.threads = drained.threads;

  struct Accum {
    std::uint64_t count = 0;
    std::uint64_t inclusive_ns = 0;
    std::uint64_t child_ns = 0;
    std::vector<std::uint64_t> durations;
  };
  std::unordered_map<std::string, Accum> by_name;
  std::map<std::pair<std::string, std::string>, RollupEdge> edges;

  // The drain order (begin asc, end desc) already linearizes each
  // thread's nesting; a per-thread stack of open spans recovers the
  // parent of every span in one pass.
  struct Open {
    const DrainedSpan* span;
  };
  std::unordered_map<std::uint32_t, std::vector<Open>> stacks;

  std::uint64_t min_begin = UINT64_MAX;
  std::uint64_t max_end = 0;
  for (const DrainedSpan& span : drained.spans) {
    min_begin = std::min(min_begin, span.begin_ns);
    max_end = std::max(max_end, span.end_ns);
    const std::uint64_t dur = duration_ns(span);

    auto& stack = stacks[span.tid];
    while (!stack.empty() && stack.back().span->end_ns <= span.begin_ns) {
      stack.pop_back();
    }
    if (!stack.empty() && span.end_ns <= stack.back().span->end_ns) {
      const DrainedSpan& parent = *stack.back().span;
      by_name[parent.name].child_ns += dur;
      RollupEdge& edge = edges[{parent.name, span.name}];
      edge.parent = parent.name;
      edge.child = span.name;
      ++edge.count;
      edge.total_ns += dur;
    }
    stack.push_back(Open{&span});

    Accum& acc = by_name[span.name];
    ++acc.count;
    acc.inclusive_ns += dur;
    acc.durations.push_back(dur);
  }
  report.wall_ns = max_end >= min_begin ? max_end - min_begin : 0;

  for (auto& [name, acc] : by_name) {
    std::sort(acc.durations.begin(), acc.durations.end());
    NameStats stats;
    stats.name = name;
    stats.count = acc.count;
    stats.inclusive_ns = acc.inclusive_ns;
    stats.exclusive_ns =
        acc.inclusive_ns >= acc.child_ns ? acc.inclusive_ns - acc.child_ns : 0;
    stats.p50_ns = percentile(acc.durations, 0.50);
    stats.p99_ns = percentile(acc.durations, 0.99);
    stats.max_ns = acc.durations.empty() ? 0 : acc.durations.back();
    report.names.push_back(std::move(stats));
  }
  std::sort(report.names.begin(), report.names.end(),
            [](const NameStats& a, const NameStats& b) {
              if (a.exclusive_ns != b.exclusive_ns) {
                return a.exclusive_ns > b.exclusive_ns;
              }
              return a.name < b.name;
            });

  for (auto& [key, edge] : edges) {
    report.rollup.push_back(edge);
  }
  std::sort(report.rollup.begin(), report.rollup.end(),
            [](const RollupEdge& a, const RollupEdge& b) {
              if (a.total_ns != b.total_ns) {
                return a.total_ns > b.total_ns;
              }
              return std::tie(a.parent, a.child) < std::tie(b.parent, b.child);
            });

  const auto count_of = [&by_name](const char* name) -> std::uint64_t {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0 : it->second.count;
  };
  report.serve.requests = count_of("serve.req.admitted");
  report.serve.served = count_of("serve.req.served");
  report.serve.shed = count_of("serve.req.shed");
  report.serve.deadline_missed = count_of("serve.req.deadline_missed");
  report.serve.internal_errors = count_of("serve.req.internal");
  report.serve.present =
      report.serve.requests + report.serve.served + report.serve.shed +
          report.serve.deadline_missed + report.serve.internal_errors >
      0;
  return report;
}

std::string render_prof_text(const ProfReport& report) {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << "flight profile: " << report.spans << " spans, " << report.threads
     << " threads, " << fmt_ms(report.wall_ns) << " ms wall, " << report.dropped
     << " dropped\n";
  if (report.dropped > 0) {
    os << "  warning: " << report.dropped
       << " spans were overwritten in a ring before drain; counts are lower "
          "bounds\n";
  }
  os << "  " << std::left << std::setw(28) << "name" << std::right
     << std::setw(10) << "count" << std::setw(12) << "incl_ms" << std::setw(12)
     << "excl_ms" << std::setw(12) << "p50_us" << std::setw(12) << "p99_us"
     << std::setw(12) << "max_us" << "\n";
  for (const NameStats& stats : report.names) {
    os << "  " << std::left << std::setw(28) << stats.name << std::right
       << std::setw(10) << stats.count << std::setw(12)
       << fmt_ms(stats.inclusive_ns) << std::setw(12)
       << fmt_ms(stats.exclusive_ns) << std::setw(12) << fmt_us(stats.p50_ns)
       << std::setw(12) << fmt_us(stats.p99_ns) << std::setw(12)
       << fmt_us(stats.max_ns) << "\n";
  }
  if (!report.rollup.empty()) {
    os << "rollup (parent <- child):\n";
    for (const RollupEdge& edge : report.rollup) {
      os << "  " << edge.parent << " <- " << edge.child << ": " << edge.count
         << " spans, " << fmt_ms(edge.total_ns) << " ms\n";
    }
  }
  if (report.serve.present) {
    const ServeSpanIdentity& id = report.serve;
    os << "serve identity from spans: requests " << id.requests << " vs served "
       << id.served << " + shed " << id.shed << " + deadline_missed "
       << id.deadline_missed << " + internal " << id.internal_errors << " = "
       << id.served + id.shed + id.deadline_missed + id.internal_errors << "  [";
    switch (report.serve_verdict()) {
      case ServeVerdict::kOk:
        os << "OK";
        break;
      case ServeVerdict::kViolated:
        os << "VIOLATED";
        break;
      case ServeVerdict::kIndeterminate:
        os << "INDETERMINATE: " << report.dropped << " spans dropped";
        break;
    }
    os << "]\n";
  }
  return os.str();
}

void write_prof_json(std::ostream& os, const ProfReport& report) {
  os << "{\"schema\":\"pftk-prof/2\",\"spans\":" << report.spans
     << ",\"dropped\":" << report.dropped << ",\"threads\":" << report.threads
     << ",\"wall_ns\":" << report.wall_ns << ",\"names\":[";
  for (std::size_t i = 0; i < report.names.size(); ++i) {
    const NameStats& stats = report.names[i];
    os << (i ? "," : "") << "\n{\"name\":\"" << robust::json::escape(stats.name)
       << "\",\"count\":" << stats.count
       << ",\"inclusive_ns\":" << stats.inclusive_ns
       << ",\"exclusive_ns\":" << stats.exclusive_ns
       << ",\"p50_ns\":" << stats.p50_ns << ",\"p99_ns\":" << stats.p99_ns
       << ",\"max_ns\":" << stats.max_ns << "}";
  }
  os << "],\"rollup\":[";
  for (std::size_t i = 0; i < report.rollup.size(); ++i) {
    const RollupEdge& edge = report.rollup[i];
    os << (i ? "," : "") << "\n{\"parent\":\"" << robust::json::escape(edge.parent)
       << "\",\"child\":\"" << robust::json::escape(edge.child)
       << "\",\"count\":" << edge.count << ",\"total_ns\":" << edge.total_ns
       << "}";
  }
  os << "]";
  if (report.serve.present) {
    const ServeSpanIdentity& id = report.serve;
    os << ",\"serve_identity\":{\"requests\":" << id.requests
       << ",\"served\":" << id.served << ",\"shed\":" << id.shed
       << ",\"deadline_missed\":" << id.deadline_missed
       << ",\"internal\":" << id.internal_errors
       << ",\"verdict\":\"" << serve_verdict_name(report.serve_verdict())
       << "\"}";
  }
  os << "}\n";
}

}  // namespace pftk::obs::flight
