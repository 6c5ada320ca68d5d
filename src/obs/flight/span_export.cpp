#include "obs/flight/span_export.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "robust/durable_file.hpp"
#include "robust/json_line.hpp"

namespace pftk::obs::flight {

namespace {

using robust::json::escape;

/// Microseconds with ns resolution kept as a fraction — Chrome's `ts`
/// is conventionally µs, and three decimals preserve the full clock.
std::string us_from_ns(std::uint64_t ns) {
  // 1000 + the remainder always has four digits; drop the leading 1.
  return std::to_string(ns / 1000) + '.' + std::to_string(1000 + ns % 1000).substr(1);
}

}  // namespace

std::string render_chrome_json(const DrainedSpans& drained,
                               std::string_view source) {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const DrainedSpan& span : drained.spans) {
    if (!first) {
      os << ",";
    }
    first = false;
    os << "\n{\"name\":\"" << escape(span.name)
       << "\",\"cat\":\"pftk\",\"ph\":\"X\",\"ts\":" << us_from_ns(span.begin_ns)
       << ",\"dur\":" << us_from_ns(span.end_ns - span.begin_ns)
       << ",\"pid\":1,\"tid\":" << span.tid << ",\"args\":{\"arg\":" << span.arg
       << "}}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"schema\":\""
     << kSpansSchema << "\",\"source\":\"" << escape(source)
     << "\",\"spans\":" << drained.spans.size()
     << ",\"dropped\":" << drained.dropped << ",\"threads\":" << drained.threads
     << "}}\n";
  return os.str();
}

std::string render_spans_jsonl(const DrainedSpans& drained,
                               std::string_view source) {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << "{\"schema\":\"" << kSpansSchema << "\",\"kind\":\"header\",\"source\":\""
     << escape(source) << "\",\"spans\":" << drained.spans.size()
     << ",\"dropped\":" << drained.dropped << ",\"threads\":" << drained.threads
     << "}\n";
  for (const DrainedSpan& span : drained.spans) {
    os << "{\"kind\":\"span\",\"name\":\"" << escape(span.name)
       << "\",\"tid\":" << span.tid << ",\"begin_ns\":" << span.begin_ns
       << ",\"end_ns\":" << span.end_ns << ",\"arg\":" << span.arg << "}\n";
  }
  return os.str();
}

void save_spans_file(const std::string& path, const DrainedSpans& drained,
                     std::string_view source) {
  const bool chrome =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  const std::string body = chrome ? render_chrome_json(drained, source)
                                  : render_spans_jsonl(drained, source);
  robust::atomic_write_file(path, body, "flight.write");
}

DrainedSpans load_spans_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw robust::IoError("cannot open span file '" + path + "'");
  }
  DrainedSpans out;
  std::string line;
  bool saw_header = false;
  std::uint64_t declared = 0;  // the header's span count
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) {
      continue;
    }
    try {
      const robust::json::Object obj(line);
      if (!saw_header) {
        if (obj.str("schema") != kSpansSchema) {
          throw std::invalid_argument("unsupported schema");
        }
        declared = obj.u64("spans");
        out.dropped = obj.u64("dropped");
        out.threads = static_cast<std::uint32_t>(obj.u64("threads", UINT32_MAX));
        saw_header = true;
        continue;
      }
      if (obj.str("kind") != "span") {
        throw std::invalid_argument("unexpected record kind");
      }
      if (out.spans.size() == declared) {
        throw std::invalid_argument("more span lines than the header's " +
                                    std::to_string(declared));
      }
      DrainedSpan span{obj.str("name"), static_cast<std::uint32_t>(obj.u64("tid", UINT32_MAX)),
                       obj.u64("begin_ns"), obj.u64("end_ns"), obj.u64("arg")};
      if (span.end_ns < span.begin_ns) {
        throw std::invalid_argument("span ends before it begins");
      }
      out.spans.push_back(std::move(span));
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("span file '" + path + "' line " +
                                  std::to_string(lineno) + ": " + e.what());
    }
  }
  if (!saw_header) {
    throw std::invalid_argument("span file '" + path +
                                "' has no pftk-spans/1 header");
  }
  // Span lines missing against the header's count were lost after the
  // drain; they count as dropped, so no verdict is drawn from the rest.
  out.dropped += std::min(declared - out.spans.size(), UINT64_MAX - out.dropped);
  return out;
}

}  // namespace pftk::obs::flight
