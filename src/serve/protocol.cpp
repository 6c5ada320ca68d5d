#include "serve/protocol.hpp"

#include <array>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "robust/json_line.hpp"

namespace pftk::serve {

namespace {

constexpr std::array<std::pair<ErrCode, std::string_view>, 6> kErrNames{{
    {ErrCode::kBadRequest, "BADREQ"},
    {ErrCode::kTooBig, "TOOBIG"},
    {ErrCode::kBusy, "BUSY"},
    {ErrCode::kDeadlineExceeded, "DEADLINE_EXCEEDED"},
    {ErrCode::kShutdown, "SHUTDOWN"},
    {ErrCode::kInternal, "INTERNAL"},
}};

/// Splits on runs of spaces/tabs. The grammar has no quoting: values
/// (including CALIB paths) must not contain whitespace.
std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) {
      ++i;
    }
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') {
      ++i;
    }
    if (i > start) {
      out.push_back(line.substr(start, i - start));
    }
  }
  return out;
}

[[noreturn]] void bad(const std::string& id, const std::string& what) {
  throw ProtocolError(ErrCode::kBadRequest, id.empty() ? "-" : id, what);
}

/// Full-consumption strtod with typed rejection. Non-finite values are
/// refused here for every numeric field — a deadline or timeout of
/// NaN/Inf must be a BADREQ, never a silently-infinite budget (the same
/// rule ModelParams::validate applies to the model inputs).
double parse_finite(const std::string& id, std::string_view key,
                    std::string_view value) {
  if (value.empty()) {
    bad(id, "empty value for '" + std::string(key) + "'");
  }
  const std::string text(value);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || errno == ERANGE) {
    bad(id, "bad number '" + text + "' for '" + std::string(key) + "'");
  }
  if (!std::isfinite(v)) {
    bad(id, "'" + std::string(key) + "' must be finite (got " + text + ")");
  }
  return v;
}

int parse_int_field(const std::string& id, std::string_view key,
                    std::string_view value) {
  const double v = parse_finite(id, key, value);
  // Casting a double outside int's range is undefined, so range first.
  if (!(v >= std::numeric_limits<int>::min() && v <= std::numeric_limits<int>::max())) {
    bad(id, "'" + std::string(key) + "' is outside the int range (got " +
                std::string(value) + ")");
  }
  const int i = static_cast<int>(v);
  if (static_cast<double>(i) != v) {
    bad(id, "'" + std::string(key) + "' must be an integer");
  }
  return i;
}

model::ModelKind kind_from_token(const std::string& id, std::string_view token) {
  if (token == "full") {
    return model::ModelKind::kFull;
  }
  if (token == "approx") {
    return model::ModelKind::kApproximate;
  }
  if (token == "td_only") {
    return model::ModelKind::kTdOnly;
  }
  bad(id, "unknown model '" + std::string(token) +
              "' (expected full|approx|td_only)");
}

}  // namespace

std::string_view err_code_name(ErrCode code) noexcept {
  for (const auto& [c, name] : kErrNames) {
    if (c == code) {
      return name;
    }
  }
  return "INTERNAL";
}

ErrCode err_code_from_name(std::string_view name) {
  for (const auto& [c, token] : kErrNames) {
    if (token == name) {
      return c;
    }
  }
  throw std::invalid_argument("unknown error code '" + std::string(name) + "'");
}

std::string_view model_kind_token(model::ModelKind kind) noexcept {
  switch (kind) {
    case model::ModelKind::kFull:
      return "full";
    case model::ModelKind::kApproximate:
      return "approx";
    case model::ModelKind::kTdOnly:
      return "td_only";
  }
  return "full";
}

std::string recover_request_id(std::string_view prefix) {
  const auto tokens = tokenize(prefix);
  // The second token is the id — but only when a third token (or the
  // line end) proves it was fully received, which a truncated prefix
  // cannot. Accepting a half-transmitted id would mis-address the error.
  if (tokens.size() >= 3) {
    return std::string(tokens[1]);
  }
  return "-";
}

Request parse_request(std::string_view line) {
  const auto tokens = tokenize(line);
  if (tokens.empty()) {
    bad("-", "empty request");
  }
  if (tokens.size() < 2) {
    bad("-", "missing request id");
  }
  Request req;
  req.id = std::string(tokens[1]);
  const std::string_view verb = tokens[0];
  if (verb == "MODEL") {
    req.verb = Verb::kModel;
  } else if (verb == "INVERSE") {
    req.verb = Verb::kInverse;
  } else if (verb == "CALIB") {
    req.verb = Verb::kCalib;
  } else if (verb == "PING") {
    req.verb = Verb::kPing;
  } else {
    bad(req.id, "unknown verb '" + std::string(verb) + "'");
  }

  bool have_p = false;
  bool have_rtt = false;
  bool have_t0 = false;
  bool have_wm = false;
  bool have_rate = false;
  bool have_trace = false;
  for (std::size_t i = 2; i < tokens.size(); ++i) {
    const std::string_view tok = tokens[i];
    const std::size_t eq = tok.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      bad(req.id, "expected key=value, got '" + std::string(tok) + "'");
    }
    const std::string_view key = tok.substr(0, eq);
    const std::string_view value = tok.substr(eq + 1);
    if (key == "p") {
      req.params.p = parse_finite(req.id, key, value);
      have_p = true;
    } else if (key == "rtt") {
      req.params.rtt = parse_finite(req.id, key, value);
      have_rtt = true;
    } else if (key == "t0") {
      req.params.t0 = parse_finite(req.id, key, value);
      have_t0 = true;
    } else if (key == "wm") {
      req.params.wm = parse_finite(req.id, key, value);
      have_wm = true;
    } else if (key == "b") {
      req.params.b = parse_int_field(req.id, key, value);
    } else if (key == "model") {
      req.kind = kind_from_token(req.id, value);
    } else if (key == "rate") {
      req.target_rate = parse_finite(req.id, key, value);
      have_rate = true;
    } else if (key == "trace") {
      req.trace_path = std::string(value);
      have_trace = true;
    } else if (key == "dupack") {
      req.dupack_threshold = parse_int_field(req.id, key, value);
      if (req.dupack_threshold < 1) {
        bad(req.id, "'dupack' must be >= 1");
      }
    } else if (key == "deadline_ms") {
      req.deadline_ms = parse_finite(req.id, key, value);
      if (req.deadline_ms < 0.0) {
        bad(req.id, "'deadline_ms' must be >= 0");
      }
    } else {
      bad(req.id, "unknown field '" + std::string(key) + "'");
    }
  }

  try {
    switch (req.verb) {
      case Verb::kModel:
        if (!have_p || !have_rtt || !have_t0 || !have_wm) {
          bad(req.id, "MODEL requires p=, rtt=, t0=, wm=");
        }
        req.params.validate();
        break;
      case Verb::kInverse:
        if (!have_rate || !have_rtt || !have_t0 || !have_wm) {
          bad(req.id, "INVERSE requires rate=, rtt=, t0=, wm=");
        }
        if (!(req.target_rate > 0.0)) {
          bad(req.id, "'rate' must be positive");
        }
        req.params.p = 0.01;  // placeholder; the inversions ignore it
        req.params.validate();
        break;
      case Verb::kCalib:
        if (!have_trace || req.trace_path.empty()) {
          bad(req.id, "CALIB requires trace=<path>");
        }
        break;
      case Verb::kPing:
        break;
    }
  } catch (const model::ParamError& e) {
    bad(req.id, e.what());
  }
  return req;
}

std::string format_number(double v) { return robust::json::g17(v); }

std::string format_ok(
    std::string_view id,
    const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string out = "OK ";
  out += id;
  for (const auto& [key, value] : fields) {
    out += ' ';
    out += key;
    out += '=';
    out += value;
  }
  return out;
}

std::string format_err(
    std::string_view id, ErrCode code,
    const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string out = "ERR ";
  out += id;
  out += ' ';
  out += err_code_name(code);
  for (const auto& [key, value] : fields) {
    out += ' ';
    out += key;
    out += '=';
    out += value;
  }
  return out;
}

const std::string* Response::find(std::string_view key) const noexcept {
  for (const auto& [k, v] : fields) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

Response parse_response(std::string_view line) {
  const auto tokens = tokenize(line);
  if (tokens.size() < 2) {
    throw ProtocolError(ErrCode::kBadRequest, "-",
                        "malformed response '" + std::string(line) + "'");
  }
  Response resp;
  resp.id = std::string(tokens[1]);
  std::size_t fields_from = 2;
  if (tokens[0] == "OK") {
    resp.ok = true;
  } else if (tokens[0] == "ERR") {
    if (tokens.size() < 3) {
      throw ProtocolError(ErrCode::kBadRequest, resp.id,
                          "ERR response missing code");
    }
    try {
      resp.code = err_code_from_name(tokens[2]);
    } catch (const std::invalid_argument& e) {
      throw ProtocolError(ErrCode::kBadRequest, resp.id, e.what());
    }
    fields_from = 3;
  } else {
    throw ProtocolError(ErrCode::kBadRequest, resp.id,
                        "unknown response status '" + std::string(tokens[0]) + "'");
  }
  for (std::size_t i = fields_from; i < tokens.size(); ++i) {
    const std::string_view tok = tokens[i];
    const std::size_t eq = tok.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      throw ProtocolError(ErrCode::kBadRequest, resp.id,
                          "expected key=value in response, got '" +
                              std::string(tok) + "'");
    }
    resp.fields.emplace_back(std::string(tok.substr(0, eq)),
                             std::string(tok.substr(eq + 1)));
  }
  return resp;
}

}  // namespace pftk::serve
