// Wire grammar of the `pftk serve` prediction daemon.
//
// One request per line, one response per line, ASCII, order-free
// key=value fields after a fixed prefix — greppable from a terminal
// (`nc -U`) and trivially generated by any language:
//
//   MODEL   <id> p=<f> rtt=<f> t0=<f> wm=<f> [b=<i>] [model=full|approx|td_only]
//           [deadline_ms=<f>]
//   INVERSE <id> rate=<f> rtt=<f> t0=<f> wm=<f> [b=<i>] [deadline_ms=<f>]
//   CALIB   <id> trace=<path> [dupack=<i>] [deadline_ms=<f>]
//   PING    <id>
//
//   OK  <id> key=value ...
//   ERR <id> <CODE> [key=value ...]
//     CODEs: BADREQ, TOOBIG, BUSY (carries retry_ms=<n>),
//            DEADLINE_EXCEEDED, SHUTDOWN, INTERNAL
//
// `<id>` is an opaque client token echoed verbatim; responses to
// pipelined requests may arrive in any order, and the id is the only
// correlation key. `deadline_ms` is a *relative* budget measured from
// admission: work that would complete after it is shed, not evaluated.
//
// Parsing is strict and typed: every rejection throws ProtocolError
// carrying the response code and the offending request's id (when one
// was readable), so the server can always answer something addressable
// instead of silently dropping a line.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/model_registry.hpp"
#include "core/tcp_model_params.hpp"

namespace pftk::serve {

enum class Verb : std::uint8_t { kModel, kInverse, kCalib, kPing };

enum class ErrCode : std::uint8_t {
  kBadRequest,        ///< unparseable / invalid-parameter request
  kTooBig,            ///< request line exceeded the configured byte cap
  kBusy,              ///< shed: shard queue at its admission watermark
  kDeadlineExceeded,  ///< shed: the request's own deadline expired
  kShutdown,          ///< daemon is draining; no new work admitted
  kInternal,          ///< evaluation failed (e.g. unreadable CALIB trace)
};

/// Stable wire token ("BADREQ", "BUSY", ...).
[[nodiscard]] std::string_view err_code_name(ErrCode code) noexcept;

/// Inverse of err_code_name. @throws std::invalid_argument on unknown.
[[nodiscard]] ErrCode err_code_from_name(std::string_view name);

/// A typed request rejection: which response code to send, and to whom.
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(ErrCode code, std::string id, const std::string& what)
      : std::runtime_error(what), code_(code), id_(std::move(id)) {}

  [[nodiscard]] ErrCode code() const noexcept { return code_; }
  /// The request id the error response should address ("-" if the line
  /// was too mangled to recover one).
  [[nodiscard]] const std::string& id() const noexcept { return id_; }

 private:
  ErrCode code_;
  std::string id_;
};

/// One parsed request. Field relevance depends on the verb; unused
/// fields keep their defaults.
struct Request {
  Verb verb = Verb::kPing;
  std::string id;
  /// MODEL: p/rtt/t0/b/wm. INVERSE: rtt/t0/b/wm (p ignored).
  model::ModelParams params;
  model::ModelKind kind = model::ModelKind::kFull;  ///< MODEL only
  double target_rate = 0.0;                         ///< INVERSE, pkts/s
  std::string trace_path;                           ///< CALIB
  int dupack_threshold = 3;                         ///< CALIB
  /// Relative deadline in milliseconds from admission; 0 = none.
  double deadline_ms = 0.0;

  [[nodiscard]] bool has_deadline() const noexcept { return deadline_ms > 0.0; }
};

/// Wire token for a model kind ("full", "approx", "td_only").
[[nodiscard]] std::string_view model_kind_token(model::ModelKind kind) noexcept;

/// Parses one request line (no trailing newline).
/// @throws ProtocolError (kBadRequest) on any grammar or range problem;
/// the carried id is best-effort recovered from the line.
[[nodiscard]] Request parse_request(std::string_view line);

/// Best-effort id recovery from a (possibly truncated) request prefix:
/// the second whitespace-separated token, or "-" when absent. Used to
/// address TOOBIG rejections of lines that never completed.
[[nodiscard]] std::string recover_request_id(std::string_view prefix);

/// Response formatting. `fields` render in order as ` key=value`.
[[nodiscard]] std::string format_ok(
    std::string_view id,
    const std::vector<std::pair<std::string, std::string>>& fields);
[[nodiscard]] std::string format_err(
    std::string_view id, ErrCode code,
    const std::vector<std::pair<std::string, std::string>>& fields = {});

/// One parsed response line (the load client's half of the protocol).
struct Response {
  bool ok = false;
  std::string id;
  ErrCode code = ErrCode::kInternal;  ///< meaningful when !ok
  std::vector<std::pair<std::string, std::string>> fields;

  /// Field value by key, nullptr when absent.
  [[nodiscard]] const std::string* find(std::string_view key) const noexcept;
};

/// Parses one response line. @throws ProtocolError (kBadRequest) on a
/// malformed line — the *client's* signal of a damaged stream.
[[nodiscard]] Response parse_response(std::string_view line);

/// Renders a numeric field as "%.17g" (robust::json::g17), enough digits
/// to round-trip a double.
[[nodiscard]] std::string format_number(double v);

}  // namespace pftk::serve
