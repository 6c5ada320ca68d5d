#include "serve/load_client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/batch_eval.hpp"
#include "robust/durable_file.hpp"
#include "serve/protocol.hpp"

namespace pftk::serve {
namespace {

using Clock = std::chrono::steady_clock;

/// When a connection dies mid-stream (server crash or restart), requests
/// still in flight are counted `lost` and the connection reconnects with
/// this many attempts per death, so a fixed-seed run keeps its accounting
/// identity exact across a restart instead of abandoning the unsent tail.
constexpr int kReconnectAttempts = 8;
/// First reconnect backoff; doubles per failed attempt, capped at 1 s.
constexpr double kReconnectBackoffMs = 25.0;

/// Deterministic 64-bit LCG (same constants as the sim layer's PRNGs).
struct Lcg {
  std::uint64_t state;
  explicit Lcg(std::uint64_t seed) : state(seed * 2862933555777941757ULL + 1) {}
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 11;
  }
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) *
                    (static_cast<double>(next() & ((1ULL << 40) - 1)) /
                     static_cast<double>(1ULL << 40));
  }
};

/// One scripted request and its locally computed expectation.
struct Scripted {
  std::string line;        ///< wire form, no newline
  std::string id;
  bool is_inverse = false;
  double expected_rate = 0.0;  ///< MODEL only, filled by evaluate_batch_p
  std::size_t param_set = 0;
  double p = 0.0;
};

struct ParamSet {
  model::ModelParams params;
  model::ModelKind kind;
};

std::vector<ParamSet> make_param_sets(int count) {
  std::vector<ParamSet> sets;
  sets.reserve(static_cast<std::size_t>(count));
  const model::ModelKind kinds[] = {model::ModelKind::kFull,
                                    model::ModelKind::kApproximate,
                                    model::ModelKind::kTdOnly};
  for (int i = 0; i < count; ++i) {
    model::ModelParams mp;
    mp.rtt = 0.05 + 0.05 * static_cast<double>(i % 8);
    mp.t0 = 4.0 * mp.rtt;
    mp.b = 1 + i % 2;
    mp.wm = static_cast<double>(8 << (i % 5));
    mp.p = 0.01;  // placeholder; per-request p rides in the line
    sets.push_back({mp, kinds[static_cast<std::size_t>(i) % 3]});
  }
  return sets;
}

/// Builds this connection's scripted request stream and precomputes the
/// expected MODEL rates with evaluate_batch_p — one batched call per
/// parameter set, the library path the server's PreparedCache wraps.
std::vector<Scripted> make_script(const LoadConfig& config, int conn,
                                  std::uint64_t count,
                                  const std::vector<ParamSet>& sets) {
  Lcg rng(config.seed + 7919ULL * static_cast<std::uint64_t>(conn));
  std::vector<Scripted> script;
  script.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Scripted s;
    s.id = "c" + std::to_string(conn) + "-" + std::to_string(i);
    s.param_set = rng.next() % sets.size();
    const auto& set = sets[s.param_set];
    s.p = rng.uniform(0.0005, 0.2);
    s.is_inverse =
        config.inverse_every > 0 &&
        i % static_cast<std::uint64_t>(config.inverse_every) == 0 && i > 0;
    std::ostringstream os;
    if (s.is_inverse) {
      // A modest target keeps the inverse well inside its bisection domain.
      const double target = 0.5 / (set.params.rtt * std::sqrt(s.p));
      os << "INVERSE " << s.id << " rate=" << format_number(target)
         << " rtt=" << format_number(set.params.rtt)
         << " t0=" << format_number(set.params.t0) << " b=" << set.params.b
         << " wm=" << format_number(set.params.wm);
    } else {
      os << "MODEL " << s.id << " p=" << format_number(s.p)
         << " rtt=" << format_number(set.params.rtt)
         << " t0=" << format_number(set.params.t0) << " b=" << set.params.b
         << " wm=" << format_number(set.params.wm) << " model="
         << model_kind_token(set.kind);
    }
    if (config.deadline_ms > 0.0) {
      os << " deadline_ms=" << format_number(config.deadline_ms);
    }
    s.line = os.str();
    script.push_back(std::move(s));
  }
  // Batched local expectations, one evaluate_batch_p call per param set.
  for (std::size_t set_idx = 0; set_idx < sets.size(); ++set_idx) {
    std::vector<double> ps;
    std::vector<std::size_t> where;
    for (std::size_t i = 0; i < script.size(); ++i) {
      if (!script[i].is_inverse && script[i].param_set == set_idx) {
        ps.push_back(script[i].p);
        where.push_back(i);
      }
    }
    if (ps.empty()) {
      continue;
    }
    std::vector<double> rates(ps.size());
    model::evaluate_batch_p(sets[set_idx].kind, sets[set_idx].params, ps,
                            rates);
    for (std::size_t j = 0; j < where.size(); ++j) {
      script[where[j]].expected_rate = rates[j];
    }
  }
  return script;
}

struct ConnResult {
  LoadReport report;                 ///< per-connection counters only
  std::vector<double> latencies_ms;  ///< OK responses
};

int connect_to(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

ConnResult drive_connection(const LoadConfig& config,
                            const std::vector<Scripted>& script) {
  ConnResult result;
  auto& rep = result.report;
  int fd = connect_to(config.socket_path);
  if (fd < 0) {
    // Nothing was sent; the caller reports reachability separately.
    return result;
  }

  struct InFlight {
    const Scripted* scripted;
    Clock::time_point sent_at;
  };
  std::unordered_map<std::string, InFlight> in_flight;
  std::size_t next_to_send = 0;
  std::string rx;
  bool dead = false;
  auto last_progress = Clock::now();

  const auto handle_response = [&](std::string_view line) {
    Response resp;
    try {
      resp = parse_response(line);
    } catch (const ProtocolError&) {
      ++rep.protocol_errors;
      return;
    }
    const auto it = in_flight.find(resp.id);
    if (it == in_flight.end()) {
      // Response addressed to no in-flight request (e.g. the daemon's
      // connection-level BUSY greeting) — a stream-integrity failure
      // only if it claims an id we used.
      if (resp.id != "-") {
        ++rep.protocol_errors;
      }
      return;
    }
    const auto sent_at = it->second.sent_at;
    const Scripted* scripted = it->second.scripted;
    in_flight.erase(it);
    last_progress = Clock::now();
    if (resp.ok) {
      ++rep.ok;
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - sent_at)
              .count();
      result.latencies_ms.push_back(ms);
      if (config.verify && !scripted->is_inverse) {
        const std::string* rate = resp.find("rate");
        bool good = rate != nullptr;
        if (good) {
          // Replies print 17 significant digits and the server runs the
          // library's kernels, so the parsed rate must equal the
          // expectation exactly.
          const double got = std::strtod(rate->c_str(), nullptr);
          good = std::isfinite(got) && got == scripted->expected_rate;
        }
        if (!good) {
          ++rep.verify_failures;
        }
      }
      return;
    }
    switch (resp.code) {
      case ErrCode::kBusy:
        ++rep.busy;
        break;
      case ErrCode::kDeadlineExceeded:
        ++rep.deadline;
        break;
      default:
        ++rep.errors;
        break;
    }
  };

  while (next_to_send < script.size() || !in_flight.empty()) {
    if (dead) {
      // The connection died (server crash, injected write fault, wedged
      // server). Whatever was in flight is gone — count it lost, then
      // reconnect under a capped per-death attempt budget so the rest
      // of the fixed-seed script still runs.
      rep.lost += in_flight.size();
      in_flight.clear();
      rx.clear();
      if (fd >= 0) {
        ::close(fd);
        fd = -1;
      }
      if (next_to_send >= script.size()) {
        break;  // nothing left to send; the lost tail is accounted
      }
      double backoff_ms = kReconnectBackoffMs;
      for (int attempt = 0; attempt < kReconnectAttempts && fd < 0; ++attempt) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(backoff_ms));
        backoff_ms = std::min(backoff_ms * 2.0, 1000.0);
        fd = connect_to(config.socket_path);
      }
      if (fd < 0) {
        break;  // reconnect budget exhausted; unsent tail stays unsent
      }
      ++rep.reconnects;
      dead = false;
      last_progress = Clock::now();
    }
    // Refill the pipeline window.
    while (next_to_send < script.size() && in_flight.size() < config.pipeline) {
      const Scripted& s = script[next_to_send];
      std::string line = s.line + "\n";
      std::size_t off = 0;
      bool sent = true;
      while (off < line.size()) {
        const ssize_t n =
            ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
          if (errno == EINTR) {
            continue;
          }
          sent = false;
          dead = true;
          break;
        }
        off += static_cast<std::size_t>(n);
      }
      if (!sent) {
        break;
      }
      ++rep.sent;
      in_flight.emplace(s.id, InFlight{&s, Clock::now()});
      ++next_to_send;
    }
    if (dead) {
      continue;  // handle the death (lost accounting + reconnect) above
    }
    if (in_flight.empty() && next_to_send >= script.size()) {
      break;
    }
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 50);
    if (rc < 0 && errno != EINTR) {
      dead = true;
      continue;
    }
    if (rc > 0) {
      char tmp[8192];
      const ssize_t n = ::read(fd, tmp, sizeof(tmp));
      if (n == 0) {
        dead = true;
        continue;
      }
      if (n < 0) {
        if (errno != EINTR && errno != EAGAIN) {
          dead = true;
          continue;
        }
      } else {
        rx.append(tmp, static_cast<std::size_t>(n));
        std::size_t pos;
        while ((pos = rx.find('\n')) != std::string::npos) {
          std::string line = rx.substr(0, pos);
          rx.erase(0, pos + 1);
          if (!line.empty()) {
            handle_response(line);
          }
        }
      }
    }
    // Liveness guard: a wedged server loses this window and forces a
    // reconnect (bounded — each cycle consumes script) instead of
    // hanging the run.
    if (!in_flight.empty() &&
        Clock::now() - last_progress > std::chrono::seconds(30)) {
      dead = true;
    }
  }
  rep.lost += in_flight.size();
  if (fd >= 0) {
    ::close(fd);
  }
  return result;
}

}  // namespace

std::string LoadReport::describe() const {
  std::ostringstream os;
  os << "sent " << sent << " = ok " << ok << " + busy " << busy
     << " + deadline " << deadline << " + err " << errors << " + lost " << lost
     << (accounting_ok() ? "" : "  [ACCOUNTING MISMATCH]") << "\n"
     << "protocol errors " << protocol_errors << ", verify failures "
     << verify_failures << ", reconnects " << reconnects << "\n"
     << "latency p50 " << p50_ms << " ms, p99 " << p99_ms << " ms, max "
     << max_ms << " ms over " << wall_s << " s wall";
  return os.str();
}

LoadReport run_load(const LoadConfig& config) {
  // Reachability probe: one PING round trip before spawning load threads,
  // so "no daemon" is a crisp error instead of N silent zero-reports.
  {
    const int fd = connect_to(config.socket_path);
    if (fd < 0) {
      throw robust::IoError("serve load: cannot connect to " +
                            config.socket_path + ": " + std::strerror(errno));
    }
    ::close(fd);
  }

  const auto sets = make_param_sets(std::max(1, config.param_sets));
  const int conns = std::max(1, config.connections);
  const std::uint64_t per_conn =
      config.requests / static_cast<std::uint64_t>(conns);
  const std::uint64_t remainder =
      config.requests % static_cast<std::uint64_t>(conns);

  std::vector<ConnResult> results(static_cast<std::size_t>(conns));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(conns));
  const auto wall_start = Clock::now();
  for (int c = 0; c < conns; ++c) {
    const std::uint64_t count =
        per_conn + (static_cast<std::uint64_t>(c) < remainder ? 1 : 0);
    threads.emplace_back([&, c, count] {
      const auto script = make_script(config, c, count, sets);
      results[static_cast<std::size_t>(c)] = drive_connection(config, script);
    });
  }
  for (auto& t : threads) {
    t.join();
  }

  LoadReport total;
  std::vector<double> latencies;
  for (auto& r : results) {
    total.sent += r.report.sent;
    total.ok += r.report.ok;
    total.busy += r.report.busy;
    total.deadline += r.report.deadline;
    total.errors += r.report.errors;
    total.lost += r.report.lost;
    total.reconnects += r.report.reconnects;
    total.protocol_errors += r.report.protocol_errors;
    total.verify_failures += r.report.verify_failures;
    latencies.insert(latencies.end(), r.latencies_ms.begin(),
                     r.latencies_ms.end());
  }
  total.wall_s =
      std::chrono::duration<double>(Clock::now() - wall_start).count();
  if (!latencies.empty()) {
    const auto exact_quantile = [&latencies](double q) {
      const std::size_t idx = std::min(
          latencies.size() - 1,
          static_cast<std::size_t>(q * static_cast<double>(latencies.size())));
      std::nth_element(latencies.begin(),
                       latencies.begin() + static_cast<std::ptrdiff_t>(idx),
                       latencies.end());
      return latencies[idx];
    };
    total.p50_ms = exact_quantile(0.50);
    total.p99_ms = exact_quantile(0.99);
    total.max_ms = *std::max_element(latencies.begin(), latencies.end());
  }
  return total;
}

}  // namespace pftk::serve
