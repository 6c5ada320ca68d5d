// serve — an in-process serve::Server (2 shards) on a unix socket in the
// scratch directory, driven closed-loop by serve::run_load with 2
// connections x pipeline 1 over 64 parameter sets (twice the 32-entry
// PreparedCache) and one INVERSE per 8 requests. Two requests in flight
// at most, so nothing queues behind the 64-deep admission watermark:
// latency measures the request path, not a backlog.
#include <chrono>
#include <cmath>
#include <memory>
#include <random>
#include <thread>

#include "core/batch_eval.hpp"
#include "core/inverse_model.hpp"
#include "harness.hpp"
#include "serve/load_client.hpp"
#include "serve/prepared_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace {

using namespace pftk;

constexpr int kShards = 2;
constexpr int kConnections = 2;
constexpr int kParamSets = 64;
constexpr int kInverseEvery = 8;
constexpr std::uint64_t kPassRequests = 20'000;
constexpr std::uint64_t kWarmupRequests = 2'000;
constexpr const char* kSocket = "serve.sock";

struct PassOutcome {
  serve::LoadReport load;
  double seconds = 0.0;  ///< run_load wall, timed from outside
};

/// A started server plus the client-side totals it must reconcile with.
class ServeRig {
 public:
  explicit ServeRig(std::uint64_t seed) : seed_(seed) {
    serve::ServeConfig config;
    config.socket_path = kSocket;
    config.shards = kShards;
    config.validate();
    server_ = std::make_unique<serve::Server>(config);
    server_->start();
  }

  ~ServeRig() {
    if (server_->running()) {
      (void)stop();
    }
  }

  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;

  [[nodiscard]] const serve::Server& server() const noexcept { return *server_; }

  /// One closed-loop pass, its client-side checks, and the server-side
  /// reconciliation once the server has accounted for every answer.
  PassOutcome pass(std::uint64_t requests, Report& report) {
    serve::LoadConfig load;
    load.socket_path = kSocket;
    load.requests = requests;
    load.connections = kConnections;
    load.pipeline = 1;
    load.seed = seed_;
    load.param_sets = kParamSets;
    load.inverse_every = kInverseEvery;
    load.verify = true;
    PassOutcome out;
    {
      PFTK_SPAN("bench.serve.load");
      out.seconds = time_call([&] { out.load = serve::run_load(load); });
    }
    PFTK_SPAN("bench.check");
    const serve::LoadReport& r = out.load;
    sent_ += r.sent;
    ok_ += r.ok;
    report.check(r.accounting_ok(), "client accounting identity");
    report.check(r.verify_failures == 0, "served rates equal the library's");
    report.check(r.protocol_errors == 0, "no protocol errors");
    report.check(r.sent == requests && r.ok == r.sent,
                 "every request answered OK (nothing shed or lost)");
    // `served` is bumped just after the reply is written, so the client
    // can finish a moment before the server's books do.
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    while (server_->totals().served.load() < ok_ && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    report.check(server_->totals().served.load() == ok_ &&
                     server_->totals().requests.load() == sent_,
                 "client ok equals server served");
    return out;
  }

  /// Drains the server and checks both identities at quiescence.
  void finish(Report& report) {
    const serve::ServeSummary summary = stop();
    report.check(summary.accounting_ok(), "server accounting identity");
    report.check(summary.served == ok_ && summary.requests == sent_ &&
                     summary.shed == 0 && summary.protocol_errors == 0,
                 "final client/server reconciliation");
  }

 private:
  serve::ServeSummary stop() {
    // A reader thread signals its exit after releasing the lock wait()
    // checks, so a server torn down at once can race it; the clients are
    // gone by now, so let their readers finish first.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    server_->request_stop();
    return server_->wait();
  }

  std::uint64_t seed_;
  std::unique_ptr<serve::Server> server_;
  std::uint64_t sent_ = 0;  ///< client totals over every pass, warm-up included
  std::uint64_t ok_ = 0;
};

/// Single-threaded cost of each step of the request path, on request
/// lines of the same MODEL/INVERSE mix the load client sends.
struct PathCosts {
  double parse_ns = 0.0;
  double model_eval_ns = 0.0;
  double inverse_ns = 0.0;
  double format_ns = 0.0;
  double mix_ns = 0.0;  ///< parse + mean evaluation + format, per request
};

std::vector<std::string> request_lines(std::uint64_t seed, std::size_t count) {
  const model::ModelKind kinds[] = {model::ModelKind::kFull,
                                    model::ModelKind::kApproximate,
                                    model::ModelKind::kTdOnly};
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> loss(0.0005, 0.2);
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < count; ++i) {
    const int set = static_cast<int>(rng() % kParamSets);
    const double rtt = 0.05 + 0.05 * (set % 8);
    const std::string common = " rtt=" + serve::format_number(rtt) +
                               " t0=" + serve::format_number(4.0 * rtt) +
                               " b=" + std::to_string(1 + set % 2) +
                               " wm=" + serve::format_number(8 << (set % 5));
    const double p = loss(rng);
    const std::string id = "r" + std::to_string(i);
    if (i > 0 && i % kInverseEvery == 0) {
      lines.push_back("INVERSE " + id + " rate=" +
                      serve::format_number(0.5 / (rtt * std::sqrt(p))) + common);
    } else {
      lines.push_back("MODEL " + id + " p=" + serve::format_number(p) + common +
                      " model=" + std::string(serve::model_kind_token(kinds[set % 3])));
    }
  }
  return lines;
}

PathCosts measure_request_path(std::uint64_t seed, Report& report) {
  const std::vector<std::string> lines = request_lines(seed, kPassRequests);
  std::vector<double> parse, model_eval, inverse, format;
  std::size_t models = 0;
  std::size_t inverses = 0;
  double sink = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<serve::Request> requests;
    requests.reserve(lines.size());
    const double parse_s = time_call([&] {
      for (const std::string& line : lines) {
        requests.push_back(serve::parse_request(line));
      }
    });
    // Evaluate the way a shard does: PreparedCache lookup, then the model;
    // INVERSE answers both inversions.
    serve::PreparedCache cache(32);
    std::vector<double> first(requests.size());
    std::vector<double> second(requests.size());
    models = inverses = 0;
    const double model_s = time_call([&] {
      for (std::size_t i = 0; i < requests.size(); ++i) {
        const serve::Request& req = requests[i];
        if (req.verb == serve::Verb::kModel) {
          first[i] = cache.get(req.kind, req.params)(req.params.p);
          ++models;
        }
      }
    });
    const double inverse_s = time_call([&] {
      for (std::size_t i = 0; i < requests.size(); ++i) {
        const serve::Request& req = requests[i];
        if (req.verb == serve::Verb::kInverse) {
          first[i] = model::max_loss_for_rate(req.params, req.target_rate);
          second[i] = model::required_window_for_rate(req.params, req.target_rate);
          ++inverses;
        }
      }
    });
    // Reply formatting as the shard does it: fields, then the line.
    const double format_s = time_call([&] {
      for (std::size_t i = 0; i < requests.size(); ++i) {
        const serve::Request& req = requests[i];
        const std::string line =
            req.verb == serve::Verb::kModel
                ? serve::format_ok(
                      req.id, {{"rate", serve::format_number(first[i])},
                               {"model", std::string(serve::model_kind_token(req.kind))}})
                : serve::format_ok(req.id,
                                   {{"max_p", serve::format_number(first[i])},
                                    {"wm_required", serve::format_number(second[i])}});
        sink += static_cast<double>(line.size());
      }
    });
    const double n = static_cast<double>(lines.size());
    parse.push_back(parse_s * 1e9 / n);
    model_eval.push_back(model_s * 1e9 / static_cast<double>(models));
    inverse.push_back(inverse_s * 1e9 / static_cast<double>(inverses));
    format.push_back(format_s * 1e9 / n);
  }
  report.check(sink > 0.0, "request-path replies were formatted");
  PathCosts costs;
  costs.parse_ns = median(parse);
  costs.model_eval_ns = median(model_eval);
  costs.inverse_ns = median(inverse);
  costs.format_ns = median(format);
  const double n = static_cast<double>(models + inverses);
  costs.mix_ns = costs.parse_ns + costs.format_ns +
                 (static_cast<double>(models) * costs.model_eval_ns +
                  static_cast<double>(inverses) * costs.inverse_ns) /
                     n;
  return costs;
}

}  // namespace

void run_serve(Report& report) {
  const Options& opt = report.options();
  // Set-up: bind and start the server, then one unmeasured warm-up pass
  // (connect path, thread wake-up, cache fill).
  auto rig = timed_setup<ServeRig>(report, 7, [&] {
    auto state = std::make_unique<ServeRig>(opt.seed);
    (void)state->pass(kWarmupRequests, report);
    return state;
  });

  const auto record = [&](const PassOutcome& out) {
    report.attempted(out.load.sent);
    report.failed(out.load.sent - std::min(out.load.sent, out.load.ok));
  };

  if (!opt.trace) {
    UnitStats units;
    repeat_for(opt.seconds, [&] {
      const PassOutcome out = rig->pass(kPassRequests, report);
      record(out);
      units.add(out.load.ok, out.seconds, out.load.p50_ms, out.load.p99_ms);
    });
    rig->finish(report);
    units.report(report, "requests_per_s", "requests/s",
                 "load passes of " + std::to_string(kPassRequests) + " requests");
    return;
  }

  // Server-side rate of each traced pass: served spans over the window
  // from the first admission they cover to the last reply.
  std::vector<double> server_rates;
  std::vector<double> client_rates;
  Tracer tracer(1 << 16);
  tracer.inspect = [&](const obs::flight::DrainedSpans& drained) {
    std::uint64_t served = 0;
    std::uint64_t first = UINT64_MAX;
    std::uint64_t last = 0;
    for (const obs::flight::DrainedSpan& span : drained.spans) {
      if (span.name == "serve.req.served") {
        ++served;
        first = std::min(first, span.begin_ns);
        last = std::max(last, span.end_ns);
      }
    }
    server_rates.push_back(last > first ? static_cast<double>(served) * 1e9 /
                                              static_cast<double>(last - first)
                                        : 0.0);
  };
  std::vector<double> untraced_p50s;
  const std::vector<double> ratios =
      run_pairs(tracer, opt.seconds, 1, [&](std::size_t, bool traced) {
        const PassOutcome out = rig->pass(kPassRequests, report);
        record(out);
        if (traced) {
          client_rates.push_back(static_cast<double>(out.load.ok) / out.seconds);
        } else {
          untraced_p50s.push_back(out.load.p50_ms);
        }
      });
  std::vector<double> client_server;
  for (std::size_t i = 0; i < client_rates.size(); ++i) {
    client_server.push_back(server_rates[i] > 0.0 ? client_rates[i] / server_rates[i]
                                                  : 0.0);
  }
  const PathCosts costs = measure_request_path(opt.seed, report);
  const serve::HistogramSnapshot queue_wait = rig->server().merged_queue_wait();
  const serve::ServeSummary summary = rig->server().summary();
  rig->finish(report);

  const double p50_ns = median(untraced_p50s) * 1e6;
  report.set("serve.parse_ns", costs.parse_ns, "serve::parse_request, single thread");
  report.set("serve.format_ns", costs.format_ns, "serve::format_ok");
  report.set("core.model_eval_ns", costs.model_eval_ns,
             "PreparedCache(32) lookup + PreparedModel, 64 parameter sets");
  report.set("core.inverse_ns", costs.inverse_ns,
             "max_loss_for_rate + required_window_for_rate");
  report.set("serve.transport_frac", 1.0 - costs.mix_ns / p50_ns,
             "1 - " + std::to_string(costs.mix_ns) + " ns path / " +
                 std::to_string(p50_ns) + " ns untraced p50");
  report.set("serve.queue_wait_p50_ms", queue_wait.quantile(0.5),
             std::to_string(queue_wait.count) + " dequeues");
  report.set("serve.queue_wait_p99_ms", queue_wait.quantile(0.99));
  report.set("serve.queue_peak", static_cast<double>(summary.queue_peak));
  report.set("serve.batch_frac",
             summary.served > 0 ? static_cast<double>(summary.batched_requests) /
                                      static_cast<double>(summary.served)
                                : 0.0,
             std::to_string(summary.batched_requests) + " batched / " +
                 std::to_string(summary.served) + " served");
  report.set("serve.batched_requests", static_cast<double>(summary.batched_requests));
  report.set("serve.served", static_cast<double>(summary.served));
  report.set("serve.client_server_ratio", median(client_server),
             "client OK/s over server served/s, median of " +
                 std::to_string(client_server.size()) + " traced passes");
  report_tracing(report, tracer, ratios);
}

}  // namespace perfbench
