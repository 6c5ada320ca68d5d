// Socket-level robustness of the serve daemon: round trips for every
// verb, interleaved pipelined requests, oversized-line rejection with
// stream recovery, client disconnect mid-response not wedging a worker
// shard, connection-cap rejection, and graceful-drain accounting with a
// durable metrics snapshot. The shard event loops: exactly one thread
// per shard whatever the client count, every request handled start to
// finish on the loop that owns its connection, and the client cap
// counted across loops.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/model_registry.hpp"
#include "core/tcp_model_params.hpp"
#include "core/inverse_model.hpp"
#include "exp/path_profile.hpp"
#include "obs/export.hpp"
#include "obs/flight/flight_recorder.hpp"
#include "serve/load_client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/connection.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_recorder.hpp"
#include "trace/trace_summary.hpp"

namespace pftk::serve {
namespace {

std::string test_socket(const std::string& name) {
  return "/tmp/pftk_tsrv_" + name + "_" + std::to_string(::getpid()) + ".sock";
}

/// Minimal blocking unix-socket client with line-buffered reads.
class RawClient {
 public:
  explicit RawClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
      return;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawClient() { close_now(); }

  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  void close_now() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  bool send_text(const std::string& text) {
    const char* data = text.data();
    std::size_t left = text.size();
    while (left > 0) {
      const ssize_t n = ::send(fd_, data, left, MSG_NOSIGNAL);
      if (n <= 0) {
        return false;
      }
      data += n;
      left -= static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Next '\n'-terminated line (without the newline), or empty on
  /// timeout/EOF. Lines already buffered are returned without I/O.
  std::string read_line(int timeout_ms = 5000) {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, timeout_ms) <= 0) {
        return {};
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) {
        return {};
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

ServeConfig base_config(const std::string& name) {
  ServeConfig config;
  config.socket_path = test_socket(name);
  config.shards = 1;  // deterministic routing for the protocol tests
  return config;
}

TEST(ServeServer, PingAndModelMatchTheLibrary) {
  Server server(base_config("model"));
  server.start();
  RawClient client(server.config().socket_path);
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.send_text("PING hello\n"));
  const Response pong = parse_response(client.read_line());
  EXPECT_TRUE(pong.ok);
  EXPECT_EQ(pong.id, "hello");

  // A served rate is the library's answer bit for bit: the reply prints
  // 17 significant digits and the shard runs the same model kernels.
  std::uint64_t models = 0;
  for (const model::ModelKind kind : model::all_model_kinds) {
    const std::string token(model_kind_token(kind));
    for (const double p : {0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4}) {
      ASSERT_TRUE(client.send_text("MODEL m p=" + format_number(p) +
                                   " rtt=0.1 t0=0.4 wm=16 b=2 model=" + token + "\n"));
      const Response resp = parse_response(client.read_line());
      ASSERT_TRUE(resp.ok);
      ASSERT_NE(resp.find("rate"), nullptr);
      const model::ModelParams params{p, 0.1, 0.4, 2, 16.0};
      EXPECT_EQ(std::stod(*resp.find("rate")), model::evaluate_model(kind, params))
          << token << " @ p=" << p;
      ASSERT_NE(resp.find("model"), nullptr);
      EXPECT_EQ(*resp.find("model"), token);
      ++models;
    }
  }

  server.request_stop();
  const ServeSummary summary = server.wait();
  EXPECT_TRUE(summary.accounting_ok());
  EXPECT_EQ(summary.pings, 1u);
  EXPECT_EQ(summary.served, models);
  EXPECT_EQ(summary.connections, 1u);
}

TEST(ServeServer, InverseMatchesTheInversionLibrary) {
  Server server(base_config("inverse"));
  server.start();
  RawClient client(server.config().socket_path);
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.send_text("INVERSE i1 rate=50 rtt=0.1 t0=0.4 wm=64 b=2\n"));
  const Response resp = parse_response(client.read_line());
  ASSERT_TRUE(resp.ok);
  ASSERT_NE(resp.find("max_p"), nullptr);
  ASSERT_NE(resp.find("wm_required"), nullptr);
  model::ModelParams params{0.01, 0.1, 0.4, 2, 64.0};
  const double max_p = model::max_loss_for_rate(params, 50.0);
  const double wm_req = model::required_window_for_rate(params, 50.0);
  // Replies carry 17 significant digits, so strtod gives back the bits.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(bits(std::strtod(resp.find("max_p")->c_str(), nullptr)), bits(max_p));
  EXPECT_EQ(bits(std::strtod(resp.find("wm_required")->c_str(), nullptr)), bits(wm_req));
}

TEST(ServeServer, CalibSummarizesATraceAndReportsDroppedLines) {
  const std::string trace_path =
      "/tmp/pftk_tsrv_calib_" + std::to_string(::getpid()) + ".tsv";
  {
    std::ofstream out(trace_path);
    out << "# synthetic capture\n";
    for (int i = 1; i <= 10; ++i) {
      out << "S 0.10000000" << (i - 1) << " " << i << " 0 1 2\n";
    }
    out << "R 0.300000000 0.100000000 1\n";
    out << "R 0.400000000 0.120000000 1\n";
    out << "this line is damaged garbage\n";
  }

  Server server(base_config("calib"));
  server.start();
  RawClient client(server.config().socket_path);
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.send_text("CALIB c1 trace=" + trace_path + "\n"));
  const Response resp = parse_response(client.read_line());
  ASSERT_TRUE(resp.ok) << resp.id;
  ASSERT_NE(resp.find("packets"), nullptr);
  EXPECT_EQ(*resp.find("packets"), "10");
  ASSERT_NE(resp.find("lines_dropped"), nullptr);
  EXPECT_EQ(*resp.find("lines_dropped"), "1");  // lenient read salvages the rest

  // An unreadable trace is an INTERNAL answer, not a dropped request.
  ASSERT_TRUE(client.send_text("CALIB c2 trace=/nonexistent/trace.tsv\n"));
  const Response err = parse_response(client.read_line());
  EXPECT_FALSE(err.ok);
  EXPECT_EQ(err.code, ErrCode::kInternal);
  EXPECT_EQ(err.id, "c2");

  server.request_stop();
  const ServeSummary summary = server.wait();
  EXPECT_TRUE(summary.accounting_ok());
  EXPECT_EQ(summary.internal_errors, 1u);
  std::remove(trace_path.c_str());
}

/// A response field's value, or "<missing>".
std::string field(const Response& resp, std::string_view key) {
  const std::string* value = resp.find(key);
  return value != nullptr ? *value : "<missing>";
}

/// The first 10,000 lines of a simulated capture, every 1000th replaced
/// by garbage: three CALIB chunks (4096 + 4096 + 1808 lines).
std::string calib_capture() {
  sim::Connection conn(
      exp::make_connection_config(exp::profile_by_label("manic", "alps"), 7));
  trace::TraceRecorder rec;
  conn.set_observer(&rec);
  (void)conn.run_for(1800.0);
  const std::string full = trace::format_trace(rec.events());
  std::string out;
  std::size_t pos = 0;
  for (int line = 1; line <= 10'000 && pos < full.size(); ++line) {
    const std::size_t next = full.find('\n', pos) + 1;
    out += line % 1000 == 0 ? std::string("damaged line\n") : full.substr(pos, next - pos);
    pos = next;
  }
  return out;
}

TEST(ServeServer, CalibParsesInChunksLikeADirectLoad) {
  const std::string trace_path =
      "/tmp/pftk_tsrv_calib_chunks_" + std::to_string(::getpid()) + ".tsv";
  {
    std::ofstream out(trace_path, std::ios::binary);
    out << calib_capture();
  }
  trace::TraceReadReport direct_report;
  const trace::TraceSummary direct = trace::summarize_trace(
      trace::load_trace_file_lenient(trace_path, &direct_report), 3);
  ASSERT_EQ(direct_report.lines_total, 10'000u);
  EXPECT_EQ(direct_report.lines_dropped, 10u);

  Server server(base_config("calibchunks"));
  server.start();
  RawClient client(server.config().socket_path);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_text("CALIB c1 trace=" + trace_path + "\n"));
  const Response resp = parse_response(client.read_line());
  ASSERT_TRUE(resp.ok) << field(resp, "msg");
  EXPECT_EQ(field(resp, "packets"), std::to_string(direct.packets_sent));
  EXPECT_EQ(field(resp, "p"), format_number(direct.observed_p));
  EXPECT_EQ(field(resp, "lines_dropped"), std::to_string(direct_report.lines_dropped));

  server.request_stop();
  const ServeSummary summary = server.wait();
  EXPECT_EQ(summary.calib_chunks, 3u);
  EXPECT_TRUE(summary.accounting_ok());
  std::remove(trace_path.c_str());
}

TEST(ServeServer, CalibDeadlineExpiresDuringTheParse) {
  const std::string trace_path =
      "/tmp/pftk_tsrv_calib_deadline_" + std::to_string(::getpid()) + ".tsv";
  {
    std::ofstream out(trace_path);
    out << "S 0.100000000 1 0 1 2\n";
  }
  // slow_us stalls the request after the dequeue-time deadline check has
  // passed, so the check before the first trace chunk must catch it.
  ServeConfig config = base_config("calibdeadline");
  config.slow_us = 600'000;
  Server server(config);
  server.start();
  RawClient client(config.socket_path);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_text("CALIB d1 trace=" + trace_path + " deadline_ms=250\n"));
  const Response resp = parse_response(client.read_line());
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.code, ErrCode::kDeadlineExceeded);
  EXPECT_EQ(field(resp, "msg"), "deadline_expired_during_trace_parse");

  server.request_stop();
  const ServeSummary summary = server.wait();
  EXPECT_EQ(summary.deadline_missed, 1u);
  EXPECT_EQ(summary.calib_chunks, 0u);
  EXPECT_TRUE(summary.accounting_ok());
  std::remove(trace_path.c_str());
}

TEST(ServeServer, InterleavedPipelinedRequestsAllAnswered) {
  Server server(base_config("pipeline"));
  server.start();
  RawClient client(server.config().socket_path);
  ASSERT_TRUE(client.connected());

  // One write: two MODEL param sets interleaved with INVERSE and PING —
  // the id is the only correlation key, order of answers is free.
  std::string burst;
  std::vector<std::string> ids;
  for (int i = 0; i < 12; ++i) {
    const std::string id = "q" + std::to_string(i);
    ids.push_back(id);
    switch (i % 4) {
      case 0:
        burst += "MODEL " + id + " p=0.0" + std::to_string(1 + i % 3) +
                 " rtt=0.1 t0=0.4 wm=16\n";
        break;
      case 1:
        burst += "MODEL " + id + " p=0.05 rtt=0.2 t0=0.8 wm=32 model=approx\n";
        break;
      case 2:
        burst += "INVERSE " + id + " rate=40 rtt=0.1 t0=0.4 wm=64\n";
        break;
      default:
        burst += "PING " + id + "\n";
        break;
    }
  }
  ASSERT_TRUE(client.send_text(burst));

  std::vector<std::string> answered;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::string line = client.read_line();
    ASSERT_FALSE(line.empty()) << "response " << i << " never arrived";
    const Response resp = parse_response(line);
    EXPECT_TRUE(resp.ok) << line;
    answered.push_back(resp.id);
  }
  std::sort(answered.begin(), answered.end());
  std::vector<std::string> expected = ids;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(answered, expected);

  server.request_stop();
  EXPECT_TRUE(server.wait().accounting_ok());
}

TEST(ServeServer, OversizedLinesGetToobigAndTheStreamRecovers) {
  ServeConfig config = base_config("toobig");
  config.max_line_bytes = 128;
  Server server(config);
  server.start();
  RawClient client(config.socket_path);
  ASSERT_TRUE(client.connected());

  // A complete line over the cap: rejected with the recovered id.
  std::string big = "MODEL big p=0.02 rtt=0.1 t0=0.4 wm=16";
  big.append(200, ' ');
  big += "b=2\n";
  ASSERT_TRUE(client.send_text(big));
  const Response r1 = parse_response(client.read_line());
  EXPECT_FALSE(r1.ok);
  EXPECT_EQ(r1.code, ErrCode::kTooBig);
  EXPECT_EQ(r1.id, "big");

  // A newline-less flood past the cap: rejected once, then everything up
  // to the next newline is discarded and the stream keeps working.
  std::string flood(300, 'x');
  ASSERT_TRUE(client.send_text(flood));
  const Response r2 = parse_response(client.read_line());
  EXPECT_FALSE(r2.ok);
  EXPECT_EQ(r2.code, ErrCode::kTooBig);
  ASSERT_TRUE(client.send_text("tail-of-flood\nPING alive\n"));
  const Response r3 = parse_response(client.read_line());
  EXPECT_TRUE(r3.ok);
  EXPECT_EQ(r3.id, "alive");

  server.request_stop();
  const ServeSummary summary = server.wait();
  EXPECT_EQ(summary.oversized, 2u);
  EXPECT_TRUE(summary.accounting_ok());
}

TEST(ServeServer, MalformedLinesAreBadreqNotDisconnects) {
  Server server(base_config("badreq"));
  server.start();
  RawClient client(server.config().socket_path);
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.send_text("MODEL m p=nan rtt=0.1 t0=0.4 wm=8\nPING ok\n"));
  const Response bad = parse_response(client.read_line());
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.code, ErrCode::kBadRequest);
  EXPECT_EQ(bad.id, "m");
  const Response pong = parse_response(client.read_line());
  EXPECT_TRUE(pong.ok);

  server.request_stop();
  const ServeSummary summary = server.wait();
  EXPECT_EQ(summary.protocol_errors, 1u);
  EXPECT_TRUE(summary.accounting_ok());
}

TEST(ServeServer, DisconnectMidResponseDoesNotWedgeTheShard) {
  ServeConfig config = base_config("disconnect");
  config.slow_us = 2000;  // responses land well after the abrupt close
  Server server(config);
  server.start();

  {
    RawClient rude(config.socket_path);
    ASSERT_TRUE(rude.connected());
    std::string burst;
    for (int i = 0; i < 16; ++i) {
      burst += "MODEL d" + std::to_string(i) +
               " p=0.02 rtt=0.1 t0=0.4 wm=16\n";
    }
    ASSERT_TRUE(rude.send_text(burst));
    rude.close_now();  // vanish with every response still pending
  }

  // The same (only) shard must still answer a polite client promptly.
  RawClient polite(config.socket_path);
  ASSERT_TRUE(polite.connected());
  ASSERT_TRUE(polite.send_text("MODEL ok p=0.02 rtt=0.1 t0=0.4 wm=16\n"));
  const std::string line = polite.read_line(10'000);
  ASSERT_FALSE(line.empty()) << "shard wedged by the dead client";
  const Response resp = parse_response(line);
  EXPECT_TRUE(resp.ok);
  EXPECT_EQ(resp.id, "ok");

  server.request_stop();
  const ServeSummary summary = server.wait();
  // Every admitted request was answered (or its write hit the dead
  // socket and was counted); the identity survives the rude client.
  EXPECT_TRUE(summary.accounting_ok());
  EXPECT_EQ(summary.requests, 17u);
}

TEST(ServeServer, ConnectionCapRejectsWithBusyGreeting) {
  ServeConfig config = base_config("cap");
  config.max_clients = 1;
  Server server(config);
  server.start();

  RawClient first(config.socket_path);
  ASSERT_TRUE(first.connected());
  ASSERT_TRUE(first.send_text("PING a\n"));
  EXPECT_TRUE(parse_response(first.read_line()).ok);  // fully registered

  RawClient second(config.socket_path);
  ASSERT_TRUE(second.connected());
  const Response refused = parse_response(second.read_line());
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.code, ErrCode::kBusy);
  EXPECT_NE(refused.find("retry_ms"), nullptr);

  server.request_stop();
  const ServeSummary summary = server.wait();
  EXPECT_EQ(summary.rejected_connections, 1u);
  EXPECT_EQ(summary.connections, 1u);
}

TEST(ServeServer, DrainFlushesAParseableDurableSnapshot) {
  ServeConfig config = base_config("drainflush");
  config.metrics_out =
      "/tmp/pftk_tsrv_drain_" + std::to_string(::getpid()) + ".jsonl";
  std::remove(config.metrics_out.c_str());
  Server server(config);
  server.start();
  RawClient client(config.socket_path);
  ASSERT_TRUE(client.connected());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.send_text("MODEL f" + std::to_string(i) +
                                 " p=0.02 rtt=0.1 t0=0.4 wm=16\n"));
    EXPECT_TRUE(parse_response(client.read_line()).ok);
  }
  server.request_stop();
  const ServeSummary summary = server.wait();
  EXPECT_EQ(summary.served, 5u);

  const obs::ObsBundle bundle = obs::load_obs_file(config.metrics_out);
  EXPECT_EQ(bundle.source, "serve");
  const obs::MetricValue* served =
      bundle.metrics.find("pftk_serve_served_total");
  ASSERT_NE(served, nullptr);
  EXPECT_DOUBLE_EQ(served->value, 5.0);
  const obs::MetricValue* latency =
      bundle.metrics.find("pftk_serve_latency_seconds");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, 5u);
  std::remove(config.metrics_out.c_str());
}

/// Threads in this process (entries of /proc/self/task), read once the
/// count has held still for 20 ms: a joined thread's task can outlive
/// pthread_join by a moment.
std::size_t settled_thread_count() {
  const auto count = [] {
    std::size_t n = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
      (void)entry;
      ++n;
    }
    return n;
  };
  std::size_t last = count();
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::size_t now = count();
    if (now == last) {
      break;
    }
    last = now;
  }
  return last;
}

TEST(ServeServer, OneThreadPerShardWhateverTheClientCount) {
  ServeConfig config = base_config("threads");
  config.shards = 2;
  const std::size_t before = settled_thread_count();
  Server server(config);
  server.start();
  EXPECT_EQ(settled_thread_count(), before + 2);

  std::vector<std::unique_ptr<RawClient>> clients;
  for (int i = 0; i < 16; ++i) {
    clients.push_back(std::make_unique<RawClient>(config.socket_path));
    ASSERT_TRUE(clients.back()->connected());
    const std::string id = "t" + std::to_string(i);
    ASSERT_TRUE(clients.back()->send_text("PING " + id + "\n"));
    const Response pong = parse_response(clients.back()->read_line());
    EXPECT_TRUE(pong.ok);
    EXPECT_EQ(pong.id, id);
  }
  // Sixteen live connections, still only the two shard loops.
  EXPECT_EQ(settled_thread_count(), before + 2);

  server.request_stop();
  const ServeSummary summary = server.wait();
  EXPECT_EQ(summary.pings, 16u);
  EXPECT_EQ(summary.connections, 16u);
  EXPECT_EQ(settled_thread_count(), before);
}

TEST(ServeServer, EveryRequestStaysOnTheLoopThatOwnsItsConnection) {
  auto& recorder = obs::flight::Recorder::instance();
  recorder.clear();
  recorder.arm();
  ServeConfig config = base_config("affinity");
  config.shards = 2;
  Server server(config);
  server.start();

  // The probe connection run_load opens first is connection 0; the four
  // load connections then alternate between the two loops, 500
  // requests each.
  LoadConfig load;
  load.socket_path = config.socket_path;
  load.requests = 2000;
  load.connections = 4;
  load.pipeline = 1;
  const LoadReport report = run_load(load);
  server.request_stop();
  const ServeSummary summary = server.wait();
  recorder.disarm();
  const obs::flight::DrainedSpans drained = recorder.drain();
  recorder.clear();

  EXPECT_EQ(report.ok, 2000u);
  EXPECT_TRUE(summary.accounting_ok());
  ASSERT_EQ(drained.dropped, 0u);
  const std::set<std::string> request_path = {
      "serve.read",       "serve.req.admitted", "serve.queue_wait",
      "serve.eval_batch", "serve.write",        "serve.req.served"};
  std::set<std::uint32_t> tids;
  std::map<std::uint32_t, std::uint64_t> served_by_tid;
  for (const obs::flight::DrainedSpan& span : drained.spans) {
    if (request_path.count(span.name) > 0) {
      tids.insert(span.tid);
    }
    if (span.name == "serve.req.served") {
      ++served_by_tid[span.tid];
    }
  }
  EXPECT_EQ(tids.size(), 2u) << "request-path spans recorded off the loops";
  ASSERT_EQ(served_by_tid.size(), 2u);
  EXPECT_EQ(served_by_tid.begin()->second, 1000u);
  EXPECT_EQ(served_by_tid.rbegin()->second, 1000u);
}

TEST(ServeServer, ConnectionCapCountsClientsAcrossShards) {
  ServeConfig config = base_config("capshards");
  config.shards = 2;
  config.max_clients = 2;
  Server server(config);
  server.start();

  // Connections 0 and 1 land on different loops; each is registered
  // once its PING is answered.
  RawClient first(config.socket_path);
  RawClient second(config.socket_path);
  ASSERT_TRUE(first.connected());
  ASSERT_TRUE(second.connected());
  ASSERT_TRUE(first.send_text("PING a\n"));
  ASSERT_TRUE(second.send_text("PING b\n"));
  EXPECT_TRUE(parse_response(first.read_line()).ok);
  EXPECT_TRUE(parse_response(second.read_line()).ok);

  RawClient third(config.socket_path);
  ASSERT_TRUE(third.connected());
  const Response refused = parse_response(third.read_line());
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.code, ErrCode::kBusy);

  server.request_stop();
  const ServeSummary summary = server.wait();
  EXPECT_EQ(summary.rejected_connections, 1u);
  EXPECT_EQ(summary.connections, 2u);
}

TEST(ServeServer, ConfigValidationIsTyped) {
  ServeConfig config;
  config.socket_path = test_socket("validate");
  config.shards = 0;
  EXPECT_THROW(config.validate(), model::ParamError);
  config.shards = 2;
  config.queue_depth = 0;
  EXPECT_THROW(config.validate(), model::ParamError);
  config.queue_depth = 64;
  config.socket_path = std::string(200, 'x');
  EXPECT_THROW(config.validate(), model::ParamError);
}

}  // namespace
}  // namespace pftk::serve
