#include "serve/server.hpp"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/un.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "core/inverse_model.hpp"
#include "core/model_registry.hpp"
#include "obs/flight/flight_recorder.hpp"
#include "robust/durable_file.hpp"
#include "robust/failpoint.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_reader_fast.hpp"
#include "trace/trace_scan.hpp"
#include "trace/trace_summary.hpp"

namespace pftk::serve {
namespace {

namespace flight = obs::flight;

using Clock = std::chrono::steady_clock;

/// Ready events taken per epoll_wait.
constexpr int kMaxEvents = 64;
/// CALIB traces are parsed in line-chunks of this size with a deadline
/// check between chunks, so a huge trace cannot pin a loop past the
/// request's budget.
constexpr std::size_t kCalibChunkLines = 4096;

void spin_for_us(std::uint64_t us) {
  const auto end = Clock::now() + std::chrono::microseconds(us);
  while (Clock::now() < end) {
  }
}

/// Response-field values must be single tokens; collapse whitespace so a
/// diagnostic message cannot corrupt the line grammar.
std::string sanitize_field(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      c = '_';
    }
  }
  return out.empty() ? std::string("-") : out;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Wakes a loop blocked in epoll_wait (the eventfd counter only grows).
void wake(int event_fd) {
  const std::uint64_t one = 1;
  (void)!::write(event_fd, &one, sizeof(one));
}

/// Adds `fd` to an epoll set, level-triggered for reads.
bool watch(int epoll_fd, int fd) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  return ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) == 0;
}

/// Creates, binds, and listens on a unix-domain stream socket at `path`
/// (replacing a stale file). Returns the fd.
/// @throws robust::IoError on failure.
int bind_listener(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw robust::IoError("serve: socket(AF_UNIX): " +
                          std::string(std::strerror(errno)));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  // A stale socket file (previous crash) would fail the bind; replace it.
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    throw robust::IoError("serve: bind(" + path + "): " + std::strerror(err));
  }
  if (::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(path.c_str());
    throw robust::IoError("serve: listen: " + std::string(std::strerror(err)));
  }
  // Non-blocking: every shard loop watches this fd, so one connection
  // wakes several of them — the losers must get EAGAIN, not block.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) {
    (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
  return fd;
}

}  // namespace

void ServeConfig::validate() const {
  if (socket_path.empty() || socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    throw model::ParamError("ServeConfig: socket_path must be non-empty and < " +
                            std::to_string(sizeof(sockaddr_un{}.sun_path)) +
                            " bytes");
  }
  if (shards < 1 || shards > 64) {
    throw model::ParamError("ServeConfig: shards must be in [1, 64]");
  }
  if (queue_depth < 1) {
    throw model::ParamError("ServeConfig: queue_depth must be >= 1");
  }
  if (max_line_bytes < 64) {
    throw model::ParamError("ServeConfig: max_line_bytes must be >= 64");
  }
  if (max_clients < 1) {
    throw model::ParamError("ServeConfig: max_clients must be >= 1");
  }
  if (!(default_deadline_ms >= 0.0) ||
      default_deadline_ms != default_deadline_ms) {
    throw model::ParamError(
        "ServeConfig: default_deadline_ms must be finite and >= 0");
  }
}

/// One connected client, owned by one loop. Reference-counted so a
/// queued request keeps the fd open after the loop stops reading it;
/// the fd closes with the last reference. The first write failure (real
/// or injected) latches dead_ so later responses for this client are
/// dropped, not wedged.
class Server::ClientSession {
 public:
  ClientSession(int fd, ServeTotals* totals) : fd_(fd), totals_(totals) {}
  ~ClientSession() { ::close(fd_); }
  ClientSession(const ClientSession&) = delete;
  ClientSession& operator=(const ClientSession&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] bool dead() const noexcept { return dead_; }

  void send_line(std::string line) {
    line.push_back('\n');
    PFTK_SPAN("serve.write", line.size());
    if (dead_) {
      return;
    }
    const auto hit = robust::failpoint("serve.write");
    if (hit.fired()) {
      switch (hit.action) {
        case robust::FailpointAction::kDelay:
          std::this_thread::sleep_for(std::chrono::milliseconds(hit.arg));
          break;  // then write normally
        case robust::FailpointAction::kCrash:
          robust::crash_now();
        default:
          // error / short_write / enospc: the response never (fully)
          // reaches the client — treat the connection as lost.
          mark_dead();
          return;
      }
    }
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t n = ::send(fd_, line.data() + off, line.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        mark_dead();
        return;
      }
      off += static_cast<std::size_t>(n);
    }
  }

  /// Bytes read but not yet split into lines.
  std::string buffer;
  bool skipping_oversized = false;

 private:
  void mark_dead() {
    if (!dead_) {
      dead_ = true;
      totals_->disconnects.fetch_add(1, std::memory_order_relaxed);
    }
  }

  int fd_;
  bool dead_ = false;
  ServeTotals* totals_;
};

Server::Shard::Shard(int listen_fd)
    : epoll_fd(::epoll_create1(EPOLL_CLOEXEC)),
      wake_fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  if (epoll_fd < 0 || wake_fd < 0 || !watch(epoll_fd, wake_fd) ||
      !watch(epoll_fd, listen_fd)) {
    const int err = errno;
    ::close(epoll_fd);  // no destructor runs for a failed constructor;
    ::close(wake_fd);   // close(-1) is a harmless EBADF
    throw robust::IoError("serve: shard event loop: " +
                          std::string(std::strerror(err)));
  }
}

Server::Shard::~Shard() {
  ::close(epoll_fd);
  ::close(wake_fd);
}

Server::Server(ServeConfig config) : config_(std::move(config)) {
  config_.validate();
}

Server::~Server() {
  request_stop();
  if (started_ && !joined_) {
    wait();
  }
}

void Server::start() {
  if (started_) {
    throw std::logic_error("Server::start: already started");
  }
  listen_fd_ = bind_listener(config_.socket_path);
  try {
    for (int i = 0; i < config_.shards; ++i) {
      shards_.push_back(std::make_unique<Shard>(listen_fd_));
    }
  } catch (...) {
    shards_.clear();
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(config_.socket_path.c_str());
    throw;
  }
  for (auto& shard : shards_) {
    shard->thread = std::thread([this, s = shard.get()] { run_loop(*s); });
  }
  started_ = true;
}

void Server::request_stop() {
  stop_.store(true, std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    wake(shard->wake_fd);
  }
}

ServeSummary Server::wait() {
  if (!started_ || joined_) {
    return summary();
  }
  request_stop();
  for (auto& shard : shards_) {
    shard->thread.join();
  }
  for (auto& shard : shards_) {
    for (const int fd : shard->inbox) {
      ::close(fd);  // handed over after its loop had drained
    }
  }
  if (!config_.metrics_out.empty()) {
    flush_metrics();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(config_.socket_path.c_str());
  joined_ = true;
  return summary();
}

ServeSummary Server::summary() const {
  return summarize(totals_, latency_, merged_queue_wait());
}

HistogramSnapshot Server::merged_queue_wait() const {
  HistogramSnapshot merged{default_queue_wait_bounds_ms(),
                           std::vector<std::uint64_t>(
                               default_queue_wait_bounds_ms().size() + 1)};
  for (const auto& shard : shards_) {
    merged.merge(shard->queue_wait_ms.snapshot());
  }
  return merged;
}

void Server::run_loop(Shard& shard) {
  std::array<epoll_event, kMaxEvents> events{};
  while (!stop_.load(std::memory_order_relaxed)) {
    // Block only while nothing is queued; otherwise poll, read what
    // arrived, and get back to the queue.
    const int ready = ::epoll_wait(shard.epoll_fd, events.data(), kMaxEvents,
                                   shard.queue.empty() ? -1 : 0);
    if (ready < 0 && errno != EINTR) {
      break;
    }
    for (int i = 0; i < ready; ++i) {
      const int fd = events[static_cast<std::size_t>(i)].data.fd;
      if (fd == shard.wake_fd) {
        adopt_inbox(shard);
      } else if (fd == listen_fd_) {
        accept_one();
      } else if (const auto it = shard.clients.find(fd);
                 it != shard.clients.end()) {
        read_client(shard, it->second);
      }
    }
    run_batch(shard);
  }

  // Drain: answer every admitted request, then hang up.
  while (!shard.queue.empty()) {
    run_batch(shard);
  }
  open_clients_.fetch_sub(shard.clients.size(), std::memory_order_relaxed);
  shard.clients.clear();
}

void Server::accept_one() {
  std::unique_lock<std::mutex> lock(accept_mu_);
  const int cfd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
  if (cfd < 0) {
    // EAGAIN: another loop took it. Anything else (ECONNABORTED,
    // EMFILE, ...) is retried on the next readiness.
    return;
  }
  // One span per accepted connection: failpoint handling, the client
  // cap, and the hand-off to the owning loop's inbox.
  PFTK_SPAN("serve.accept");
  const auto hit = robust::failpoint("serve.accept");
  if (hit.fired()) {
    switch (hit.action) {
      case robust::FailpointAction::kDelay:
        std::this_thread::sleep_for(std::chrono::milliseconds(hit.arg));
        break;
      case robust::FailpointAction::kCrash:
        robust::crash_now();
      default:
        // Injected accept failure: the client is turned away.
        ::close(cfd);
        totals_.rejected_connections.fetch_add(1, std::memory_order_relaxed);
        return;
    }
  }
  if (open_clients_.load(std::memory_order_relaxed) >= config_.max_clients) {
    // Over the client cap: say BUSY once, then close. Load shedding
    // applies at the connection layer too — no silent accept backlog.
    const std::string line = format_err("-", ErrCode::kBusy,
                                        {{"retry_ms", "100"}}) + "\n";
    (void)::send(cfd, line.data(), line.size(), MSG_NOSIGNAL);
    ::close(cfd);
    totals_.rejected_connections.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  open_clients_.fetch_add(1, std::memory_order_relaxed);
  totals_.connections.fetch_add(1, std::memory_order_relaxed);
  Shard& owner = *shards_[next_owner_++ % shards_.size()];
  lock.unlock();
  std::lock_guard<std::mutex> inbox_lock(owner.inbox_mu);
  owner.inbox.push_back(cfd);
  wake(owner.wake_fd);
}

void Server::adopt_inbox(Shard& shard) {
  std::uint64_t wakes = 0;
  (void)!::read(shard.wake_fd, &wakes, sizeof(wakes));
  std::vector<int> handed;
  {
    std::lock_guard<std::mutex> lock(shard.inbox_mu);
    handed.swap(shard.inbox);
  }
  for (const int fd : handed) {
    if (watch(shard.epoll_fd, fd)) {
      shard.clients.emplace(fd, std::make_shared<ClientSession>(fd, &totals_));
    } else {
      ::close(fd);
      open_clients_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

void Server::close_client(Shard& shard, int fd) {
  // The fd itself closes with the session's last reference, which a
  // queued request may still hold.
  (void)::epoll_ctl(shard.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  shard.clients.erase(fd);
  open_clients_.fetch_sub(1, std::memory_order_relaxed);
}

void Server::read_client(Shard& shard, std::shared_ptr<ClientSession> client) {
  if (client->dead()) {
    close_client(shard, client->fd());  // a write already failed
    return;
  }
  const auto hit = robust::failpoint("serve.read");
  if (hit.fired()) {
    switch (hit.action) {
      case robust::FailpointAction::kDelay:
        std::this_thread::sleep_for(std::chrono::milliseconds(hit.arg));
        break;
      case robust::FailpointAction::kCrash:
        robust::crash_now();
      default:
        // Injected read failure: connection considered lost.
        close_client(shard, client->fd());
        return;
    }
  }
  char tmp[4096];
  const ssize_t n = ::read(client->fd(), tmp, sizeof(tmp));
  if (n <= 0) {
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) {
      return;
    }
    close_client(shard, client->fd());  // clean EOF or a dead socket
    return;
  }
  // Spans the parse/dispatch of this read chunk, so admitted-request
  // markers recorded below roll up under serve.read.
  PFTK_SPAN("serve.read", static_cast<std::uint64_t>(n));
  std::string& buffer = client->buffer;
  buffer.append(tmp, static_cast<std::size_t>(n));

  std::size_t start = 0;
  for (std::size_t nl; (nl = buffer.find('\n', start)) != std::string::npos;
       start = nl + 1) {
    std::string_view line(buffer.data() + start, nl - start);
    if (client->skipping_oversized) {
      // Tail of a line already rejected with TOOBIG.
      client->skipping_oversized = false;
      continue;
    }
    if (!line.empty() && line.back() == '\r') {
      line.remove_suffix(1);
    }
    if (line.empty()) {
      continue;
    }
    if (line.size() > config_.max_line_bytes) {
      totals_.oversized.fetch_add(1, std::memory_order_relaxed);
      client->send_line(format_err(
          recover_request_id(line), ErrCode::kTooBig,
          {{"cap", std::to_string(config_.max_line_bytes)}}));
      continue;
    }
    Request req;
    try {
      req = parse_request(line);
    } catch (const ProtocolError& e) {
      totals_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      client->send_line(
          format_err(e.id(), e.code(), {{"msg", sanitize_field(e.what())}}));
      continue;
    }
    if (req.verb == Verb::kPing) {
      totals_.pings.fetch_add(1, std::memory_order_relaxed);
      client->send_line(format_ok(req.id, {{"pong", "1"}}));
      continue;
    }
    admit(shard, client, std::move(req));
  }  buffer.erase(0, start);
  if (client->skipping_oversized) {
    buffer.clear();  // all of it belongs to the rejected line
  } else if (buffer.size() > config_.max_line_bytes) {
    // A line is still growing past the cap with no newline in sight:
    // reject it now and discard bytes until the next newline, rather
    // than buffering an unbounded amount.
    totals_.oversized.fetch_add(1, std::memory_order_relaxed);
    client->send_line(format_err(
        recover_request_id(buffer), ErrCode::kTooBig,
        {{"cap", std::to_string(config_.max_line_bytes)}}));
    buffer.clear();
    client->skipping_oversized = true;
  }
}

void Server::admit(Shard& shard, const std::shared_ptr<ClientSession>& client,
                   Request req) {
  if (stop_.load(std::memory_order_relaxed)) {
    // Draining: addressable refusal, not counted in the admission
    // identity (the request never reached a queueing decision).
    client->send_line(format_err(req.id, ErrCode::kShutdown));
    return;
  }
  totals_.requests.fetch_add(1, std::memory_order_relaxed);
  // Identity markers: one zero-length span per counter bump, at the
  // exact bump site, so `pftk prof` can re-derive
  //   requests == served + shed + deadline_missed + internal
  // from span counts alone.
  flight::Recorder::instance().record_marker("serve.req.admitted");

  bool shed = shard.queue.size() >= config_.queue_depth;
  const auto hit = robust::failpoint("serve.enqueue");
  if (hit.fired()) {
    switch (hit.action) {
      case robust::FailpointAction::kDelay:
        std::this_thread::sleep_for(std::chrono::milliseconds(hit.arg));
        break;
      case robust::FailpointAction::kCrash:
        robust::crash_now();
      default:
        // Injected admission failure behaves as a forced shed: the
        // accounting identity must still balance under chaos.
        shed = true;
        break;
    }
  }
  if (shed) {
    totals_.shed.fetch_add(1, std::memory_order_relaxed);
    flight::Recorder::instance().record_marker("serve.req.shed");
    // The hint is the expected time to drain a full queue, depth × EWMA
    // service time, clamped to [1, 30000] ms: a cold shard (EWMA still
    // 0) quotes 1 ms, never 0.
    const std::uint64_t retry_ms =
        busy_retry_hint_ms(shard.service_ewma_s, config_.queue_depth);
    client->send_line(format_err(req.id, ErrCode::kBusy,
                                 {{"retry_ms", std::to_string(retry_ms)}}));
    return;
  }

  const auto now = Clock::now();
  QueuedRequest qr;
  qr.admitted = now;
  const double budget_ms =
      req.has_deadline() ? req.deadline_ms : config_.default_deadline_ms;
  qr.deadline = budget_ms > 0.0
                    ? now + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double, std::milli>(
                                    budget_ms))
                    : Clock::time_point::max();
  qr.client = client;
  qr.req = std::move(req);
  shard.queue.push_back(std::move(qr));
  totals_.bump_queue_peak(shard.queue.size());
}

void Server::run_batch(Shard& shard) {
  if (shard.queue.empty()) {
    return;
  }
  std::vector<QueuedRequest>& batch = shard.batch;  // empty between calls
  batch.push_back(std::move(shard.queue.front()));
  shard.queue.pop_front();
  if (batch.front().req.verb == Verb::kModel) {
    // Drain the front-contiguous run sharing this PreparedModel key:
    // FIFO order is preserved, and the whole run costs one prepare.
    const auto key = PreparedCache::key_of(batch.front().req.kind,
                                           batch.front().req.params);
    while (batch.size() < kBatchMax && !shard.queue.empty() &&
           shard.queue.front().req.verb == Verb::kModel &&
           PreparedCache::key_of(shard.queue.front().req.kind,
                                 shard.queue.front().req.params) == key) {
      batch.push_back(std::move(shard.queue.front()));
      shard.queue.pop_front();
    }
  }

  const auto start = Clock::now();
  auto& recorder = flight::Recorder::instance();
  // Dequeue-time deadline check: shed expired work before evaluating.
  std::size_t live = 0;
  for (auto& qr : batch) {
    // Queue wait (admission to dequeue) is the overload signal; record
    // it for every dequeued request — including the ones about to miss
    // their deadline, whose wait is exactly what killed them.
    shard.queue_wait_ms.observe(seconds_between(qr.admitted, start) * 1e3);
    if (flight::armed()) {
      recorder.record("serve.queue_wait", recorder.to_ns(qr.admitted),
                      recorder.to_ns(start));
    }
    if (start > qr.deadline) {
      fail(qr, ErrCode::kDeadlineExceeded, {});
    } else {
      if (&batch[live] != &qr) {
        batch[live] = std::move(qr);
      }
      ++live;
    }
  }
  batch.resize(live);
  if (batch.empty()) {
    return;
  }
  if (batch.size() > 1) {
    totals_.batches.fetch_add(1, std::memory_order_relaxed);
    totals_.batched_requests.fetch_add(batch.size(), std::memory_order_relaxed);
  }

  std::uint64_t newly_served = 0;
  if (batch.front().req.verb == Verb::kModel) {
    std::vector<double> ps(batch.size());
    std::vector<double> rates(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ps[i] = batch[i].req.params.p;
    }
    const auto kind = batch.front().req.kind;
    try {
      const auto& prepared = shard.cache.get(kind, batch.front().req.params);
      prepared.evaluate(std::span<const double>(ps), std::span<double>(rates));
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (config_.slow_us > 0) {
          spin_for_us(config_.slow_us);
        }
        respond(batch[i],
                format_ok(batch[i].req.id,
                          {{"rate", format_number(rates[i])},
                           {"model", std::string(model_kind_token(kind))}}));
        ++newly_served;
      }
    } catch (const std::exception& e) {
      for (const auto& qr : batch) {
        fail(qr, ErrCode::kInternal, e.what());
      }
    }
  } else {
    // INVERSE / CALIB are never batched (batch drain is MODEL-only).
    const auto& qr = batch.front();
    if (config_.slow_us > 0) {
      spin_for_us(config_.slow_us);
    }
    try {
      if (qr.req.verb == Verb::kInverse) {
        handle_inverse(qr);
      } else {
        handle_calib(qr);
      }
      ++newly_served;
    } catch (const ProtocolError& e) {
      fail(qr, e.code(), e.what());
    } catch (const std::exception& e) {
      fail(qr, ErrCode::kInternal, e.what());
    }
  }

  const auto end = Clock::now();
  if (flight::armed()) {
    // Dequeue to last response, arg = batch width; serve.write spans
    // recorded during the responses roll up under this scope.
    recorder.record("serve.eval_batch", recorder.to_ns(start),
                    recorder.to_ns(end), batch.size());
  }
  const double per_request =
      seconds_between(start, end) / static_cast<double>(batch.size());
  // First completed request seeds the EWMA directly; blending with the
  // 0 cold-start value would under-report service time for ~a dozen
  // requests and feed the BUSY hint junk.
  shard.service_ewma_s = shard.service_ewma_s == 0.0
                             ? per_request
                             : 0.8 * shard.service_ewma_s + 0.2 * per_request;
  batch.clear();  // release the sessions these requests held
  if (newly_served > 0) {
    maybe_flush(newly_served);
  }
}

void Server::respond(const QueuedRequest& qr, const std::string& line) {
  qr.client->send_line(line);
  const auto now = Clock::now();
  totals_.served.fetch_add(1, std::memory_order_relaxed);
  latency_.observe(seconds_between(qr.admitted, now));
  if (flight::armed()) {
    auto& recorder = flight::Recorder::instance();
    recorder.record("serve.req.served", recorder.to_ns(qr.admitted),
                    recorder.to_ns(now));
  }
}

void Server::fail(const QueuedRequest& qr, ErrCode code, std::string_view msg) {
  const bool missed = code == ErrCode::kDeadlineExceeded;
  (missed ? totals_.deadline_missed : totals_.internal_errors)
      .fetch_add(1, std::memory_order_relaxed);
  if (flight::armed()) {
    // Marker duration = the request's whole time in the system.
    auto& recorder = flight::Recorder::instance();
    recorder.record(missed ? "serve.req.deadline_missed" : "serve.req.internal",
                    recorder.to_ns(qr.admitted), recorder.now_ns());
  }
  qr.client->send_line(
      msg.empty() ? format_err(qr.req.id, code)
                  : format_err(qr.req.id, code, {{"msg", sanitize_field(msg)}}));
}

void Server::handle_inverse(const QueuedRequest& qr) {
  const double max_p = model::max_loss_for_rate(qr.req.params, qr.req.target_rate);
  const double wm_req =
      model::required_window_for_rate(qr.req.params, qr.req.target_rate);
  respond(qr, format_ok(qr.req.id, {{"max_p", format_number(max_p)},
                                    {"wm_required", format_number(wm_req)}}));
}

void Server::handle_calib(const QueuedRequest& qr) {
  trace::TraceFileImage image;
  if (!image.open(qr.req.trace_path)) {
    throw ProtocolError(ErrCode::kInternal, qr.req.id,
                        "cannot open trace " + qr.req.trace_path);
  }
  const std::string_view text = image.view();
  std::vector<trace::TraceEvent> events;
  std::size_t lines_dropped = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    // Deadline checkpoint *before* each chunk: a huge trace is abandoned
    // at a chunk boundary, not after the whole file is parsed.
    if (Clock::now() > qr.deadline) {
      throw ProtocolError(ErrCode::kDeadlineExceeded, qr.req.id,
                          "deadline expired during trace parse");
    }
    std::size_t end = pos;
    for (std::size_t lines = 0; lines < kCalibChunkLines && end < text.size(); ++lines) {
      const std::size_t nl = trace::find_newline(text, end);
      end = nl == std::string_view::npos ? text.size() : nl + 1;
    }
    trace::TraceReadReport report;
    const auto chunk_events =
        trace::read_trace_lenient(text.substr(pos, end - pos), &report);
    lines_dropped += report.lines_dropped;
    events.insert(events.end(), chunk_events.begin(), chunk_events.end());
    totals_.calib_chunks.fetch_add(1, std::memory_order_relaxed);
    pos = end;
  }

  const auto summary = trace::summarize_trace(events, qr.req.dupack_threshold);
  std::vector<std::pair<std::string, std::string>> fields{
      {"packets", std::to_string(summary.packets_sent)},
      {"loss_indications", std::to_string(summary.loss_indications)},
      {"p", format_number(summary.observed_p)},
      {"rtt", format_number(summary.avg_rtt)},
      {"t0", format_number(summary.avg_timeout)},
      {"lines_dropped", std::to_string(lines_dropped)},
  };
  model::ModelParams mp;
  mp.p = summary.observed_p;
  mp.rtt = summary.avg_rtt;
  mp.t0 = summary.avg_timeout;
  mp.b = qr.req.params.b;
  mp.wm = model::ModelParams::unlimited_window;
  if (mp.valid()) {
    fields.emplace_back(
        "rate_full",
        format_number(model::evaluate_model(model::ModelKind::kFull, mp)));
    fields.emplace_back(
        "rate_approx",
        format_number(model::evaluate_model(model::ModelKind::kApproximate, mp)));
  }
  respond(qr, format_ok(qr.req.id, fields));
}

void Server::maybe_flush(std::uint64_t newly_served) {
  if (config_.metrics_out.empty() || config_.metrics_every == 0) {
    return;
  }
  const std::uint64_t before =
      flush_credit_.fetch_add(newly_served, std::memory_order_relaxed);
  if ((before + newly_served) / config_.metrics_every >
      before / config_.metrics_every) {
    flush_metrics();
  }
}

void Server::flush_metrics() {
  std::lock_guard<std::mutex> lock(flush_mu_);
  try {
    obs::save_obs_file(config_.metrics_out,
                       make_bundle(totals_, latency_, merged_queue_wait()));
    totals_.metrics_flushes.fetch_add(1, std::memory_order_relaxed);
  } catch (const std::exception&) {
    // A failed flush must not take down the serving path; the previous
    // durable snapshot is still intact on disk.
    totals_.metrics_flush_failures.fetch_add(1, std::memory_order_relaxed);
  }
}

std::string default_socket_path() {
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
  if (!dir.empty() && dir.back() == '/') {
    dir.pop_back();
  }
  return dir + "/pftk-serve-" + std::to_string(::getpid()) + ".sock";
}

}  // namespace pftk::serve
