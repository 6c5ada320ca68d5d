// `pftk serve` — the overload-resilient throughput-prediction daemon.
//
// A single process listening on a local (unix-domain) stream socket,
// speaking the line protocol of serve/protocol.hpp, designed
// robustness-first around four rules:
//
//   * bounded everything — each shard loop owns a bounded request
//     queue; once its depth reaches the admission watermark the request
//     is *rejected now* with `BUSY retry_ms=<hint>` instead of buffered.
//     Line buffers are capped (TOOBIG past the cap), client count is
//     capped, and the PreparedModel cache is LRU-bounded, so offered
//     load beyond capacity cannot grow resident memory.
//   * deadlines over queues — a request's `deadline_ms` budget runs from
//     admission; expiry is checked at dequeue (before any evaluation)
//     and again between CALIB trace chunks, so stale work is shed, not
//     finished late.
//   * graceful drain — request_stop() (the CLI wires SIGINT/SIGTERM via
//     robust::ShutdownGuard) stops accepting and reading, answers every
//     already-admitted request, durably flushes metrics, and returns;
//     the CLI exits 3 per the repo-wide interrupted contract.
//   * exact accounting — every admitted request is answered exactly
//     once: requests == served + shed + deadline_missed + internal
//     (ServeTotals::accounting_ok, asserted under overload and chaos).
//
// Threading: exactly `shards` threads, each one epoll loop that owns its
// connections, bounded queue, PreparedModel cache and queue-wait
// histogram; a request never changes threads. Any loop may accept, and
// the k-th accepted connection goes to loop k mod shards. Each iteration
// does one read per ready connection, then drains one front-contiguous
// run of same-key MODEL requests into one PreparedModel::evaluate batch
// (ROADMAP item 5). Writes block. Failpoint sites `serve.accept`,
// `serve.read`, `serve.write`, `serve.enqueue` make every I/O edge
// chaos-testable.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/prepared_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/serve_metrics.hpp"

namespace pftk::serve {

struct ServeConfig {
  /// Unix-domain socket path (< 100 bytes; a stale file is replaced).
  std::string socket_path;
  int shards = 2;                    ///< event loops (one thread each)
  std::size_t queue_depth = 64;      ///< admission watermark per shard
  std::size_t max_line_bytes = 4096; ///< request-line cap (TOOBIG beyond)
  std::size_t max_clients = 64;      ///< concurrent connections
  /// Default relative deadline applied to requests that carry none;
  /// 0 = requests without deadline_ms never expire.
  double default_deadline_ms = 0.0;
  std::string metrics_out;           ///< durable pftk-obs/1 snapshot path
  /// Flush the metrics snapshot every N served requests (0 = only at
  /// drain). Each flush is atomic_write_file-durable, so a crash between
  /// flushes leaves the previous complete snapshot on disk.
  std::uint64_t metrics_every = 0;
  /// Deterministic per-request service-time inflation in microseconds
  /// (busy-wait). Test/bench hook: makes "sustainable load" a chosen
  /// number so overload behavior is reproducible. 0 in production.
  std::uint64_t slow_us = 0;

  /// @throws model::ParamError on out-of-range values.
  void validate() const;
};

/// The daemon. start() spawns the shard loops; request_stop() begins a
/// graceful drain; wait() joins them, writes the final durable metrics
/// snapshot, and returns the summary. The destructor stops and waits if
/// the caller has not.
class Server {
 public:
  /// Most same-key MODEL requests one PreparedModel::evaluate batch takes.
  static constexpr std::size_t kBatchMax = 16;

  explicit Server(ServeConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket and launches the loops.
  /// @throws robust::IoError when the socket or an epoll set cannot be
  /// created.
  void start();

  /// Begins graceful drain: wakes every loop, which stops accepting and
  /// reading, answers every admitted request and closes its clients.
  /// Idempotent, callable from any thread (not from a signal handler —
  /// poll robust::ShutdownGuard and call this instead).
  void request_stop();

  /// Joins the loops (each drains its queue first), flushes metrics,
  /// closes the listen fd and unlinks the socket file. Idempotent;
  /// returns the final summary.
  ServeSummary wait();

  [[nodiscard]] bool running() const noexcept { return started_ && !joined_; }
  [[nodiscard]] const ServeConfig& config() const noexcept { return config_; }
  [[nodiscard]] ServeSummary summary() const;
  [[nodiscard]] const ServeTotals& totals() const noexcept { return totals_; }

  /// Every shard's queue-wait histogram merged into one snapshot — the
  /// metrics-side cross-check of the flight recorder's serve.queue_wait
  /// spans.
  [[nodiscard]] HistogramSnapshot merged_queue_wait() const;

 private:
  class ClientSession;
  struct QueuedRequest {
    Request req;
    std::shared_ptr<ClientSession> client;
    std::chrono::steady_clock::time_point admitted;
    std::chrono::steady_clock::time_point deadline;
  };
  /// One event loop. Only its own thread touches it, except the inbox
  /// and the (atomic) histogram.
  struct Shard {
    /// Epoll set watching `listen_fd` and wake_fd. @throws robust::IoError
    explicit Shard(int listen_fd);
    ~Shard();
    Shard(const Shard&) = delete;
    Shard& operator=(const Shard&) = delete;

    int epoll_fd = -1;
    int wake_fd = -1;  ///< eventfd: inbox hand-off or request_stop()
    std::unordered_map<int, std::shared_ptr<ClientSession>> clients;
    std::deque<QueuedRequest> queue;
    std::vector<QueuedRequest> batch;  ///< reused per iteration
    PreparedCache cache{32};
    /// EWMA of per-request service seconds; feeds the BUSY retry hint.
    /// 0 until the first request completes (the hint clamps up to 1 ms).
    double service_ewma_s = 0.0;
    /// Admission-to-dequeue wait (ms). Per loop, so observation never
    /// contends across loops; snapshots are merged at summary/flush time.
    ConcurrentHistogram queue_wait_ms{default_queue_wait_bounds_ms()};
    /// Accepted fds handed to this loop; wait() closes any it never took.
    std::mutex inbox_mu;
    std::vector<int> inbox;
    std::thread thread;  ///< runs run_loop(*this); joined by wait()
  };

  void run_loop(Shard& shard);
  void accept_one();
  /// Registers the connections handed to this loop (its eventfd fired).
  void adopt_inbox(Shard& shard);
  void close_client(Shard& shard, int fd);
  void read_client(Shard& shard, std::shared_ptr<ClientSession> client);
  void admit(Shard& shard, const std::shared_ptr<ClientSession>& client,
             Request req);
  void run_batch(Shard& shard);
  void handle_inverse(const QueuedRequest& qr);
  void handle_calib(const QueuedRequest& qr);
  /// Answers OK and counts the request served.
  void respond(const QueuedRequest& qr, const std::string& line);
  /// Answers an error the identity counts as deadline_missed
  /// (DEADLINE_EXCEEDED) or internal (any other code).
  void fail(const QueuedRequest& qr, ErrCode code, std::string_view msg);
  void maybe_flush(std::uint64_t newly_served);
  void flush_metrics();

  ServeConfig config_;
  ServeTotals totals_;
  ConcurrentHistogram latency_{default_latency_bounds()};

  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};  ///< no new connections/reads
  bool started_ = false;
  bool joined_ = false;

  /// Serializes accept() with connection numbering, so the k-th
  /// connection out of the backlog is the one routed to loop k mod shards.
  std::mutex accept_mu_;
  std::uint64_t next_owner_ = 0;  ///< guarded by accept_mu_
  std::atomic<std::size_t> open_clients_{0};  ///< across loops (max_clients)

  std::mutex flush_mu_;
  std::atomic<std::uint64_t> flush_credit_{0};

  std::vector<std::unique_ptr<Shard>> shards_;  ///< last: its loops use the above
};

/// A collision-safe default socket path under TMPDIR (or /tmp), short
/// enough for sun_path.
[[nodiscard]] std::string default_socket_path();

}  // namespace pftk::serve
