#include "exp/campaign/campaign_runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/model_registry.hpp"
#include "exp/campaign/retry_policy.hpp"
#include "obs/flight/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/standard_metrics.hpp"
#include "robust/durable_file.hpp"

namespace pftk::exp::campaign {

namespace {

std::size_t model_index(model::ModelKind kind) noexcept {
  for (std::size_t i = 0; i < model::all_model_kinds.size(); ++i) {
    if (model::all_model_kinds[i] == kind) {
      return i;
    }
  }
  return 0;
}

/// Spec watchdog plus the per-attempt wall-clock deadline.
sim::WatchdogConfig supervised_watchdog(const CampaignSpec& spec) {
  sim::WatchdogConfig config = spec.watchdog;
  config.max_wall_time = spec.deadline_s;
  return config;
}

JournalEntry make_entry(const CampaignItemResult& result) {
  JournalEntry entry;
  entry.index = result.item.index;
  entry.key = result.item.key();
  entry.ok = result.ok();
  entry.attempts = result.attempts;
  if (entry.ok) {
    entry.metrics = result.metrics;
  } else {
    entry.failure_class = result.status == ItemStatus::kFailedTransient
                              ? FailureClass::kTransient
                              : FailureClass::kPermanent;
    entry.failure_kind = result.failure_kind;
    entry.error = result.error;
  }
  return entry;
}

}  // namespace

TraceOutcome run_campaign_trace(const CampaignSpec& spec, const CampaignItem& first,
                                std::uint64_t seed) {
  TraceOutcome outcome;
  if (spec.kind == CampaignKind::kShortTrace) {
    ShortTraceOptions opt;
    opt.connections = 1;
    opt.duration = spec.duration;
    opt.seed = seed;
    opt.forward_faults = first.scenario.forward;
    opt.reverse_faults = first.scenario.reverse;
    opt.enable_watchdog = true;
    opt.watchdog = supervised_watchdog(spec);
    ShortTraceRecord rec = run_one_short_trace(first.profile, opt, 0);
    outcome.metrics.packets_sent = rec.packets_sent;
    outcome.metrics.send_rate =
        static_cast<double>(rec.packets_sent) / spec.duration;
    outcome.metrics.p = rec.params.p;
    outcome.metrics.rtt = rec.params.rtt;
    outcome.metrics.t0 = rec.params.t0;
    outcome.predicted = rec.predicted;
    outcome.metrics.forward_faults = rec.forward_faults;
    outcome.metrics.reverse_faults = rec.reverse_faults;
    outcome.short_trace = std::move(rec);
  } else {
    HourTraceOptions opt;
    opt.duration = spec.duration;
    opt.interval_length = spec.interval_length;
    opt.seed = seed;
    opt.forward_faults = first.scenario.forward;
    opt.reverse_faults = first.scenario.reverse;
    opt.enable_watchdog = true;
    opt.watchdog = supervised_watchdog(spec);
    HourTraceResult result = run_hour_trace(first.profile, opt);
    outcome.metrics.packets_sent = result.summary.packets_sent;
    outcome.metrics.send_rate = result.measured_send_rate;
    outcome.metrics.p = result.trace_params.p;
    outcome.metrics.rtt = result.trace_params.rtt;
    outcome.metrics.t0 = result.trace_params.t0;
    for (std::size_t m = 0; m < model::all_model_kinds.size(); ++m) {
      outcome.predicted[m] =
          model::evaluate_model(model::all_model_kinds[m], result.trace_params) *
          spec.duration;
    }
    outcome.metrics.forward_faults = result.forward_faults;
    outcome.metrics.reverse_faults = result.reverse_faults;
    outcome.hour = std::move(result);
  }
  return outcome;
}

std::string CampaignResult::taxonomy_summary() const {
  std::size_t transient = 0;
  std::size_t permanent = 0;
  std::map<FailureKind, std::size_t> by_kind;  // ordered -> stable rendering
  for (const CampaignItemResult& result : items) {
    if (result.ok() || result.status == ItemStatus::kNotRun) {
      continue;
    }
    (result.status == ItemStatus::kFailedTransient ? transient : permanent) += 1;
    ++by_kind[result.failure_kind];
  }
  if (transient + permanent == 0) {
    return "";
  }
  std::ostringstream os;
  os << (transient + permanent) << "/" << items.size()
     << " items lost: transient " << transient << ", permanent " << permanent
     << " (";
  bool first = true;
  for (const auto& [kind, count] : by_kind) {
    if (!first) {
      os << ", ";
    }
    os << failure_kind_name(kind) << " " << count;
    first = false;
  }
  os << ")";
  return os.str();
}

CampaignRunner::CampaignRunner(CampaignSpec spec, CampaignRunnerOptions options)
    : spec_(std::move(spec)), options_(std::move(options)) {
  spec_.validate();
  if (options_.threads < 1) {
    throw std::invalid_argument("CampaignRunner: threads must be >= 1");
  }
  if (options_.resume && options_.journal_path.empty()) {
    throw std::invalid_argument("CampaignRunner: resume requires a journal path");
  }
}

CampaignResult CampaignRunner::run() {
  const std::vector<CampaignItem> items = spec_.expand();
  // Models vary fastest in expansion order, so trace t (one profile,
  // seed and scenario) is the run of items [t * per_trace, (t + 1) *
  // per_trace).
  const std::size_t per_trace = spec_.models.empty() ? 1 : spec_.models.size();
  CampaignResult result;
  result.items.resize(items.size());

  // Per-worker metric shards: counters sum and gauges max on merge, so
  // the snapshot is independent of which worker ran which trace.
  obs::MetricsRegistry registry;
  const obs::StandardMetrics met = obs::StandardMetrics::register_on(registry);
  registry.freeze(static_cast<std::size_t>(options_.threads));

  // Replay the journal's ordered prefix; those items are already settled.
  std::size_t first_pending = 0;
  std::optional<robust::DurableAppender> journal;
  if (!options_.journal_path.empty()) {
    if (options_.resume) {
      const JournalReplay replay = replay_journal_file(options_.journal_path);
      if (replay.entries.size() > items.size()) {
        throw std::invalid_argument(
            "journal does not match spec: " + std::to_string(replay.entries.size()) +
            " entries for " + std::to_string(items.size()) + " items");
      }
      for (std::size_t i = 0; i < replay.entries.size(); ++i) {
        const JournalEntry& entry = replay.entries[i];
        if (entry.key != items[i].key()) {
          throw std::invalid_argument("journal does not match spec at item " +
                                      std::to_string(i) + ": journal '" + entry.key +
                                      "' vs spec '" + items[i].key() + "'");
        }
        CampaignItemResult& replayed = result.items[i];
        replayed.item = items[i];
        replayed.from_journal = true;
        replayed.attempts = entry.attempts;
        if (entry.ok) {
          replayed.status = ItemStatus::kOk;
          replayed.metrics = entry.metrics;
        } else {
          replayed.status = entry.failure_class == FailureClass::kTransient
                                ? ItemStatus::kFailedTransient
                                : ItemStatus::kFailedPermanent;
          replayed.failure_kind = entry.failure_kind;
          replayed.error = entry.error;
        }
      }
      first_pending = replay.entries.size();
      result.resumed = first_pending;
      // Drop any torn tail so appended lines butt against the valid
      // prefix (a kill mid-append leaves a partial last line).
      std::error_code ec;
      if (std::filesystem::exists(options_.journal_path, ec) && !ec) {
        std::filesystem::resize_file(options_.journal_path, replay.valid_bytes, ec);
        if (ec) {
          throw std::runtime_error("cannot truncate journal " +
                                   options_.journal_path + ": " + ec.message());
        }
      }
    }
    // Durable fd-level appender: every committed record is written with
    // checked write(2) + fsync(2) per the configured cadence, with
    // journal.append / journal.flush failpoints live on the path.
    robust::DurableAppender::Options append_options;
    append_options.truncate = !options_.resume;
    append_options.fsync_every = options_.fsync_every;
    try {
      journal.emplace(options_.journal_path, append_options);
    } catch (const robust::IoError& ex) {
      throw std::invalid_argument("cannot open journal: " +
                                  options_.journal_path + " (" + ex.what() + ")");
    }
  }

  const TraceExecutor executor =
      options_.executor
          ? options_.executor
          : TraceExecutor([this](const CampaignItem& first, std::uint64_t seed) {
              return run_campaign_trace(spec_, first, seed);
            });
  const std::function<void(std::chrono::milliseconds)> sleep_fn =
      options_.sleep ? options_.sleep : [](std::chrono::milliseconds delay) {
        if (delay.count() > 0) {
          std::this_thread::sleep_for(delay);
        }
      };

  const auto stop_requested = [this] {
    return options_.stop != nullptr &&
           options_.stop->load(std::memory_order_relaxed);
  };

  // One supervised trace: attempt / classify / backoff-retry loop, one
  // simulation per attempt. Returns the settlement every one of the
  // trace's `pending` items shares, and fills `predicted` on success.
  // Wall timings are diagnostics only, never fed back into scheduling
  // or the journal: the flight recorder's campaign.* spans are the
  // ladder's timeline, and the registry's histograms its aggregate.
  const auto run_trace = [&](const CampaignItem& first, std::size_t pending,
                             obs::MetricsShard& shard,
                             decltype(TraceOutcome::predicted)& predicted) {
    PFTK_SPAN("campaign.trace", first.seed);
    CampaignItemResult settled;
    const auto span_start = std::chrono::steady_clock::now();
    const auto close_span = [&] {
      settled.span.total_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - span_start)
              .count();
    };
    for (int attempt = 0; attempt < spec_.retry.max_attempts; ++attempt) {
      if (attempt > 0) {
        const std::chrono::milliseconds delay = spec_.retry.backoff(attempt);
        {
          PFTK_SPAN("campaign.backoff", static_cast<std::uint64_t>(attempt));
          sleep_fn(delay);
        }
        shard.observe(met.backoff_seconds, static_cast<double>(delay.count()) / 1000.0);
        shard.add(met.retries, static_cast<double>(pending));  // per item
      }
      const auto attempt_start = std::chrono::steady_clock::now();
      const auto attempt_seconds = [&attempt_start] {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             attempt_start)
            .count();
      };
      const auto record_attempt = [&attempt_start, attempt] {
        namespace flight = obs::flight;
        if (flight::armed()) {
          auto& recorder = flight::Recorder::instance();
          recorder.record("campaign.attempt", recorder.to_ns(attempt_start),
                          recorder.now_ns(),
                          static_cast<std::uint64_t>(attempt + 1));
        }
      };
      try {
        TraceOutcome outcome = executor(first, perturbed_seed(first.seed, attempt));
        shard.observe(met.attempt_seconds, attempt_seconds());
        record_attempt();
        settled.status = ItemStatus::kOk;
        settled.failure_kind = FailureKind::kNone;
        settled.attempts = attempt + 1;
        settled.error.clear();
        settled.metrics = outcome.metrics;
        predicted = outcome.predicted;
        settled.hour = std::move(outcome.hour);
        settled.short_trace = std::move(outcome.short_trace);
        close_span();
        return settled;
      } catch (const std::exception& ex) {
        const FailureVerdict verdict = classify_failure(ex);
        if (verdict.kind == FailureKind::kInvariantViolation) {
          shard.add(met.invariant_violations);
        }
        shard.observe(met.attempt_seconds, attempt_seconds());
        record_attempt();
        settled.attempts = attempt + 1;
        settled.failure_kind = verdict.kind;
        settled.error = ex.what();
        if (!verdict.retryable()) {
          settled.status = ItemStatus::kFailedPermanent;
          close_span();
          return settled;
        }
        settled.status = ItemStatus::kFailedTransient;
        // Graceful shutdown mid-ladder: abandon instead of settling a
        // short-changed retry budget. An abandoned trace is never
        // journaled, so a --resume re-runs the full ladder and the
        // final journal matches an uninterrupted run byte for byte.
        if (stop_requested()) {
          settled.status = ItemStatus::kNotRun;
          close_span();
          return settled;
        }
      }
    }
    close_span();
    return settled;  // transient, retry budget exhausted
  };

  // Ordered journal committer: workers settle items in completion order,
  // the commit cursor writes+flushes them in spec order.
  std::mutex commit_mu;
  std::map<std::size_t, JournalEntry> pending;
  std::size_t cursor = first_pending;
  const auto settle = [&](std::size_t index, JournalEntry entry) {
    std::lock_guard<std::mutex> lock(commit_mu);
    pending.emplace(index, std::move(entry));
    for (auto it = pending.find(cursor); it != pending.end();
         it = pending.find(++cursor)) {
      if (journal.has_value() && journal->is_open()) {
        const std::string line = it->second.to_json();
        {
          PFTK_SPAN("campaign.journal_append", line.size());
          journal->append_line(line);  // throws IoError; fsync per cadence
        }
        ++result.journal_io.writes;
        result.journal_io.bytes += line.size() + 1;
      }
      pending.erase(it);
    }
  };

  // A journal prefix that ends inside a trace leaves that trace's tail
  // pending: it is re-simulated, and only the unjournaled items settle.
  std::atomic<std::size_t> next{first_pending / per_trace};
  const std::size_t trace_count = items.size() / per_trace;
  std::atomic<bool> abort{false};
  std::mutex error_mu;
  std::exception_ptr infra_error;
  const auto worker = [&](std::size_t worker_id) {
    obs::MetricsShard& shard = registry.shard(worker_id);
    while (!abort.load(std::memory_order_relaxed)) {
      if (stop_requested()) {
        return;  // graceful shutdown: stop admitting traces
      }
      const std::size_t trace = next.fetch_add(1, std::memory_order_relaxed);
      if (trace >= trace_count) {
        return;
      }
      const std::size_t begin = std::max(trace * per_trace, first_pending);
      const std::size_t end = (trace + 1) * per_trace;
      try {
        decltype(TraceOutcome::predicted) predicted{};
        const CampaignItemResult settled =
            run_trace(items[trace * per_trace], end - begin, shard, predicted);
        for (std::size_t i = begin; i < end; ++i) {
          CampaignItemResult& item_result = result.items[i];
          item_result = settled;
          item_result.item = items[i];
          item_result.metrics.predicted = predicted[model_index(items[i].model)];
        }
        if (settled.status == ItemStatus::kNotRun) {
          // Abandoned by shutdown: recorded, but never journaled — a
          // partial retry ladder must not become a durable verdict.
          return;
        }
        for (std::size_t i = begin; i < end; ++i) {
          settle(i, make_entry(result.items[i]));
        }
      } catch (...) {
        // Infrastructure fault (journal I/O, non-std exception): stop the
        // pool and surface the first cause.
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!infra_error) {
          infra_error = std::current_exception();
        }
        abort.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  if (first_pending < items.size()) {
    const int thread_count = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(options_.threads),
                              trace_count - first_pending / per_trace));
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(thread_count));
    for (int t = 0; t < thread_count; ++t) {
      pool.emplace_back(worker, static_cast<std::size_t>(t));
    }
    for (std::thread& th : pool) {
      th.join();
    }
    if (infra_error) {
      std::rethrow_exception(infra_error);
    }
  }

  // A stop request may leave items unclaimed (no worker ever touched
  // them): mark them kNotRun so the result names every item.
  result.interrupted = stop_requested();
  if (result.interrupted) {
    for (std::size_t i = first_pending; i < items.size(); ++i) {
      CampaignItemResult& item_result = result.items[i];
      if (item_result.attempts == 0 && !item_result.from_journal) {
        item_result.item = items[i];
        item_result.status = ItemStatus::kNotRun;
      }
    }
  }

  // Final journal durability: flush whatever the cadence left pending
  // and surface close errors instead of dropping them.
  if (journal.has_value()) {
    journal->close();
    result.journal_io.flushes = journal->fsyncs();
  }

  // Aggregate RunReport, in deterministic spec order. Campaign-level
  // roll-up metrics land on shard 0 (the pool is quiescent by now).
  result.journal_io.replayed = static_cast<std::uint64_t>(first_pending);
  obs::MetricsShard& shard0 = registry.shard(0);
  shard0.add(met.journal_writes, static_cast<double>(result.journal_io.writes));
  shard0.add(met.journal_bytes, static_cast<double>(result.journal_io.bytes));
  shard0.add(met.journal_flushes, static_cast<double>(result.journal_io.flushes));
  shard0.add(met.journal_replayed, static_cast<double>(result.journal_io.replayed));
  // Item counts are per item; packet and fault totals are per
  // simulation, so each settled trace adds them once (from its first ok
  // item, journal-replayed or not).
  std::size_t counted_trace = items.size();  // none yet
  for (std::size_t i = 0; i < result.items.size(); ++i) {
    const CampaignItemResult& item_result = result.items[i];
    if (item_result.status == ItemStatus::kNotRun) {
      ++result.not_run;
      continue;  // abandoned, not attempted: resume picks it up
    }
    shard0.add(met.items_total);
    if (item_result.ok()) {
      shard0.add(met.items_ok);
      result.report.record_success();
    } else {
      result.report.record_failure(item_result.item.key(), item_result.error);
    }
    if (item_result.ok() && i / per_trace != counted_trace) {
      counted_trace = i / per_trace;
      shard0.add(met.packets_sent,
                 static_cast<double>(item_result.metrics.packets_sent));
      const sim::FaultStats& fwd = item_result.metrics.forward_faults;
      const sim::FaultStats& rev = item_result.metrics.reverse_faults;
      shard0.add(met.fault_offered, static_cast<double>(fwd.offered + rev.offered));
      shard0.add(met.fault_dropped,
                 static_cast<double>(fwd.total_dropped() + rev.total_dropped()));
      shard0.add(met.fault_duplicated,
                 static_cast<double>(fwd.duplicated + rev.duplicated));
      shard0.add(met.fault_reordered,
                 static_cast<double>(fwd.reordered + rev.reordered));
      shard0.add(met.fault_delayed, static_cast<double>(fwd.delayed + rev.delayed));
      result.report.forward_faults += fwd;
      result.report.reverse_faults += rev;
    }
  }
  result.report.interrupted = result.interrupted;
  result.report.metrics = registry.snapshot();
  return result;
}

}  // namespace pftk::exp::campaign
