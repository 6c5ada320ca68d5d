// The campaign runner's contract, straight from the issue:
//   * same spec + seeds => byte-identical journal and result ordering at
//     1, 4, and 8 worker threads;
//   * a kill-then-resume run (journal replay) equals an uninterrupted
//     run;
//   * watchdog trips are transient: retried with backoff and a perturbed
//     seed; invalid inputs are permanent: recorded once, never retried;
//   * one simulation settles every model item of a trace, and the
//     multi-model journals stay byte-identical to the committed goldens;
//   * with the flight recorder armed, the campaign.* spans are the
//     ladder's one timeline: a trace span per trace, an attempt span per
//     simulation and a backoff span per retry inside it, and a
//     journal_append span per journal line.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "exp/campaign/campaign_runner.hpp"
#include "obs/flight/flight_recorder.hpp"
#include "sim/sim_watchdog.hpp"

namespace pftk::exp::campaign {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "pftk_campaign_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

PathProfile quick_profile(const std::string& sender, const std::string& receiver) {
  PathProfile profile;
  profile.sender = sender;
  profile.receiver = receiver;
  profile.one_way_delay = 0.05;
  profile.loss_p = 0.02;
  profile.advertised_window = 16.0;
  return profile;
}

/// 2 profiles x 3 seeds x {clean, long blackout}: the blackout outlives
/// the run, stalls the sender past the (tightened) stall horizon, and
/// trips the watchdog — real transient failures, real retries.
CampaignSpec mixed_spec() {
  CampaignSpec spec;
  spec.kind = CampaignKind::kShortTrace;
  spec.duration = 300.0;
  spec.profiles = {quick_profile("a", "b"), quick_profile("c", "d")};
  spec.seeds = {11, 22, 33};
  spec.scenarios = {{"clean", {}, {}},
                    {"dark", sim::FaultSchedule::parse("blackout@5+600"), {}}};
  spec.watchdog.stall_rtos = 1.0;
  spec.retry.max_attempts = 2;
  spec.retry.backoff_base = std::chrono::milliseconds{0};  // no real sleeping
  return spec;
}

std::string data_path(const std::string& name) {
  return std::string(PFTK_TEST_DATA_DIR) + "/" + name;
}

/// 8 traces x {full, approx, td}: the clean traces succeed first time,
/// the dark ones stall on every attempt (12 ok, 12 lost with tries = 3).
CampaignSpec golden_spec() {
  return CampaignSpec::parse_file(data_path("campaign_models.spec"));
}

/// Runs `spec` into a fresh journal `name` and returns its bytes.
std::string journal_of(const CampaignSpec& spec, const std::string& name,
                       CampaignRunnerOptions options = {}) {
  options.journal_path = temp_path(name);
  std::remove(options.journal_path.c_str());
  (void)CampaignRunner(spec, options).run();
  return read_file(options.journal_path);
}

/// Status/attempts/metrics fingerprint for cross-run comparison.
std::string fingerprint(const CampaignResult& result) {
  std::ostringstream os;
  for (const CampaignItemResult& item : result.items) {
    JournalEntry entry;
    entry.index = item.item.index;
    entry.key = item.item.key();
    entry.ok = item.ok();
    entry.attempts = item.attempts;
    if (item.ok()) {
      entry.metrics = item.metrics;
    } else {
      entry.failure_class = item.status == ItemStatus::kFailedTransient
                                ? FailureClass::kTransient
                                : FailureClass::kPermanent;
      entry.failure_kind = item.failure_kind;
      entry.error = item.error;
    }
    os << entry.to_json() << "\n";
  }
  return os.str();
}

TEST(CampaignRunner, JournalAndResultsAreIdenticalAtAnyThreadCount) {
  std::vector<std::string> journals;
  std::vector<std::string> fingerprints;
  for (const int threads : {1, 4, 8}) {
    const std::string path = temp_path("det_" + std::to_string(threads) + ".jsonl");
    std::remove(path.c_str());
    CampaignRunnerOptions options;
    options.threads = threads;
    options.journal_path = path;
    CampaignRunner runner(mixed_spec(), options);
    const CampaignResult result = runner.run();
    EXPECT_EQ(result.items.size(), 12u);
    EXPECT_FALSE(result.all_ok());  // the dark scenario loses its items
    journals.push_back(read_file(path));
    fingerprints.push_back(fingerprint(result));
  }
  EXPECT_FALSE(journals[0].empty());
  EXPECT_EQ(journals[0], journals[1]);
  EXPECT_EQ(journals[0], journals[2]);
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
  EXPECT_EQ(fingerprints[0], fingerprints[2]);
}

TEST(CampaignRunner, KillThenResumeEqualsUninterrupted) {
  // Uninterrupted reference run.
  const std::string full_path = temp_path("full.jsonl");
  std::remove(full_path.c_str());
  CampaignRunnerOptions options;
  options.threads = 2;
  options.journal_path = full_path;
  const CampaignResult uninterrupted = CampaignRunner(mixed_spec(), options).run();
  const std::string full_journal = read_file(full_path);
  ASSERT_FALSE(full_journal.empty());

  // Simulate a kill after 5 settled items, mid-append of the 6th.
  std::istringstream lines(full_journal);
  std::string line;
  std::string prefix;
  for (int i = 0; i < 5 && std::getline(lines, line); ++i) {
    prefix += line + "\n";
  }
  const std::string resumed_path = temp_path("resumed.jsonl");
  write_file(resumed_path, prefix + "{\"item\":5,\"key\":\"c-");

  CampaignRunnerOptions resume_options;
  resume_options.threads = 8;  // different worker count on the resumed leg
  resume_options.journal_path = resumed_path;
  resume_options.resume = true;
  const CampaignResult resumed = CampaignRunner(mixed_spec(), resume_options).run();

  EXPECT_EQ(resumed.resumed, 5u);
  EXPECT_EQ(read_file(resumed_path), full_journal);
  EXPECT_EQ(fingerprint(resumed), fingerprint(uninterrupted));
  for (std::size_t i = 0; i < resumed.items.size(); ++i) {
    EXPECT_EQ(resumed.items[i].from_journal, i < 5u);
  }
  EXPECT_EQ(resumed.report.describe(), uninterrupted.report.describe());
}

TEST(CampaignRunner, ResumeRejectsAJournalFromADifferentSpec) {
  const std::string path = temp_path("mismatch.jsonl");
  std::remove(path.c_str());
  CampaignRunnerOptions options;
  options.journal_path = path;
  (void)CampaignRunner(mixed_spec(), options).run();

  CampaignSpec other = mixed_spec();
  other.seeds = {99, 98, 97};  // same shape, different items
  options.resume = true;
  CampaignRunner runner(other, options);
  EXPECT_THROW((void)runner.run(), std::invalid_argument);
}

TEST(CampaignRunner, WatchdogTripIsTransientAndRetriedWithBackoff) {
  CampaignSpec spec;
  spec.profiles = {quick_profile("a", "b")};
  spec.seeds = {5};
  spec.retry.max_attempts = 3;
  spec.retry.backoff_base = std::chrono::milliseconds{10};
  spec.retry.backoff_multiplier = 2.0;

  std::vector<std::uint64_t> seeds_seen;
  std::vector<std::chrono::milliseconds> delays;
  CampaignRunnerOptions options;
  options.executor = [&](const CampaignItem&, std::uint64_t seed) -> TraceOutcome {
    seeds_seen.push_back(seed);
    if (seeds_seen.size() < 3) {
      throw sim::WatchdogError(sim::WatchdogSnapshot{.reason = "stall"});
    }
    TraceOutcome outcome;
    outcome.metrics.packets_sent = 42;
    return outcome;
  };
  options.sleep = [&](std::chrono::milliseconds delay) { delays.push_back(delay); };

  const CampaignResult result = CampaignRunner(spec, options).run();
  ASSERT_EQ(result.items.size(), 1u);
  EXPECT_EQ(result.items[0].status, ItemStatus::kOk);
  EXPECT_EQ(result.items[0].attempts, 3);
  EXPECT_TRUE(result.all_ok());

  // Deterministic seed perturbation: attempt 0 keeps the base seed,
  // retries use distinct derived seeds.
  ASSERT_EQ(seeds_seen.size(), 3u);
  EXPECT_EQ(seeds_seen[0], 5u);
  EXPECT_NE(seeds_seen[1], seeds_seen[0]);
  EXPECT_NE(seeds_seen[2], seeds_seen[1]);
  EXPECT_EQ(seeds_seen[1], perturbed_seed(5, 1));
  EXPECT_EQ(seeds_seen[2], perturbed_seed(5, 2));

  // Capped exponential backoff before each retry.
  ASSERT_EQ(delays.size(), 2u);
  EXPECT_EQ(delays[0].count(), 10);
  EXPECT_EQ(delays[1].count(), 20);
}

TEST(CampaignRunner, TransientFailureExhaustsRetriesAndIsRecordedOnce) {
  CampaignSpec spec;
  spec.profiles = {quick_profile("a", "b")};
  spec.seeds = {5};
  spec.retry.max_attempts = 3;
  spec.retry.backoff_base = std::chrono::milliseconds{0};

  int calls = 0;
  CampaignRunnerOptions options;
  options.executor = [&](const CampaignItem&, std::uint64_t) -> TraceOutcome {
    ++calls;
    throw sim::WatchdogError(sim::WatchdogSnapshot{.reason = "stall"});
  };
  const CampaignResult result = CampaignRunner(spec, options).run();
  EXPECT_EQ(calls, 3);
  ASSERT_EQ(result.items.size(), 1u);
  EXPECT_EQ(result.items[0].status, ItemStatus::kFailedTransient);
  EXPECT_EQ(result.items[0].failure_kind, FailureKind::kWatchdogStall);
  EXPECT_EQ(result.items[0].attempts, 3);
  ASSERT_EQ(result.report.failures.size(), 1u);
  EXPECT_NE(result.taxonomy_summary().find("transient 1"), std::string::npos);
}

TEST(CampaignRunner, InvalidInputIsPermanentNeverRetried) {
  CampaignSpec spec;
  spec.profiles = {quick_profile("a", "b")};
  spec.seeds = {5};
  spec.retry.max_attempts = 5;

  int calls = 0;
  int sleeps = 0;
  CampaignRunnerOptions options;
  options.executor = [&](const CampaignItem&, std::uint64_t) -> TraceOutcome {
    ++calls;
    throw std::invalid_argument("ModelParams: p must be in [0, 1)");
  };
  options.sleep = [&](std::chrono::milliseconds) { ++sleeps; };
  const CampaignResult result = CampaignRunner(spec, options).run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(sleeps, 0);
  ASSERT_EQ(result.items.size(), 1u);
  EXPECT_EQ(result.items[0].status, ItemStatus::kFailedPermanent);
  EXPECT_EQ(result.items[0].failure_kind, FailureKind::kInvalidInput);
  EXPECT_EQ(result.items[0].attempts, 1);
  ASSERT_EQ(result.report.failures.size(), 1u);
  EXPECT_NE(result.taxonomy_summary().find("permanent 1"), std::string::npos);
}

TEST(CampaignRunner, InvalidProfileIsPermanentEndToEnd) {
  // Through the real executor: a window of 0 is rejected by the sender
  // config (std::invalid_argument) => permanent, one attempt, one row.
  CampaignSpec spec;
  spec.duration = 30.0;
  PathProfile bad = quick_profile("bad", "host");
  bad.advertised_window = 0.0;
  spec.profiles = {quick_profile("a", "b"), bad};
  spec.seeds = {7};
  spec.retry.max_attempts = 4;
  const CampaignResult result = CampaignRunner(spec, {}).run();
  ASSERT_EQ(result.items.size(), 2u);
  EXPECT_TRUE(result.items[0].ok());
  EXPECT_EQ(result.items[1].status, ItemStatus::kFailedPermanent);
  EXPECT_EQ(result.items[1].attempts, 1);
  EXPECT_EQ(result.report.succeeded, 1u);
  ASSERT_EQ(result.report.failures.size(), 1u);
  EXPECT_EQ(result.report.failures[0].label, "bad->host/s7/clean/full");
}

TEST(CampaignRunner, ResultsKeepSpecOrderUnderConcurrency) {
  CampaignSpec spec = mixed_spec();
  CampaignRunnerOptions options;
  options.threads = 8;
  const CampaignResult result = CampaignRunner(spec, options).run();
  const auto items = spec.expand();
  ASSERT_EQ(result.items.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(result.items[i].item.key(), items[i].key());
    EXPECT_EQ(result.items[i].item.index, i);
  }
}

TEST(CampaignRunner, HourKindFillsPayloadAndMetrics) {
  CampaignSpec spec;
  spec.kind = CampaignKind::kHourTrace;
  spec.duration = 60.0;
  spec.interval_length = 20.0;
  spec.profiles = {quick_profile("a", "b")};
  spec.seeds = {3};
  const CampaignResult result = CampaignRunner(spec, {}).run();
  ASSERT_EQ(result.items.size(), 1u);
  ASSERT_TRUE(result.items[0].ok());
  ASSERT_TRUE(result.items[0].hour.has_value());
  EXPECT_EQ(result.items[0].metrics.packets_sent,
            result.items[0].hour->summary.packets_sent);
  EXPECT_GT(result.items[0].metrics.packets_sent, 0u);
  EXPECT_FALSE(result.items[0].hour->intervals.empty());
}

TEST(CampaignRunner, JournalIoTotalsMatchTheFileAndTheMetrics) {
  CampaignSpec spec = mixed_spec();
  const std::string path = temp_path("journal_io.jsonl");
  std::remove(path.c_str());
  CampaignRunnerOptions options;
  options.threads = 2;
  options.journal_path = path;
  const CampaignResult result = CampaignRunner(spec, options).run();

  EXPECT_EQ(result.journal_io.writes, result.items.size());
  EXPECT_EQ(result.journal_io.flushes, result.items.size());
  EXPECT_EQ(result.journal_io.replayed, 0u);
  EXPECT_EQ(result.journal_io.bytes, read_file(path).size());

  const obs::MetricValue* writes =
      result.report.metrics.find("pftk_journal_writes_total");
  const obs::MetricValue* bytes = result.report.metrics.find("pftk_journal_bytes_total");
  ASSERT_NE(writes, nullptr);
  ASSERT_NE(bytes, nullptr);
  EXPECT_DOUBLE_EQ(writes->value, static_cast<double>(result.journal_io.writes));
  EXPECT_DOUBLE_EQ(bytes->value, static_cast<double>(result.journal_io.bytes));
}

TEST(CampaignRunner, ReportMetricsCountItemsAndOutcomes) {
  const CampaignResult result = CampaignRunner(mixed_spec(), {}).run();
  const obs::MetricValue* total =
      result.report.metrics.find("pftk_campaign_items_total");
  const obs::MetricValue* ok = result.report.metrics.find("pftk_campaign_items_ok_total");
  ASSERT_NE(total, nullptr);
  ASSERT_NE(ok, nullptr);
  EXPECT_DOUBLE_EQ(total->value, static_cast<double>(result.items.size()));
  EXPECT_DOUBLE_EQ(ok->value, static_cast<double>(result.report.succeeded));
  EXPECT_LT(ok->value, total->value);  // the dark scenario fails items
  // Retries happened (transient watchdog trips), so attempt latencies and
  // retry counters are populated.
  const obs::MetricValue* attempts = result.report.metrics.find("pftk_attempt_seconds");
  ASSERT_NE(attempts, nullptr);
  EXPECT_GE(attempts->count, result.items.size());
  const obs::MetricValue* retries =
      result.report.metrics.find("pftk_campaign_retries_total");
  ASSERT_NE(retries, nullptr);
  EXPECT_GT(retries->value, 0.0);
}

/// The flight recorder is a process singleton: each timeline test arms
/// it with the same ring capacity and leaves it disarmed and empty.
class CampaignTimeline : public ::testing::Test {
 protected:
  void SetUp() override {
    recorder().disarm();
    recorder().clear();
  }
  void TearDown() override {
    recorder().disarm();
    recorder().clear();
  }
  static obs::flight::Recorder& recorder() { return obs::flight::Recorder::instance(); }

  /// Runs `spec` with the recorder armed and returns every span it left.
  static obs::flight::DrainedSpans traced_run(const CampaignSpec& spec,
                                              const CampaignRunnerOptions& options,
                                              CampaignResult& result) {
    recorder().arm(1 << 12);
    result = CampaignRunner(spec, options).run();
    recorder().disarm();
    return recorder().drain();
  }

  static std::vector<obs::flight::DrainedSpan> named(
      const obs::flight::DrainedSpans& drained, const std::string& name) {
    std::vector<obs::flight::DrainedSpan> out;
    std::copy_if(drained.spans.begin(), drained.spans.end(), std::back_inserter(out),
                 [&name](const obs::flight::DrainedSpan& span) {
                   return span.name == name;
                 });
    return out;
  }
};

TEST_F(CampaignTimeline, OneSpanPerTraceAttemptBackoffAndJournalLine) {
  const CampaignSpec spec = mixed_spec();
  const std::string path = temp_path("timeline.jsonl");
  std::remove(path.c_str());
  CampaignRunnerOptions options;
  options.threads = 4;
  options.journal_path = path;
  CampaignResult result;
  const obs::flight::DrainedSpans drained = traced_run(spec, options, result);
  ASSERT_EQ(drained.dropped, 0u);

  // One model per trace here, so every item is one trace's ladder.
  const std::size_t traces =
      spec.profiles.size() * spec.seeds.size() * spec.scenarios.size();
  ASSERT_EQ(result.items.size(), traces);
  std::size_t attempts = 0;
  for (const CampaignItemResult& item : result.items) {
    attempts += static_cast<std::size_t>(item.attempts);
  }

  const auto trace_spans = named(drained, "campaign.trace");
  EXPECT_EQ(trace_spans.size(), traces);
  const auto inside_a_trace = [&trace_spans](const obs::flight::DrainedSpan& span) {
    return std::any_of(trace_spans.begin(), trace_spans.end(),
                       [&span](const obs::flight::DrainedSpan& trace) {
                         return trace.tid == span.tid &&
                                trace.begin_ns <= span.begin_ns &&
                                span.end_ns <= trace.end_ns;
                       });
  };
  const auto attempt_spans = named(drained, "campaign.attempt");
  EXPECT_EQ(attempt_spans.size(), attempts);
  for (const obs::flight::DrainedSpan& span : attempt_spans) {
    EXPECT_TRUE(inside_a_trace(span)) << "attempt " << span.arg;
  }
  const auto backoff_spans = named(drained, "campaign.backoff");
  EXPECT_EQ(backoff_spans.size(), attempts - traces);  // one per retry
  EXPECT_GT(backoff_spans.size(), 0u);                 // the dark traces retry
  for (const obs::flight::DrainedSpan& span : backoff_spans) {
    EXPECT_TRUE(inside_a_trace(span)) << "backoff " << span.arg;
  }

  // One append per journal line; each span's arg is the line without
  // its newline.
  const auto appends = named(drained, "campaign.journal_append");
  EXPECT_EQ(appends.size(), result.journal_io.writes);
  EXPECT_EQ(appends.size(), result.items.size());
  std::uint64_t appended = 0;
  for (const obs::flight::DrainedSpan& span : appends) {
    appended += span.arg + 1;
  }
  EXPECT_EQ(appended, result.journal_io.bytes);
  EXPECT_EQ(appended, read_file(path).size());
}

TEST_F(CampaignTimeline, ResumedRunRecordsNoAttemptOrJournalSpans) {
  const std::string path = temp_path("timeline_resume.jsonl");
  std::remove(path.c_str());
  CampaignRunnerOptions options;
  options.journal_path = path;
  (void)CampaignRunner(mixed_spec(), options).run();

  options.resume = true;
  CampaignResult resumed;
  const obs::flight::DrainedSpans drained = traced_run(mixed_spec(), options, resumed);
  EXPECT_EQ(resumed.resumed, resumed.items.size());
  EXPECT_TRUE(named(drained, "campaign.attempt").empty());
  EXPECT_TRUE(named(drained, "campaign.journal_append").empty());
  const obs::MetricValue* replayed =
      resumed.report.metrics.find("pftk_journal_replayed_total");
  ASSERT_NE(replayed, nullptr);
  EXPECT_DOUBLE_EQ(replayed->value, static_cast<double>(resumed.items.size()));
}

TEST(CampaignRunner, MultiModelJournalsMatchTheGoldensAtAnyThreadCount) {
  const std::string short_golden = read_file(data_path("campaign_models.golden.jsonl"));
  const CampaignSpec hour =
      CampaignSpec::parse_file(data_path("campaign_models_hour.spec"));
  const std::string hour_golden =
      read_file(data_path("campaign_models_hour.golden.jsonl"));
  ASSERT_EQ(std::count(short_golden.begin(), short_golden.end(), '\n'), 24);
  ASSERT_EQ(std::count(hour_golden.begin(), hour_golden.end(), '\n'), 6);
  for (const int threads : {1, 8}) {
    CampaignRunnerOptions options;
    options.threads = threads;
    EXPECT_EQ(journal_of(golden_spec(), "golden_short.jsonl", options), short_golden)
        << threads << " threads";
    EXPECT_EQ(journal_of(hour, "golden_hour.jsonl", options), hour_golden)
        << threads << " threads";
  }
}

TEST(CampaignRunner, ResumeFromEveryLinePrefixReproducesTheGolden) {
  const std::string golden = read_file(data_path("campaign_models.golden.jsonl"));
  std::vector<std::string> lines;
  std::istringstream in(golden);
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line + "\n");
  }
  ASSERT_EQ(lines.size(), 24u);
  std::string prefix;
  for (std::size_t k = 0; k < lines.size(); ++k) {
    // k settled lines plus a torn tail: a prefix that ends inside a
    // trace re-simulates it and journals only the missing items.
    const std::string path = temp_path("prefix.jsonl");
    write_file(path, prefix + lines[k].substr(0, lines[k].size() / 2));
    CampaignRunnerOptions options;
    options.threads = 1 + static_cast<int>(k % 8);
    options.journal_path = path;
    options.resume = true;
    const CampaignResult resumed = CampaignRunner(golden_spec(), options).run();
    EXPECT_EQ(resumed.resumed, k);
    EXPECT_EQ(read_file(path), golden) << "resumed after " << k << " lines";
    EXPECT_EQ(resumed.report.succeeded, 12u) << k;
    for (std::size_t i = 0; i < resumed.items.size(); ++i) {
      EXPECT_EQ(resumed.items[i].from_journal, i < k) << k << ": item " << i;
    }
    prefix += lines[k];
  }
}

TEST(CampaignRunner, OneSimulationPerTraceAttempt) {
  const CampaignSpec spec = golden_spec();
  std::mutex mu;
  std::map<std::string, int> calls;  // by the trace's first item key
  CampaignRunnerOptions options;
  options.threads = 4;
  options.executor = [&](const CampaignItem& first, std::uint64_t seed) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      ++calls[first.key()];
    }
    EXPECT_EQ(first.index % 3, 0u);  // a trace is handed over by its first item
    return run_campaign_trace(spec, first, seed);
  };
  EXPECT_EQ(journal_of(spec, "hooked.jsonl", options),
            read_file(data_path("campaign_models.golden.jsonl")));
  ASSERT_EQ(calls.size(), 8u);
  for (const auto& [key, count] : calls) {
    EXPECT_EQ(count, key.find("/dark/") != std::string::npos ? 3 : 1) << key;
  }
}

TEST(CampaignRunner, TotalsCountSimulationsOnceAndItemsPerItem) {
  CampaignSpec spec = golden_spec();
  spec.scenarios.push_back({"lossy", sim::FaultSchedule::parse("loss@5+50:0.05"), {}});
  std::atomic<int> simulations{0};
  CampaignRunnerOptions options;
  options.threads = 3;
  options.executor = [&](const CampaignItem& first, std::uint64_t seed) {
    ++simulations;
    return run_campaign_trace(spec, first, seed);
  };
  const CampaignResult result = CampaignRunner(spec, options).run();
  ASSERT_EQ(result.items.size(), 36u);

  std::uint64_t packets = 0;
  std::uint64_t offered = 0;
  std::uint64_t dropped = 0;
  std::size_t ok = 0;
  std::size_t retries = 0;
  for (std::size_t i = 0; i < result.items.size(); ++i) {
    const CampaignItemResult& item = result.items[i];
    retries += static_cast<std::size_t>(item.attempts - 1);
    if (!item.ok()) {
      continue;
    }
    ++ok;
    if (i % 3 == 0) {  // one simulation per trace
      const sim::FaultStats& fwd = item.metrics.forward_faults;
      const sim::FaultStats& rev = item.metrics.reverse_faults;
      packets += item.metrics.packets_sent;
      offered += fwd.offered + rev.offered;
      dropped += fwd.total_dropped() + rev.total_dropped();
    }
  }
  EXPECT_EQ(ok, 24u);
  EXPECT_EQ(retries, 24u);  // 12 dark items x 2 retries
  EXPECT_EQ(simulations.load(), 4 + 4 * 3 + 4);
  EXPECT_GT(dropped, 0u);  // the lossy traces really were impaired

  const obs::MetricsSnapshot& m = result.report.metrics;
  const auto value = [&m](const char* name) {
    const obs::MetricValue* metric = m.find(name);
    EXPECT_NE(metric, nullptr) << name;
    return metric == nullptr ? -1.0 : metric->value;
  };
  EXPECT_DOUBLE_EQ(value("pftk_packets_sent_total"), static_cast<double>(packets));
  EXPECT_DOUBLE_EQ(value("pftk_fault_offered_total"), static_cast<double>(offered));
  EXPECT_DOUBLE_EQ(value("pftk_fault_dropped_total"), static_cast<double>(dropped));
  EXPECT_EQ(result.report.forward_faults.total_dropped() +
                result.report.reverse_faults.total_dropped(),
            dropped);
  ASSERT_NE(m.find("pftk_attempt_seconds"), nullptr);
  EXPECT_EQ(m.find("pftk_attempt_seconds")->count,
            static_cast<std::uint64_t>(simulations.load()));
  EXPECT_DOUBLE_EQ(value("pftk_campaign_items_total"), 36.0);
  EXPECT_DOUBLE_EQ(value("pftk_campaign_items_ok_total"), 24.0);
  EXPECT_DOUBLE_EQ(value("pftk_campaign_retries_total"), static_cast<double>(retries));
  EXPECT_EQ(result.report.succeeded, 24u);
  EXPECT_EQ(result.report.failures.size(), 12u);
}

TEST(CampaignRunner, RejectsBadOptions) {
  CampaignSpec spec = mixed_spec();
  CampaignRunnerOptions options;
  options.threads = 0;
  EXPECT_THROW(CampaignRunner(spec, options), std::invalid_argument);
  options.threads = 1;
  options.resume = true;  // without a journal path
  EXPECT_THROW(CampaignRunner(spec, options), std::invalid_argument);
}

}  // namespace
}  // namespace pftk::exp::campaign
