// Graceful shutdown: a stop request mid-campaign yields an `interrupted`
// result with abandoned (never-journaled) items and a valid journal that
// resumes to the byte-identical uninterrupted outcome; the ShutdownGuard
// turns SIGINT/SIGTERM into that stop flag and hard-exits on the second
// signal.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/campaign/campaign_runner.hpp"
#include "robust/shutdown.hpp"

namespace pftk::exp::campaign {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "pftk_shutdown_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
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

CampaignSpec small_spec() {
  CampaignSpec spec;
  spec.profiles = {quick_profile("a", "b")};
  spec.seeds = {1, 2, 3, 4, 5, 6};
  return spec;
}

TraceOutcome fake_outcome(const CampaignItem& item) {
  TraceOutcome outcome;
  outcome.metrics.packets_sent = 10 + item.index;
  outcome.metrics.p = 0.001 * static_cast<double>(item.index + 1);
  return outcome;
}

TEST(GracefulShutdown, StopFlagInterruptsAndResumeCompletesByteIdentical) {
  // Uninterrupted reference journal.
  const std::string ref_path = temp_path("ref.jsonl");
  std::remove(ref_path.c_str());
  CampaignRunnerOptions ref_options;
  ref_options.journal_path = ref_path;
  ref_options.executor = [](const CampaignItem& item, std::uint64_t) {
    return fake_outcome(item);
  };
  const CampaignResult reference = CampaignRunner(small_spec(), ref_options).run();
  ASSERT_TRUE(reference.all_ok());
  ASSERT_FALSE(reference.interrupted);
  const std::string reference_bytes = read_file(ref_path);
  ASSERT_FALSE(reference_bytes.empty());

  // Interrupted run: the stop flag goes up after the second item.
  const std::string path = temp_path("stop.jsonl");
  std::remove(path.c_str());
  std::atomic<bool> stop{false};
  int calls = 0;
  CampaignRunnerOptions options;
  options.journal_path = path;
  options.stop = &stop;
  options.executor = [&](const CampaignItem& item, std::uint64_t) {
    if (++calls >= 2) {
      stop.store(true);
    }
    return fake_outcome(item);
  };
  const CampaignResult interrupted = CampaignRunner(small_spec(), options).run();
  EXPECT_TRUE(interrupted.interrupted);
  EXPECT_TRUE(interrupted.report.interrupted);
  EXPECT_GT(interrupted.not_run, 0u);
  EXPECT_LT(interrupted.not_run, interrupted.items.size());
  std::size_t not_run_seen = 0;
  for (const CampaignItemResult& item : interrupted.items) {
    not_run_seen += item.status == ItemStatus::kNotRun ? 1 : 0;
  }
  EXPECT_EQ(not_run_seen, interrupted.not_run);
  // The journal holds a valid settled prefix of the reference: no
  // acknowledged record lost, no abandoned item leaked in.
  const std::string partial = read_file(path);
  EXPECT_FALSE(partial.empty());
  EXPECT_TRUE(reference_bytes.compare(0, partial.size(), partial) == 0)
      << "interrupted journal is not a prefix of the reference";
  EXPECT_LT(partial.size(), reference_bytes.size());

  // Resume without the stop flag: completes, and the final journal is
  // byte-identical to the uninterrupted run.
  CampaignRunnerOptions resume_options;
  resume_options.journal_path = path;
  resume_options.resume = true;
  resume_options.executor = [](const CampaignItem& item, std::uint64_t) {
    return fake_outcome(item);
  };
  const CampaignResult resumed = CampaignRunner(small_spec(), resume_options).run();
  EXPECT_TRUE(resumed.all_ok());
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_GT(resumed.resumed, 0u);
  EXPECT_EQ(read_file(path), reference_bytes);
}

TEST(GracefulShutdown, StopBeforeStartRunsNothing) {
  std::atomic<bool> stop{true};
  int calls = 0;
  CampaignRunnerOptions options;
  options.stop = &stop;
  options.executor = [&](const CampaignItem& item, std::uint64_t) {
    ++calls;
    return fake_outcome(item);
  };
  const CampaignResult result = CampaignRunner(small_spec(), options).run();
  EXPECT_EQ(calls, 0);
  EXPECT_TRUE(result.interrupted);
  EXPECT_EQ(result.not_run, result.items.size());
}

TEST(GracefulShutdown, MidLadderStopAbandonsWithoutJournaling) {
  // The trace always fails transiently; the stop arrives inside its
  // retry ladder. Every item of the trace, one per model, must settle
  // kNotRun (not kFailedTransient with a short-changed budget) and the
  // journal stay empty, so a resume re-runs the full ladder.
  for (const std::vector<model::ModelKind>& models :
       {std::vector<model::ModelKind>{},
        std::vector<model::ModelKind>{model::ModelKind::kFull,
                                      model::ModelKind::kApproximate,
                                      model::ModelKind::kTdOnly}}) {
    CampaignSpec spec;
    spec.profiles = {quick_profile("a", "b")};
    spec.seeds = {1};
    spec.models = models;
    spec.retry.max_attempts = 5;
    spec.retry.backoff_base = std::chrono::milliseconds{0};

    const std::string path = temp_path("ladder.jsonl");
    std::remove(path.c_str());
    std::atomic<bool> stop{false};
    int calls = 0;
    CampaignRunnerOptions options;
    options.journal_path = path;
    options.stop = &stop;
    options.sleep = [](std::chrono::milliseconds) {};
    options.executor = [&](const CampaignItem&, std::uint64_t) -> TraceOutcome {
      if (++calls == 2) {
        stop.store(true);
      }
      throw TransientCampaignError("flaky");
    };
    const CampaignResult result = CampaignRunner(spec, options).run();
    EXPECT_EQ(calls, 2);  // one simulation per attempt, abandoned after the stop
    ASSERT_EQ(result.items.size(), std::max<std::size_t>(1, models.size()));
    for (const CampaignItemResult& item : result.items) {
      EXPECT_EQ(item.status, ItemStatus::kNotRun) << item.item.key();
    }
    EXPECT_EQ(result.not_run, result.items.size());
    EXPECT_TRUE(result.interrupted);
    EXPECT_EQ(read_file(path), "");  // never journaled
  }
}

TEST(GracefulShutdown, GuardTurnsSignalIntoStopFlag) {
  robust::ShutdownGuard::reset();
  {
    robust::ShutdownGuard guard;
    EXPECT_FALSE(robust::ShutdownGuard::stop_requested());
    ASSERT_EQ(::raise(SIGTERM), 0);
    EXPECT_TRUE(robust::ShutdownGuard::stop_requested());
    EXPECT_TRUE(robust::ShutdownGuard::stop_flag()->load());
    EXPECT_EQ(robust::ShutdownGuard::signal_count(), 1);
  }
  robust::ShutdownGuard::reset();
  EXPECT_FALSE(robust::ShutdownGuard::stop_requested());
}

TEST(GracefulShutdown, SecondSignalHardExits) {
  ::fflush(nullptr);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    robust::ShutdownGuard::reset();
    robust::ShutdownGuard guard(/*hard_exit_code=*/130);
    (void)::raise(SIGTERM);  // first: cooperative stop
    (void)::raise(SIGTERM);  // second: hard _exit(130)
    ::_exit(7);              // unreachable if the guard works
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 130);
}

TEST(GracefulShutdown, SecondSigintHardExits130) {
  // Ctrl-C twice: the first SIGINT requests a cooperative stop, the
  // second must not wait for it — immediate _exit with 128 + SIGINT.
  ::fflush(nullptr);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    robust::ShutdownGuard::reset();
    robust::ShutdownGuard guard(/*hard_exit_code=*/130);
    (void)::raise(SIGINT);  // first: cooperative stop
    if (!robust::ShutdownGuard::stop_requested()) {
      ::_exit(8);  // the flag must already be up
    }
    (void)::raise(SIGINT);  // second: hard _exit(130)
    ::_exit(7);             // unreachable if the guard works
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 130);
}

}  // namespace
}  // namespace pftk::exp::campaign
