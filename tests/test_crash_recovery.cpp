// End-to-end crash consistency: for every crash failpoint on the journal
// path, a campaign killed mid-write and then resumed converges to the
// byte-identical journal and report of an uninterrupted run. Uses the
// fork-based chaos matrix with a fast injected executor so the whole
// matrix runs in well under a second.
#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>

#include "exp/campaign/chaos.hpp"
#include "robust/failpoint.hpp"

namespace pftk::exp::campaign {
namespace {

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
  spec.profiles = {quick_profile("a", "b"), quick_profile("c", "d")};
  spec.seeds = {1, 2, 3};
  return spec;
}

/// Instant deterministic executor: metrics derive only from the item and
/// seed, so reference, crashed, and resumed runs all agree. Item 4 fails
/// permanently, exercising failure entries in the crash window.
TraceOutcome fake_executor(const CampaignItem& item, std::uint64_t seed) {
  if (item.index == 4) {
    throw std::invalid_argument("deliberately invalid item");
  }
  TraceOutcome outcome;
  outcome.metrics.packets_sent = 100 + item.index;
  outcome.metrics.send_rate = static_cast<double>(seed);
  outcome.metrics.p = 0.01 * static_cast<double>(item.index + 1);
  return outcome;
}

ChaosOptions chaos_options(const std::string& dir_name) {
  ChaosOptions options;
  options.work_dir = ::testing::TempDir() + dir_name;
  std::filesystem::remove_all(options.work_dir);
  options.executor = fake_executor;
  return options;
}

TEST(CrashRecovery, DefaultCrashMatrixConvergesToReference) {
  const ChaosOptions options = chaos_options("pftk_chaos_default");
  const ChaosReport report = run_chaos_matrix(small_spec(), options);

  // 6 items -> the default matrix is 3 crash shapes x 2 positions.
  ASSERT_EQ(report.cases.size(), 6u);
  EXPECT_GT(report.reference_journal_bytes, 0u);
  for (const ChaosCaseResult& c : report.cases) {
    EXPECT_TRUE(c.crashed) << c.failpoint << ": exit " << c.child_exit;
    EXPECT_EQ(c.child_exit, robust::kCrashExitCode) << c.failpoint;
    EXPECT_TRUE(c.journal_identical) << c.failpoint << ": " << c.detail;
    EXPECT_TRUE(c.report_identical) << c.failpoint << ": " << c.detail;
  }
  EXPECT_TRUE(report.all_ok()) << describe(report);
  // The parent process is still disarmed: chaos lives in the children.
  EXPECT_EQ(robust::FailpointRegistry::instance().armed_count(), 0u);
}

TEST(CrashRecovery, NonCrashInjectedErrorsAlsoResumeCleanly) {
  ChaosOptions options = chaos_options("pftk_chaos_errors");
  // Injected I/O errors abort the child run without killing it (the
  // harness records exit 9); the committed journal prefix must still
  // resume to the reference.
  options.failpoints = {"journal.append:after=2:action=error",
                        "journal.flush:after=1:action=enospc"};
  const ChaosReport report = run_chaos_matrix(small_spec(), options);

  ASSERT_EQ(report.cases.size(), 2u);
  for (const ChaosCaseResult& c : report.cases) {
    EXPECT_FALSE(c.crashed) << c.failpoint;
    EXPECT_EQ(c.child_exit, 9) << c.failpoint;
    EXPECT_TRUE(c.journal_identical) << c.failpoint << ": " << c.detail;
    EXPECT_TRUE(c.report_identical) << c.failpoint << ": " << c.detail;
  }
  EXPECT_TRUE(report.all_ok()) << describe(report);
}

TEST(CrashRecovery, DefaultMatrixCoversAppendAndFlushSites) {
  const auto specs = default_journal_crash_failpoints(6);
  ASSERT_EQ(specs.size(), 6u);
  std::size_t append = 0;
  std::size_t flush = 0;
  for (const std::string& s : specs) {
    EXPECT_NE(s.find("action=crash"), std::string::npos) << s;
    append += s.find("journal.append:") == 0 ? 1 : 0;
    flush += s.find("journal.flush:") == 0 ? 1 : 0;
    // Each spec must parse under the registry grammar.
    EXPECT_NO_THROW((void)robust::FailpointSpec::parse_one(s)) << s;
  }
  EXPECT_EQ(append, 4u);
  EXPECT_EQ(flush, 2u);
}

TEST(CrashRecovery, EmptyWorkDirIsRejected) {
  ChaosOptions options;
  options.executor = fake_executor;
  EXPECT_THROW((void)run_chaos_matrix(small_spec(), options),
               std::invalid_argument);
}

}  // namespace
}  // namespace pftk::exp::campaign
