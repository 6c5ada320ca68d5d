// The generic fork-based supervisor's contract: exits are classified by
// wait status (clean / interrupted / crash / error); clean workers
// retire, crashed workers restart under capped exponential backoff;
// heartbeat silence past the stall timeout becomes a SIGKILL + restart
// rather than a brownout; restart pressure at half the budget raises
// the shared degrade flag; pressure past the budget trips the circuit
// breaker — exit 4 with a durable, parseable post-mortem snapshot.
//
// Every test forks real processes (the supervisor is exactly the code
// under test), so the worker bodies communicate back only via exit
// codes and the shared degrade page.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "robust/exit_codes.hpp"
#include "robust/failpoint.hpp"
#include "robust/supervisor/supervisor.hpp"

namespace pftk::robust {
namespace {

/// A real wait status for a child that exited with `code` or died on
/// `sig` — built by forking, because W_EXITCODE is not portable.
int wait_status_for(int code, int sig = 0) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (sig != 0) {
      // Die by the signal itself, even under a sanitizer runtime that
      // installs its own SEGV handler (which would exit 1 instead).
      ::signal(sig, SIG_DFL);
      ::raise(sig);
    }
    ::_exit(code);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return status;
}

TEST(WorkerExitClassification, ExitCodesMapToClasses) {
  EXPECT_EQ(classify_wait_status(wait_status_for(0)).cls,
            WorkerExitClass::kClean);
  EXPECT_EQ(classify_wait_status(wait_status_for(kExitInterrupted)).cls,
            WorkerExitClass::kInterrupted);
  EXPECT_EQ(classify_wait_status(wait_status_for(kCrashExitCode)).cls,
            WorkerExitClass::kCrash);
  EXPECT_EQ(classify_wait_status(wait_status_for(1)).cls,
            WorkerExitClass::kError);
  EXPECT_EQ(classify_wait_status(wait_status_for(0, SIGSEGV)).cls,
            WorkerExitClass::kCrash);
  EXPECT_EQ(classify_wait_status(wait_status_for(0, SIGKILL)).cls,
            WorkerExitClass::kCrash);
}

TEST(WorkerExitClassification, DescribeNamesCodeAndClass) {
  const WorkerExit crash = classify_wait_status(wait_status_for(kCrashExitCode));
  EXPECT_EQ(crash.describe(), "exit 86 (crash)");
  const WorkerExit sig = classify_wait_status(wait_status_for(0, SIGKILL));
  EXPECT_TRUE(sig.signaled);
  EXPECT_EQ(sig.describe(), "signal 9 (crash)");
}

TEST(SupervisorBackoff, ExponentialAndCapped) {
  SupervisorConfig config;
  config.backoff_base = std::chrono::milliseconds(25);
  config.backoff_multiplier = 2.0;
  config.backoff_cap = std::chrono::milliseconds(200);
  EXPECT_EQ(config.backoff(1).count(), 25);
  EXPECT_EQ(config.backoff(2).count(), 50);
  EXPECT_EQ(config.backoff(3).count(), 100);
  EXPECT_EQ(config.backoff(4).count(), 200);
  EXPECT_EQ(config.backoff(10).count(), 200);  // capped, never overflows
}

TEST(SupervisorConfigValidate, RejectsNonsense) {
  SupervisorConfig config;
  config.workers = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.workers = 2;
  config.restart_budget = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.restart_budget = 4;
  config.half_open_fraction = 1.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(Supervisor, CleanWorkersRetireWithoutRestart) {
  SupervisorConfig config;
  config.workers = 3;
  Supervisor sup(std::move(config));
  const SupervisorResult result =
      sup.run([](const WorkerContext&) { return 0; });
  EXPECT_EQ(result.exit_code, kExitOk);
  EXPECT_FALSE(result.gave_up);
  EXPECT_EQ(result.stats.forks, 3u);
  EXPECT_EQ(result.stats.restarts, 0u);
  EXPECT_EQ(result.stats.clean_exits, 3u);
  EXPECT_EQ(result.stats.crashes, 0u);
}

TEST(Supervisor, CrashedWorkerRestartsWithBackoffThenRetires) {
  SupervisorConfig config;
  config.workers = 1;
  config.backoff_base = std::chrono::milliseconds(20);
  Supervisor sup(std::move(config));
  const SupervisorResult result = sup.run([](const WorkerContext& ctx) {
    // First life crashes; the restarted generation retires cleanly.
    return ctx.generation == 0 ? static_cast<int>(kCrashExitCode) : 0;
  });
  EXPECT_EQ(result.exit_code, kExitOk);
  EXPECT_EQ(result.stats.forks, 2u);
  EXPECT_EQ(result.stats.restarts, 1u);
  EXPECT_EQ(result.stats.crashes, 1u);
  EXPECT_EQ(result.stats.clean_exits, 1u);

  // The timeline records the scheduled backoff for the first restart.
  bool saw_restart = false;
  for (const auto& ev : result.events) {
    if (ev.kind == SupervisorEvent::Kind::kRestartScheduled) {
      saw_restart = true;
      EXPECT_DOUBLE_EQ(ev.backoff_ms, 20.0);
    }
  }
  EXPECT_TRUE(saw_restart);
}

TEST(Supervisor, SegfaultingWorkerIsARestartableCrash) {
  SupervisorConfig config;
  config.workers = 1;
  config.backoff_base = std::chrono::milliseconds(5);
  Supervisor sup(std::move(config));
  const SupervisorResult result = sup.run([](const WorkerContext& ctx) {
    if (ctx.generation == 0) {
      ::signal(SIGSEGV, SIG_DFL);  // bypass a sanitizer's SEGV handler
      ::raise(SIGSEGV);
    }
    return 0;
  });
  EXPECT_EQ(result.exit_code, kExitOk);
  EXPECT_EQ(result.stats.crashes, 1u);
  EXPECT_EQ(result.stats.restarts, 1u);
}

TEST(Supervisor, StalledWorkerIsKilledAndRestarted) {
  SupervisorConfig config;
  config.workers = 1;
  config.heartbeat_interval_ms = 20.0;
  config.stall_timeout_ms = 150.0;
  config.backoff_base = std::chrono::milliseconds(5);
  Supervisor sup(std::move(config));
  const SupervisorResult result = sup.run([](const WorkerContext& ctx) {
    if (ctx.generation == 0) {
      // Wedged: alive but never heartbeating. The supervisor must
      // SIGKILL this life within the stall timeout.
      std::this_thread::sleep_for(std::chrono::seconds(30));
      return 1;
    }
    ctx.heartbeat();
    return 0;
  });
  EXPECT_EQ(result.exit_code, kExitOk);
  EXPECT_EQ(result.stats.stalls, 1u);
  EXPECT_EQ(result.stats.restarts, 1u);
  // A stall-kill is counted as a stall, not double-counted as a crash.
  EXPECT_EQ(result.stats.crashes, 0u);
}

TEST(Supervisor, RestartPressureRaisesTheDegradeFlag) {
  SupervisorConfig config;
  config.workers = 1;
  config.restart_budget = 8;        // half-open at >= 4 in-window restarts
  config.restart_window_s = 60.0;
  config.backoff_base = std::chrono::milliseconds(1);
  Supervisor sup(std::move(config));
  const SupervisorResult result = sup.run([](const WorkerContext& ctx) {
    if (ctx.generation < 4) {
      return static_cast<int>(kCrashExitCode);
    }
    // By the 5th life, four restarts sit in the window: the parent must
    // have raised the shared flag before forking us.
    return ctx.degraded->load() != 0 ? 0 : 1;
  });
  EXPECT_EQ(result.exit_code, kExitOk) << "worker saw degrade flag down";
  EXPECT_GE(result.stats.degrade_transitions, 1u);
  bool saw_on = false;
  for (const auto& ev : result.events) {
    saw_on |= ev.kind == SupervisorEvent::Kind::kDegradeOn;
  }
  EXPECT_TRUE(saw_on);
}

TEST(Supervisor, BreakerTripsWithExitFourAndDurablePostmortem) {
  const std::string postmortem =
      "/tmp/pftk_tsup_pm_" + std::to_string(::getpid()) + ".json";
  std::remove(postmortem.c_str());

  SupervisorConfig config;
  config.workers = 2;
  config.restart_budget = 3;
  config.restart_window_s = 60.0;
  config.backoff_base = std::chrono::milliseconds(1);
  config.postmortem_path = postmortem;
  std::uint64_t give_up_events = 0;
  config.event_hook = [&give_up_events](const SupervisorEvent& ev) {
    give_up_events += ev.kind == SupervisorEvent::Kind::kGiveUp ? 1 : 0;
  };
  Supervisor sup(std::move(config));
  const SupervisorResult result = sup.run(
      [](const WorkerContext&) { return static_cast<int>(kCrashExitCode); });

  EXPECT_EQ(result.exit_code, kExitSupervisorGaveUp);
  EXPECT_TRUE(result.gave_up);
  EXPECT_EQ(give_up_events, 1u);
  EXPECT_GT(result.stats.crashes, 3u);

  // The post-mortem is a complete single-line JSON snapshot naming the
  // schema, the reason, and the crash timeline.
  std::ifstream is(postmortem);
  ASSERT_TRUE(is) << "post-mortem file missing: " << postmortem;
  std::ostringstream body;
  body << is.rdbuf();
  const std::string text = body.str();
  EXPECT_NE(text.find("\"schema\":\"pftk-postmortem/1\""), std::string::npos);
  EXPECT_NE(text.find("restart budget exhausted"), std::string::npos);
  EXPECT_NE(text.find("\"events\":["), std::string::npos);
  EXPECT_NE(text.find("\"crash\""), std::string::npos);
  std::remove(postmortem.c_str());
}

TEST(Supervisor, StopFlagDrainsTheFleetWithInterruptedExit) {
  std::atomic<bool> stop{false};
  SupervisorConfig config;
  config.workers = 2;
  config.heartbeat_interval_ms = 10.0;
  config.stop = &stop;
  // Workers idle until SIGTERMed by the drain; they exit via default
  // SIGTERM disposition, which the drain tolerates (no restart).
  config.event_hook = [&stop](const SupervisorEvent& ev) {
    // Flip the stop flag once the whole fleet is up.
    if (ev.kind == SupervisorEvent::Kind::kStart && ev.worker == 1) {
      stop.store(true);
    }
  };
  Supervisor sup(std::move(config));
  const SupervisorResult result = sup.run([](const WorkerContext& ctx) {
    ::signal(SIGTERM, SIG_DFL);
    for (;;) {
      ctx.heartbeat();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return 0;
  });
  EXPECT_EQ(result.exit_code, kExitInterrupted);
  EXPECT_EQ(result.stats.forks, 2u);
  EXPECT_EQ(result.stats.restarts, 0u);
}

TEST(Supervisor, RestartedChildrenStartWithFailpointsDisarmed) {
  // Arm a one-shot crash in the *parent*: generation 0 inherits it and
  // crashes; generation 1 must start disarmed (the default) and survive
  // evaluating the same site.
  FailpointRegistry::instance().disarm_all();
  FailpointRegistry::instance().arm_specs(
      "serve.worker.crash:after=0:action=crash");
  SupervisorConfig config;
  config.workers = 1;
  config.backoff_base = std::chrono::milliseconds(5);
  Supervisor sup(std::move(config));
  const SupervisorResult result = sup.run([](const WorkerContext&) {
    const auto hit = failpoint("serve.worker.crash");
    if (hit.action == FailpointAction::kCrash) {
      crash_now();
    }
    return 0;
  });
  FailpointRegistry::instance().disarm_all();
  EXPECT_EQ(result.exit_code, kExitOk);
  EXPECT_EQ(result.stats.crashes, 1u);
  EXPECT_EQ(result.stats.restarts, 1u);
}

}  // namespace
}  // namespace pftk::robust
