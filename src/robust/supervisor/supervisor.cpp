#include "robust/supervisor/supervisor.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <new>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "robust/durable_file.hpp"
#include "robust/failpoint.hpp"
#include "robust/json_line.hpp"

namespace pftk::robust {

namespace {

using Clock = std::chrono::steady_clock;

double since_s(Clock::time_point start, Clock::time_point now) {
  return std::chrono::duration<double>(now - start).count();
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) {
    (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
}

struct Slot {
  int index = 0;
  int generation = 0;       ///< generation of the *current/next* child
  pid_t pid = -1;           ///< -1 = no live child
  int heartbeat_read_fd = -1;
  Clock::time_point last_beat{};
  Clock::time_point spawned_at{};
  int consecutive_failures = 0;
  bool pending_stall = false;  ///< we SIGKILLed it for heartbeat silence
  bool retired = false;        ///< exited clean/interrupted; slot done
  bool restart_due = false;
  Clock::time_point restart_at{};
};

}  // namespace

void WorkerContext::heartbeat() const noexcept {
  if (heartbeat_fd < 0) {
    return;
  }
  const char byte = 1;
  // Non-blocking write; EAGAIN (pipe full) still proves liveness because
  // earlier bytes are sitting unread in the pipe.
  (void)!::write(heartbeat_fd, &byte, 1);
}

const char* SupervisorEvent::kind_name(Kind kind) noexcept {
  switch (kind) {
    case Kind::kStart:
      return "start";
    case Kind::kExit:
      return "exit";
    case Kind::kStall:
      return "stall";
    case Kind::kRestartScheduled:
      return "restart_scheduled";
    case Kind::kDegradeOn:
      return "degrade_on";
    case Kind::kDegradeOff:
      return "degrade_off";
    case Kind::kProbeFailure:
      return "probe_failure";
    case Kind::kGiveUp:
      return "give_up";
  }
  return "unknown";
}

std::string SupervisorEvent::describe() const {
  std::ostringstream os;
  os << kind_name(kind);
  if (worker >= 0) {
    os << " worker " << worker << " (pid " << pid << ", gen " << generation
       << ")";
  }
  if (kind == Kind::kExit) {
    os << " " << exit.describe();
  }
  if (kind == Kind::kRestartScheduled) {
    os << " in " << backoff_ms << "ms";
  }
  if (!detail.empty()) {
    os << ": " << detail;
  }
  return os.str();
}

std::chrono::milliseconds SupervisorConfig::backoff(int consecutive) const {
  if (consecutive <= 1) {
    return std::min(backoff_base, backoff_cap);
  }
  double ms = static_cast<double>(backoff_base.count());
  for (int i = 1; i < consecutive; ++i) {
    ms *= backoff_multiplier;
    if (ms >= static_cast<double>(backoff_cap.count())) {
      return backoff_cap;
    }
  }
  return std::chrono::milliseconds(
      std::min<std::int64_t>(static_cast<std::int64_t>(ms), backoff_cap.count()));
}

void SupervisorConfig::validate() const {
  if (workers < 1 || workers > 256) {
    throw std::invalid_argument("supervisor: workers must be in [1, 256]");
  }
  if (restart_budget < 1) {
    throw std::invalid_argument("supervisor: restart_budget must be >= 1");
  }
  if (restart_window_s <= 0.0) {
    throw std::invalid_argument("supervisor: restart_window_s must be > 0");
  }
  if (stall_timeout_ms < 0.0 || heartbeat_interval_ms <= 0.0) {
    throw std::invalid_argument("supervisor: bad heartbeat/stall settings");
  }
  if (stall_timeout_ms > 0.0 && stall_timeout_ms <= heartbeat_interval_ms) {
    throw std::invalid_argument(
        "supervisor: stall_timeout_ms must exceed heartbeat_interval_ms");
  }
  if (backoff_multiplier < 1.0 || backoff_base.count() < 0 ||
      backoff_cap < backoff_base) {
    throw std::invalid_argument("supervisor: bad backoff settings");
  }
  if (half_open_fraction <= 0.0 || half_open_fraction > 1.0) {
    throw std::invalid_argument(
        "supervisor: half_open_fraction must be in (0, 1]");
  }
}

Supervisor::Supervisor(SupervisorConfig config) : config_(std::move(config)) {
  config_.validate();
  void* page = ::mmap(nullptr, sizeof(std::atomic<std::uint32_t>),
                      PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (page == MAP_FAILED) {
    throw std::runtime_error(std::string("supervisor: mmap degrade page: ") +
                             std::strerror(errno));
  }
  degrade_page_ = new (page) std::atomic<std::uint32_t>(0);
}

Supervisor::~Supervisor() {
  if (degrade_page_ != nullptr) {
    ::munmap(static_cast<void*>(degrade_page_),
             sizeof(std::atomic<std::uint32_t>));
    degrade_page_ = nullptr;
  }
}

const std::atomic<std::uint32_t>* Supervisor::degrade_flag() const noexcept {
  return degrade_page_;
}

SupervisorResult Supervisor::run(const WorkerMain& worker_main) {
  SupervisorResult result;
  std::vector<Slot> slots(static_cast<std::size_t>(config_.workers));
  const auto start = Clock::now();
  std::deque<Clock::time_point> restart_window;
  bool degraded = false;
  bool drain_error = false;
  auto last_probe = start;

  auto record = [&](SupervisorEvent ev) {
    ev.t_s = since_s(start, Clock::now());
    if (config_.event_hook) {
      config_.event_hook(ev);
    }
    result.events.push_back(std::move(ev));
  };

  auto spawn = [&](Slot& slot) -> bool {
    int fds[2] = {-1, -1};
    if (::pipe(fds) != 0) {
      return false;
    }
    set_nonblocking(fds[0]);
    set_nonblocking(fds[1]);
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return false;
    }
    if (pid == 0) {
      // Child: drop every inherited supervisor-side fd, keep only our
      // own heartbeat write end.
      ::close(fds[0]);
      for (const Slot& other : slots) {
        if (other.heartbeat_read_fd >= 0) {
          ::close(other.heartbeat_read_fd);
        }
      }
      ::signal(SIGPIPE, SIG_IGN);
      if (slot.generation > 0 && config_.disarm_restarted_failpoints) {
        FailpointRegistry::instance().disarm_all();
      }
      WorkerContext ctx;
      ctx.index = slot.index;
      ctx.generation = slot.generation;
      ctx.heartbeat_fd = fds[1];
      ctx.degraded = degrade_page_;
      int rc = kExitFailure;
      try {
        rc = worker_main(ctx);
      } catch (...) {
        rc = kExitFailure;
      }
      ::_exit(rc);
    }
    // Parent.
    ::close(fds[1]);
    slot.pid = pid;
    slot.heartbeat_read_fd = fds[0];
    slot.last_beat = Clock::now();
    slot.spawned_at = slot.last_beat;
    slot.pending_stall = false;
    result.stats.forks++;
    SupervisorEvent ev;
    ev.kind = SupervisorEvent::Kind::kStart;
    ev.worker = slot.index;
    ev.pid = static_cast<int>(pid);
    ev.generation = slot.generation;
    record(std::move(ev));
    return true;
  };

  auto close_slot_pipe = [](Slot& slot) {
    if (slot.heartbeat_read_fd >= 0) {
      ::close(slot.heartbeat_read_fd);
      slot.heartbeat_read_fd = -1;
    }
  };

  // Initial fleet.
  for (int i = 0; i < config_.workers; ++i) {
    slots[static_cast<std::size_t>(i)].index = i;
    if (!spawn(slots[static_cast<std::size_t>(i)])) {
      for (Slot& s : slots) {
        if (s.pid > 0) {
          ::kill(s.pid, SIGKILL);
          ::waitpid(s.pid, nullptr, 0);
        }
        close_slot_pipe(s);
      }
      throw std::runtime_error("supervisor: fork failed for initial fleet");
    }
  }

  auto drain_heartbeats = [&](Slot& slot) {
    if (slot.heartbeat_read_fd < 0) {
      return;
    }
    char buf[256];
    bool beat = false;
    for (;;) {
      const ssize_t n = ::read(slot.heartbeat_read_fd, buf, sizeof(buf));
      if (n > 0) {
        beat = true;
        continue;
      }
      break;  // 0 (EOF) or EAGAIN/err — either way nothing more now
    }
    if (beat) {
      slot.last_beat = Clock::now();
    }
  };

  auto set_degraded = [&](bool on, const std::string& why) {
    if (on == degraded) {
      return;
    }
    degraded = on;
    degrade_page_->store(on ? 1 : 0, std::memory_order_relaxed);
    result.stats.degrade_transitions++;
    SupervisorEvent ev;
    ev.kind = on ? SupervisorEvent::Kind::kDegradeOn
                 : SupervisorEvent::Kind::kDegradeOff;
    ev.detail = why;
    record(std::move(ev));
  };

  auto write_postmortem = [&](std::size_t restarts_in_window) {
    if (config_.postmortem_path.empty()) {
      return;
    }
    std::ostringstream os;
    os << "{\"schema\":\"pftk-postmortem/1\""
       << ",\"reason\":\"restart budget exhausted\""
       << ",\"workers\":" << config_.workers
       << ",\"restart_budget\":" << config_.restart_budget
       << ",\"restart_window_s\":" << config_.restart_window_s
       << ",\"restarts_in_window\":" << restarts_in_window
       << ",\"stats\":{\"forks\":" << result.stats.forks
       << ",\"restarts\":" << result.stats.restarts
       << ",\"crashes\":" << result.stats.crashes
       << ",\"error_exits\":" << result.stats.error_exits
       << ",\"clean_exits\":" << result.stats.clean_exits
       << ",\"stalls\":" << result.stats.stalls
       << ",\"probe_failures\":" << result.stats.probe_failures
       << ",\"degrade_transitions\":" << result.stats.degrade_transitions
       << "},\"events\":[";
    bool first = true;
    for (const SupervisorEvent& ev : result.events) {
      if (!first) {
        os << ",";
      }
      first = false;
      os << "{\"t_s\":" << ev.t_s << ",\"kind\":\""
         << SupervisorEvent::kind_name(ev.kind) << "\"";
      if (ev.worker >= 0) {
        os << ",\"worker\":" << ev.worker << ",\"pid\":" << ev.pid
           << ",\"generation\":" << ev.generation;
      }
      if (ev.kind == SupervisorEvent::Kind::kExit) {
        os << ",\"class\":\"" << worker_exit_class_name(ev.exit.cls)
           << "\",\"signaled\":" << (ev.exit.signaled ? "true" : "false")
           << ",\"code_or_signal\":" << ev.exit.code_or_signal;
      }
      if (ev.kind == SupervisorEvent::Kind::kRestartScheduled) {
        os << ",\"backoff_ms\":" << ev.backoff_ms;
      }
      if (!ev.detail.empty()) {
        os << ",\"detail\":\"" << json::escape(ev.detail) << "\"";
      }
      os << "}";
    }
    os << "]}";
    try {
      atomic_write_file(config_.postmortem_path, os.str(),
                        kPostmortemFailpoint);
    } catch (const IoError&) {
      // The breaker verdict stands even if the snapshot cannot land.
    }
  };

  auto terminate_fleet = [&](int first_signal) {
    for (Slot& slot : slots) {
      if (slot.pid > 0) {
        ::kill(slot.pid, first_signal);
      }
    }
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(
                           static_cast<std::int64_t>(config_.drain_grace_ms));
    bool killed = false;
    for (;;) {
      bool any_alive = false;
      for (Slot& slot : slots) {
        if (slot.pid <= 0) {
          continue;
        }
        int st = 0;
        const pid_t got = ::waitpid(slot.pid, &st, WNOHANG);
        if (got == slot.pid) {
          const WorkerExit exit = classify_wait_status(st);
          if (exit.cls == WorkerExitClass::kError) {
            drain_error = true;
            result.stats.error_exits++;
          } else if (exit.cls == WorkerExitClass::kCrash) {
            if (!slot.pending_stall) {
              result.stats.crashes++;
            }
          } else {
            result.stats.clean_exits++;
          }
          SupervisorEvent ev;
          ev.kind = SupervisorEvent::Kind::kExit;
          ev.worker = slot.index;
          ev.pid = static_cast<int>(slot.pid);
          ev.generation = slot.generation;
          ev.exit = exit;
          record(std::move(ev));
          slot.pid = -1;
          slot.retired = true;
          close_slot_pipe(slot);
          continue;
        }
        any_alive = true;
      }
      if (!any_alive) {
        break;
      }
      if (!killed && Clock::now() >= deadline) {
        killed = true;
        for (Slot& slot : slots) {
          if (slot.pid > 0) {
            ::kill(slot.pid, SIGKILL);
          }
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  };

  const int half_open_threshold = std::max(
      1, static_cast<int>(std::ceil(config_.half_open_fraction *
                                    static_cast<double>(config_.restart_budget))));

  // Ages the restart window and maintains the half-open degrade flag.
  // Called every loop tick AND immediately before each restart fork, so
  // a restart that crosses the threshold is born seeing the flag up.
  auto update_degrade = [&](Clock::time_point now) {
    const auto window_floor =
        now - std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config_.restart_window_s));
    while (!restart_window.empty() && restart_window.front() < window_floor) {
      restart_window.pop_front();
    }
    const int in_window = static_cast<int>(restart_window.size());
    if (!degraded && in_window >= half_open_threshold) {
      set_degraded(true, "restart pressure: " + std::to_string(in_window) +
                             " restarts in window");
    } else if (degraded && in_window * 2 < half_open_threshold) {
      set_degraded(false, "restart pressure aged out");
    }
  };

  for (;;) {
    const auto now = Clock::now();

    // External stop: drain the fleet and report interrupted.
    if (config_.stop != nullptr &&
        config_.stop->load(std::memory_order_relaxed)) {
      terminate_fleet(SIGTERM);
      result.exit_code = drain_error ? kExitFailure : kExitInterrupted;
      return result;
    }

    // Reap.
    for (Slot& slot : slots) {
      if (slot.pid <= 0) {
        continue;
      }
      int st = 0;
      const pid_t got = ::waitpid(slot.pid, &st, WNOHANG);
      if (got == 0) {
        continue;
      }
      WorkerExit exit;
      if (got == slot.pid) {
        exit = classify_wait_status(st);
      } else {
        // waitpid error (e.g. the child was reaped elsewhere): treat it
        // as a crash so the slot recovers instead of wedging.
        exit.cls = WorkerExitClass::kCrash;
        exit.signaled = true;
        exit.code_or_signal = 0;
      }
      SupervisorEvent ev;
      ev.kind = SupervisorEvent::Kind::kExit;
      ev.worker = slot.index;
      ev.pid = static_cast<int>(slot.pid);
      ev.generation = slot.generation;
      ev.exit = exit;
      if (slot.pending_stall) {
        ev.detail = "after stall SIGKILL";
      }
      record(std::move(ev));
      slot.pid = -1;
      close_slot_pipe(slot);
      switch (exit.cls) {
        case WorkerExitClass::kClean:
        case WorkerExitClass::kInterrupted:
          result.stats.clean_exits++;
          slot.retired = true;
          break;
        case WorkerExitClass::kCrash:
          if (!slot.pending_stall) {
            result.stats.crashes++;
          }
          [[fallthrough]];
        case WorkerExitClass::kError: {
          if (exit.cls == WorkerExitClass::kError) {
            result.stats.error_exits++;
          }
          // A worker that ran well past the backoff cap before dying is
          // not flapping — restart it from the base backoff again.
          const double uptime_ms =
              std::chrono::duration<double, std::milli>(Clock::now() -
                                                        slot.spawned_at)
                  .count();
          if (uptime_ms > 4.0 * static_cast<double>(config_.backoff_cap.count())) {
            slot.consecutive_failures = 0;
          }
          slot.consecutive_failures++;
          slot.generation++;
          const auto backoff = config_.backoff(slot.consecutive_failures);
          slot.restart_due = true;
          slot.restart_at = Clock::now() + backoff;
          SupervisorEvent sched;
          sched.kind = SupervisorEvent::Kind::kRestartScheduled;
          sched.worker = slot.index;
          sched.pid = ev.pid;
          sched.generation = slot.generation;
          sched.backoff_ms = static_cast<double>(backoff.count());
          record(std::move(sched));
          break;
        }
      }
    }

    // Heartbeats + stall enforcement.
    for (Slot& slot : slots) {
      if (slot.pid <= 0) {
        continue;
      }
      drain_heartbeats(slot);
      if (config_.stall_timeout_ms > 0.0 && !slot.pending_stall) {
        const double silent_ms =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      slot.last_beat)
                .count();
        if (silent_ms > config_.stall_timeout_ms) {
          slot.pending_stall = true;
          result.stats.stalls++;
          SupervisorEvent ev;
          ev.kind = SupervisorEvent::Kind::kStall;
          ev.worker = slot.index;
          ev.pid = static_cast<int>(slot.pid);
          ev.generation = slot.generation;
          ev.detail = "no heartbeat for " + std::to_string(silent_ms) + "ms";
          record(std::move(ev));
          ::kill(slot.pid, SIGKILL);
        }
      }
    }

    // Age the restart window; maintain the half-open degrade flag.
    update_degrade(now);

    // Due restarts — breaker check before each fork.
    for (Slot& slot : slots) {
      if (!slot.restart_due || Clock::now() < slot.restart_at) {
        continue;
      }
      restart_window.push_back(Clock::now());
      if (static_cast<int>(restart_window.size()) > config_.restart_budget) {
        SupervisorEvent ev;
        ev.kind = SupervisorEvent::Kind::kGiveUp;
        ev.detail = std::to_string(restart_window.size()) +
                    " restarts in " + std::to_string(config_.restart_window_s) +
                    "s window (budget " +
                    std::to_string(config_.restart_budget) + ")";
        record(std::move(ev));
        write_postmortem(restart_window.size());
        terminate_fleet(SIGTERM);
        result.gave_up = true;
        result.exit_code = kExitSupervisorGaveUp;
        return result;
      }
      slot.restart_due = false;
      result.stats.restarts++;
      update_degrade(Clock::now());
      if (!spawn(slot)) {
        // Fork pressure: try again after another backoff step.
        slot.consecutive_failures++;
        slot.restart_due = true;
        slot.restart_at =
            Clock::now() + config_.backoff(slot.consecutive_failures);
      }
    }

    // Optional liveness probe.
    if (config_.probe && config_.probe_interval_ms > 0.0) {
      const double since_probe_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - last_probe)
              .count();
      if (since_probe_ms >= config_.probe_interval_ms) {
        last_probe = Clock::now();
        if (!config_.probe()) {
          result.stats.probe_failures++;
          SupervisorEvent ev;
          ev.kind = SupervisorEvent::Kind::kProbeFailure;
          ev.detail = "liveness probe failed";
          record(std::move(ev));
        }
      }
    }

    // All slots retired (their own clean exits) — natural completion.
    const bool all_retired =
        std::all_of(slots.begin(), slots.end(), [](const Slot& s) {
          return s.retired && !s.restart_due && s.pid <= 0;
        });
    if (all_retired) {
      result.exit_code = kExitOk;
      return result;
    }

    std::this_thread::sleep_for(std::chrono::milliseconds(15));
  }
}

}  // namespace pftk::robust
