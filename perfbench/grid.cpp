// grid — the Table-2 campaign: every profile x one seed x {full, approx,
// td}, hour kind, run by exp::campaign::CampaignRunner on 2 threads with
// its fsync'd journal (fsync_every = 1). Simulation dominates; no trace
// file is written, so a trace-I/O change must read as no change here.
#include <algorithm>
#include <optional>
#include <set>
#include <tuple>

#include "exp/campaign/campaign_runner.hpp"
#include "exp/path_profile.hpp"
#include "harness.hpp"

namespace perfbench {

namespace {

using namespace pftk;
namespace campaign = pftk::exp::campaign;

constexpr int kThreads = 2;
constexpr const char* kJournal = "grid.jsonl";

struct CampaignOutcome {
  double seconds = 0.0;  ///< CampaignRunner::run wall
  campaign::CampaignResult result;
};

class Grid {
 public:
  explicit Grid(std::uint64_t seed) {
    spec_.kind = campaign::CampaignKind::kHourTrace;
    spec_.duration = 3600.0;
    spec_.interval_length = 100.0;
    spec_.profiles = exp::table2_profiles();
    spec_.seeds = {seed};
    spec_.models = {model::ModelKind::kFull, model::ModelKind::kApproximate,
                    model::ModelKind::kTdOnly};
    options_.threads = kThreads;
    options_.journal_path = kJournal;
    options_.fsync_every = 1;
    runner_.emplace(spec_, options_);
  }

  [[nodiscard]] const campaign::CampaignSpec& spec() const noexcept { return spec_; }

  /// A one-profile campaign with the same options: the worker pool, the
  /// executor and the fsync'd journal each run once before timing.
  void warm_up() const {
    campaign::CampaignSpec first = spec_;
    first.profiles.resize(1);
    (void)campaign::CampaignRunner(first, options_).run();
  }

  /// One whole campaign, then its checks.
  CampaignOutcome run(Report& report) {
    CampaignOutcome out;
    {
      PFTK_SPAN("bench.exp.campaign.run");
      out.seconds = time_call([&] { out.result = runner_->run(); });
    }
    PFTK_SPAN("bench.check");
    const campaign::CampaignResult& result = out.result;
    std::size_t ok = 0;
    for (const campaign::CampaignItemResult& item : result.items) {
      ok += item.ok() ? 1 : 0;
    }
    report.failed(result.items.size() - ok);
    report.check(ok == spec_.item_count() && result.all_ok(),
                 std::to_string(ok) + "/" + std::to_string(spec_.item_count()) +
                     " campaign items ok");
    const std::string journal = read_file(kJournal);
    report.check(static_cast<std::size_t>(std::count(journal.begin(), journal.end(),
                                                     '\n')) == result.items.size() &&
                     result.journal_io.writes == result.items.size(),
                 "journal has one line per item");
    const std::uint64_t digest = fnv1a(journal);
    if (!journal_digest_) {
      journal_digest_ = digest;
    }
    report.check(digest == *journal_digest_, "journal bytes repeat across campaigns");
    return out;
  }

 private:
  campaign::CampaignSpec spec_;
  campaign::CampaignRunnerOptions options_;
  std::optional<campaign::CampaignRunner> runner_;
  std::optional<std::uint64_t> journal_digest_;
};

std::uint64_t packets_of(const campaign::CampaignResult& result) {
  std::uint64_t packets = 0;
  for (const campaign::CampaignItemResult& item : result.items) {
    packets += item.metrics.packets_sent;
  }
  return packets;
}

}  // namespace

void run_grid(Report& report) {
  const Options& opt = report.options();
  // Set-up: the spec, a validated runner and a one-profile warm-up
  // campaign.
  auto grid = timed_setup<Grid>(report, 7, [&] {
    auto state = std::make_unique<Grid>(opt.seed);
    state->warm_up();
    return state;
  });
  const std::size_t per_campaign = grid->spec().item_count();

  std::vector<double> item_ms;  ///< every item's supervised wall time
  const auto record = [&](const CampaignOutcome& out) {
    report.attempted(out.result.items.size());
    std::vector<double> campaign_ms;
    for (const campaign::CampaignItemResult& item : out.result.items) {
      campaign_ms.push_back(item.span.total_seconds * 1e3);
    }
    item_ms.insert(item_ms.end(), campaign_ms.begin(), campaign_ms.end());
    return campaign_ms;
  };

  if (!opt.trace) {
    UnitStats units;
    repeat_for(opt.seconds, [&] {
      const CampaignOutcome out = grid->run(report);
      units.add(out.result.items.size(), out.seconds, record(out));
    });
    units.report(report, "items_per_s", "items/s",
                 "campaigns of " + std::to_string(per_campaign) + " items");
    return;
  }

  Tracer tracer(1 << 12);
  std::uint64_t traced_packets = 0;
  std::size_t traced_campaigns = 0;
  std::uint64_t attempts = 0;  ///< per campaign; every attempt simulates an hour
  std::uint64_t first_packets = 0;
  std::optional<obs::CheckpointIoStats> journal_io;
  const std::vector<double> ratios =
      run_pairs(tracer, opt.seconds, 1, [&](std::size_t, bool traced) {
        const CampaignOutcome out = grid->run(report);
        record(out);
        if (!journal_io) {
          journal_io = out.result.journal_io;
          first_packets = packets_of(out.result);
          for (const campaign::CampaignItemResult& item : out.result.items) {
            attempts += static_cast<std::uint64_t>(item.attempts);
          }
        }
        if (traced) {
          traced_packets += packets_of(out.result);
          ++traced_campaigns;
        }
      });

  const std::set<std::tuple<std::string, std::uint64_t, std::string>> distinct = [&] {
    std::set<std::tuple<std::string, std::uint64_t, std::string>> keys;
    for (const campaign::CampaignItem& item : grid->spec().expand()) {
      keys.emplace(item.profile.label(), item.seed, item.scenario.name);
    }
    return keys;
  }();
  const double busy_s = tracer["campaign.attempt"].inclusive_s;
  const std::string per_sim = "mean per hour simulation over " +
                              std::to_string(tracer["sim.run_slice"].count);
  report.set("sim.run_s", tracer.mean_s("sim.run_slice"), per_sim);
  report.set("sim.ns_per_packet",
             traced_packets > 0 ? tracer["sim.run_slice"].inclusive_s * 1e9 /
                                      static_cast<double>(traced_packets)
                                : 0.0,
             std::to_string(traced_packets) + " packets");
  report.set("sim.packets", static_cast<double>(first_packets), "per campaign");
  report.set("exp.campaign.item_busy_s",
             traced_campaigns > 0 ? busy_s / static_cast<double>(traced_campaigns) : 0.0,
             "campaign.attempt seconds per campaign");
  report.set("exp.campaign.item_p50_ms", median(item_ms),
             "over " + std::to_string(item_ms.size()) + " items");
  report.set("exp.campaign.item_p99_ms", quantile(item_ms, 0.99),
             "over " + std::to_string(item_ms.size()) + " items");
  report.set("exp.campaign.worker_util",
             tracer.wall_s() > 0.0 ? busy_s / (kThreads * tracer.wall_s()) : 0.0,
             "attempt busy / (" + std::to_string(kThreads) + " threads x traced wall)");
  report.set("exp.campaign.sims_per_trace",
             static_cast<double>(attempts) / static_cast<double>(distinct.size()),
             std::to_string(attempts) + " simulations / " + std::to_string(distinct.size()) +
                 " distinct profile x seed x scenario");
  report.set("exp.campaign.sims", static_cast<double>(attempts));
  report.set("exp.campaign.traces", static_cast<double>(distinct.size()));
  report.set("exp.campaign.attempts_per_item",
             static_cast<double>(attempts) / static_cast<double>(per_campaign),
             std::to_string(attempts) + " attempts / " + std::to_string(per_campaign) +
                 " items");
  report.set("exp.campaign.attempts", static_cast<double>(attempts));
  report.set("exp.campaign.items", static_cast<double>(per_campaign));
  report.set("robust.journal_writes", static_cast<double>(journal_io->writes),
             "per campaign");
  report.set("robust.journal_bytes", static_cast<double>(journal_io->bytes),
             "per campaign");
  report.set("robust.journal_flushes", static_cast<double>(journal_io->flushes),
             "per campaign");
  report.set("robust.journal_append_us", tracer.mean_s("campaign.journal_append") * 1e6,
             "mean fsync'd append over " +
                 std::to_string(tracer["campaign.journal_append"].count));
  report_tracing(report, tracer, ratios);
}

}  // namespace perfbench
