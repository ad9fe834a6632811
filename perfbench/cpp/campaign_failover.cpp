// campaign_failover: a seeded three-mesh cluster campaign (diurnal load,
// flash crowds, churn, a fault storm) through core::run_cluster, with mesh
// 0 lost mid-storm and failover on. The timed phase also crashes a
// checkpointing run part-way, resumes it with core::resume_cluster (the
// result must match the uninterrupted run byte for byte), and walks a short
// ladder of offered loads for the SLO capacity. One event is one offered
// request of the failover-on run. Only the analytic campaign engine, its
// sketches and the checkpoint codec run: no dnn, policy or OU search.
//
// The seed is the scenario seed: tenant tiers and weights, churn, flash
// crowds, the storm's centre and every arrival.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/cluster.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using namespace odin;

/// Offered loads of the capacity ladder, as shares of the calibrated
/// initial fleet capacity (ScenarioConfig::target_utilization).
constexpr double kLadder[] = {0.10, 0.15, 0.20, 0.25, 0.30,
                               0.35, 0.40, 0.45, 0.50};

struct Rung {
  double goodput = 0.0;
  bool backlog_bounded = false;
};

/// The simulated figures a repetition must reproduce.
struct Sims {
  long long offered = 0;
  double failed_frac = 0.0;
  double goodput_frac = 0.0;
  double sojourn_p99_s = 0.0;
  double slo_capacity = 0.0;
  double edp_per_event_js = 0.0;
  double victim_recovery = 0.0;
  bool operator==(const Sims&) const = default;
};

struct Rep {
  std::string summary;
  std::string resumed_summary;
  bool resumed = false;
  core::ClusterResult result;
  std::vector<Rung> ladder;
  double run_s = 0.0, crash_s = 0.0, resume_s = 0.0, load_s = 0.0;
  double ladder_s = 0.0;
  double checkpoint_bytes = 0.0;
  Sims sims;
};

double goodput(const core::ClusterResult& r) {
  const auto& st = r.campaign.state;
  const double offered = static_cast<double>(r.campaign.requests());
  return (offered - static_cast<double>(r.cluster.outage_dropped + st.sheds +
                                        st.misses)) /
         offered;
}

}  // namespace

void campaign_failover(const Options& opt, Report& report) {
  const long long requests = opt.smoke ? 60'000 : 1'200'000;
  const int tenants = opt.smoke ? 120 : 200;

  core::ClusterConfig cfg;
  cfg.campaign.scenario.seed = opt.seed == 0 ? 1 : opt.seed;
  cfg.campaign.scenario.tenants = tenants;
  cfg.campaign.scenario.requests = requests;
  // One wide storm over [0.45, 0.80] of the horizon, so the mesh loss at
  // 0.55 opens while the fleet is mid-storm.
  core::FaultStorm storm;
  storm.start_frac = 0.45;
  storm.duration_frac = 0.35;
  storm.drift_multiplier = 3.0;
  storm.radius = 1;
  storm.campaigns = 4;
  cfg.campaign.scenario.storms = {storm};
  cfg.campaign.shards = 4;
  cfg.campaign.epochs = 48;
  cfg.campaign.sojourn_cap = 64;
  cfg.campaign.autoscale.enabled = 1;
  cfg.meshes = 3;
  cfg.replication_epochs = 4;
  cfg.failover.enabled = 1;
  cfg.outages = {core::MeshOutage{.start_frac = 0.55, .duration_frac = 0.40,
                                  .mesh = 0}};

  core::ClusterConfig crash = cfg;
  const std::string ckpt = opt.work_dir + "/cluster_ckpt";
  crash.campaign.checkpoint.base_path = ckpt;
  crash.campaign.checkpoint.every_runs = static_cast<int>(requests / 4);
  crash.campaign.max_requests = requests * 7 / 10;

  // The ladder runs the same cluster without the outage, at a tenth of the
  // requests per rung.
  std::vector<core::ClusterConfig> ladder;
  for (double load : kLadder) {
    core::ClusterConfig rung = cfg;
    rung.outages.clear();
    rung.mesh_outages = 0;
    rung.campaign.scenario.requests = requests / 10;
    rung.campaign.scenario.target_utilization = load;
    ladder.push_back(rung);
  }

  set_tracing(opt.trace);
  // Set-up expands every trace the timed phase replays (run_cluster expands
  // each again internally). It takes under a millisecond, so each block of
  // the run repeats it twenty times.
  const auto build = [&] {
    Span root("bench", "setup");
    std::vector<const core::ClusterConfig*> configs = {&cfg};
    for (const core::ClusterConfig& rung : ladder) configs.push_back(&rung);
    for (const core::ClusterConfig* c : configs) {
      Span s("core.scenario", "build_trace");
      const core::ScenarioTrace trace =
          core::build_trace(c->campaign.scenario, c->campaign.pim);
      if (trace.tenants.size() != static_cast<std::size_t>(tenants))
        throw std::runtime_error("trace has the wrong tenant count");
    }
  };
  if (opt.trace) build();

  const auto clear = [&] {
    for (const char* ext : {".a", ".b"}) std::filesystem::remove(ckpt + ext);
  };
  const auto run_rep = [&] {
    Rep rep;
    double t0 = now_s();
    {
      Span s("core.cluster", "run_cluster", 0);
      rep.result = core::run_cluster(cfg);
    }
    rep.run_s = now_s() - t0;
    rep.summary = rep.result.summary();

    clear();
    t0 = now_s();
    {
      Span s("core.cluster", "run_cluster", 1);
      core::run_cluster(crash);
    }
    rep.crash_s = now_s() - t0;
    t0 = now_s();
    {
      Span s("core.checkpoint", "load_latest_checkpoint");
      rep.resumed = core::load_latest_checkpoint(ckpt).has_value();
    }
    rep.load_s = now_s() - t0;
    for (const char* ext : {".a", ".b"})
      if (std::filesystem::exists(ckpt + ext))
        rep.checkpoint_bytes +=
            static_cast<double>(std::filesystem::file_size(ckpt + ext));
    std::optional<core::ClusterResult> resumed;
    t0 = now_s();
    {
      Span s("core.cluster", "resume_cluster");
      resumed = core::resume_cluster(crash);
    }
    rep.resume_s = now_s() - t0;
    rep.resumed = rep.resumed && resumed.has_value();
    if (resumed.has_value()) rep.resumed_summary = resumed->summary();
    clear();

    t0 = now_s();
    for (std::size_t i = 0; i < ladder.size(); ++i) {
      Span s("core.scenario", "ladder_rung", static_cast<long long>(i));
      const core::ClusterResult r = core::run_cluster(ladder[i]);
      // The backlog is bounded when no shard's queue outlasts the horizon
      // end by more than the loosest (bronze) SLO.
      const auto& st = r.campaign.state;
      double backlog = 0.0;
      for (double busy : st.shard_busy_until_s)
        backlog = std::max(backlog, busy - st.clock_s);
      double slo = 0.0;
      for (const core::ScenarioTenant& t : r.campaign.roster)
        slo = std::max(slo, t.slo_s);
      rep.ladder.push_back(Rung{goodput(r), backlog <= slo});
    }
    rep.ladder_s = now_s() - t0;

    const auto& st = rep.result.campaign.state;
    const long long offered = rep.result.campaign.requests();
    double capacity = 0.0;
    for (std::size_t i = 0; i < ladder.size(); ++i)
      if (rep.ladder[i].goodput >= 0.99 && rep.ladder[i].backlog_bounded)
        capacity = kLadder[i];
    rep.sims = {
        offered,
        static_cast<double>(rep.result.cluster.outage_dropped + st.sheds) /
            static_cast<double>(offered),
        goodput(rep.result),
        st.sojourn.percentile(99.0),
        capacity,
        rep.result.campaign.edp_per_request(),
        rep.result.victim_recovery()};
    return rep;
  };

  std::vector<Rep> reps;
  double untraced_eps = 0.0, traced_eps = 0.0;
  if (opt.trace) {
    set_tracing(false);
    run_rep();  // warm-up: the first repetition of a process runs cold
    double t0 = now_s();
    run_rep();
    untraced_eps = static_cast<double>(requests) / (now_s() - t0);
    set_tracing(true);
    Span root("bench", "timed");
    t0 = now_s();
    reps.push_back(run_rep());
    traced_eps = static_cast<double>(requests) / (now_s() - t0);
    report.attempted = 3 * requests;
  } else {
    const Timings t =
        measure(report, opt.seconds, opt.smoke ? 1 : 5, 20, build, [&] {
          reps.push_back(run_rep());
          return requests;
        });
    report.e2e("setup_s", median(t.setup_s), "s");
    report.e2e("events_per_s", median(t.events_per_s), "events/s");
    report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  }

  const Rep& rep = reps.front();
  long long mismatched = 0;
  for (const Rep& r : reps)
    if (r.summary != rep.summary || r.sims != rep.sims) mismatched += requests;
  report.failed = mismatched;
  report.check(mismatched == 0, "same-seed replay is byte-identical");
  bool resume_ok = true;
  for (const Rep& r : reps)
    resume_ok = resume_ok && r.resumed && r.resumed_summary == r.summary;
  report.check(resume_ok, "crash + resume_cluster is byte-identical");
  report.check(rep.sims.offered == requests, "every request is offered once");
  report.sim("failed_frac", rep.sims.failed_frac, "share");
  report.sim("goodput_frac", rep.sims.goodput_frac, "share");
  report.sim("sojourn_p99_s", rep.sims.sojourn_p99_s, "s");
  report.sim("slo_capacity", rep.sims.slo_capacity, "share");
  report.sim("edp_per_event_js", rep.sims.edp_per_event_js, "J.s");
  report.sim("victim_recovery", rep.sims.victim_recovery, "share");

  if (!opt.trace) return;
  double build_trace = 0.0;
  for (const SpanRecord& s : spans())
    if (s.name == "build_trace") build_trace += s.end_s - s.start_s;
  const auto& cs = rep.result.cluster;
  const auto& st = rep.result.campaign.state;
  report.layer("core.scenario.build_trace_s", build_trace, "s");
  report.layer("core.cluster.run_s", rep.run_s, "s");
  report.layer("core.cluster.crash_run_s", rep.crash_s, "s");
  report.layer("core.cluster.resume_s", rep.resume_s, "s");
  report.layer("core.checkpoint.load_ms", rep.load_s * 1e3, "ms");
  report.layer("core.checkpoint.bytes", rep.checkpoint_bytes, "bytes");
  report.layer("core.scenario.ladder_s", rep.ladder_s, "s");
  report.layer("core.cluster.failovers", static_cast<double>(cs.failovers),
               "count");
  report.layer("core.cluster.outage_dropped",
               static_cast<double>(cs.outage_dropped), "count");
  report.layer("core.scenario.rescales", static_cast<double>(st.rescales),
               "count");
  report.layer("core.scenario.migrations", static_cast<double>(st.migrations),
               "count");
  report.layer("core.scenario.storm_campaigns",
               static_cast<double>(st.storm_campaigns_fired), "count");
  report.layer("core.scenario.sheds", static_cast<double>(st.sheds), "count");
  report_trace(report, opt, untraced_eps, traced_eps);
}

}  // namespace perfbench
