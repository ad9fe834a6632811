// Cluster-layer tests (DESIGN.md §18): single-mesh bitwise parity with the
// campaign engine, mesh-loss fault domains with failover evacuation vs
// unbounded loss with failover off, replica staleness (RPO) surfacing, the
// outage-during-storm overlap with byte-identical replay and mid-failover
// crash/resume through checkpoint payload v7, the wrong-cluster-geometry
// resume refusal (both directions: cluster frames refuse resume_campaign),
// the ClusterState codec, the cluster scenario-file parser, and the
// defaults and clamps of the engine settings the campaign, cluster, fleet,
// batching and wear-leveling configs carry.
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/binary_io.hpp"
#include "core/cluster.hpp"
#include "core/fleet.hpp"
#include "core/resilience.hpp"
#include "core/scenario.hpp"
#include "core/serving.hpp"
#include "reram/wear_leveling.hpp"

namespace odin::core {
namespace {

std::string temp_base(const std::string& tag) {
  return ::testing::TempDir() + "odin_cluster_" + tag;
}

void remove_slots(const std::string& base) {
  std::remove((base + ".a").c_str());
  std::remove((base + ".b").c_str());
}

/// A small cluster campaign with every knob pinned.
ClusterConfig small_cluster() {
  ClusterConfig cfg;
  cfg.campaign.scenario.seed = 11;
  cfg.campaign.scenario.tenants = 48;
  cfg.campaign.scenario.requests = 20'000;
  cfg.campaign.shards = 4;
  cfg.campaign.autoscale.enabled = true;
  cfg.campaign.epochs = 12;
  cfg.meshes = 3;
  cfg.replication_epochs = 4;
  cfg.failover.enabled = true;
  MeshOutage outage;
  outage.start_frac = 0.55;
  outage.duration_frac = 0.25;
  outage.mesh = 0;
  cfg.outages = {outage};
  return cfg;
}

TEST(Cluster, SingleMeshClusterMatchesCampaignBitwise) {
  ClusterConfig cfg = small_cluster();
  cfg.meshes = 1;
  cfg.outages.clear();
  cfg.mesh_outages = 0;  // no outage windows: pure parity check
  const ClusterResult one = run_cluster(cfg);
  const CampaignResult plain = run_campaign(cfg.campaign);
  EXPECT_EQ(one.meshes, 1);
  // The campaign block of a one-mesh cluster is the campaign engine's
  // output byte for byte — same arrivals, same pricing, same sketches.
  EXPECT_EQ(one.campaign.summary(), plain.summary());
  EXPECT_EQ(one.cluster.failovers, 0);
  EXPECT_EQ(one.cluster.outage_dropped, 0);
  EXPECT_EQ(one.cluster.replication_rounds, 0);  // nowhere to replicate
  EXPECT_EQ(one.victim_recovery(), 1.0);
}

TEST(Cluster, SummaryIsByteIdenticalAcrossRuns) {
  const ClusterConfig cfg = small_cluster();
  const ClusterResult a = run_cluster(cfg);
  const ClusterResult b = run_cluster(cfg);
  EXPECT_EQ(a.summary(), b.summary());
  EXPECT_EQ(a.cluster.outages_fired, 1);
  EXPECT_GT(a.cluster.replication_rounds, 0);
}

TEST(Cluster, MeshOutageWithFailoverEvacuatesWithinRto) {
  const ClusterConfig cfg = small_cluster();
  const ClusterResult on = run_cluster(cfg);
  ClusterConfig off_cfg = cfg;
  off_cfg.failover.enabled = false;
  const ClusterResult off = run_cluster(off_cfg);

  // The outage fired and failover actually evacuated tenants.
  ASSERT_EQ(on.cluster.outages_fired, 1);
  EXPECT_GT(on.cluster.failovers, 0);
  EXPECT_GT(on.cluster.bootstrap_campaigns, 0);
  EXPECT_GT(on.cluster.degraded_runs, 0);
  // Every evacuation reports a bounded, nonzero recovery time that is at
  // least the detection delay.
  EXPECT_GE(on.rto_mean_s(), cfg.failover.detection_s);
  EXPECT_GE(on.cluster.rto_max_s, on.rto_mean_s());
  // Replication moved real bytes over the inter-mesh link.
  EXPECT_GT(on.cluster.replication_bytes, 0.0);
  EXPECT_GT(on.cluster.replication_energy_j, 0.0);

  // With failover off nobody is evacuated: the dark mesh's arrivals are
  // dropped for the whole outage and recovery is strictly worse.
  EXPECT_EQ(off.cluster.failovers, 0);
  EXPECT_EQ(off.cluster.bootstrap_campaigns, 0);
  EXPECT_GT(off.cluster.outage_dropped, on.cluster.outage_dropped);
  EXPECT_GT(on.victim_recovery(), off.victim_recovery());
  // The acceptance bar the bench enforces at full scale holds here too.
  EXPECT_GE(on.victim_recovery(), 0.95);
  // Victim tenants are marked, and the drop/serve ledgers reconcile.
  std::int64_t victims = 0;
  for (std::uint8_t v : on.cluster.tenant_victim) victims += v;
  EXPECT_EQ(victims, on.cluster.failovers);
  EXPECT_GE(on.cluster.victim_offered, on.cluster.victim_served);
}

TEST(Cluster, StaleReplicaSurfacesRpoAndCounter) {
  // Replications land when epochs 3, 7, 11 close (R = 4, E = 12); the
  // outage at 0.55 h hits between rounds, so every victim that served
  // after the 0.33 h replication restores from a stale replica.
  const ClusterConfig cfg = small_cluster();
  const ClusterResult r = run_cluster(cfg);
  ASSERT_GT(r.cluster.failovers, 0);
  EXPECT_GT(r.cluster.restored_stale, 0);
  EXPECT_GT(r.cluster.lost_runs, 0);
  EXPECT_GT(r.cluster.rpo_max_s, 0.0);
  EXPECT_GE(r.cluster.rpo_max_s, r.rpo_mean_s());
  // The per-tenant counters mirror the cluster ledgers exactly — the
  // regression pin for the staleness edge.
  std::int64_t stale = 0, lost = 0, failovers = 0, dropped = 0;
  double rpo_max = 0.0, rto_max = 0.0;
  for (const TenantStats& t : r.campaign.tenants) {
    stale += t.restored_stale;
    lost += t.lost_runs;
    failovers += t.failovers;
    dropped += t.outage_dropped;
    rpo_max = std::max(rpo_max, t.rpo_s);
    rto_max = std::max(rto_max, t.rto_s);
  }
  EXPECT_EQ(stale, r.cluster.restored_stale);
  EXPECT_EQ(lost, r.cluster.lost_runs);
  EXPECT_EQ(failovers, r.cluster.failovers);
  EXPECT_EQ(dropped, r.cluster.outage_dropped);
  EXPECT_EQ(rpo_max, r.cluster.rpo_max_s);
  EXPECT_EQ(rto_max, r.cluster.rto_max_s);
  // A stale restore lost exactly the post-replication serves, never more
  // than the victim's total.
  for (const TenantStats& t : r.campaign.tenants) {
    EXPECT_LE(t.lost_runs, static_cast<long long>(t.runs));
    if (t.restored_stale > 0) EXPECT_GT(t.rpo_s, 0.0);
  }
}

TEST(Cluster, OutageDuringStormReplaysAndResumesByteIdentical) {
  const std::string base = temp_base("stormoutage");
  remove_slots(base);
  ClusterConfig cfg = small_cluster();
  // A wide storm spanning [0.45 h, 0.80 h] overlaps the outage window
  // [0.55 h, 0.80 h]: the mesh dies while the fleet is mid-storm.
  FaultStorm storm;
  storm.start_frac = 0.45;
  storm.duration_frac = 0.35;
  storm.drift_multiplier = 3.0;
  storm.center_pe = 7;
  storm.radius = 1;
  storm.campaigns = 4;
  cfg.campaign.scenario.storms = {storm};
  cfg.campaign.checkpoint.base_path = base;
  cfg.campaign.checkpoint.every_runs = 500;

  const ClusterResult full = run_cluster(cfg);
  EXPECT_EQ(full.campaign.state.storms_fired, 1);
  ASSERT_EQ(full.cluster.outages_fired, 1);
  // Same-seed replay of the overlap is byte-identical.
  EXPECT_EQ(run_cluster(cfg).summary(), full.summary());

  // Kill mid-failover: at 70% of the request budget the clock sits inside
  // both the storm and the outage window.
  ClusterConfig crash = cfg;
  crash.campaign.max_requests = cfg.campaign.scenario.requests * 7 / 10;
  const ClusterResult interrupted = run_cluster(crash);
  const double h = cfg.campaign.scenario.horizon_s;
  EXPECT_GT(interrupted.campaign.state.clock_s, 0.55 * h);
  EXPECT_LT(interrupted.campaign.state.clock_s, 0.80 * h);
  EXPECT_EQ(interrupted.campaign.state.storms_fired, 1);
  EXPECT_EQ(interrupted.cluster.outages_fired, 1);

  const auto resumed = resume_cluster(cfg);
  ASSERT_TRUE(resumed.has_value());
  EXPECT_TRUE(resumed->campaign.resumed);
  // Bitwise: the resumed cluster reproduces the uninterrupted summary,
  // including the failover ledgers and every sketch-derived percentile.
  EXPECT_EQ(resumed->summary(), full.summary());
  remove_slots(base);
}

TEST(Cluster, ResumeRefusesWrongClusterGeometry) {
  const std::string base = temp_base("geometry");
  remove_slots(base);
  ClusterConfig cfg = small_cluster();
  cfg.campaign.checkpoint.base_path = base;
  cfg.campaign.checkpoint.every_runs = 500;
  cfg.campaign.max_requests = cfg.campaign.scenario.requests * 7 / 10;
  run_cluster(cfg);  // leaves a mid-campaign cluster checkpoint behind
  cfg.campaign.max_requests = 0;

  {
    ClusterConfig wrong = cfg;
    wrong.meshes = 2;
    EXPECT_FALSE(resume_cluster(wrong).has_value());
  }
  {
    ClusterConfig wrong = cfg;
    wrong.replication_epochs = 8;
    EXPECT_FALSE(resume_cluster(wrong).has_value());
  }
  {
    ClusterConfig wrong = cfg;
    wrong.failover.enabled = false;
    EXPECT_FALSE(resume_cluster(wrong).has_value());
  }
  {
    ClusterConfig wrong = cfg;
    wrong.campaign.scenario.seed += 1;
    EXPECT_FALSE(resume_cluster(wrong).has_value());
  }
  // A cluster frame must never resume as a plain campaign: the campaign
  // fingerprint inside it describes the *global* shard layout and the
  // cluster ledgers would be silently dropped.
  EXPECT_FALSE(resume_campaign(cfg.campaign).has_value());
  // The unmodified geometry still resumes.
  EXPECT_TRUE(resume_cluster(cfg).has_value());
  remove_slots(base);
}

TEST(Cluster, ClusterStateCodecRoundTripsExactly) {
  const ClusterResult r = run_cluster(small_cluster());
  common::ByteWriter out;
  encode_cluster_state(r.cluster, out);
  common::ByteReader in(out.bytes());
  const auto decoded = decode_cluster_state(in);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->meshes, r.cluster.meshes);
  EXPECT_EQ(decoded->outages_fired, r.cluster.outages_fired);
  EXPECT_EQ(decoded->replication_rounds, r.cluster.replication_rounds);
  EXPECT_EQ(decoded->mesh_down, r.cluster.mesh_down);
  EXPECT_EQ(decoded->mesh_served, r.cluster.mesh_served);
  EXPECT_EQ(decoded->replica_runs, r.cluster.replica_runs);
  EXPECT_EQ(decoded->replica_time_s, r.cluster.replica_time_s);
  EXPECT_EQ(decoded->replica_mesh, r.cluster.replica_mesh);
  EXPECT_EQ(decoded->tenant_victim, r.cluster.tenant_victim);
  EXPECT_EQ(decoded->failovers, r.cluster.failovers);
  EXPECT_EQ(decoded->restored_stale, r.cluster.restored_stale);
  EXPECT_EQ(decoded->rpo_max_s, r.cluster.rpo_max_s);
  EXPECT_EQ(decoded->replication_bytes, r.cluster.replication_bytes);
  // Re-encoding reproduces the identical byte stream, so every field
  // (including the breaker snapshots) survived the round trip.
  common::ByteWriter again;
  encode_cluster_state(*decoded, again);
  EXPECT_EQ(out.bytes(), again.bytes());
  // Truncated prefixes are refused, never misparsed.
  for (std::size_t cut : {std::size_t{0}, std::size_t{7},
                          out.bytes().size() / 2, out.bytes().size() - 1}) {
    common::ByteReader short_in(std::string_view(out.bytes()).substr(0, cut));
    EXPECT_FALSE(decode_cluster_state(short_in).has_value()) << "cut=" << cut;
  }
}

TEST(Cluster, ParserAcceptsTheDocumentedFormat) {
  std::istringstream in(
      "# a seeded cluster campaign (docs/scenario_format.md)\n"
      "seed 42\n"
      "tenants 96\n"
      "requests 50000\n"
      "shards 4\n"
      "epochs 24\n"
      "autoscale on\n"
      "meshes 3\n"
      "replication-epochs 6\n"
      "failover on\n"
      "outage 0.5 0.2 1\n"
      "outage 0.8 0.1\n"
      "mesh-outages 2\n"
      "outage-duration-frac 0.15\n"
      "detection-s 20\n"
      "restore-s 1.5\n"
      "degraded-window 10\n");
  const auto cfg = parse_cluster(in);
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->campaign.scenario.seed, 42u);
  EXPECT_EQ(cfg->campaign.scenario.tenants, 96);
  EXPECT_EQ(cfg->campaign.shards, 4);
  EXPECT_EQ(cfg->campaign.epochs, 24);
  EXPECT_TRUE(cfg->campaign.autoscale.enabled);
  EXPECT_EQ(cfg->meshes, 3);
  EXPECT_EQ(cfg->replication_epochs, 6);
  EXPECT_TRUE(cfg->failover.enabled);
  ASSERT_EQ(cfg->outages.size(), 2u);
  EXPECT_EQ(cfg->outages[0].start_frac, 0.5);
  EXPECT_EQ(cfg->outages[0].duration_frac, 0.2);
  EXPECT_EQ(cfg->outages[0].mesh, 1);
  EXPECT_EQ(cfg->outages[1].mesh, -1);  // drawn from the seed
  EXPECT_EQ(cfg->mesh_outages, 2);
  EXPECT_EQ(cfg->outage_duration_frac, 0.15);
  EXPECT_EQ(cfg->failover.detection_s, 20.0);
  EXPECT_EQ(cfg->failover.restore_s, 1.5);
  EXPECT_EQ(cfg->failover.degraded_window, 10);
}

TEST(Cluster, ParserRejectsMalformedInputWithNullopt) {
  {
    std::istringstream in("meshes 9\n");  // above the [1, 8] clamp
    EXPECT_FALSE(parse_cluster(in).has_value());
  }
  {
    std::istringstream in("meshes three\n");
    EXPECT_FALSE(parse_cluster(in).has_value());
  }
  {
    std::istringstream in("replication-epochs 0\n");
    EXPECT_FALSE(parse_cluster(in).has_value());
  }
  {
    std::istringstream in("failover maybe\n");  // strict tri-state
    EXPECT_FALSE(parse_cluster(in).has_value());
  }
  {
    std::istringstream in("outage 0.5\n");  // too few fields
    EXPECT_FALSE(parse_cluster(in).has_value());
  }
  {
    std::istringstream in("outage-duration-frac 1.5\n");  // out of (0, 1]
    EXPECT_FALSE(parse_cluster(in).has_value());
  }
  {
    std::istringstream in("tennants 96\n");  // scenario typo still refused
    EXPECT_FALSE(parse_cluster(in).has_value());
  }
  {
    // A scenario-level error after cluster keys names its own line.
    std::istringstream in("meshes 3\nfailover off\n\ntenants zero\n");
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(parse_cluster(in).has_value());
    EXPECT_EQ(::testing::internal::GetCapturedStderr(),
              "odin: scenario line 4: want integer >= 1: tenants zero\n");
  }
  EXPECT_FALSE(parse_cluster_file("/nonexistent/cluster.scn").has_value());
}

TEST(Settings, ResolveToDefaultsAndClamps) {
  // Each engine setting as {field value, value in force}; kUnset leaves
  // the field as constructed. 0 is the "default" spelling of the odin_cli
  // flags (--shards/--meshes/--replication-epochs/--batch-max/--seed 0).
  struct Configs {
    FleetConfig fleet;
    ClusterConfig cluster;
    BatchingConfig batching;
    reram::WearLevelingParams leveling;
  };
  struct Setting {
    const char* name;
    void (*set)(Configs&, long long);
    double (*get)(const Configs&);
    std::vector<std::pair<long long, double>> cases;
  };
  constexpr long long kUnset = std::numeric_limits<long long>::min();
  const double pes = arch::PimConfig{}.pes;
  const Setting settings[] = {
      {"shards",
       [](Configs& c, long long v) { c.fleet.shards = static_cast<int>(v); },
       [](const Configs& c) { return double(c.fleet.resolved_shards()); },
       {{kUnset, 1}, {0, 1}, {-3, 1}, {4, 4}, {99, pes}}},
      {"meshes",
       [](Configs& c, long long v) { c.cluster.meshes = static_cast<int>(v); },
       [](const Configs& c) { return double(c.cluster.resolved_meshes()); },
       {{kUnset, 1}, {0, 1}, {-3, 1}, {3, 3}, {99, 8}}},
      {"replication-epochs",
       [](Configs& c, long long v) {
         c.cluster.replication_epochs = static_cast<int>(v);
       },
       [](const Configs& c) {
         return double(c.cluster.resolved_replication_epochs());
       },
       {{kUnset, 4}, {0, 4}, {-3, 4}, {1, 1}, {8, 8}, {999, 64}}},
      {"batch-max",
       [](Configs& c, long long v) {
         c.batching.max_batch = static_cast<int>(v);
       },
       [](const Configs& c) { return double(c.batching.resolved_max_batch()); },
       {{kUnset, 8}, {0, 8}, {-3, 8}, {1, 1}, {32, 32}, {99999, 1024}}},
      {"spare-rows",
       [](Configs& c, long long v) {
         c.leveling.spare_rows = static_cast<int>(v);
       },
       [](const Configs& c) {
         return double(c.leveling.resolved_spare_rows());
       },
       {{kUnset, 16}, {0, 16}, {1, 1}, {32, 32}, {99999, 512}}},
      {"wear-budget-percent",
       [](Configs& c, long long v) {
         c.leveling.wear_budget_percent = static_cast<int>(v);
       },
       [](const Configs& c) { return c.leveling.resolved_wear_budget(); },
       {{kUnset, 0.80}, {0, 0.80}, {1, 0.01}, {25, 0.25}, {250, 1.0}}},
      {"seed",
       [](Configs& c, long long v) {
         c.cluster.campaign.scenario.seed = static_cast<std::uint64_t>(v);
       },
       [](const Configs& c) {
         return double(c.cluster.campaign.scenario.resolved_seed());
       },
       {{kUnset, 1}, {0, 1}, {7, 7}}},
      {"autoscale",
       [](Configs& c, long long v) {
         c.cluster.campaign.autoscale.enabled = v != 0;
       },
       [](const Configs& c) {
         return double(c.cluster.campaign.autoscale.enabled);
       },
       {{kUnset, 1}, {0, 0}, {1, 1}}},
      {"failover",
       [](Configs& c, long long v) { c.cluster.failover.enabled = v != 0; },
       [](const Configs& c) { return double(c.cluster.failover.enabled); },
       {{kUnset, 1}, {0, 0}, {1, 1}}},
  };
  for (const Setting& s : settings)
    for (const auto& [value, want] : s.cases) {
      Configs c;
      if (value != kUnset) s.set(c, value);
      EXPECT_EQ(s.get(c), want)
          << s.name << " = "
          << (value == kUnset ? std::string("default")
                              : std::to_string(value));
    }
}

}  // namespace
}  // namespace odin::core
