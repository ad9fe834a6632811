// fleet_serve: the online serving path under queueing. Ten mixed-width
// synthetic tenants are placed NoC-aware on nine shards of the 36-PE mesh
// and served by core::serve_fleet with resilience on (finite queue,
// shed-oldest), batch formation and periodic checkpoint writes, over a
// log-spaced drift horizon: arrivals are dense early (the queue overflows
// and sheds) and sparse late (drift forces reprograms). One event is one
// offered request. The tenants are small, so dnn does little work and no
// crossbar MVM runs.
//
// The seed draws every pruning seed; the tenant widths are fixed, so every
// seed does about the same work.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/checkpoint.hpp"
#include "core/fleet.hpp"
#include "harness.hpp"
#include "policy/offline.hpp"

namespace perfbench {
namespace {

using namespace odin;

/// A 6-layer CNN-shaped tenant with every channel count scaled by `scale`.
dnn::DnnModel synthetic_model(const std::string& name, int scale) {
  dnn::DnnModel model;
  model.name = name;
  model.family = dnn::Family::kVgg;
  model.dataset = data::DatasetKind::kCifar10;
  struct Shape {
    const char* name;
    int in_ch, out_ch, kernel, positions;
  };
  const Shape shapes[] = {
      {"conv1", 3, 32, 3, 16 * 16},  {"conv2", 32, 64, 3, 8 * 8},
      {"skip", 32, 64, 1, 8 * 8},    {"conv3", 64, 128, 3, 4 * 4},
      {"conv4", 128, 128, 3, 4 * 4}, {"fc", 128, 10, 1, 1},
  };
  for (const Shape& s : shapes) {
    dnn::LayerDescriptor l;
    l.name = s.name;
    l.type = s.kernel == 1 && s.positions == 1
                 ? dnn::LayerType::kFullyConnected
                 : dnn::LayerType::kConv;
    l.index = static_cast<int>(model.layers.size());
    l.kernel = s.kernel;
    l.in_channels = s.in_ch * scale;
    l.out_channels = s.out_ch * scale;
    l.fan_in = s.in_ch * scale * s.kernel * s.kernel;
    l.outputs = s.out_ch * scale;
    l.spatial_positions = s.positions;
    model.layers.push_back(std::move(l));
  }
  return model;
}

std::unique_ptr<ou::MappedModel> build_tenant(const std::string& name,
                                              int scale, std::uint64_t seed) {
  dnn::PrunedModel pruned;
  {
    Span s("dnn", "prune_model");
    pruned = dnn::prune_model(synthetic_model(name, scale), seed);
  }
  Span s("ou", "MappedModel");
  return std::make_unique<ou::MappedModel>(std::move(pruned), 128);
}

struct Inputs {
  std::vector<std::unique_ptr<ou::MappedModel>> models;
  std::vector<const ou::MappedModel*> tenants;
  std::unique_ptr<policy::OuPolicy> policy;
};

/// The simulated figures a repetition must reproduce. A shed request is
/// refused (failed, and a goodput miss); a breaker-open fallback serve is
/// served, as the serving loop charges it no deadline.
struct Sims {
  long long served = 0;  ///< requests served or shed
  double failed_frac = 0.0;
  double goodput_frac = 0.0;
  double sojourn_p99_s = 0.0;  ///< worst tenant's p99 sojourn
  double edp_per_event_js = 0.0;
  bool operator==(const Sims&) const = default;
};

struct Rep {
  core::FleetResult fleet;
  long long checkpoint_writes = 0;
  double checkpoint_bytes = 0.0;
  double place_s = 0.0;
  double serve_s = 0.0;
  double load_s = 0.0;
  bool checkpoints_load = true;
  Sims sims;
};

}  // namespace

void fleet_serve(const Options& opt, Report& report) {
  const int runs = opt.smoke ? 12'000 : 60'000;
  // A device drifting ~40% faster than the calibrated one, so the late,
  // sparse part of the horizon sees drift reprograms.
  reram::DeviceParams device;
  device.drift_coefficient = 0.003;
  const ou::NonIdealityModel nonideal{device, ou::NonIdealityParams{}};
  const ou::OuCostModel cost{ou::CostParams{}, reram::DeviceParams{}};

  common::Rng rng(opt.seed);
  const std::vector<int> scales = {6, 1, 2, 1, 3, 1, 2, 1, 2, 6};
  std::vector<std::uint64_t> prune_seeds;
  for (std::size_t i = 0; i <= scales.size(); ++i)
    prune_seeds.push_back(rng.next_u64());

  set_tracing(opt.trace);
  Inputs in;
  const auto build = [&] {
    Span root("bench", "setup");
    in = Inputs{};
    for (std::size_t i = 0; i < scales.size(); ++i)
      in.models.push_back(build_tenant("tenant" + std::to_string(i),
                                       scales[i], prune_seeds[i]));
    for (const auto& m : in.models) in.tenants.push_back(m.get());
    // Design-time bootstrap from a model outside the tenant set, as
    // serve_with_odin is documented to be used.
    const auto design = build_tenant("design", 4, prune_seeds.back());
    const ou::MappedModel* known[] = {design.get()};
    policy::OfflineTrainConfig boot;
    boot.time_samples = 4;
    boot.t_start_s = 1.0;
    boot.t_end_s = 2.0;
    Span s("policy", "train_offline_policy");
    in.policy = std::make_unique<policy::OuPolicy>(policy::train_offline_policy(
        known, nonideal, cost, ou::OuLevelGrid(128), boot));
  };
  if (opt.trace) build();

  core::FleetConfig cfg;
  // Nine shards (as bench/fleet_throughput's main arm): with two lanes,
  // four unequal shards make the makespan depend on which lane frees up
  // first; nine smaller ones balance.
  cfg.shards = 9;
  cfg.serving.horizon =
      core::HorizonConfig{.t_start_s = 0.3, .t_end_s = 1e8, .runs = runs};
  cfg.serving.segments = 20;
  auto& res = cfg.serving.resilience;
  res.enabled = true;
  res.queue_capacity = 16;
  res.shed = core::ShedPolicy::kShedOldest;
  res.default_slo_s = 0.02;
  res.batching.enabled = true;
  res.batching.max_batch = 8;
  res.sojourn_sample_cap = 64;
  const std::string ckpt = opt.work_dir + "/fleet_ckpt";
  cfg.serving.checkpoint.base_path = ckpt;
  cfg.serving.checkpoint.every_runs = runs / 40;

  const auto slot = [&](int shard, const char* ext) {
    return ckpt + ".shard" + std::to_string(shard) + ext;
  };
  const auto clear = [&] {
    for (int k = 0; k < cfg.shards; ++k)
      for (const char* ext : {".a", ".b"}) std::filesystem::remove(slot(k, ext));
  };

  const auto run_rep = [&] {
    clear();
    Rep rep;
    double t0 = now_s();
    {
      Span s("core.fleet", "place_fleet");
      core::place_fleet(in.tenants, cost, cfg);
    }
    rep.place_s = now_s() - t0;
    t0 = now_s();
    {
      Span s("core.fleet", "serve_fleet");
      rep.fleet = core::serve_fleet(in.tenants, nonideal, cost,
                                    in.policy->clone(), cfg);
    }
    rep.serve_s = now_s() - t0;
    t0 = now_s();
    for (int k = 0; k < cfg.shards; ++k) {
      // A shard the placement left without tenants serves nothing and
      // writes no checkpoint.
      if (rep.fleet.shard_tenants[static_cast<std::size_t>(k)].empty())
        continue;
      std::optional<core::ServingCheckpoint> c;
      {
        Span s("core.checkpoint", "load_latest_checkpoint", k);
        c = core::load_latest_checkpoint(ckpt + ".shard" + std::to_string(k));
      }
      if (!c.has_value()) {
        rep.checkpoints_load = false;
        continue;
      }
      rep.checkpoint_writes += static_cast<long long>(c->sequence);
      for (const char* ext : {".a", ".b"})
        if (std::filesystem::exists(slot(k, ext)))
          rep.checkpoint_bytes +=
              static_cast<double>(std::filesystem::file_size(slot(k, ext)));
    }
    rep.load_s = now_s() - t0;
    clear();
    return rep;
  };

  std::vector<Rep> reps;
  double untraced_eps = 0.0, traced_eps = 0.0;
  if (opt.trace) {
    set_tracing(false);
    run_rep();  // warm-up: the first repetition of a process runs cold
    double t0 = now_s();
    run_rep();
    untraced_eps = runs / (now_s() - t0);
    set_tracing(true);
    Span root("bench", "timed");
    t0 = now_s();
    reps.push_back(run_rep());
    traced_eps = runs / (now_s() - t0);
    report.attempted = 3LL * runs;
  } else {
    const Timings t =
        measure(report, opt.seconds, opt.smoke ? 1 : 3, 1, build, [&] {
          reps.push_back(run_rep());
          return static_cast<long long>(runs);
        });
    report.e2e("setup_s", median(t.setup_s), "s");
    report.e2e("events_per_s", median(t.events_per_s), "events/s");
    report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  }

  for (Rep& rep : reps) {
    long long served = 0, shed = 0, misses = 0;
    double p99 = 0.0;
    for (const core::ServingResult& r : rep.fleet.shards) {
      served += r.total_runs();
      shed += r.total_shed_runs();
      misses += r.total_deadline_misses();
      for (const core::TenantStats& t : r.tenants)
        if (t.runs > 0) p99 = std::max(p99, t.sojourn_percentile(99.0));
    }
    const double offered = runs;
    rep.sims = {served, static_cast<double>(shed) / offered,
                static_cast<double>(served - shed - misses) / offered, p99,
                rep.fleet.edp_per_request()};
  }
  const Rep& rep = reps.front();
  long long mismatched = 0;
  for (const Rep& r : reps)
    if (r.sims != rep.sims) mismatched += runs;
  report.failed = mismatched;
  report.check(mismatched == 0, "every repetition reproduces the first");
  report.check(rep.sims.served == runs,
               "every offered request is served or shed exactly once");
  report.check(rep.checkpoints_load && rep.checkpoint_writes > 0,
               "every serving shard's checkpoint pair loads");
  report.sim("failed_frac", rep.sims.failed_frac, "share");
  report.sim("goodput_frac", rep.sims.goodput_frac, "share");
  report.sim("sojourn_p99_s", rep.sims.sojourn_p99_s, "s");
  report.sim("edp_per_event_js", rep.sims.edp_per_event_js, "J.s");

  if (!opt.trace) return;
  long long batches = 0, members = 0, shed = 0, misses = 0, opens = 0,
            truncated = 0, updates = 0, reprograms = 0;
  for (const core::ServingResult& r : rep.fleet.shards) {
    batches += r.total_batches_formed();
    members += r.total_batch_members();
    shed += r.total_shed_runs();
    misses += r.total_deadline_misses();
    opens += r.total_breaker_opens();
    truncated += r.total_searches_truncated();
    updates += r.policy_updates;
    for (const core::TenantStats& t : r.tenants) reprograms += t.reprograms;
  }
  report.layer("core.fleet.place_ms", rep.place_s * 1e3, "ms");
  report.layer("core.fleet.serve_s", rep.serve_s, "s");
  report.layer("core.serving.batches", static_cast<double>(batches), "count");
  report.layer("core.serving.batch_occupancy",
               batches > 0 ? static_cast<double>(members) / batches : 0.0,
               "count");
  report.layer("core.serving.shed", static_cast<double>(shed), "count");
  report.layer("core.serving.deadline_misses", static_cast<double>(misses),
               "count");
  report.layer("core.serving.breaker_opens", static_cast<double>(opens),
               "count");
  report.layer("core.serving.searches_truncated",
               static_cast<double>(truncated), "count");
  report.layer("policy.updates", static_cast<double>(updates), "count");
  report.layer("core.odin.reprograms", static_cast<double>(reprograms),
               "count");
  report.layer("core.checkpoint.writes",
               static_cast<double>(rep.checkpoint_writes), "count");
  report.layer("core.checkpoint.load_ms", rep.load_s * 1e3, "ms");
  report.layer("core.checkpoint.bytes", rep.checkpoint_bytes, "bytes");
  report_trace(report, opt, untraced_eps, traced_eps);
}

}  // namespace perfbench
