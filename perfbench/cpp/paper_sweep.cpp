// paper_sweep: the paper's Fig. 8 pipeline, exactly as
// bench/fig8_edp_all_dnns runs it. Set-up prunes and maps the nine zoo
// workloads and trains the leave-one-family-out offline policies; the timed
// phase runs the four homogeneous baselines and Odin over the 800-run drift
// horizon for every workload (36,000 simulated inference runs). The Odin
// walk calls OdinController::run_inference itself, with the same
// accumulation as core::simulate_odin, so each call can be timed; the EDP
// ratios must equal Fig. 8's to the last bit (fig8_golden.inc).
//
// Inputs are the paper's fixed zoo and pruning seed, so the seed is unused:
// the EDP ratios are only checkable against Fig. 8 on these inputs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/math.hpp"
#include "common/parallel.hpp"
#include "core/experiment.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using namespace odin;

struct GoldenRatio {
  const char* workload;
  const char* baseline;
  double ratio;  ///< baseline total EDP / Odin total EDP
};

constexpr GoldenRatio kGolden[] = {
#include "fig8_golden.inc"
};

/// The models every arm shares (fig8's single Setup).
struct Models {
  core::Setup setup;
  ou::NonIdealityModel nonideal = setup.make_nonideality();
  ou::OuCostModel cost = setup.make_cost();
  arch::SystemModel system = setup.make_system();
  arch::OverheadModel overhead = setup.make_overhead();
  core::HorizonConfig horizon{};
  std::vector<ou::OuConfig> baselines = core::paper_baseline_configs();
};

struct Zoo {
  std::vector<std::unique_ptr<ou::MappedModel>> mapped;
  std::map<dnn::Family, std::unique_ptr<policy::OuPolicy>> policies;
  std::int64_t weights = 0;
};

Zoo build_zoo(const Models& m) {
  Zoo zoo;
  std::vector<dnn::DnnModel> models;
  {
    Span s("dnn", "paper_workloads");
    models = dnn::paper_workloads();
  }
  for (dnn::DnnModel& model : models) {
    for (const dnn::LayerDescriptor& l : model.layers)
      zoo.weights += l.weight_count();
    dnn::PrunedModel pruned;
    {
      Span s("dnn", "prune_model");
      pruned = dnn::prune_model(std::move(model), m.setup.prune_seed);
    }
    Span s("ou", "MappedModel");
    zoo.mapped.push_back(std::make_unique<ou::MappedModel>(
        std::move(pruned), m.setup.pim.tile.crossbar_size));
  }
  const ou::OuLevelGrid grid(m.setup.pim.tile.crossbar_size);
  for (const auto& mm : zoo.mapped) {
    const dnn::Family family = mm->model().family;
    if (zoo.policies.count(family)) continue;
    std::vector<const ou::MappedModel*> known;
    for (const auto& other : zoo.mapped)
      if (other->model().family != family) known.push_back(other.get());
    Span s("policy", "train_offline_policy");
    zoo.policies[family] = std::make_unique<policy::OuPolicy>(
        policy::train_offline_policy(known, m.nonideal, m.cost, grid));
  }
  return zoo;
}

struct Arm {
  std::vector<core::AggregateResult> results;  ///< baselines..., Odin
  double event_edp_sum = 0.0;  ///< sum over Odin runs of run E x run L
  long long evaluations = 0;
  long long update_runs = 0;
  double busy_s = 0.0;
  double walk_s = 0.0;
  double update_s = 0.0;
  std::vector<double> search_us;  ///< calls without retrain or reprogram
};

struct Rep {
  std::vector<Arm> arms;
  double wall_s = 0.0;
  std::vector<std::vector<double>> ratios;  ///< [workload][baseline]
  long long events = 0;
};

/// One timed repetition: every arm of Fig. 8 over the whole zoo. Arms are
/// handed to the pool largest model first (fig8 uses zoo order): with
/// nine arms of very different lengths on two lanes, zoo order lets the
/// makespan jump by a whole arm depending on which lane frees up first.
Rep run_rep(const Models& m, const Zoo& zoo) {
  std::vector<policy::OuPolicy> arm_policies;
  arm_policies.reserve(zoo.mapped.size());
  for (const auto& mm : zoo.mapped)
    arm_policies.push_back(zoo.policies.at(mm->model().family)->clone());
  std::vector<std::size_t> order(zoo.mapped.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return zoo.mapped[a]->layer_count() > zoo.mapped[b]->layer_count();
  });
  const bool timing = tracing();
  const int phase = current_span();
  Rep rep;
  const double t0 = now_s();
  std::vector<Arm> dispatched = common::parallel_transform(
      order.size(), 1, [&](std::size_t k) {
        const std::size_t i = order[k];
        Span arm_span("bench", "arm", static_cast<long long>(i), phase);
        const double arm_t0 = now_s();
        Arm arm;
        const ou::MappedModel& mm = *zoo.mapped[i];
        common::EnergyLatency noc;
        {
          Span s("arch", "SystemModel::map", static_cast<long long>(i));
          noc = m.system.map(mm.model()).noc_per_inference;
        }
        {
          Span s("core.experiment", "simulate_homogeneous_sweep",
                 static_cast<long long>(i));
          arm.results = core::simulate_homogeneous_sweep(
              mm, m.nonideal, m.cost, m.baselines, m.horizon, noc);
        }
        std::unique_ptr<core::OdinController> controller;
        {
          Span s("core.odin", "OdinController", static_cast<long long>(i));
          controller = std::make_unique<core::OdinController>(
              mm, m.nonideal, m.cost, std::move(arm_policies[i]));
        }
        // core::simulate_odin's accumulation, statement for statement.
        core::AggregateResult agg;
        agg.label = "Odin";
        for (double t : core::run_schedule(m.horizon)) {
          core::RunResult run;
          const double c0 = timing ? now_s() : 0.0;
          {
            Span s("core.odin", "run_inference", static_cast<long long>(i));
            run = controller->run_inference(t);
          }
          if (timing) {
            const double dt = now_s() - c0;
            arm.walk_s += dt;
            if (run.policy_updated) {
              arm.update_s += dt;
              ++arm.update_runs;
            } else if (!run.reprogrammed) {
              arm.search_us.push_back(dt * 1e6);
            }
          }
          common::EnergyLatency inf = run.inference + noc;
          inf.energy_j += m.overhead.prediction_energy_j(run.inference.latency_s);
          inf.latency_s +=
              m.overhead.prediction_latency_s(run.inference.latency_s);
          agg.inference += inf;
          agg.reprogram += run.reprogram;
          agg.mismatches += run.mismatches;
          agg.searches_skipped += run.searches_skipped;
          agg.program_retries += run.program_retries;
          agg.degraded_runs += run.degraded ? 1 : 0;
          ++agg.runs;
          arm.event_edp_sum += (inf + run.reprogram).edp();
          for (const core::LayerDecision& d : run.decisions)
            arm.evaluations += d.evaluations;
        }
        agg.reprograms = controller->reprogram_count();
        agg.policy_updates = controller->update_count();
        agg.inference.energy_j +=
            m.overhead.total_update_energy_j(agg.policy_updates);
        arm.results.push_back(agg);
        arm.busy_s = now_s() - arm_t0;
        return arm;
      });
  rep.wall_s = now_s() - t0;
  rep.arms.resize(order.size());
  for (std::size_t k = 0; k < order.size(); ++k)
    rep.arms[order[k]] = std::move(dispatched[k]);
  for (const Arm& arm : rep.arms) {
    const double odin = arm.results.back().total_edp();
    std::vector<double> row;
    for (std::size_t b = 0; b + 1 < arm.results.size(); ++b)
      row.push_back(arm.results[b].total_edp() / odin);
    rep.ratios.push_back(row);
    for (const core::AggregateResult& r : arm.results) rep.events += r.runs;
  }
  return rep;
}

/// fig8_edp_all_dnns's own library path (simulate_homogeneous_sweep +
/// simulate_odin), used to regenerate and cross-check the golden ratios.
std::vector<std::vector<double>> reference_ratios(const Models& m,
                                                  const Zoo& zoo) {
  std::vector<std::vector<double>> out;
  for (const auto& mm : zoo.mapped) {
    const auto noc = m.system.map(mm->model()).noc_per_inference;
    std::vector<core::AggregateResult> results =
        core::simulate_homogeneous_sweep(*mm, m.nonideal, m.cost, m.baselines,
                                         m.horizon, noc);
    core::OdinController controller(
        *mm, m.nonideal, m.cost,
        zoo.policies.at(mm->model().family)->clone());
    const double odin =
        core::simulate_odin(controller, m.horizon, noc, &m.overhead)
            .total_edp();
    std::vector<double> row;
    for (const core::AggregateResult& r : results)
      row.push_back(r.total_edp() / odin);
    out.push_back(row);
  }
  return out;
}

}  // namespace

void paper_sweep(const Options& opt, Report& report) {
  const Models m;
  set_tracing(opt.trace);

  Zoo zoo;
  const auto build = [&] {
    Span root("bench", "setup");
    zoo = build_zoo(m);
  };
  if (opt.trace || opt.reference) build();

  if (opt.reference) {
    const auto ref = reference_ratios(m, zoo);
    const Rep rep = run_rep(m, zoo);
    report.check(ref == rep.ratios,
                 "instrumented walk equals fig8's library path");
    for (std::size_t w = 0; w < ref.size(); ++w)
      for (std::size_t b = 0; b < ref[w].size(); ++b)
        std::printf("golden {\"%s\", \"%s\", %a},\n",
                    zoo.mapped[w]->model().name.c_str(),
                    m.baselines[b].to_string().c_str(), ref[w][b]);
    return;
  }

  std::vector<Rep> reps;
  double untraced_eps = 0.0;
  if (opt.trace) {
    set_tracing(false);
    run_rep(m, zoo);  // warm-up: the first repetition of a process runs cold
    Rep plain = run_rep(m, zoo);
    untraced_eps = static_cast<double>(plain.events) / plain.wall_s;
    set_tracing(true);
    Span root("bench", "timed");
    reps.push_back(run_rep(m, zoo));
    report.attempted = 2 * plain.events + reps.back().events;
  } else {
    const Timings t =
        measure(report, opt.seconds, opt.smoke ? 1 : 3, 1, build, [&] {
          reps.push_back(run_rep(m, zoo));
          return reps.back().events;
        });
    report.e2e("setup_s", median(t.setup_s), "s");
    report.e2e("events_per_s", median(t.events_per_s), "events/s");
    report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  }

  // Correctness: every repetition matches Fig. 8 to the last bit.
  const Rep& rep = reps.front();
  const std::size_t nb = m.baselines.size();
  bool golden_ok = std::size(kGolden) == rep.ratios.size() * nb;
  for (std::size_t w = 0; golden_ok && w < rep.ratios.size(); ++w)
    for (std::size_t b = 0; b < nb; ++b) {
      const GoldenRatio& g = kGolden[w * nb + b];
      golden_ok = golden_ok &&
                  zoo.mapped[w]->model().name == g.workload &&
                  m.baselines[b].to_string() == g.baseline &&
                  rep.ratios[w][b] == g.ratio;
    }
  report.check(golden_ok, "EDP ratios equal fig8_edp_all_dnns bitwise");
  long long mismatched = 0;
  for (const Rep& r : reps)
    if (r.ratios != rep.ratios) mismatched += r.events;
  report.failed = mismatched;
  report.check(mismatched == 0, "every repetition reproduces the first");

  std::vector<double> vs16;
  double max_reduction = 0.0, event_edp = 0.0;
  long long odin_runs = 0;
  for (std::size_t w = 0; w < rep.ratios.size(); ++w) {
    vs16.push_back(rep.ratios[w][0]);
    for (double r : rep.ratios[w]) max_reduction = std::max(max_reduction, r);
    event_edp += rep.arms[w].event_edp_sum;
    odin_runs += rep.arms[w].results.back().runs;
  }
  report.sim("edp_reduction_mean", common::mean(vs16), "x");
  report.sim("edp_reduction_max", max_reduction, "x");
  report.sim("edp_per_event_js", event_edp / static_cast<double>(odin_runs),
             "J.s");

  if (!opt.trace) return;
  double prune = 0, map = 0, train = 0, baseline = 0;
  for (const SpanRecord& s : spans()) {
    const double d = s.end_s - s.start_s;
    if (s.name == "prune_model") prune += d;
    if (s.name == "MappedModel") map += d;
    if (s.name == "train_offline_policy") train += d;
    if (s.name == "simulate_homogeneous_sweep") baseline += d;
  }
  double walk = 0, update = 0, busy = 0;
  long long evaluations = 0, update_runs = 0, mismatches = 0, reprograms = 0;
  std::vector<double> search_us;
  for (const Arm& a : rep.arms) {
    walk += a.walk_s;
    update += a.update_s;
    busy += a.busy_s;
    evaluations += a.evaluations;
    update_runs += a.update_runs;
    mismatches += a.results.back().mismatches;
    reprograms += a.results.back().reprograms;
    search_us.insert(search_us.end(), a.search_us.begin(), a.search_us.end());
  }
  const int threads = common::ThreadPool::instance().threads();
  report.layer("dnn.prune_s", prune, "s");
  report.layer("dnn.weights", static_cast<double>(zoo.weights), "count");
  report.layer("ou.map_s", map, "s");
  report.layer("policy.offline_train_s", train, "s");
  report.layer("core.experiment.baseline_s", baseline, "s");
  report.layer("core.odin.walk_s", walk, "s");
  report.layer("policy.update_runs", static_cast<double>(update_runs),
               "count");
  report.layer("policy.update_share", walk > 0 ? update / walk : 0.0,
               "share");
  report.layer("ou.search_run_us_p50", percentile(search_us, 50), "us");
  report.layer("ou.search_run_us_p99", percentile(search_us, 99), "us");
  report.layer("ou.evaluations", static_cast<double>(evaluations), "count");
  report.layer("ou.mismatches", static_cast<double>(mismatches), "count");
  report.layer("core.odin.reprograms", static_cast<double>(reprograms),
               "count");
  report.layer("common.parallel.pool_util", busy / (rep.wall_s * threads),
               "share");
  report_trace(report, opt, untraced_eps,
               static_cast<double>(rep.events) / rep.wall_s);
}

}  // namespace perfbench
