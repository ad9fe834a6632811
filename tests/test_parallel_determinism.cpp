// Determinism contract of the parallel execution layer: every parallelized
// tier (tile MVM/programming, OU search, experiment sweeps, offline dataset
// generation) must produce results bitwise identical to ODIN_THREADS=1.
// Every comparison below is exact (EXPECT_EQ on doubles), not tolerance-
// based — that is the whole point.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/parallel.hpp"
#include "core/baselines.hpp"
#include "core/hardware_inference.hpp"
#include "core/serving.hpp"
#include "data/synthetic.hpp"
#include "policy/offline.hpp"
#include "reram/fault_injection.hpp"
#include "test_helpers.hpp"

namespace odin::core {
namespace {

void expect_same(const common::EnergyLatency& a,
                 const common::EnergyLatency& b) {
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.latency_s, b.latency_s);
}

AggregateResult run_odin(int threads) {
  common::ThreadPool::instance().set_threads(threads);
  ou::MappedModel model = testing::tiny_mapped();
  ou::NonIdealityModel nonideal{reram::DeviceParams{},
                                ou::NonIdealityParams{}};
  ou::OuCostModel cost{ou::CostParams{}, reram::DeviceParams{}};
  OdinController ctl(model, nonideal, cost,
                     policy::OuPolicy(ou::OuLevelGrid(128)));
  const HorizonConfig horizon{.t_start_s = 1.0, .t_end_s = 1e7, .runs = 40};
  return simulate_odin(ctl, horizon);
}

TEST(ParallelDeterminism, OdinExperimentBitwiseIdentical) {
  const AggregateResult seq = run_odin(1);
  const AggregateResult par = run_odin(8);
  expect_same(seq.inference, par.inference);
  expect_same(seq.reprogram, par.reprogram);
  EXPECT_EQ(seq.total_edp(), par.total_edp());
  EXPECT_EQ(seq.mismatches, par.mismatches);
  EXPECT_EQ(seq.reprograms, par.reprograms);
  EXPECT_EQ(seq.policy_updates, par.policy_updates);
  EXPECT_EQ(seq.searches_skipped, par.searches_skipped);
}

std::vector<AggregateResult> run_sweep(int threads) {
  common::ThreadPool::instance().set_threads(threads);
  ou::MappedModel model = testing::tiny_mapped();
  ou::NonIdealityModel nonideal{reram::DeviceParams{},
                                ou::NonIdealityParams{}};
  ou::OuCostModel cost{ou::CostParams{}, reram::DeviceParams{}};
  const auto baselines = paper_baseline_configs();
  const HorizonConfig horizon{.t_start_s = 1.0, .t_end_s = 1e7, .runs = 60};
  return simulate_homogeneous_sweep(model, nonideal, cost, baselines,
                                    horizon);
}

TEST(ParallelDeterminism, HomogeneousSweepBitwiseIdentical) {
  const auto seq = run_sweep(1);
  const auto par = run_sweep(8);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].label, par[i].label);
    expect_same(seq[i].inference, par[i].inference);
    expect_same(seq[i].reprogram, par[i].reprogram);
    EXPECT_EQ(seq[i].reprograms, par[i].reprograms);
  }
}

ServingResult run_serving(int threads, bool odin) {
  common::ThreadPool::instance().set_threads(threads);
  ou::MappedModel a = testing::tiny_mapped();
  ou::MappedModel b = testing::tiny_mapped(128, 0x51ee7);
  ou::NonIdealityModel nonideal{reram::DeviceParams{},
                                ou::NonIdealityParams{}};
  ou::OuCostModel cost{ou::CostParams{}, reram::DeviceParams{}};
  ServingConfig cfg;
  cfg.horizon = {.t_start_s = 1.0, .t_end_s = 1e6, .runs = 48};
  cfg.segments = 4;
  if (odin)
    return serve_with_odin({&a, &b}, nonideal, cost,
                           policy::OuPolicy(ou::OuLevelGrid(128)), cfg);
  return serve_with_homogeneous({&a, &b}, nonideal, cost,
                                ou::OuConfig{.rows = 8, .cols = 4}, cfg);
}

void expect_same_serving(const ServingResult& seq, const ServingResult& par) {
  expect_same(seq.programming, par.programming);
  EXPECT_EQ(seq.switches, par.switches);
  EXPECT_EQ(seq.policy_updates, par.policy_updates);
  EXPECT_TRUE(seq.tenants == par.tenants);  // every counter of every tenant
}

TEST(ParallelDeterminism, HomogeneousServingBitwiseIdentical) {
  expect_same_serving(run_serving(1, false), run_serving(8, false));
}

TEST(ParallelDeterminism, OdinServingBitwiseIdentical) {
  expect_same_serving(run_serving(1, true), run_serving(8, true));
}

ServingResult run_faulty_serving(int threads, bool odin) {
  common::ThreadPool::instance().set_threads(threads);
  ou::MappedModel a = testing::tiny_mapped();
  ou::MappedModel b = testing::tiny_mapped(128, 0x51ee7);
  ou::NonIdealityModel nonideal{reram::DeviceParams{},
                                ou::NonIdealityParams{}};
  ou::OuCostModel cost{ou::CostParams{}, reram::DeviceParams{}};
  ServingConfig cfg;
  cfg.horizon = {.t_start_s = 1.0, .t_end_s = 1e8, .runs = 48};
  cfg.segments = 4;
  // A schedule that exercises every fault path: wear over the serving
  // lifetime, peripheral failures, flaky writes, and one drift burst.
  reram::FaultScheduleParams p;
  p.endurance.characteristic_cycles = 12.0;
  p.endurance.shape = 1.8;
  p.wordline_fail_rate = 1e-3;
  p.bitline_fail_rate = 1e-3;
  p.write_fail_rate = 0.4;
  p.bursts = {{.start_s = 1e5, .duration_s = 1e6, .multiplier = 5.0}};
  reram::FaultInjector faults(p, 0xfade);
  if (odin)
    return serve_with_odin({&a, &b}, nonideal, cost,
                           policy::OuPolicy(ou::OuLevelGrid(128)), cfg,
                           &faults);
  return serve_with_homogeneous({&a, &b}, nonideal, cost,
                                ou::OuConfig{.rows = 8, .cols = 4}, cfg,
                                &faults);
}

TEST(ParallelDeterminism, FaultyOdinServingBitwiseIdentical) {
  // The injector draws on the controller thread only; candidate evaluation
  // stays pure, so the fault path keeps the bitwise contract.
  expect_same_serving(run_faulty_serving(1, true),
                      run_faulty_serving(8, true));
}

TEST(ParallelDeterminism, FaultyHomogeneousServingBitwiseIdentical) {
  expect_same_serving(run_faulty_serving(1, false),
                      run_faulty_serving(8, false));
}

std::vector<double> run_hardware(int threads) {
  common::ThreadPool::instance().set_threads(threads);
  data::SyntheticDataset dataset(
      data::DatasetSpec::for_kind(data::DatasetKind::kCifar10), 99);
  nn::MultiHeadMlp model(
      nn::MlpConfig{.inputs = dataset.feature_count(4), .hidden = {40},
                    .heads = {10}},
      7);
  // crossbar_size 32 < fan-in, so every layer spans a multi-cell grid and
  // the per-crossbar program/MVM fan-out is actually exercised; noise on so
  // the per-crossbar RNG stream assignment is covered too.
  HardwareMlpRunner runner(model, reram::DeviceParams{}, 32,
                           /*noise_seed=*/42);
  nn::Dataset sample = dataset.as_feature_dataset(2, 4);
  const ou::OuConfig ou{.rows = 8, .cols = 8};
  std::vector<double> out = runner.logits(sample.inputs.row(0), ou, 1e5);
  runner.program(2e5);  // reprogram fans out again, fresh drift clock
  const auto late = runner.logits(sample.inputs.row(1), ou, 3e5);
  out.insert(out.end(), late.begin(), late.end());
  return out;
}

TEST(ParallelDeterminism, HardwareNoisyLogitsBitwiseIdentical) {
  const auto seq = run_hardware(1);
  const auto par = run_hardware(8);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i)
    EXPECT_EQ(seq[i], par[i]) << "logit " << i;
}

nn::Dataset run_offline(int threads) {
  common::ThreadPool::instance().set_threads(threads);
  ou::MappedModel a = testing::tiny_mapped();
  ou::MappedModel b = testing::tiny_mapped(128, 0x7777);
  const ou::MappedModel* known[] = {&a, &b};
  ou::NonIdealityModel nonideal{reram::DeviceParams{},
                                ou::NonIdealityParams{}};
  ou::OuCostModel cost{ou::CostParams{}, reram::DeviceParams{}};
  policy::OfflineTrainConfig cfg;
  cfg.time_samples = 3;
  cfg.t_end_s = 1e6;
  cfg.max_examples = 100;
  return policy::build_offline_dataset(known, nonideal, cost,
                                       ou::OuLevelGrid(128), cfg);
}

TEST(ParallelDeterminism, OfflineDatasetBitwiseIdentical) {
  const nn::Dataset seq = run_offline(1);
  const nn::Dataset par = run_offline(8);
  ASSERT_EQ(seq.inputs.rows(), par.inputs.rows());
  ASSERT_EQ(seq.inputs.cols(), par.inputs.cols());
  for (std::size_t r = 0; r < seq.inputs.rows(); ++r) {
    const auto sr = seq.inputs.row(r);
    const auto pr = par.inputs.row(r);
    for (std::size_t c = 0; c < seq.inputs.cols(); ++c)
      ASSERT_EQ(sr[c], pr[c]) << "example " << r << " feature " << c;
  }
  EXPECT_EQ(seq.labels, par.labels);
}

}  // namespace
}  // namespace odin::core
