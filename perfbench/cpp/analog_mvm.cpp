// analog_mvm: trained reference MLPs classify a held-out synthetic image
// set through the behavioural ReRAM crossbars (core::HardwareMlpRunner).
// The stream mixes queries of batch size 1, 2, 4 and 8 (reads) with
// program() reprogramming at log-spaced drift times (writes), under the
// paper-printed drift coefficient so drift actually moves accuracy. One
// event is one classified image. It is the only workload that runs crossbar
// MVM, the batch GEMM and programming, so a read speed-up that costs
// writes shows here.
//
// The seed draws the dataset, the MLP initialisations, the batch-size mix
// and the order in which test images are queried.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/hardware_inference.hpp"
#include "data/synthetic.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using namespace odin;

constexpr int kBatchSizes[] = {1, 2, 4, 8};
constexpr ou::OuConfig kOu{16, 16};

nn::Dataset slice(const nn::Dataset& d, std::size_t begin, std::size_t end) {
  nn::Dataset out;
  out.inputs = nn::Matrix(end - begin, d.inputs.cols());
  out.labels.assign(1, {});
  for (std::size_t i = begin; i < end; ++i) {
    std::copy(d.inputs.row(i).begin(), d.inputs.row(i).end(),
              out.inputs.row(i - begin).begin());
    out.labels[0].push_back(d.labels[0][i]);
  }
  return out;
}

struct Query {
  int runner = 0;
  int batch = 1;
  std::size_t first = 0;  ///< first test image (wraps around)
  double t_s = 0.0;
};

/// One programming epoch: both runners are reprogrammed at `program_s`,
/// then the epoch's queries run at later times.
struct Epoch {
  double program_s = 0.0;
  std::vector<Query> queries;
};

struct Model {
  std::unique_ptr<nn::MultiHeadMlp> mlp;
  std::unique_ptr<core::HardwareMlpRunner> runner;
  double macs = 0.0;       ///< multiply-accumulates per image
  double weights = 0.0;    ///< weight cells
  double activations = 0.0;  ///< inputs + outputs of every layer
};

struct Rep {
  long long images = 0;
  long long correct = 0;
  std::vector<int> predictions;
  std::vector<double> program_ms;
  std::vector<double> call_us;
  std::vector<double> image_us[std::size(kBatchSizes)];
};

}  // namespace

void analog_mvm(const Options& opt, Report& report) {
  const std::size_t n_train = opt.smoke ? 200 : 600;
  const std::size_t n_test = opt.smoke ? 256 : 1024;
  const int epochs = opt.smoke ? 2 : 5;
  const int queries_per_epoch = opt.smoke ? 40 : 4000;

  common::Rng rng(opt.seed);
  const std::uint64_t data_seed = rng.next_u64();
  const std::uint64_t init_seed[] = {rng.next_u64(), rng.next_u64()};
  const std::vector<std::size_t> hidden[] = {{64}, {128, 64}};

  // The query stream: epochs program at 1, 1e2, ..., each followed by
  // queries at log-spaced elapsed times up to two decades later.
  std::vector<Epoch> stream;
  for (int e = 0; e < epochs; ++e) {
    Epoch ep;
    ep.program_s = std::pow(10.0, 2.0 * e);
    for (int q = 0; q < queries_per_epoch; ++q) {
      Query query;
      query.runner = static_cast<int>(rng.uniform_index(2));
      query.batch = kBatchSizes[rng.uniform_index(std::size(kBatchSizes))];
      query.first = static_cast<std::size_t>(rng.uniform_index(n_test));
      query.t_s = ep.program_s *
                  std::pow(10.0, 2.0 * (q + 1) / (queries_per_epoch + 1.0));
      ep.queries.push_back(query);
    }
    stream.push_back(ep);
  }

  set_tracing(opt.trace);
  reram::DeviceParams device;
  device.drift_coefficient = reram::DeviceParams::paper_drift_coefficient;
  nn::Dataset test;
  Model models[2];
  const auto build = [&] {
    Span root("bench", "setup");
    nn::Dataset all;
    {
      Span s("data", "as_feature_dataset");
      const data::SyntheticDataset dataset(
          data::DatasetSpec::for_kind(data::DatasetKind::kCifar10),
          data_seed);
      all = dataset.as_feature_dataset(n_train + n_test, 4);
    }
    const nn::Dataset train = slice(all, 0, n_train);
    test = slice(all, n_train, n_train + n_test);
    for (int m = 0; m < 2; ++m) {
      Model& model = models[m];
      model = Model{};
      model.mlp = std::make_unique<nn::MultiHeadMlp>(
          nn::MlpConfig{.inputs = all.inputs.cols(),
                        .hidden = hidden[m],
                        .heads = {10}},
          init_seed[m]);
      nn::TrainOptions train_opt;
      train_opt.epochs = 30;
      train_opt.batch_size = 32;
      train_opt.learning_rate = 3e-3;
      {
        Span s("nn", "fit", m);
        nn::fit(*model.mlp, train, train_opt);
      }
      std::size_t in = all.inputs.cols();
      std::vector<std::size_t> widths = hidden[m];
      widths.push_back(10);
      for (std::size_t out : widths) {
        model.macs += static_cast<double>(in * out);
        model.activations += static_cast<double>(in + out);
        in = out;
      }
      model.weights = model.macs;
      Span s("reram", "HardwareMlpRunner", m);
      model.runner = std::make_unique<core::HardwareMlpRunner>(*model.mlp,
                                                                device);
    }
  };
  if (opt.trace) build();

  const auto run_rep = [&] {
    const std::size_t features = test.inputs.cols();
    Rep rep;
    std::vector<double> panel(8 * features);
    std::vector<int> out(8);
    const bool timing = tracing();
    for (const Epoch& ep : stream) {
      for (int m = 0; m < 2; ++m) {
        const double t0 = now_s();
        {
          Span s("reram", "program", m);
          models[m].runner->program(ep.program_s);
        }
        rep.program_ms.push_back((now_s() - t0) * 1e3);
      }
      for (const Query& q : ep.queries) {
        for (int b = 0; b < q.batch; ++b) {
          const auto row = test.inputs.row((q.first + b) % n_test);
          std::copy(row.begin(), row.end(), panel.begin() + b * features);
        }
        const double t0 = timing ? now_s() : 0.0;
        {
          Span s("reram", "predict", q.batch);
          models[q.runner].runner->predict(
              std::span<const double>(panel.data(), q.batch * features),
              q.batch, features, kOu, q.t_s,
              std::span<int>(out.data(), q.batch));
        }
        if (timing) {
          const double us = (now_s() - t0) * 1e6;
          rep.call_us.push_back(us);
          const auto slot = std::find(std::begin(kBatchSizes),
                                      std::end(kBatchSizes), q.batch) -
                            std::begin(kBatchSizes);
          rep.image_us[slot].push_back(us / q.batch);
        }
        for (int b = 0; b < q.batch; ++b) {
          rep.predictions.push_back(out[b]);
          rep.correct += out[b] == test.labels[0][(q.first + b) % n_test];
        }
        rep.images += q.batch;
      }
    }
    return rep;
  };

  std::vector<Rep> reps;
  double untraced_eps = 0.0, traced_eps = 0.0;
  if (opt.trace) {
    set_tracing(false);
    run_rep();  // warm-up: the first repetition of a process runs cold
    double t0 = now_s();
    const Rep plain = run_rep();
    untraced_eps = plain.images / (now_s() - t0);
    set_tracing(true);
    Span root("bench", "timed");
    t0 = now_s();
    reps.push_back(run_rep());
    traced_eps = reps.back().images / (now_s() - t0);
    report.attempted = 2 * plain.images + reps.back().images;
  } else {
    const Timings t =
        measure(report, opt.seconds, opt.smoke ? 1 : 3, 1, build, [&] {
          reps.push_back(run_rep());
          return reps.back().images;
        });
    report.e2e("setup_s", median(t.setup_s), "s");
    report.e2e("events_per_s", median(t.events_per_s), "events/s");
    report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  }

  const Rep& rep = reps.front();
  long long mismatched = 0;
  for (const Rep& r : reps)
    if (r.predictions != rep.predictions) mismatched += r.images;
  report.failed = mismatched;
  report.check(mismatched == 0, "every repetition reproduces the first");

  // Batched predictions must equal per-image predictions, at the last
  // epoch's latest query time, on both models.
  bool batch_ok = true;
  const std::size_t features = test.inputs.cols();
  const double t_check = stream.back().queries.back().t_s;
  for (Model& model : models) {
    const std::size_t n = std::min<std::size_t>(64, n_test);
    std::vector<int> batched(n), single(n);
    for (std::size_t i = 0; i < n; i += 8)
      model.runner->predict(
          std::span<const double>(test.inputs.row(i).data(), 8 * features), 8,
          features, kOu, t_check, std::span<int>(batched.data() + i, 8));
    for (std::size_t i = 0; i < n; ++i)
      single[i] = model.runner->predict(test.inputs.row(i), kOu, t_check);
    batch_ok = batch_ok && batched == single;
  }
  report.check(batch_ok, "batched predictions equal per-image predictions");
  report.sim("analog_accuracy",
             static_cast<double>(rep.correct) / static_cast<double>(rep.images),
             "share");

  if (!opt.trace) return;
  double train = 0.0;
  for (const SpanRecord& s : spans())
    if (s.name == "fit") train += s.end_s - s.start_s;
  double macs = 0.0, bytes = 0.0, images = 0.0;
  for (const Epoch& ep : stream)
    for (const Query& q : ep.queries) {
      const Model& m = models[q.runner];
      macs += q.batch * m.macs;
      // The weight plane is walked once per batch; activations per image.
      bytes += 8.0 * (m.weights + q.batch * m.activations);
      images += q.batch;
    }
  double us[std::size(kBatchSizes)];
  for (std::size_t i = 0; i < std::size(kBatchSizes); ++i) {
    us[i] = median(rep.image_us[i]);
    report.layer("reram.image_us_b" + std::to_string(kBatchSizes[i]), us[i],
                 "us");
  }
  report.layer("nn.train_s", train, "s");
  report.layer("reram.program_ms", median(rep.program_ms), "ms");
  report.layer("reram.programs", static_cast<double>(rep.program_ms.size()),
               "count");
  report.layer("reram.b8_over_b1", us[3] / us[0], "x");
  report.layer("reram.query_us_p50", percentile(rep.call_us, 50), "us");
  report.layer("reram.query_us_p99", percentile(rep.call_us, 99), "us");
  report.layer("reram.macs_per_image", macs / images, "count");
  report.layer("reram.bytes_per_image", bytes / images, "bytes");
  report_trace(report, opt, untraced_eps, traced_eps);
}

}  // namespace perfbench
