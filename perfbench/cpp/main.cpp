// Odin benchmark binary. Usually started through perfbench/run.py,
// which builds it, fixes ODIN_THREADS and assembles the result line:
//
//   odin_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--smoke] [--reference] [--trace-out FILE]
//                  [--work-dir DIR]
//
// It prints `metric`, `check` and `probe` lines and ends with
// `result CORRECT ATTEMPTED FAILED`.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: odin_perfbench --workload "
               "paper_sweep|fleet_serve|campaign_failover|analog_mvm "
               "--seed N --seconds S --trace 0|1 [--smoke] [--reference] "
               "[--trace-out FILE] [--work-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  opt.work_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--reference") {
      opt.reference = true;
    } else if (!has_value) {
      return usage();
    } else if (a == "--workload") {
      opt.workload = argv[++i];
    } else if (a == "--seed") {
      char* end = nullptr;
      opt.seed = std::strtoull(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0') return usage();
    } else if (a == "--seconds") {
      opt.seconds = std::atof(argv[++i]);
      if (!(opt.seconds > 0.0)) return usage();
    } else if (a == "--trace") {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return usage();
      opt.trace = v == "1";
    } else if (a == "--trace-out") {
      opt.trace_out = argv[++i];
    } else if (a == "--work-dir") {
      opt.work_dir = argv[++i];
    } else {
      return usage();
    }
  }

  perfbench::Report report;
  try {
    if (opt.workload == "paper_sweep")
      perfbench::paper_sweep(opt, report);
    else if (opt.workload == "fleet_serve")
      perfbench::fleet_serve(opt, report);
    else if (opt.workload == "campaign_failover")
      perfbench::campaign_failover(opt, report);
    else if (opt.workload == "analog_mvm")
      perfbench::analog_mvm(opt, report);
    else
      return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  report.print();
  return 0;
}
