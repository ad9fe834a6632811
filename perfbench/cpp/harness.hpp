// Benchmark harness: fixed-work phase timing, the host-speed probe,
// in-memory call spans around calls into the library's layers, and the
// metric report the runner script turns into the result line.
//
// Every figure is taken from outside the library: the workloads time calls
// into public functions and read public result structs. Nothing here is
// linked into the program under test.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since process start.
double now_s();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 8.0;  ///< measuring budget for the repeated timed phase
  bool trace = false;    ///< per-layer run: spans on, one setup, one rep
  bool smoke = false;    ///< small inputs for the thread-invariance check
  bool reference = false;  ///< paper_sweep: print fig8's library path
  std::string trace_out;   ///< where the traced run writes its spans
  std::string work_dir;    ///< where checkpoint files are written
};

// ---------------------------------------------------------------------------
// Spans. Off unless the run is traced; when off a Span costs one relaxed
// load. Spans nest per thread; work handed to pool threads names its parent
// explicitly.

struct SpanRecord {
  std::string layer;  ///< src/ module, e.g. "core.odin"
  std::string name;   ///< the public function called
  double start_s = 0.0;
  double end_s = 0.0;
  int id = 0;
  int parent = -1;
  long long tag = -1;  ///< request, arm or batch id
  int thread = 0;
};

void set_tracing(bool on);
bool tracing();

class Span {
 public:
  static constexpr int kInherit = -2;
  Span(const char* layer, const char* name, long long tag = -1,
       int parent = kInherit);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* layer_;
  const char* name_;
  long long tag_;
  int id_ = -1;
  int parent_ = -1;
  int saved_ = -1;
  double start_ = 0.0;
};

/// Id of the innermost open span on this thread (-1 outside any).
int current_span();

/// All spans recorded so far (call after every span closed).
const std::vector<SpanRecord>& spans();

/// Self time per layer: each span's duration minus the union of its
/// children's intervals, summed by layer.
std::vector<std::pair<std::string, double>> self_time_by_layer();

/// Write the spans as a Chrome trace-event JSON array.
bool write_spans(const std::string& path);

// ---------------------------------------------------------------------------
// Host-speed probe: a fixed integer/float loop in benchmark code only. Its
// rate is printed beside the metrics so a run-to-run difference can be
// traced to the host; it enters no metric.

double probe_rate();

// ---------------------------------------------------------------------------
// Metrics.

class Report {
 public:
  /// End-to-end figure of the untraced run (host clock).
  void e2e(const std::string& name, double value, const std::string& unit);
  /// Per-layer figure of the traced run.
  void layer(const std::string& name, double value, const std::string& unit);
  /// Simulated figure: deterministic, printed by both kinds of run; the
  /// workloads compare it across repetitions and check.py across thread
  /// counts.
  void sim(const std::string& name, double value, const std::string& unit);
  /// A correctness check; a failed one makes the result incorrect.
  void check(bool ok, const std::string& what);
  void probe(const std::string& phase, double rate);

  long long attempted = 0;
  long long failed = 0;

  bool correct() const noexcept { return errors_.empty(); }
  /// Print every line the runner parses, then the summary line.
  void print() const;

 private:
  std::vector<std::string> lines_;
  std::vector<std::string> errors_;
  std::vector<double> probes_;
};

/// Median of a sample (0 when empty).
double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100] (0 when empty).
double percentile(std::vector<double> v, double p);

/// VmHWM of this process in MB (0 when /proc is unavailable).
double peak_rss_mb();

/// Set-up and timed-phase samples of one untraced run.
struct Timings {
  std::vector<double> setup_s;
  std::vector<double> events_per_s;
};

/// The untraced run: `blocks` times, run `setup` `setups_per_block` times,
/// then repeat `phase` (fixed work, returns the simulated events it
/// completed) until the block's share of `seconds` is spent, at least once.
/// Interleaving spreads both kinds of sample over the whole run, so a slow
/// stretch of the host lands on some samples of each kind instead of on all
/// of one. Probes run before and after every phase repetition; the events
/// are added to `report.attempted`.
Timings measure(Report& report, double seconds, int blocks,
                int setups_per_block, const std::function<void()>& setup,
                const std::function<long long()>& phase);

/// Workload entry points; each fills `report`.
void paper_sweep(const Options& opt, Report& report);
void fleet_serve(const Options& opt, Report& report);
void campaign_failover(const Options& opt, Report& report);
void analog_mvm(const Options& opt, Report& report);

/// Layer metrics shared by every traced run: self time per layer, span
/// coverage of the root's wall time, and the tracing overhead.
void report_trace(Report& report, const Options& opt, double untraced_eps,
                  double traced_eps);

}  // namespace perfbench
