#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>

namespace perfbench {

namespace {

const auto kStart = std::chrono::steady_clock::now();

std::atomic<bool> g_tracing{false};
std::atomic<int> g_next_id{0};
std::atomic<int> g_next_thread{0};
std::mutex g_mu;
std::vector<SpanRecord> g_spans;  // guarded by g_mu
thread_local int t_current = -1;
thread_local int t_thread = -1;

int thread_index() {
  if (t_thread < 0) t_thread = g_next_thread.fetch_add(1);
  return t_thread;
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kStart)
      .count();
}

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }
int current_span() { return t_current; }

Span::Span(const char* layer, const char* name, long long tag, int parent)
    : layer_(layer), name_(name), tag_(tag) {
  if (!tracing()) return;
  id_ = g_next_id.fetch_add(1);
  parent_ = parent == kInherit ? t_current : parent;
  saved_ = t_current;
  t_current = id_;
  start_ = now_s();
}

Span::~Span() {
  if (id_ < 0) return;
  const double end = now_s();
  t_current = saved_;
  SpanRecord r{layer_, name_, start_, end, id_, parent_, tag_,
               thread_index()};
  std::lock_guard<std::mutex> lock(g_mu);
  g_spans.push_back(std::move(r));
}

const std::vector<SpanRecord>& spans() { return g_spans; }

std::vector<std::pair<std::string, double>> self_time_by_layer() {
  std::map<int, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : g_spans) children[s.parent].push_back(&s);
  std::map<std::string, double> self;
  for (const SpanRecord& s : g_spans) {
    // Union of the children's intervals, clipped to this span: children on
    // pool threads may overlap each other.
    std::vector<std::pair<double, double>> iv;
    for (const SpanRecord* c : children[s.id])
      iv.emplace_back(std::max(c->start_s, s.start_s),
                      std::min(c->end_s, s.end_s));
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, lo = 0.0, hi = -1.0;
    for (const auto& [a, b] : iv) {
      if (b <= a) continue;
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    self[s.layer] += std::max(0.0, (s.end_s - s.start_s) - covered);
  }
  return {self.begin(), self.end()};
}

bool write_spans(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (std::size_t i = 0; i < g_spans.size(); ++i) {
    const SpanRecord& s = g_spans[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                  "\"args\": {\"id\": %d, \"parent\": %d, \"tag\": %lld}}%s\n",
                  s.name.c_str(), s.layer.c_str(), s.start_s * 1e6,
                  (s.end_s - s.start_s) * 1e6, s.thread, s.id, s.parent,
                  s.tag, i + 1 < g_spans.size() ? "," : "");
    out << buf;
  }
  out << "]\n";
  return static_cast<bool>(out);
}

double probe_rate() {
  // A dependent LCG + float accumulate chain: no memory traffic, no
  // library calls, fixed length (~15 ms on a 3 GHz core).
  constexpr std::uint64_t kIters = 6'000'000;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  double acc = 0.0;
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < kIters; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    acc += static_cast<double>(x >> 11) * 0x1p-53;
  }
  const double dt = now_s() - t0;
  volatile double sink = acc;
  (void)sink;
  return static_cast<double>(kIters) / dt;
}

void Report::e2e(const std::string& name, double value,
                 const std::string& unit) {
  lines_.push_back("metric e2e " + name + " " + fmt(value) + " " + unit);
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  lines_.push_back("metric layer " + name + " " + fmt(value) + " " + unit);
}

void Report::sim(const std::string& name, double value,
                 const std::string& unit) {
  lines_.push_back("metric sim " + name + " " + fmt(value) + " " + unit);
}

void Report::check(bool ok, const std::string& what) {
  lines_.push_back(std::string("check ") + (ok ? "ok " : "FAIL ") + what);
  if (!ok) errors_.push_back(what);
}

void Report::probe(const std::string& phase, double rate) {
  lines_.push_back("probe " + phase + " " + fmt(rate));
  probes_.push_back(rate);
}

void Report::print() const {
  for (const std::string& l : lines_) std::printf("%s\n", l.c_str());
  if (!probes_.empty())
    std::printf("probe median %s min %s max %s\n",
                fmt(median(probes_)).c_str(),
                fmt(*std::min_element(probes_.begin(), probes_.end())).c_str(),
                fmt(*std::max_element(probes_.begin(), probes_.end())).c_str());
  std::printf("result %d %lld %lld\n", correct() ? 1 : 0, attempted, failed);
  std::fflush(stdout);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank > 0 ? rank - 1 : 0)];
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ss(line.substr(6));
      double kb = 0.0;
      ss >> kb;
      return kb / 1024.0;
    }
  return 0.0;
}

Timings measure(Report& report, double seconds, int blocks,
                int setups_per_block, const std::function<void()>& setup,
                const std::function<long long()>& phase) {
  Timings out;
  double spent = 0.0;
  for (int b = 0; b < blocks; ++b) {
    for (int r = 0; r < setups_per_block; ++r) {
      const double t0 = now_s();
      setup();
      out.setup_s.push_back(now_s() - t0);
    }
    report.probe("before_rep", probe_rate());
    const double budget = seconds * (b + 1) / blocks;
    do {
      const double t0 = now_s();
      const long long events = phase();
      const double dt = now_s() - t0;
      spent += dt;
      out.events_per_s.push_back(static_cast<double>(events) / dt);
      report.attempted += events;
      report.probe("after_rep", probe_rate());
    } while (spent < budget);
  }
  return out;
}

void report_trace(Report& report, const Options& opt, double untraced_eps,
                  double traced_eps) {
  double root = 0.0, glue = 0.0;
  for (const SpanRecord& s : spans())
    if (s.parent < 0) root += s.end_s - s.start_s;
  for (const auto& [layer, self] : self_time_by_layer()) {
    report.layer(layer + ".self_s", self, "s");
    if (layer == "bench") glue = self;
  }
  report.layer("trace.coverage", root > 0.0 ? 1.0 - glue / root : 0.0,
               "share");
  report.layer("trace.wall_s", root, "s");
  report.layer("trace.spans", static_cast<double>(spans().size()), "count");
  report.layer("trace.events_per_s_untraced", untraced_eps, "events/s");
  report.layer("trace.events_per_s_traced", traced_eps, "events/s");
  report.layer("trace.overhead",
               untraced_eps > 0.0 ? 1.0 - traced_eps / untraced_eps : 0.0,
               "share");
  if (!opt.trace_out.empty())
    report.check(write_spans(opt.trace_out), "spans written to trace file");
}

}  // namespace perfbench
