#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "topo/detect.hpp"

namespace perfbench {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- percentiles ----------------------------------------------------------

namespace {

/// Nearest rank (1-based) of percentile p in a sample of n.
std::size_t rank_of(std::size_t n, double p) {
  const auto r =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return std::clamp<std::size_t>(r, 1, n);
}

}  // namespace

std::optional<double> percentile(std::vector<double> sample, double p) {
  if (sample.empty() || !(p > 0 && p < 1)) return std::nullopt;
  const std::size_t r = rank_of(sample.size(), p);
  if (sample.size() - r < kTailSamples) return std::nullopt;
  std::nth_element(sample.begin(), sample.begin() + (r - 1), sample.end());
  return sample[r - 1];
}

std::size_t min_samples_for(double p) {
  std::size_t n = 1;
  while (n - rank_of(n, p) < kTailSamples) ++n;
  return n;
}

namespace {

/// Bounds of `windows` consecutive equal-count windows over n samples.
std::vector<std::pair<std::size_t, std::size_t>> windows_of(std::size_t n,
                                                            std::size_t k) {
  std::vector<std::pair<std::size_t, std::size_t>> w;
  for (std::size_t i = 0; i < k; ++i) {
    w.emplace_back(i * n / k, (i + 1) * n / k);
  }
  return w;
}

}  // namespace

double run_percentile(const std::vector<double>& sample, double p,
                      const char* what) {
  const std::optional<double> v = percentile(sample, p);
  if (!v) {
    throw std::runtime_error(std::string("too few samples for ") + what +
                             ": " + std::to_string(sample.size()));
  }
  return *v;
}

double best_window_percentile(const std::vector<double>& in_order, double p,
                              const char* what) {
  const std::size_t k =
      std::min(kMaxWindows, in_order.size() / min_samples_for(p));
  if (k == 0) return run_percentile(in_order, p, what);  // throws
  std::vector<double> per_window;
  for (const auto& [a, b] : windows_of(in_order.size(), k)) {
    per_window.push_back(*percentile(
        std::vector<double>(in_order.begin() + a, in_order.begin() + b), p));
  }
  return *std::min_element(per_window.begin(), per_window.end());
}

double median(std::vector<double> sample) {
  if (sample.empty()) return 0;
  const std::size_t mid = sample.size() / 2;
  std::nth_element(sample.begin(), sample.begin() + mid, sample.end());
  const double hi = sample[mid];
  if (sample.size() % 2 == 1) return hi;
  const double lo = *std::max_element(sample.begin(), sample.begin() + mid);
  return (lo + hi) / 2;
}

// ---- metric catalogue -------------------------------------------------------

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"solve_s_p50", "s"},
      {"solve_s_p90", "s"},
      {"latency_ms_p50", "ms"},
      {"saturation_rps", "1/s"},
      {"handoffs_per_s", "1/s"},
      {"cpu_ms_per_op", "ms"},
      {"peak_rss_mb", "MiB"},
  };
  return defs;
}

const std::vector<std::string>& traced_layers() {
  static const std::vector<std::string> layers = {
      "bench", "topo", "orwl", "treematch", "apps", "runtime", "server",
      "dist"};
  return layers;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"topo.detect_ms", "ms"},
        {"orwl.matrix_ms", "ms"},
        {"treematch.place_ms", "ms"},
        {"treematch.modeled_cost_host", "count"},
        {"treematch.modeled_cost_smp20e7", "count"},
        {"apps.seq_solve_s", "s"},
        {"runtime.overhead_core_s", "s"},
        {"runtime.control_events", "count"},
        {"runtime.inline_grants", "count"},
        {"runtime.inline_grant_ratio", "ratio"},
        {"runtime.futex_waits", "count"},
        {"runtime.futex_wakes", "count"},
        {"runtime.waits_per_handoff", "ratio"},
        {"runtime.shard_steals", "count"},
        {"runtime.measured_handoffs", "count"},
        {"runtime.arena_bytes", "bytes"},
        {"runtime.arena_refills", "count"},
        {"runtime.arena_magazine_hits", "count"},
        {"runtime.bind_failures", "count"},
        {"server.admit_ms", "ms"},
        {"server.service_ms_p50", "ms"},
        {"server.service_ms_p99", "ms"},
        {"server.queue_wait_ms_p50", "ms"},
        {"server.queue_wait_ms_p99", "ms"},
        {"server.generator_late_ms_p99", "ms"},
        {"server.peak_workers", "count"},
        {"server.grow_events", "count"},
        {"server.shed", "count"},
        {"server.failed", "count"},
        {"dist.connect_ms", "ms"},
        {"dist.acquire_us_p50", "us"},
        {"dist.acquire_us_p99", "us"},
        {"dist.release_us_p50", "us"},
        {"dist.home_acquire_us_p50", "us"},
        {"dist.proxy_requests", "count"},
        {"dist.grants_sent", "count"},
        {"dist.releases", "count"},
        {"dist.orphans_reclaimed", "count"},
    };
    // Self time per operation of each layer, from the traced spans.
    for (const std::string& l : traced_layers()) {
      d.push_back({"self." + l + "_ms", "ms"});
    }
    d.push_back({"trace.overhead_pct", "%"});
    d.push_back({"trace.spans", "count"});
    d.push_back({"tail.latency_ms_p99", "ms"});
    d.push_back({"bench.fail_frac", "ratio"});
    d.push_back({"bench.ops", "count"});
    return d;
  }();
  return defs;
}

// ---- tracing ---------------------------------------------------------------

namespace {

int thread_index() {
  static std::atomic<int> next{1};
  thread_local const int id = next.fetch_add(1);
  return id;
}

std::string layer_of(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out;
}

/// JSON has no infinity: an infinite latency (a refused request at the
/// percentile) prints as the largest double.
std::string num(double v) {
  if (std::isinf(v)) v = v > 0 ? std::numeric_limits<double>::max()
                               : std::numeric_limits<double>::lowest();
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isnan(v) ? 0.0 : v);
  return buf;
}

}  // namespace

Tracer::Tracer() : origin_(Clock::now()) {}

Tracer::Id Tracer::open(const char* name, Id parent, std::uint64_t rid) {
  Record r;
  r.name = name;
  r.parent = parent;
  r.rid = rid;
  r.tid = thread_index();
  r.t0 = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(r);
  return spans_.size();
}

void Tracer::close(Id id) {
  const Clock::time_point t1 = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(id - 1).t1 = t1;
}

Tracer::Id Tracer::record(const char* name, Clock::time_point t0,
                          Clock::time_point t1, Id parent,
                          std::uint64_t rid) {
  Record r;
  r.name = name;
  r.t0 = t0;
  r.t1 = t1;
  r.parent = parent;
  r.rid = rid;
  r.tid = thread_index();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(r);
  return spans_.size();
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::vector<Record> spans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans = spans_;
  }
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) children.at(spans[i].parent - 1).push_back(i);
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Record& s = spans[i];
    if (s.rid == 0) continue;
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
    for (const std::size_t c : children[i]) {
      iv.emplace_back(std::max(spans[c].t0, s.t0),
                      std::min(spans[c].t1, s.t1));
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    Clock::time_point reach = s.t0;
    for (const auto& [a, b] : iv) {
      const Clock::time_point from = std::max(a, reach);
      if (b > from) {
        covered += seconds_between(from, b);
        reach = b;
      }
    }
    self[layer_of(s.name)] += seconds_between(s.t0, s.t1) - covered;
  }
  return self;
}

void Tracer::write_chrome_json(
    const std::string& path,
    const std::map<std::string, std::string>& context,
    std::size_t max_events) const {
  std::vector<Record> spans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans = spans_;
  }
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const std::size_t n = std::min(spans.size(), max_events);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < n; ++i) {
    const Record& s = spans[i];
    using Us = std::chrono::duration<double, std::micro>;
    const double ts = Us(s.t0 - origin_).count();
    const double dur = Us(s.t1 - s.t0).count();
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << json_escape(s.name)
        << "\",\"cat\":\"" << json_escape(layer_of(s.name))
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid << ",\"ts\":"
        << num(ts) << ",\"dur\":" << num(dur) << ",\"args\":{\"id\":" << i + 1
        << ",\"parent\":" << s.parent << ",\"rid\":" << s.rid << "}}";
  }
  out << "\n],\"otherData\":{";
  for (const auto& [k, v] : context) {
    out << "\"" << json_escape(k) << "\":\"" << json_escape(v) << "\",";
  }
  out << "\"spans\":\"" << spans.size() << "\",\"dropped\":\""
      << spans.size() - n << "\"}}\n";
  if (!out) throw std::runtime_error("short write to trace file " + path);
}

// ---- context and result ----------------------------------------------------

std::map<std::string, std::string> run_context(const Config& c,
                                               const Outcome& o) {
  std::map<std::string, std::string> ctx;
  ctx["workload"] = c.workload;
  ctx["seed"] = std::to_string(c.seed);
  ctx["seconds"] = num(c.seconds);
  ctx["trace"] = std::to_string(static_cast<int>(c.trace));
  ctx["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  ctx["topology"] = orwl::topo::detect_host().summary();
  ctx["build_type"] = PERFBENCH_BUILD_TYPE;
#if defined(__clang__)
  ctx["compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  ctx["compiler"] = std::string("gcc ") + __VERSION__;
#else
  ctx["compiler"] = "unknown";
#endif
  ctx["commit"] = c.commit;
  ctx["ops"] = std::to_string(o.attempted) + " " + o.op_name;
  return ctx;
}

std::string result_json(const Config& c, Outcome& o, const Tracer& tracer) {
  auto& m = o.metrics;
  m["bench.ops"] = static_cast<double>(o.attempted);
  m["bench.fail_frac"] =
      o.attempted > 0 ? static_cast<double>(o.bad()) / o.attempted : 1.0;
  if (c.trace) {
    m["trace.spans"] = static_cast<double>(tracer.size());
    const std::map<std::string, double> self = tracer.self_seconds_by_layer();
    const double ops =
        static_cast<double>(std::max<std::size_t>(o.traced_op_s.size(), 1));
    for (const std::string& l : traced_layers()) {
      const auto it = self.find(l);
      const double s = it == self.end() ? 0.0 : it->second;
      m["self." + l + "_ms"] = s * 1e3 / ops;
    }
    const double base = median(o.untraced_op_s);
    m["trace.overhead_pct"] =
        base > 0 ? (median(o.traced_op_s) - base) / base * 100.0 : 0.0;
  }

  const bool correct = o.bad() == 0 && o.attempted > 0;
  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << o.attempted << ", \"failed\": " << o.bad()
     << ", \"metrics\": {";
  const auto& defs = c.trace ? per_layer_metrics() : end_to_end_metrics();
  bool first = true;
  for (const MetricDef& d : defs) {
    const auto it = m.find(d.name);
    double v = 0;  // a per-layer metric of a layer this workload skips
    if (it != m.end()) {
      v = it->second;
    } else if (!c.trace) {
      throw std::logic_error("end-to-end metric not measured: " + d.name);
    }
    js << (first ? "" : ", ") << "\"" << d.name << "\": {\"value\": "
       << num(v) << ", \"unit\": \"" << d.unit << "\"}";
    first = false;
  }
  js << "}}";
  return js.str();
}

}  // namespace perfbench
