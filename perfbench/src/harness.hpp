// Shared pieces of the benchmark of record: the metric catalogue, the
// percentile rule, the span tracer and the per-run configuration/outcome
// every workload fills in.
//
// The harness measures the library from outside: every timing here is
// taken around a call into one layer's public API, never inside it.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b);

/// Process CPU seconds (user + system, all threads) so far.
double process_cpu_seconds();

/// Peak resident set of this process in MiB. Each workload runs in its
/// own process, so one workload's peak never leaks into another's; each
/// reads it at the end of its timed phase, before the harness's own
/// post-processing copies its sample logs.
double peak_rss_mb();

// ---- percentiles ----------------------------------------------------------

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that it is an extreme value, not a percentile.
inline constexpr std::size_t kTailSamples = 10;

/// Nearest-rank percentile (p in (0, 1)) of `sample`, or nullopt when
/// fewer than kTailSamples samples lie strictly above its rank.
std::optional<double> percentile(std::vector<double> sample, double p);

/// The smallest sample size for which percentile(·, p) is reported.
std::size_t min_samples_for(double p);

/// Percentile p of a whole run's sample. Throws std::runtime_error naming
/// `what` when the sample is too small for p; the workloads size their
/// runs so it is not.
double run_percentile(const std::vector<double>& sample, double p,
                      const char* what);

/// An open loop's percentiles come from its least-disturbed window. The
/// host of the VM the benchmark was built on stalls a vCPU for tens to
/// hundreds of milliseconds at a time, bound threads cannot leave it, and
/// every request that arrives meanwhile queues behind the stall. A closed
/// loop or a pipeline only loses the stall's own time, and there the whole
/// run's percentile spread least between runs; the best window picked a
/// lucky window instead (3x the spread on video's p50).
inline constexpr std::size_t kMaxWindows = 10;

/// Lowest, over up to kMaxWindows consecutive equal-count windows of
/// `in_order` (samples in the order they were taken), of each window's
/// percentile p — as many windows as keep min_samples_for(p) samples in
/// each. Throws like run_percentile when the whole sample is too small
/// for one window.
double best_window_percentile(const std::vector<double>& in_order, double p,
                              const char* what);

double median(std::vector<double> sample);

// ---- metric catalogue -------------------------------------------------------

struct MetricDef {
  std::string name;
  const char* unit;
};

/// Printed with --trace 0; BENCHMARK.json's end_to_end list, in order.
const std::vector<MetricDef>& end_to_end_metrics();
/// Printed with --trace 1; BENCHMARK.json's per_layer list, in order.
const std::vector<MetricDef>& per_layer_metrics();

/// Layers that receive a self-time metric ("self.<layer>_ms").
const std::vector<std::string>& traced_layers();

// ---- tracing ---------------------------------------------------------------

/// In-memory span store. A span is one call from the harness into a
/// layer's public function; its name is "<layer>.<call>". Spans of one
/// operation (a solve, a request, a hand-off) share a request id; set-up
/// spans carry request id 0.
class Tracer {
 public:
  using Id = std::uint64_t;  ///< 0 = no span

  struct Record {
    const char* name = "";
    Clock::time_point t0{};
    Clock::time_point t1{};
    Id parent = 0;
    std::uint64_t rid = 0;
    int tid = 0;
  };

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  Id open(const char* name, Id parent, std::uint64_t rid);
  void close(Id id);
  /// A span whose start and end were taken elsewhere (e.g. on another
  /// thread, before the request id was known).
  Id record(const char* name, Clock::time_point t0, Clock::time_point t1,
            Id parent, std::uint64_t rid);

  std::size_t size() const;

  /// Self time (seconds) per layer, summed over the spans of operations
  /// (request id != 0): a span's duration minus the part of it its
  /// children cover.
  std::map<std::string, double> self_seconds_by_layer() const;

  /// Write every span as Chrome trace-event JSON ("X" events; args carry
  /// id, parent and request id). `context` lands in "otherData". At most
  /// `max_events` spans are written; the rest are counted as dropped.
  void write_chrome_json(const std::string& path,
                         const std::map<std::string, std::string>& context,
                         std::size_t max_events = 100000) const;

 private:
  mutable std::mutex mu_;  ///< guards spans_
  std::vector<Record> spans_;
  Clock::time_point origin_;
};

/// RAII span; a null tracer makes it a no-op (an untraced operation).
class Span {
 public:
  Span(Tracer* t, const char* name, Tracer::Id parent = 0,
       std::uint64_t rid = 0)
      : t_(t), id_(t != nullptr ? t->open(name, parent, rid) : 0) {}
  ~Span() {
    if (t_ != nullptr) t_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  Tracer::Id id() const { return id_; }

 private:
  Tracer* t_;
  Tracer::Id id_;
};

// ---- run configuration and outcome -----------------------------------------

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: every other operation records spans (the untraced ones
  /// give the overhead baseline), and per-layer metrics are printed.
  bool trace = false;
  std::string trace_path;
  std::string commit = "unknown";
  /// Flip one bit of the first result before it is checked (tests that a
  /// wrong result is caught and counted).
  bool corrupt = false;
};

struct Outcome {
  std::uint64_t attempted = 0;  ///< solves, requests or hand-offs
  std::uint64_t wrong = 0;      ///< results that failed the reference check
  std::uint64_t shed = 0;       ///< requests the server refused
  std::uint64_t failed = 0;     ///< operations that threw
  const char* op_name = "ops";
  /// Every metric the workload measured, end-to-end and per-layer alike;
  /// per-layer metrics a workload does not exercise are absent here.
  std::map<std::string, double> metrics;
  /// Operation latencies (seconds) of traced and untraced operations in
  /// a traced run, each timed from before its first span opens to after
  /// its last span closes; their medians give the tracing overhead.
  std::vector<double> traced_op_s, untraced_op_s;

  std::uint64_t bad() const { return wrong + shed + failed; }
};

/// The tracer operation `i` of a run records into: every other operation
/// of a traced run; none of an untraced one.
inline Tracer* op_tracer(Tracer* tracer, std::uint64_t i) {
  return i % 2 == 1 ? tracer : nullptr;
}

/// setup_s is the median of this many set-up repetitions, each after a
/// discarded warm-up repetition (rep 0) that pays first-touch costs.
inline constexpr int kSetupReps = 51;

/// A workload's run. `tracer` is null in an untraced run (--trace 0), so
/// no span is recorded anywhere, set-up and reference runs included.
Outcome run_lk23(const Config& c, Tracer* tracer);
Outcome run_video(const Config& c, Tracer* tracer);
Outcome run_serve(const Config& c, Tracer* tracer);
Outcome run_dist(const Config& c, Tracer* tracer);

/// Host facts every result is stamped with.
std::map<std::string, std::string> run_context(const Config& c,
                                               const Outcome& o);

/// Fill the derived metrics (self times, tracing overhead, fail fraction)
/// and return the final line: {"correct", "attempted", "failed",
/// "metrics"} with the end-to-end or the per-layer set.
std::string result_json(const Config& c, Outcome& o, const Tracer& tracer);

}  // namespace perfbench
