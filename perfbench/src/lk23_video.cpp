// Closed-loop workloads: back-to-back ORWL solves of Livermore Kernel 23
// and of the video-tracking pipeline, each placed with AffinityMode::On
// on the detected host and checked against the sequential reference.
#include <cstring>
#include <functional>
#include <numeric>
#include <stdexcept>

#include "affinity/affinity.hpp"
#include "apps/lk23.hpp"
#include "apps/video.hpp"
#include "harness.hpp"
#include "server/server.hpp"
#include "topo/detect.hpp"
#include "topo/machines.hpp"
#include "treematch/treematch.hpp"
#include "workload_util.hpp"

namespace perfbench {

using namespace orwl;

// ---- shared helpers ---------------------------------------------------------

PlacementSetup setup_once(Tracer* tracer,
                          const std::function<tm::CommMatrix()>& extract,
                          SetupTimes& times) {
  PlacementSetup s;
  Span root(tracer, "bench.setup");
  const Clock::time_point t0 = Clock::now();
  {
    Span sp(tracer, "topo.detect_host", root.id());
    s.host = topo::detect_host();
  }
  const Clock::time_point t1 = Clock::now();
  {
    Span sp(tracer, "orwl.comm_matrix", root.id());
    s.matrix = extract();
  }
  const Clock::time_point t2 = Clock::now();
  {
    Span sp(tracer, "treematch.compute_placement", root.id());
    s.placement = aff::compute_placement(s.matrix, s.host);
  }
  const Clock::time_point t3 = Clock::now();
  times.detect.push_back(seconds_between(t0, t1));
  times.matrix.push_back(seconds_between(t1, t2));
  times.place.push_back(seconds_between(t2, t3));
  times.total.push_back(seconds_between(t0, t3));
  return s;
}

void add_placement_metrics(Outcome& o, const PlacementSetup& s,
                           const SetupTimes& times) {
  auto& m = o.metrics;
  m["setup_s"] = median(times.total);
  m["topo.detect_ms"] = median(times.detect) * 1e3;
  m["orwl.matrix_ms"] = median(times.matrix) * 1e3;
  m["treematch.place_ms"] = median(times.place) * 1e3;
  m["treematch.modeled_cost_host"] =
      tm::modeled_cost(s.host, s.matrix, s.placement);
  const topo::Topology fixture = topo::make_smp20e7();
  m["treematch.modeled_cost_smp20e7"] = tm::modeled_cost(
      fixture, s.matrix, aff::compute_placement(s.matrix, fixture));
}

void add_runtime_metrics(Outcome& o, const rt::ProgramStats& sum,
                         double ops) {
  auto& m = o.metrics;
  const double handoffs = static_cast<double>(sum.control_events) +
                          static_cast<double>(sum.control_inline_grants);
  auto per_op = [&](std::uint64_t v) { return static_cast<double>(v) / ops; };
  m["runtime.control_events"] = per_op(sum.control_events);
  m["runtime.inline_grants"] = per_op(sum.control_inline_grants);
  m["runtime.inline_grant_ratio"] =
      handoffs > 0 ? static_cast<double>(sum.control_inline_grants) / handoffs
                   : 0.0;
  m["runtime.futex_waits"] = per_op(sum.futex_waits);
  m["runtime.futex_wakes"] = per_op(sum.futex_wakes);
  m["runtime.waits_per_handoff"] =
      handoffs > 0 ? static_cast<double>(sum.futex_waits) / handoffs : 0.0;
  m["runtime.shard_steals"] = per_op(sum.shard_steals);
  m["runtime.measured_handoffs"] = per_op(sum.measured_handoffs);
  m["runtime.arena_bytes"] = per_op(sum.arena_bytes);
  m["runtime.arena_refills"] = per_op(sum.arena_refills);
  m["runtime.arena_magazine_hits"] = per_op(sum.arena_magazine_hits);
  m["runtime.bind_failures"] = static_cast<double>(sum.bind_failures);
}

rt::ProgramOptions placed_options(const topo::Topology& host) {
  rt::ProgramOptions o;
  o.affinity = rt::AffinityMode::On;
  o.topology = &host;
  return o;
}

namespace {

/// One solve of a closed loop: the seconds spent inside the library call,
/// whether its result matched the reference, and the runtime's counters.
struct SolveResult {
  double seconds = 0;
  double cpu_s = 0;
  bool ok = false;
  rt::ProgramStats stats;
};

/// Back-to-back solves for c.seconds (and at least the number of solves
/// the p90 needs), then the closed-loop end-to-end metrics. One set-up
/// follows each solve, outside its timing, so setup_s is a median over
/// the whole run rather than a snapshot of its first milliseconds.
void closed_loop(const Config& c, Tracer* tracer, Outcome& o,
                 const PlacementSetup& setup,
                 const std::function<tm::CommMatrix()>& extract,
                 double seq_solve_s,
                 const std::function<SolveResult(Tracer*, Tracer::Id,
                                                 std::uint64_t rid,
                                                 bool corrupt)>& solve) {
  SetupTimes setup_times;
  const std::size_t min_ops = min_samples_for(0.9);
  std::vector<double> solve_s;
  rt::ProgramStats sum;
  double cpu_s = 0;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(c.seconds));
  for (std::uint64_t i = 0; Clock::now() < deadline || solve_s.size() < min_ops;
       ++i) {
    check_budget(start);
    Tracer* t = op_tracer(tracer, i);
    ++o.attempted;
    SolveResult r;
    const Clock::time_point op0 = Clock::now();
    try {
      Span root(t, "bench.solve", 0, i + 1);
      r = solve(t, root.id(), i + 1, c.corrupt && i == 0);
    } catch (const std::exception& e) {
      ++o.failed;
      report_failure(e);
      continue;
    }
    const double op_s = seconds_between(op0, Clock::now());
    if (!r.ok) ++o.wrong;
    solve_s.push_back(r.seconds);
    cpu_s += r.cpu_s;
    server::accumulate(sum, r.stats);
    if (tracer != nullptr) {
      (t != nullptr ? o.traced_op_s : o.untraced_op_s).push_back(op_s);
    }
    setup_once(tracer, extract, setup_times);
  }
  add_placement_metrics(o, setup, setup_times);
  const double ops =
      static_cast<double>(std::max<std::size_t>(solve_s.size(), 1));
  auto& m = o.metrics;
  m["peak_rss_mb"] = peak_rss_mb();
  m["solve_s_p50"] = run_percentile(solve_s, 0.5, "solve_s_p50");
  m["solve_s_p90"] = run_percentile(solve_s, 0.9, "solve_s_p90");
  // A closed-loop client's request is one solve: its latency is the solve
  // time, and the deepest tail every run supports (10 samples beyond it)
  // is p90, not p99: an lk23 run holds ~900 solves.
  m["latency_ms_p50"] = m["solve_s_p50"] * 1e3;
  m["tail.latency_ms_p99"] = m["solve_s_p90"] * 1e3;
  // Solves per second of solving, and the runtime's lock hand-offs
  // (control-plane events + inline grants) per second of solving.
  const double solving_s =
      std::accumulate(solve_s.begin(), solve_s.end(), 0.0);
  m["saturation_rps"] = static_cast<double>(solve_s.size()) / solving_s;
  m["handoffs_per_s"] = (static_cast<double>(sum.control_events) +
                         static_cast<double>(sum.control_inline_grants)) /
                        solving_s;
  m["cpu_ms_per_op"] = cpu_s * 1e3 / ops;
  m["apps.seq_solve_s"] = seq_solve_s;
  m["runtime.overhead_core_s"] =
      static_cast<double>(setup.host.num_pus()) * m["solve_s_p50"] -
      seq_solve_s;
  add_runtime_metrics(o, sum, ops);
}

/// Time `fn` (one library call) as a span child of `parent`; the timing
/// leaves out the span's own bookkeeping.
template <typename Fn>
std::pair<double, double> timed_call(Tracer* t, const char* name,
                                     Tracer::Id parent, std::uint64_t rid,
                                     Fn&& fn) {
  Span sp(t, name, parent, rid);
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  fn();
  const Clock::time_point t1 = Clock::now();
  return {seconds_between(t0, t1), process_cpu_seconds() - cpu0};
}

}  // namespace

// ---- lk23 -------------------------------------------------------------------

Outcome run_lk23(const Config& c, Tracer* tracer) {
  // 512^2 interior, 12 sweeps, 4x4 blocks: ~24 ms per solve on 4 CPUs,
  // barely faster than one CPU, so the fine-grained halo hand-offs between
  // writers dominate. At 1024^2 (~65 ms, a 50 MB working set) interleaved
  // runs spread twice as far; 2x2 blocks spread 20% between runs.
  constexpr std::size_t n = 514, iters = 12, blocks = 4;

  Outcome o;
  o.op_name = "solves";
  const auto extract = [&] {
    return apps::lk23_ops_comm_matrix(n, blocks, blocks);
  };
  SetupTimes warmup;
  const PlacementSetup setup = setup_once(tracer, extract, warmup);

  // The reference is solved first and only its state array kept, so the
  // harness holds one problem plus two arrays (input and reference) and
  // its own memory stays a minor share of the peak.
  std::vector<double> ref_za;
  double seq_s = 0;
  {
    apps::Lk23Problem ref = apps::Lk23Problem::generate(n, c.seed);
    seq_s = timed_call(tracer, "apps.lk23_sequential", 0, 0,
                       [&] { apps::lk23_sequential(ref, iters); })
                .first;
    ref_za = std::move(ref.za);
  }
  apps::Lk23Problem work = apps::Lk23Problem::generate(n, c.seed);
  const std::vector<double> input_za = work.za;

  const rt::ProgramOptions opts = placed_options(setup.host);
  closed_loop(c, tracer, o, setup, extract, seq_s,
              [&](Tracer* t, Tracer::Id parent, std::uint64_t rid,
                  bool corrupt) {
                {
                  Span sp(t, "bench.reset_input", parent, rid);
                  work.za = input_za;
                }
                SolveResult r;
                std::tie(r.seconds, r.cpu_s) =
                    timed_call(t, "apps.lk23_orwl", parent, rid, [&] {
                      apps::lk23_orwl(work, iters, blocks, blocks, opts,
                                      &r.stats);
                    });
                Span sp(t, "bench.check", parent, rid);
                if (corrupt) work.za[work.za.size() / 2] += 1.0;
                r.ok = std::memcmp(work.za.data(), ref_za.data(),
                                   ref_za.size() * sizeof(double)) == 0;
                return r;
              });
  return o;
}

// ---- video ------------------------------------------------------------------

apps::VideoParams video_workload_params(const Config& c) {
  // 160x90, 16 frames (~12 ms per solve on 4 CPUs): the runtime's reader
  // groups and FIFO channels carry a large share of the solve. At 320x180
  // x8 (~28 ms, mostly pixel kernels) interleaved runs spread twice as far.
  apps::VideoParams p;
  p.width = 160;
  p.height = 90;
  p.frames = 16;
  p.gmm_splits = 4;
  p.ccl_splits = 2;
  p.seed = c.seed;
  return p;
}

Outcome run_video(const Config& c, Tracer* tracer) {
  const apps::VideoParams params = video_workload_params(c);

  Outcome o;
  o.op_name = "solves";
  const auto extract = [&] { return apps::video_comm_matrix(params); };
  SetupTimes warmup;
  const PlacementSetup setup = setup_once(tracer, extract, warmup);

  apps::VideoResult ref;
  const double seq_s =
      timed_call(tracer, "apps.video_sequential", 0, 0,
                 [&] { ref = apps::video_sequential(params); })
          .first;

  const rt::ProgramOptions opts = placed_options(setup.host);
  closed_loop(c, tracer, o, setup, extract, seq_s,
              [&](Tracer* t, Tracer::Id parent, std::uint64_t rid,
                  bool corrupt) {
                SolveResult r;
                apps::VideoResult got;
                std::tie(r.seconds, r.cpu_s) =
                    timed_call(t, "apps.video_orwl", parent, rid, [&] {
                      got = apps::video_orwl(params, opts, &r.stats);
                    });
                Span sp(t, "bench.check", parent, rid);
                if (corrupt) got.detections_per_frame.at(0) += 1;
                r.ok = same_video_result(got, ref);
                return r;
              });
  return o;
}

}  // namespace perfbench
