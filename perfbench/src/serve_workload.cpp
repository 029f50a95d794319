// Open-loop workload: one submitter thread replays a seeded Poisson trace
// into a server::Server on the detected host, with real binding and two
// 2-PU tenants (lk23 and video). Every request builds, places and tears
// down a whole Program, so per-program set-up and the server's queue and
// pool dominate — where the closed-loop workloads barely touch them.
#include <atomic>
#include <cstring>
#include <limits>
#include <optional>
#include <thread>

#include "apps/lk23.hpp"
#include "apps/video.hpp"
#include "harness.hpp"
#include "server/driver.hpp"
#include "server/server.hpp"
#include "workload_util.hpp"

namespace perfbench {

using namespace orwl;

namespace {

/// Timestamps a handler leaves for the done callback of the same request.
/// The server runs `done` on the worker thread right after the handler,
/// so a thread-local hands them over without knowing the request id.
/// [start, app0) resets the input, [app0, app1) is the library call and
/// [app1, end) checks the result.
struct HandlerTimes {
  bool complete = false;
  bool lk23 = false;
  Clock::time_point start, app0, app1, end;
};
thread_local HandlerTimes tl_handler;

/// Each worker's own lk23 problem, copied once from the run's seeded
/// input; a request only resets its state array.
thread_local std::optional<apps::Lk23Problem> tl_lk23;

/// One open-loop request, filled by the submitter and by its done callback.
struct Request {
  Clock::time_point sched, submit, start, app0, app1, done;
  bool lk23 = false;
  bool complete = false;
};

double ms(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e3;
}

}  // namespace

Outcome run_serve(const Config& c, Tracer* tracer) {
  // lk23 at 130^2, 4 sweeps, 2x2 blocks (90 rps) and video at 160x90x4
  // (30 rps): every request is a real placed program, and each tenant
  // runs one worker at about a fifth of its saturation rate. At twice
  // these rates with up to two workers, a host that stalled the tenants
  // for a whole run made the backlog grow a second worker onto the same
  // two PUs; both programs then ran slower, the queue grew without bound
  // and p50 latency rose a hundredfold.
  //
  // The video request has the 10-task shape (2 GMM splits, 1 dilate, 1 CCL
  // split): with 4 GMM splits and 4 dilates, 16 bound tasks on the 2-PU
  // carve took ~45 ms per request against ~6 ms unbound, and queueing
  // behind them swamped every other number.
  constexpr std::size_t lk_n = 130, lk_iters = 4;
  apps::VideoParams vp;
  vp.width = 160;
  vp.height = 90;
  vp.frames = 4;
  vp.gmm_splits = 2;
  vp.dilates = 1;
  vp.ccl_splits = 1;
  vp.seed = c.seed;
  constexpr double lk_rps = 90, video_rps = 30;
  const std::size_t width = 2;

  Outcome o;
  o.op_name = "requests";

  // Per-layer placement numbers for the lk23 tenant's program, which
  // every lk23 request re-places.
  {
    const auto extract = [&] { return apps::lk23_ops_comm_matrix(lk_n, 2, 2); };
    SetupTimes warmup, times;
    const PlacementSetup placed = setup_once(tracer, extract, warmup);
    for (int rep = 0; rep < kSetupReps; ++rep) {
      setup_once(tracer, extract, times);
    }
    add_placement_metrics(o, placed, times);
  }

  // The lk23 input and both references, made once from the seed.
  const apps::Lk23Problem lk_input = apps::Lk23Problem::generate(lk_n, c.seed);
  std::vector<double> lk_ref;
  double lk_seq_s = 0;
  {
    apps::Lk23Problem p = lk_input;
    Span sp(tracer, "apps.lk23_sequential");
    const Clock::time_point t0 = Clock::now();
    apps::lk23_sequential(p, lk_iters);
    lk_seq_s = seconds_between(t0, Clock::now());
    lk_ref = std::move(p.za);
  }
  apps::VideoResult video_ref;
  {
    Span sp(tracer, "apps.video_sequential");
    video_ref = apps::video_sequential(vp);
  }

  std::atomic<std::uint64_t> wrong{0};
  std::atomic<bool> corrupt_next{c.corrupt};
  server::TenantSpec lk_spec;
  lk_spec.name = "lk23";
  lk_spec.width_pus = width;
  lk_spec.min_workers = 1;
  lk_spec.max_workers = 1;
  lk_spec.handler = [&](const server::TenantEnv& env) {
    HandlerTimes& h = tl_handler;
    h = HandlerTimes{};
    h.lk23 = true;
    h.start = Clock::now();
    if (!tl_lk23) {
      tl_lk23.emplace(lk_input);
    } else {
      tl_lk23->za = lk_input.za;
    }
    apps::Lk23Problem& p = *tl_lk23;
    rt::ProgramStats stats;
    h.app0 = Clock::now();
    apps::lk23_orwl(p, lk_iters, 2, 2, env.program_options(), &stats);
    h.app1 = Clock::now();
    if (corrupt_next.exchange(false)) p.za[p.za.size() / 2] += 1.0;
    if (std::memcmp(p.za.data(), lk_ref.data(),
                    lk_ref.size() * sizeof(double)) != 0) {
      wrong.fetch_add(1);
    }
    h.end = Clock::now();
    h.complete = true;
    return stats;
  };
  server::TenantSpec video_spec = lk_spec;
  video_spec.name = "video";
  video_spec.handler = [&](const server::TenantEnv& env) {
    HandlerTimes& h = tl_handler;
    h = HandlerTimes{};
    h.start = Clock::now();
    rt::ProgramStats stats;
    h.app0 = Clock::now();
    apps::VideoResult got = apps::video_orwl(vp, env.program_options(), &stats);
    h.app1 = Clock::now();
    if (corrupt_next.exchange(false)) got.detections_per_frame.at(0) += 1;
    if (!same_video_result(got, video_ref)) wrong.fetch_add(1);
    h.end = Clock::now();
    h.complete = true;
    return stats;
  };

  // At least 1000 requests, so p99 has 10 samples beyond it.
  const double min_ms = static_cast<double>(min_samples_for(0.99)) /
                        (lk_rps + video_rps) * 1e3 * 1.15;
  const std::vector<server::TraceEvent> trace = server::make_open_loop_trace(
      {lk_rps, video_rps}, std::max(c.seconds * 1e3, min_ms), c.seed);

  server::ServerOptions so;
  // Room for every request of the run: when the host stalls the tenants
  // for a whole run, the backlog shows as latency, not as shed requests
  // (at the default 256, stalled runs shed and failed).
  so.queue_capacity = trace.size();
  so.bind_threads = true;
  so.base.affinity = rt::AffinityMode::On;
  so.base.bind_threads = true;

  // Set-up: Server construction (which detects the host) plus admission.
  std::vector<double> setup_s, admit_s;
  for (int rep = 0; rep <= kSetupReps; ++rep) {
    Span root(tracer, "bench.setup");
    const Clock::time_point a = Clock::now();
    std::optional<server::Server> s;
    {
      Span sp(tracer, "server.construct", root.id());
      s.emplace(so);
    }
    const Clock::time_point b = Clock::now();
    {
      Span sp(tracer, "server.admit", root.id());
      s->admit(lk_spec);
      s->admit(video_spec);
    }
    const Clock::time_point e = Clock::now();
    if (rep == 0) continue;
    setup_s.push_back(seconds_between(a, e));
    admit_s.push_back(seconds_between(b, e));
  }

  server::Server srv(so);
  const server::TenantId lk_id = srv.admit(lk_spec);
  const server::TenantId video_id = srv.admit(video_spec);
  const std::vector<server::TenantId> lanes = {lk_id, video_id};

  std::vector<Request> reqs(trace.size());
  std::atomic<std::size_t> dones{0};

  // A traced request's spans are recorded before its completion time is
  // taken, so the tracing overhead shows in its latency.
  auto done = [&](std::size_t i) {
    Request& r = reqs[i];
    const HandlerTimes h = tl_handler;
    Tracer* t = op_tracer(tracer, i);
    if (t != nullptr && h.complete) {
      const std::uint64_t rid = i + 1;
      const Tracer::Id root =
          t->record("server.request", r.sched, Clock::now(), 0, rid);
      t->record("bench.generator_late", r.sched, r.submit, root, rid);
      t->record("server.queue_wait", r.submit, h.start, root, rid);
      const Tracer::Id handler =
          t->record("server.handler", h.start, h.end, root, rid);
      t->record("bench.reset_input", h.start, h.app0, handler, rid);
      t->record(h.lk23 ? "apps.lk23_orwl" : "apps.video_orwl", h.app0,
                h.app1, handler, rid);
      t->record("bench.check", h.app1, h.end, handler, rid);
    }
    r.done = Clock::now();
    r.complete = h.complete;
    if (h.complete) {
      r.start = h.start;
      r.app0 = h.app0;
      r.app1 = h.app1;
      r.lk23 = h.lk23;
    }
    dones.fetch_add(1, std::memory_order_release);
  };

  const double cpu0 = process_cpu_seconds();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  std::size_t submitted = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    Request& r = reqs[i];
    r.sched = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::milli>(
                              trace[i].at_ms));
    std::this_thread::sleep_until(r.sched);
    r.submit = Clock::now();
    if (srv.submit(lanes[trace[i].lane], [&done, i] { done(i); })) {
      ++submitted;
    } else {
      ++o.shed;
    }
  }
  srv.drain_all();
  while (dones.load(std::memory_order_acquire) < submitted) {
    std::this_thread::yield();
  }
  const Clock::time_point stop = Clock::now();
  const double cpu_s = process_cpu_seconds() - cpu0;
  o.metrics["peak_rss_mb"] = peak_rss_mb();
  const double wall_s = seconds_between(start, stop);

  rt::ProgramStats sum;
  std::size_t peak_workers = 0;
  std::uint64_t grow_events = 0, completed = 0;
  for (const server::TenantStats& st : srv.stats()) {
    server::accumulate(sum, st.runtime);
    peak_workers = std::max(peak_workers, st.peak_workers);
    grow_events += st.grow_events;
    completed += st.completed;
  }

  std::vector<double> latency, service, service_lk, queue_wait, late,
      traced_lat, untraced_lat;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Request& r = reqs[i];
    if (!r.complete) {
      // Shed or failed: it misses every latency limit.
      latency.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    latency.push_back(ms(r.sched, r.done));
    service.push_back(ms(r.app0, r.app1));
    if (r.lk23) service_lk.push_back(ms(r.app0, r.app1));
    queue_wait.push_back(ms(r.submit, r.start));
    late.push_back(ms(r.sched, r.submit));
    (op_tracer(tracer, i) != nullptr ? traced_lat : untraced_lat)
        .push_back(seconds_between(r.sched, r.done));
  }
  if (tracer != nullptr) {
    o.traced_op_s = traced_lat;
    o.untraced_op_s = untraced_lat;
  }

  // Saturation ceiling of the lk23 tenant: back-to-back submits, the
  // highest of kSatReps short measurements (the least-disturbed one).
  constexpr int kSatReps = 10;
  constexpr std::size_t sat_requests = 200;
  std::vector<double> sat;
  for (int rep = 0; rep < kSatReps; ++rep) {
    Span sp(tracer, "server.measure_saturation_rps");
    sat.push_back(server::measure_saturation_rps(srv, lk_id, sat_requests));
  }

  o.attempted = trace.size() + kSatReps * sat_requests;
  o.wrong = wrong.load();
  for (const server::TenantStats& st : srv.stats()) o.failed += st.failed;

  auto& m = o.metrics;
  m["setup_s"] = median(setup_s);
  m["solve_s_p50"] = best_window_percentile(service, 0.5, "solve_s_p50") / 1e3;
  m["solve_s_p90"] = best_window_percentile(service, 0.9, "solve_s_p90") / 1e3;
  m["latency_ms_p50"] = best_window_percentile(latency, 0.5, "latency_ms_p50");
  m["tail.latency_ms_p99"] =
      best_window_percentile(latency, 0.99, "tail.latency_ms_p99");
  m["saturation_rps"] = *std::max_element(sat.begin(), sat.end());
  m["handoffs_per_s"] = (static_cast<double>(sum.control_events) +
                         static_cast<double>(sum.control_inline_grants)) /
                        wall_s;
  m["cpu_ms_per_op"] =
      cpu_s * 1e3 / static_cast<double>(std::max<std::size_t>(submitted, 1));

  m["apps.seq_solve_s"] = lk_seq_s;
  m["runtime.overhead_core_s"] =
      static_cast<double>(width) *
          best_window_percentile(service_lk, 0.5, "lk23 service p50") / 1e3 -
      lk_seq_s;
  add_runtime_metrics(
      o, sum, static_cast<double>(std::max<std::uint64_t>(completed, 1)));
  m["server.admit_ms"] = median(admit_s) * 1e3;
  m["server.service_ms_p50"] = m["solve_s_p50"] * 1e3;
  m["server.service_ms_p99"] =
      best_window_percentile(service, 0.99, "server.service_ms_p99");
  m["server.queue_wait_ms_p50"] =
      best_window_percentile(queue_wait, 0.5, "server.queue_wait_ms_p50");
  m["server.queue_wait_ms_p99"] =
      best_window_percentile(queue_wait, 0.99, "server.queue_wait_ms_p99");
  m["server.generator_late_ms_p99"] =
      best_window_percentile(late, 0.99, "server.generator_late_ms_p99");
  m["server.peak_workers"] = static_cast<double>(peak_workers);
  m["server.grow_events"] = static_cast<double>(grow_events);
  m["server.shed"] = static_cast<double>(o.shed);
  m["server.failed"] = static_cast<double>(o.failed);
  return o;
}

}  // namespace perfbench
