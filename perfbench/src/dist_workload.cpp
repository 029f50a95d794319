// Distributed workload: one process serves a home dist::Registry over the
// shm transport; a remote client thread streams seeded variable-length
// frames (8 B - 64 KiB) through one exported slot into a home-side
// consumer thread, a depth-1 pipeline like examples/dist_bytes_pipeline.
// Without it the dist layer (proxy tickets, the per-export granter, the
// wire) goes unmeasured.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>

#include "dist/registry.hpp"
#include "dist/remote.hpp"
#include "dist/shm_transport.hpp"
#include "harness.hpp"
#include "runtime/handle.hpp"
#include "runtime/location.hpp"
#include "support/rng.hpp"
#include "topo/detect.hpp"
#include "workload_util.hpp"

namespace perfbench {

using namespace orwl;

namespace {

constexpr std::size_t kMaxFrame = 64 * 1024;
constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

/// The exported location: a one-frame slot plus the consumer's running
/// digest. produced == consumed means the slot is free; `stop` set on a
/// free slot ends the stream.
struct FrameSlot {
  std::uint64_t produced;
  std::uint64_t consumed;
  std::uint64_t stop;
  std::uint64_t fnv;
  std::uint32_t len;
  std::byte payload[kMaxFrame];
};

/// Frame `idx` of the stream of `seed`: log-uniform length in
/// [8, 65536] bytes, so small control-sized and bulk frames both occur.
std::uint32_t fill_frame(std::uint64_t seed, std::uint64_t idx,
                         std::byte* out) {
  support::SplitMix64 rng(seed * 0x9e3779b97f4a7c15ull + idx);
  const double len = std::floor(8.0 * std::exp2(rng.uniform() * 13.0));
  const auto n = static_cast<std::uint32_t>(
      std::clamp(len, 8.0, static_cast<double>(kMaxFrame)));
  for (std::uint32_t off = 0; off < n; off += 8) {
    const std::uint64_t word = rng();
    std::memcpy(out + off, &word, std::min<std::uint32_t>(8, n - off));
  }
  return n;
}

std::uint64_t fnv_fold(std::uint64_t h, const std::byte* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<std::uint8_t>(p[i]);
    h *= 1099511628211ull;
  }
  return h;
}

/// The leading fields of a FrameSlot, read without a lock once the
/// pipeline's threads have been joined.
struct SlotHeader {
  std::uint64_t produced;
  std::uint64_t consumed;
  std::uint64_t stop;
  std::uint64_t fnv;
};

static_assert(offsetof(FrameSlot, fnv) == offsetof(SlotHeader, fnv),
              "SlotHeader must mirror the leading fields of FrameSlot");

SlotHeader header_of(const rt::Location& loc) {
  SlotHeader h;
  std::memcpy(&h, loc.data(), sizeof h);
  return h;
}

void init_slot(rt::Location& loc) {
  loc.scale(sizeof(FrameSlot));
  std::memset(loc.data(), 0, sizeof(FrameSlot));
  const SlotHeader h{0, 0, 0, kFnvBasis};
  std::memcpy(loc.data(), &h, sizeof h);
}

/// Per-cycle timings a side of the pipeline collects.
struct CycleLog {
  std::vector<double> cycle_s, acquire_s, release_s;
  std::vector<double> traced_cycle_s, untraced_cycle_s;
};

/// Producer: one write cycle per iteration; deposits frame produced+1 when
/// the slot is free, and sets `stop` once `finished(frames)` holds.
/// Returns early when `abort` is raised (the consumer died). `log` (null
/// for the reference run) receives the per-cycle timings; `tracer` is
/// null for an untraced stream.
void produce(rt::Location& loc, std::uint64_t seed,
             const std::function<bool(std::uint64_t)>& finished,
             const std::atomic<bool>& abort, Tracer* tracer, CycleLog* log) {
  std::uint64_t next = 1;
  for (std::uint64_t cyc = 0; !abort.load(std::memory_order_relaxed); ++cyc) {
    const bool finishing = finished(next - 1);
    Tracer* t = op_tracer(tracer, cyc);
    const std::uint64_t rid = cyc + 1;
    bool done = false;
    // A cycle runs from t0 to t3, its spans' bookkeeping included.
    const Clock::time_point t0 = Clock::now();
    Clock::time_point t1, t2;
    {
      Span root(t, "dist.write_cycle", 0, rid);
      rt::Handle h;
      {
        Span sp(t, "dist.remote_acquire", root.id(), rid);
        h.insert_standalone(loc, rt::AccessMode::Write);
        h.acquire();
        t1 = Clock::now();
      }
      {
        Span sp(t, "bench.fill_frame", root.id(), rid);
        FrameSlot* s = h.write_map_as<FrameSlot>();
        if (s->produced == s->consumed) {
          if (finishing) {
            s->stop = 1;
            done = true;
          } else {
            s->len = fill_frame(seed, next, s->payload);
            s->produced = next++;
          }
        }
        t2 = Clock::now();
      }
      Span sp(t, "dist.remote_release", root.id(), rid);
      h.release();
    }
    const Clock::time_point t3 = Clock::now();
    if (log != nullptr) {
      log->cycle_s.push_back(seconds_between(t0, t3));
      log->acquire_s.push_back(seconds_between(t0, t1));
      log->release_s.push_back(seconds_between(t2, t3));
      if (tracer != nullptr) {
        (t != nullptr ? log->traced_cycle_s : log->untraced_cycle_s)
            .push_back(seconds_between(t0, t3));
      }
    }
    if (done) return;
  }
}

/// Consumer: folds each new frame into the in-slot digest; returns when
/// the producer has stopped and the slot is drained. `fold_at[k]` is the
/// time frame k+1 was folded; both it and `log` may be null.
void consume(rt::Location& loc, Tracer* tracer, CycleLog* log,
             std::vector<Clock::time_point>* fold_at) {
  for (std::uint64_t cyc = 0;; ++cyc) {
    Tracer* t = op_tracer(tracer, cyc);
    // Home-side cycles get their own request-id range.
    const std::uint64_t rid = (std::uint64_t{1} << 40) + cyc;
    Span root(t, "bench.consume_cycle", 0, rid);
    const Clock::time_point t0 = Clock::now();
    rt::Handle h;
    {
      Span sp(t, "runtime.home_acquire", root.id(), rid);
      h.insert_standalone(loc, rt::AccessMode::Write);
      h.acquire();
    }
    const Clock::time_point t1 = Clock::now();
    bool folded = false, finished = false;
    {
      Span sp(t, "bench.fold_frame", root.id(), rid);
      FrameSlot* s = h.write_map_as<FrameSlot>();
      if (s->produced == s->consumed + 1) {
        s->fnv = fnv_fold(s->fnv, s->payload, s->len);
        s->consumed = s->produced;
        folded = true;
        if (fold_at != nullptr) fold_at->push_back(Clock::now());
      } else if (s->stop != 0 && s->produced == s->consumed) {
        finished = true;
      }
    }
    {
      Span sp(t, "runtime.home_release", root.id(), rid);
      h.release();
    }
    // Only cycles that received a frame are logged: a stalled producer
    // multiplies the consumer's empty cycles, and a log that grew with
    // them would make peak_rss_mb measure the stall.
    if (log != nullptr && folded) {
      log->acquire_s.push_back(seconds_between(t0, t1));
    }
    if (finished) return;
  }
}

std::string shm_base(int k) {
  return "orwl-perfbench-" + std::to_string(getpid()) + "-" +
         std::to_string(k);
}

}  // namespace

Outcome run_dist(const Config& c, Tracer* tracer) {
  Outcome o;
  o.op_name = "hand-offs";
  // A batch of frames is the "solve" of a stream: enough batches that
  // p90 has 10 beyond it.
  constexpr std::uint64_t batch = 32;
  const std::uint64_t min_frames = batch * (min_samples_for(0.9) + 1);

  std::vector<double> detect;
  for (int rep = 0; rep <= kSetupReps; ++rep) {
    Span sp(tracer, "topo.detect_host");
    const Clock::time_point a = Clock::now();
    (void)topo::detect_host();
    if (rep > 0) detect.push_back(seconds_between(a, Clock::now()));
  }

  // Set-up: serve a registry over shm, connect a client, attach the slot.
  // Fewer repetitions than the other workloads: each teardown (not timed)
  // takes ~0.2 s of transport shutdown.
  constexpr int kDistSetupReps = 15;
  std::vector<double> setup_s, connect_s;
  for (int rep = 0; rep <= kDistSetupReps; ++rep) {
    rt::Location loc{0, 0, 0};
    init_slot(loc);
    dist::Registry reg;
    Span root(tracer, "bench.setup");
    const Clock::time_point a = Clock::now();
    {
      Span sp(tracer, "dist.serve", root.id());
      reg.export_location("frames", &loc);
      reg.serve(std::make_unique<dist::ShmServerTransport>(shm_base(rep + 1)));
    }
    const Clock::time_point b = Clock::now();
    std::unique_ptr<dist::Client> client;
    {
      Span sp(tracer, "dist.connect_attach", root.id());
      client = dist::Client::connect("orwl+shm://" + reg.address() + "/");
      client->attach("frames");
    }
    const Clock::time_point e = Clock::now();
    if (rep > 0) {
      setup_s.push_back(seconds_between(a, e));
      connect_s.push_back(seconds_between(b, e));
    }
    client->close();
    reg.stop();
  }

  // The measured stream.
  rt::Location home{0, 0, 0};
  init_slot(home);
  dist::Registry reg;
  reg.export_location("frames", &home);
  reg.serve(std::make_unique<dist::ShmServerTransport>(shm_base(0)));
  std::unique_ptr<dist::Client> client =
      dist::Client::connect("orwl+shm://" + reg.address() + "/");
  rt::Location& remote = client->attach("frames");

  // Reserved up front, so the logs' growth does not make peak_rss_mb
  // depend on how many cycles a run happened to fit.
  const auto expected =
      static_cast<std::size_t>(c.seconds * 20000) + min_frames;
  CycleLog prod, cons;
  for (std::vector<double>* v : {&prod.cycle_s, &prod.acquire_s,
                                 &prod.release_s, &cons.acquire_s}) {
    v->reserve(expected);
  }
  std::vector<Clock::time_point> fold_at;
  fold_at.reserve(expected);
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(c.seconds));
  std::exception_ptr prod_error, cons_error;
  std::atomic<bool> consumer_dead{false};
  std::thread producer([&] {
    try {
      produce(remote, c.seed,
              [&](std::uint64_t frames) {
                return (frames >= min_frames && Clock::now() >= deadline) ||
                       seconds_between(start, Clock::now()) >
                           kTimedBudgetSeconds;
              },
              consumer_dead, tracer, &prod);
    } catch (...) {
      prod_error = std::current_exception();
      // Unblock the consumer: a dead producer never sets `stop`.
      rt::Handle h;
      h.insert_standalone(home, rt::AccessMode::Write);
      h.acquire();
      FrameSlot* s = h.write_map_as<FrameSlot>();
      s->stop = 1;
      s->produced = s->consumed;
      h.release();
    }
  });
  std::thread consumer([&] {
    try {
      consume(home, tracer, &cons, &fold_at);
    } catch (...) {
      cons_error = std::current_exception();
      consumer_dead.store(true);
    }
  });
  producer.join();
  consumer.join();
  if (cons_error) std::rethrow_exception(cons_error);
  const double cpu_s = process_cpu_seconds() - cpu0;
  o.metrics["peak_rss_mb"] = peak_rss_mb();
  const dist::Registry::Stats rs = reg.stats();
  client->close();
  reg.stop();

  const SlotHeader got = header_of(home);
  const std::uint64_t frames = got.consumed;
  o.attempted = std::max<std::uint64_t>(frames, 1);
  if (prod_error) {
    o.failed = 1;
    try {
      std::rethrow_exception(prod_error);
    } catch (const std::exception& e) {
      report_failure(e);
    }
  }
  if (frames < min_frames) {
    throw std::runtime_error("dist: stream delivered too few frames");
  }

  // Reference: the same frames through the same code, intra-process.
  std::uint64_t want_fnv = 0;
  {
    Span sp(tracer, "bench.intra_reference");
    rt::Location loc{0, 0, 0};
    init_slot(loc);
    const std::atomic<bool> never{false};
    std::thread p([&] {
      produce(loc, c.seed, [&](std::uint64_t f) { return f >= frames; },
              never, nullptr, nullptr);
    });
    consume(loc, nullptr, nullptr, nullptr);
    p.join();
    want_fnv = header_of(loc).fnv;
  }
  std::uint64_t got_fnv = got.fnv;
  if (c.corrupt) got_fnv ^= 1;
  if (got_fnv != want_fnv) o.wrong = 1;

  std::vector<double> batch_s;
  for (std::size_t k = batch; k < fold_at.size(); k += batch) {
    batch_s.push_back(seconds_between(fold_at[k - batch], fold_at[k]));
  }
  if (tracer != nullptr) {
    o.traced_op_s = prod.traced_cycle_s;
    o.untraced_op_s = prod.untraced_cycle_s;
  }

  auto& m = o.metrics;
  const double f = static_cast<double>(frames);
  m["setup_s"] = median(setup_s);
  m["solve_s_p50"] = run_percentile(batch_s, 0.5, "solve_s_p50");
  m["solve_s_p90"] = run_percentile(batch_s, 0.9, "solve_s_p90");
  m["latency_ms_p50"] =
      run_percentile(prod.cycle_s, 0.5, "latency_ms_p50") * 1e3;
  m["tail.latency_ms_p99"] =
      run_percentile(prod.cycle_s, 0.99, "tail.latency_ms_p99") * 1e3;
  // Remote write cycles per second, and frames per second, at the typical
  // (median) cycle and batch. A whole-window mean rate counts every host
  // stall of a waiting thread: on the 4-vCPU VM, mean rates spread 36%
  // between runs where the medians held.
  m["saturation_rps"] = 1e3 / m["latency_ms_p50"];
  m["handoffs_per_s"] = static_cast<double>(batch) / m["solve_s_p50"];
  m["cpu_ms_per_op"] = cpu_s * 1e3 / f;

  m["topo.detect_ms"] = median(detect) * 1e3;
  m["dist.connect_ms"] = median(connect_s) * 1e3;
  m["dist.acquire_us_p50"] =
      run_percentile(prod.acquire_s, 0.5, "dist.acquire_us_p50") * 1e6;
  m["dist.acquire_us_p99"] =
      run_percentile(prod.acquire_s, 0.99, "dist.acquire_us_p99") *
      1e6;
  m["dist.release_us_p50"] =
      run_percentile(prod.release_s, 0.5, "dist.release_us_p50") * 1e6;
  m["dist.home_acquire_us_p50"] =
      run_percentile(cons.acquire_s, 0.5, "dist.home_acquire_us_p50") *
      1e6;
  m["dist.proxy_requests"] = static_cast<double>(rs.proxy_requests) / f;
  m["dist.grants_sent"] = static_cast<double>(rs.grants_sent) / f;
  m["dist.releases"] = static_cast<double>(rs.releases) / f;
  m["dist.orphans_reclaimed"] = static_cast<double>(rs.orphans_reclaimed);
  return o;
}

}  // namespace perfbench
