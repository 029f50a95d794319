// Helpers the workload files share (private to the benchmark).
#pragma once

#include <cstdio>
#include <exception>
#include <functional>
#include <stdexcept>
#include <vector>

#include "apps/video.hpp"
#include "harness.hpp"
#include "runtime/program.hpp"
#include "topo/topology.hpp"
#include "treematch/comm_matrix.hpp"
#include "treematch/treematch.hpp"

namespace perfbench {

/// What one set-up of a placed program produces.
struct PlacementSetup {
  orwl::topo::Topology host;
  orwl::tm::CommMatrix matrix{1};
  orwl::tm::Placement placement;
};

/// The timings of a run's set-ups; their medians are the metrics.
struct SetupTimes {
  std::vector<double> total, detect, matrix, place;
};

/// One set-up: detect the host, extract the communication matrix, run
/// Algorithm 1 — each timed (appended to `times`) and traced.
PlacementSetup setup_once(
    Tracer* tracer, const std::function<orwl::tm::CommMatrix()>& extract,
    SetupTimes& times);

/// setup_s and the topo/orwl/treematch per-layer metrics from `times`,
/// and the modeled cost of `s`'s matrix on the host and on smp20e7.
void add_placement_metrics(Outcome& o, const PlacementSetup& s,
                           const SetupTimes& times);

/// runtime.* per-layer metrics from a ProgramStats sum over `ops` runs.
void add_runtime_metrics(Outcome& o, const orwl::rt::ProgramStats& sum,
                         double ops);

/// The video reference check: per-frame detections and final track
/// positions equal to the sequential run's.
inline bool same_video_result(const orwl::apps::VideoResult& a,
                              const orwl::apps::VideoResult& b) {
  return a.detections_per_frame == b.detections_per_frame &&
         a.final_track_positions == b.final_track_positions;
}

/// The paper's one switch: AffinityMode::On, placed on `host`.
orwl::rt::ProgramOptions placed_options(const orwl::topo::Topology& host);

/// A run whose timed phase cannot reach its minimum sample count within
/// this budget fails instead of overrunning the 180 s run limit.
inline constexpr double kTimedBudgetSeconds = 120;

inline void check_budget(Clock::time_point start) {
  if (seconds_between(start, Clock::now()) > kTimedBudgetSeconds) {
    throw std::runtime_error("timed phase exceeded its budget before "
                             "reaching the minimum sample count");
  }
}

inline void report_failure(const std::exception& e) {
  std::fprintf(stderr, "perfbench: operation failed: %s\n", e.what());
}

}  // namespace perfbench
