// Unit tests of the benchmark harness: the percentile rule, whole-run and
// best-window percentiles and the span tracer's self-time arithmetic. That
// a corrupted result is caught and counted is tested end to end through
// the command (tests/test_perfbench.py).
//
//   perfbench_unit            # all tests; exits non-zero on a failure
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void test_percentile_needs_ten_beyond() {
  expect(!percentile(ramp(19), 0.5), "p50 of 19 samples has 9 beyond");
  expect(percentile(ramp(20), 0.5) == 10.0, "p50 of 1..20 is 10");
  expect(!percentile(ramp(99), 0.9), "p90 of 99 samples has 9 beyond");
  expect(percentile(ramp(100), 0.9) == 90.0, "p90 of 1..100 is 90");
  expect(!percentile(ramp(999), 0.99), "p99 of 999 samples has 9 beyond");
  expect(percentile(ramp(1000), 0.99) == 990.0, "p99 of 1..1000 is 990");
  expect(min_samples_for(0.5) == 20, "min_samples_for(0.5) == 20");
  expect(min_samples_for(0.9) == 100, "min_samples_for(0.9) == 100");
  expect(min_samples_for(0.99) == 1000, "min_samples_for(0.99) == 1000");
  expect(!percentile({}, 0.5), "empty sample has no percentile");
  expect(median({3, 1, 2}) == 2.0 && median({4, 1, 3, 2}) == 2.5,
         "median of odd and even samples");
}

bool throws(double (*fn)(const std::vector<double>&, double, const char*),
            const std::vector<double>& sample, double p) {
  try {
    fn(sample, p, "test");
  } catch (const std::runtime_error&) {
    return true;
  }
  return false;
}

void test_run_percentiles() {
  expect(throws(run_percentile, ramp(99), 0.9),
         "run_percentile throws below the p90 sample minimum");
  expect(throws(best_window_percentile, ramp(999), 0.99),
         "best_window_percentile throws without one full window");
  // Five windows of 100 samples; a burst of 20 slow samples lands in the
  // second. The whole run's p90 moves, the best window's does not.
  std::vector<double> run(500, 1.0);
  for (std::size_t i = 0; i < 500; ++i) {
    run[i] = 1.0 + 0.001 * static_cast<double>(i % 100);
  }
  for (std::size_t i = 120; i < 140; ++i) run[i] = 50.0;
  expect(run_percentile(run, 0.9, "p90") == *percentile(run, 0.9) &&
             run_percentile(run, 0.9, "p90") > 1.09,
         "run_percentile is the whole run's, burst included");
  expect(best_window_percentile(run, 0.9, "p90") < 1.1,
         "the best window's p90 ignores a burst in one window");
  // Too few samples for two windows: the plain percentile.
  expect(best_window_percentile(ramp(150), 0.9, "p90") ==
             *percentile(ramp(150), 0.9),
         "one window is the plain percentile");
}

void test_self_time_subtracts_children() {
  Tracer t;
  const Clock::time_point t0 = Clock::now();
  auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
  const Tracer::Id root = t.record("server.request", at(0), at(10), 0, 1);
  // Two overlapping children covering [2, 7]: 5 ms covered, 5 ms self.
  t.record("apps.solve", at(2), at(6), root, 1);
  t.record("bench.check", at(4), at(7), root, 1);
  // A set-up span (request id 0) is not an operation's time.
  t.record("topo.detect_host", at(0), at(100), 0, 0);
  const auto self = t.self_seconds_by_layer();
  auto near = [](double a, double b) { return a > b - 1e-9 && a < b + 1e-9; };
  expect(near(self.at("server"), 0.005), "server self time is 5 ms");
  expect(near(self.at("apps"), 0.004), "apps self time is 4 ms");
  expect(near(self.at("bench"), 0.003), "bench self time is 3 ms");
  expect(self.count("topo") == 0, "set-up spans carry no op self time");
}

}  // namespace

int main() {
  test_percentile_needs_ten_beyond();
  test_run_percentiles();
  test_self_time_subtracts_children();
  if (g_failures == 0) std::printf("perfbench_unit: all tests passed\n");
  return g_failures == 0 ? 0 : 1;
}
