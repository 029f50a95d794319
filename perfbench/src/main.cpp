// orwl_perfbench: one workload of the benchmark of record per run.
//
//   orwl_perfbench --workload lk23|video|serve|dist --seed N --seconds S
//                  --trace 0|1 [--trace-out FILE] [--commit SHA]
//
// Prints the run's context and every metric by name and unit, then, as
// the last line, {"correct", "attempted", "failed", "metrics"}. Exits 1
// when any result disagrees with its reference (the JSON line still
// shows what was counted) and 2 when the run cannot complete.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "orwl_perfbench: %s\nusage: orwl_perfbench --workload "
               "lk23|video|serve|dist --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--commit SHA] [--corrupt]\n",
               msg);
  std::exit(2);
}

Config parse(int argc, char** argv) {
  Config c;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        c.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        c.seed = std::stoull(value());
      } else if (a == "--seconds") {
        c.seconds = std::stod(value());
      } else if (a == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        c.trace = v == "1";
      } else if (a == "--trace-out") {
        c.trace_path = value();
      } else if (a == "--commit") {
        c.commit = value();
      } else if (a == "--corrupt") {
        c.corrupt = true;
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(c.seconds > 0 && c.seconds <= 120)) {
    usage("--seconds must be in (0, 120]");
  }
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const Config c = parse(argc, argv);
  Outcome (*run)(const Config&, Tracer*) = nullptr;
  if (c.workload == "lk23") run = run_lk23;
  if (c.workload == "video") run = run_video;
  if (c.workload == "serve") run = run_serve;
  if (c.workload == "dist") run = run_dist;
  if (run == nullptr) usage(("unknown workload " + c.workload).c_str());

  try {
    Tracer tracer;
    Outcome o = run(c, c.trace ? &tracer : nullptr);
    const std::map<std::string, std::string> ctx = run_context(c, o);
    const std::string line = result_json(c, o, tracer);
    for (const auto& [k, v] : ctx) {
      std::printf("# context %s: %s\n", k.c_str(), v.c_str());
    }
    std::printf("# attempted %llu %s; wrong %llu, shed %llu, failed %llu\n",
                static_cast<unsigned long long>(o.attempted), o.op_name,
                static_cast<unsigned long long>(o.wrong),
                static_cast<unsigned long long>(o.shed),
                static_cast<unsigned long long>(o.failed));
    // Every measured metric, both sets, by name and unit; the JSON line
    // carries the set this mode reports.
    for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()}) {
      for (const MetricDef& d : *defs) {
        const auto it = o.metrics.find(d.name);
        if (it == o.metrics.end()) continue;
        std::printf("# metric %-32s %16.6g %s\n", d.name.c_str(), it->second,
                    d.unit);
      }
    }
    if (c.trace && !c.trace_path.empty()) {
      tracer.write_chrome_json(c.trace_path, ctx);
      std::printf("# trace written to %s\n", c.trace_path.c_str());
    }
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return o.bad() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "orwl_perfbench: %s: %s\n", c.workload.c_str(),
                 e.what());
    return 2;
  }
}
