// perfbench: the reproduction's benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: fig6_staggered, fig10_manyflow_mlp, train_td3, serve_closed_loop.
// A plain run (--trace 0) measures the end-to-end metrics with nothing
// instrumented; a traced run (--trace 1) measures the per-layer breakdown.
// Every figure is printed by name with unit, direction and sample count,
// beside the host record; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"} with every figure of the run
// (run.py narrows it to the metrics BENCHMARK.json declares for the mode).
// Exits 1 when an output check fails, 2 on bad arguments.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/report.h"

namespace perfbench {
namespace {

// The workload-level figures of the reproduction, printed for every
// workload (n/a where the workload has none). Only those every workload
// measures can be gated end-to-end metrics in BENCHMARK.json.
constexpr const char* kReported[] = {
    "setup_s",     "peak_rss_mb",     "failed_ratio",    "sim_s_per_s",
    "jain",        "utilization",     "mean_rtt_ms",     "loss_pct",
    "env_steps_per_s", "decisions_per_s", "decision_p50_us", "decision_p99_us"};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<fig6_staggered|fig10_manyflow_mlp|train_td3|serve_closed_loop> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               error.c_str());
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') {
        Usage("--seed must be a non-negative integer");
      }
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options.seconds > 0.0 && options.seconds <= 600.0)) {
        Usage("--seconds must be in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        Usage("--trace must be 0 or 1");
      }
      options.trace = value == "1";
    } else {
      Usage("unknown flag " + flag);
    }
  }
  return options;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

const Metric* Find(const Result& r, const std::string& name) {
  for (const Metric& m : r.metrics) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

void PrintMetric(const Metric& m) {
  std::printf("metric %-28s %.6g %s (%s is better, n=%llu)\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.better.c_str(), static_cast<unsigned long long>(m.samples));
}

// Address-space cap: a runaway allocation (train_td3 on most seeds today, see
// perfbench/README.md) fails this process with bad_alloc instead of
// exhausting the host's memory.
constexpr rlim_t kAddressSpaceLimit = rlim_t{4} << 30;

int Main(int argc, char** argv) {
  const Options options = ParseOptions(argc, argv);
// ASan and TSan reserve terabytes of address space for their shadow memory.
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  const rlimit cap{kAddressSpaceLimit, kAddressSpaceLimit};
  setrlimit(RLIMIT_AS, &cap);
#endif
  std::function<Result(const Options&)> run;
  if (options.workload == "fig6_staggered") {
    run = RunFig6Staggered;
  } else if (options.workload == "fig10_manyflow_mlp") {
    run = RunFig10ManyflowMlp;
  } else if (options.workload == "train_td3") {
    run = RunTrainTd3;
  } else if (options.workload == "serve_closed_loop") {
    run = RunServeClosedLoop;
  } else {
    Usage("unknown workload '" + options.workload + "'");
  }

  Result r;
  try {
    r = run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(), e.what());
    return 1;
  }

  std::printf("host cores=%u cpu=\"%s\" compiler=\"GCC %s\" build=\"%s\"\n",
              std::thread::hardware_concurrency(), CpuModel().c_str(), __VERSION__,
              PERFBENCH_BUILD_TYPE);
  std::printf("run workload=%s seed=%llu seconds=%g trace=%d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  if (options.trace) {
    for (const Metric& m : r.metrics) {
      PrintMetric(m);
    }
  } else {
    for (const char* name : kReported) {
      if (std::strcmp(name, "failed_ratio") == 0) {
        PrintMetric({name, "failed/attempted", "lower",
                     r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 0.0,
                     r.attempted});
      } else if (const Metric* m = Find(r, name)) {
        PrintMetric(*m);
      } else {
        std::printf("metric %-28s n/a (not exercised by %s)\n", name, options.workload.c_str());
      }
    }
  }
  for (const std::string& note : r.notes) {
    std::printf("%s\n", note.c_str());
  }
  std::string json;
  for (const Metric& m : r.metrics) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    json += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              r.failed == 0 ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), json.c_str());
  return r.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
