// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --serve-bin PATH --out-dir DIR [--t0-ns NS]
//
// Runs one workload for S seconds from inputs generated from the seed,
// checks the program's outputs, and prints as its last line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the six end-to-end metrics of the workload. A traced run
// records spans around the calls into each layer and reports every
// per-layer metric: the named workload gets half of the time and the
// other three share the rest, so every layer's numbers are present.
// The line before the result gives the build type and thread counts.
#include <signal.h>
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "harness.h"

namespace {

using namespace perfbench;

const std::pair<const char*, Workload> kWorkloads[] = {
    {"serve_sweep", serve_sweep},
    {"exhaustive_check", exhaustive_check},
    {"shm_explore", shm_explore},
    {"msgpass_abd", msgpass_abd},
};

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload serve_sweep|exhaustive_check|"
               "shm_explore|msgpass_abd --seed N --seconds S --trace 0|1 "
               "--serve-bin PATH --out-dir DIR [--t0-ns NS]\n";
  return 2;
}

bool is_end_to_end(const std::string& name) {
  for (const char* e2e : {"setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms",
                          "cpu_ms_per_op", "peak_rss_mb"}) {
    if (name == e2e) return true;
  }
  return false;
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const auto started = Clock::now();
  signal(SIGPIPE, SIG_IGN);
  Options opts;
  opts.t0 = started;
  std::string trace_flag;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        opts.workload = value;
      } else if (key == "--seed") {
        opts.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (key == "--trace") {
        trace_flag = value;
      } else if (key == "--serve-bin") {
        opts.serve_bin = value;
      } else if (key == "--out-dir") {
        opts.out_dir = value;
      } else if (key == "--t0-ns") {
        opts.t0 = Clock::time_point(std::chrono::nanoseconds(std::stoll(value)));
      } else {
        return usage("unknown argument " + key);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + key);
    }
  }
  if (argc % 2 == 0) return usage("arguments come in pairs");
  if (trace_flag != "0" && trace_flag != "1") return usage("--trace is 0 or 1");
  opts.trace = trace_flag == "1";
  if (!have_seed || !(opts.seconds > 0)) return usage("--seed and --seconds are required");
  if (opts.serve_bin.empty() || opts.out_dir.empty()) {
    return usage("--serve-bin and --out-dir are required");
  }
  std::size_t primary = std::size(kWorkloads);
  for (std::size_t w = 0; w < std::size(kWorkloads); ++w) {
    if (opts.workload == kWorkloads[w].first) primary = w;
  }
  if (primary == std::size(kWorkloads)) return usage("unknown workload " + opts.workload);

  Report report;
  Spans spans;
  try {
    if (!opts.trace) {
      kWorkloads[primary].second(opts, opts.seconds, report, nullptr);
    } else {
      // The named workload first (its set-up is then the process's own),
      // then the others, each with a share of the remaining time.
      const double others = opts.seconds / 2 / (std::size(kWorkloads) - 1);
      kWorkloads[primary].second(opts, opts.seconds / 2, report, &spans);
      for (std::size_t w = 0; w < std::size(kWorkloads); ++w) {
        if (w == primary) continue;
        Report other;
        kWorkloads[w].second(opts, others, other, &spans);
        report.attempted += other.attempted;
        report.failed += other.failed;
        for (const auto& problem : other.problems()) report.check(false, problem);
        for (const auto& [name, value] : other.metrics()) {
          if (!is_end_to_end(name)) report.metric(name, value.first, value.second);
        }
      }
      mkdir(opts.out_dir.c_str(), 0755);
      spans.write_jsonl(opts.out_dir + "/" + opts.workload + "-seed" +
                        std::to_string(opts.seed) + ".jsonl");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opts.workload << " failed: " << e.what() << "\n";
    return 1;
  }

  for (const auto& problem : report.problems()) {
    std::cerr << "perfbench: check failed: " << problem << "\n";
  }
  const int threads = worker_threads();
  std::cout << "{\"build_type\":\"" << PERFBENCH_BUILD_TYPE
            << "\",\"nproc\":" << threads
            << ",\"sweep_serve\":{\"workers\":" << std::max(1, threads / 2)
            << ",\"sweep_threads\":" << std::max(1, threads / std::max(1, threads / 2))
            << "},\"shard_threads\":" << threads
            << ",\"shm_explore_cpus\":1,\"msgpass_threads\":1}\n";
  // A traced run reports its per-layer metrics; the named workload's
  // end-to-end figures under tracing go to stderr, for the overhead.
  std::cout << "{\"correct\": " << (report.correct() ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, value] : report.metrics()) {
    if (opts.trace && is_end_to_end(name)) {
      std::cerr << "perfbench: traced " << name << " = " << number(value.first)
                << " " << value.second << "\n";
      continue;
    }
    std::cout << sep << "\"" << name << "\": {\"value\": " << number(value.first)
              << ", \"unit\": \"" << value.second << "\"}";
    sep = ", ";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
