// Shared pieces of the perfbench binary: options, the result report,
// end-to-end metric collection and the in-memory span recorder.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Worker threads of the in-process workloads and of sweep_serve: load
/// comes from one process using at most nproc threads.
int worker_threads();

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  Clock::time_point t0;   ///< process start, for setup_s
  std::string serve_bin;  ///< path of the sweep_serve binary
  std::string out_dir;    ///< where traced runs write their spans
};

/// Everything a run prints: operation counts, check failures and metrics.
class Report {
 public:
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Records a failed output check (the run's `correct` becomes false).
  void check(bool ok, const std::string& what);
  bool correct() const { return problems_.empty(); }
  const std::vector<std::string>& problems() const { return problems_; }

  void metric(const std::string& name, double value, const std::string& unit);
  const std::map<std::string, std::pair<double, std::string>>& metrics()
      const {
    return metrics_;
  }

 private:
  std::vector<std::string> problems_;
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// Linear-interpolated quantile q in [0, 1] of `values` (copied, sorted).
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);

/// User plus system CPU seconds of this process.
double self_cpu_s();
/// User plus system CPU seconds of process `pid` (from /proc).
double proc_cpu_s(int pid);
/// Peak resident set size (VmHWM) of process `pid` (0 = self), in MB.
double peak_rss_mb(int pid = 0);

/// Moves the calling thread, and the threads it starts afterwards, from
/// CPU to CPU of the process's affinity mask, one CPU per next(), and
/// restores the mask on destruction. The single-threaded workloads pin
/// each round to the next CPU so that a run's rounds sample every CPU:
/// on a shared host one vCPU can run 1.5x slower than the others for
/// seconds at a time, and a thread the scheduler leaves there would
/// carry that into every round of the run, medians included.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins to the next CPU; false if that failed.
  bool next();
  int size() const { return static_cast<int>(cpus_.size()); }

 private:
  cpu_set_t previous_;
  std::vector<int> cpus_;
  std::size_t at_ = 0;
};

/// The timed phase of a run, from which the six end-to-end metrics are
/// computed. Every run repeats whole rounds of the same operations.
/// Throughput and CPU per operation are medians over rounds, and the
/// latency percentiles medians over windows of whole rounds holding at
/// least kWindowOps operations, so that a burst of load from outside the
/// process moves a few rounds and not the run's figure.
class Timed {
 public:
  /// Ends set-up: the first timed operation is about to be issued. `cpu_s` is
  /// the working process's CPU time now.
  void begin(double cpu_s);
  /// Ends one round of `ops` operations.
  void round(std::uint64_t ops, double cpu_s);
  /// Starts the next round now: the time since the last round (output
  /// checks, moving to another CPU) counts in no round.
  void restart(double cpu_s);
  double elapsed_s() const { return ms_between(first_op_, Clock::now()) / 1000; }

  std::vector<double> latency_ms;  ///< one entry per completed operation
  double rss_mb = 0;               ///< peak RSS of the working process

 private:
  friend void emit_end_to_end(const Options&, const Timed&, Report&);
  Clock::time_point first_op_;
  Clock::time_point last_;
  double last_cpu_s_ = 0;
  std::vector<double> rate_;            ///< ops per second, per round
  std::vector<double> cpu_ms_per_op_;   ///< per round
  std::vector<std::size_t> round_end_;  ///< operations up to each round's end
};

inline constexpr std::size_t kWindowOps = 20;

void emit_end_to_end(const Options& opts, const Timed& timed, Report& report);

/// Spans of a traced run: kept in memory, written out when the run ends.
/// Single-threaded: workloads record spans from their driving thread.
class Spans {
 public:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
    std::uint64_t request = 0;
  };

  /// Adds a finished span and returns its id.
  int add(std::string name, Clock::time_point start, Clock::time_point end,
          int parent = -1, std::uint64_t request = 0);
  /// Opens a span ending at close(); returns its id.
  int open(std::string name, int parent = -1, std::uint64_t request = 0);
  void close(int id);

  /// Durations of every span named `name`, in ms.
  std::vector<double> durations_ms(const std::string& name) const;
  /// Self time of every span named `name`, in ms: its duration minus
  /// the time its direct children cover.
  std::vector<double> self_ms_of(const std::string& name) const;

  void write_jsonl(const std::string& path) const;

 private:
  double self_ms(int id, const std::vector<int>& children) const;

  std::vector<Span> spans_;
};

/// RAII span; a null recorder makes it a no-op (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Spans* spans, std::string name, int parent = -1,
             std::uint64_t request = 0)
      : spans_(spans),
        id_(spans ? spans->open(std::move(name), parent, request) : -1) {}
  ~ScopedSpan() {
    if (spans_) spans_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Spans* spans_;
  int id_;
};

/// Seeded input generation shared by the workloads: a SplitMix64 stream,
/// independent of the repository's own Rng so that inputs never change
/// when the program's generator does.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

/// One workload's entry point. `seconds` is its measuring time; `spans`
/// is null for an untraced run (which emits the end-to-end metrics) and
/// set for a traced one (which emits the workload's per-layer metrics).
using Workload = void (*)(const Options& opts, double seconds, Report& report,
                          Spans* spans);

void serve_sweep(const Options& opts, double seconds, Report& report,
                 Spans* spans);
void exhaustive_check(const Options& opts, double seconds, Report& report,
                      Spans* spans);
void shm_explore(const Options& opts, double seconds, Report& report,
                 Spans* spans);
void msgpass_abd(const Options& opts, double seconds, Report& report,
                 Spans* spans);

/// Every run issues at least this many operations, so that the 90th
/// percentile has ten samples beyond it.
inline constexpr std::uint64_t kMinOps = 100;

}  // namespace perfbench
