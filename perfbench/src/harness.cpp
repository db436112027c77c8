#include "harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

int worker_threads() {
  static const int threads = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
    return std::max(1, CPU_COUNT(&set));
  }();
  return threads;
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) problems_.push_back(what);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double self_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double proc_cpu_s(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const auto close = stat.rfind(')');
  if (close == std::string::npos) throw std::runtime_error("bad /proc stat");
  std::istringstream rest(stat.substr(close + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double peak_rss_mb(int pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM for pid " + std::to_string(pid));
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&previous_);
  sched_getaffinity(0, sizeof(previous_), &previous_);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &previous_)) cpus_.push_back(cpu);
  }
  if (cpus_.empty()) cpus_.push_back(0);
}

CpuRotation::~CpuRotation() {
  sched_setaffinity(0, sizeof(previous_), &previous_);
}

bool CpuRotation::next() {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[at_], &one);
  at_ = (at_ + 1) % cpus_.size();
  return sched_setaffinity(0, sizeof(one), &one) == 0;
}

void Timed::begin(double cpu_s) {
  first_op_ = last_ = Clock::now();
  last_cpu_s_ = cpu_s;
}

void Timed::round(std::uint64_t ops, double cpu_s) {
  const auto now = Clock::now();
  const double n = static_cast<double>(ops);
  rate_.push_back(n / (ms_between(last_, now) / 1000));
  cpu_ms_per_op_.push_back((cpu_s - last_cpu_s_) * 1000 / n);
  last_ = now;
  last_cpu_s_ = cpu_s;
  round_end_.push_back((round_end_.empty() ? 0 : round_end_.back()) + ops);
}

void Timed::restart(double cpu_s) {
  last_ = Clock::now();
  last_cpu_s_ = cpu_s;
}

void emit_end_to_end(const Options& opts, const Timed& timed,
                     Report& report) {
  report.metric("setup_s", ms_between(opts.t0, timed.first_op_) / 1000, "s");
  report.metric("ops_per_s", median(timed.rate_), "1/s");
  std::vector<double> p50, p90;
  std::size_t from = 0;
  for (std::size_t end : timed.round_end_) {
    end = std::min(end, timed.latency_ms.size());
    if (end < from + kWindowOps) continue;
    const std::vector<double> window(timed.latency_ms.begin() + static_cast<std::ptrdiff_t>(from),
                                     timed.latency_ms.begin() + static_cast<std::ptrdiff_t>(end));
    p50.push_back(quantile(window, 0.5));
    p90.push_back(quantile(window, 0.9));
    from = end;
  }
  report.metric("op_p50_ms", median(p50), "ms");
  report.metric("op_p90_ms", median(p90), "ms");
  report.metric("cpu_ms_per_op", median(timed.cpu_ms_per_op_), "ms");
  report.metric("peak_rss_mb", timed.rss_mb, "MB");
}

int Spans::add(std::string name, Clock::time_point start,
               Clock::time_point end, int parent, std::uint64_t request) {
  spans_.push_back({std::move(name), start, end, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

int Spans::open(std::string name, int parent, std::uint64_t request) {
  const auto now = Clock::now();
  return add(std::move(name), now, now, parent, request);
}

void Spans::close(int id) {
  spans_[static_cast<std::size_t>(id)].end = Clock::now();
}

std::vector<double> Spans::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(ms_between(s.start, s.end));
  }
  return out;
}

double Spans::self_ms(int id, const std::vector<int>& children) const {
  const Span& span = spans_[static_cast<std::size_t>(id)];
  // Union of the children's intervals, clipped to the span.
  std::vector<std::pair<Clock::time_point, Clock::time_point>> kids;
  for (const int c : children) {
    const Span& s = spans_[static_cast<std::size_t>(c)];
    kids.emplace_back(std::max(s.start, span.start), std::min(s.end, span.end));
  }
  std::sort(kids.begin(), kids.end());
  double covered = 0;
  Clock::time_point reach = span.start;
  for (const auto& [start, end] : kids) {
    const auto from = std::max(start, reach);
    if (end > from) {
      covered += ms_between(from, end);
      reach = end;
    }
  }
  return ms_between(span.start, span.end) - covered;
}

std::vector<double> Spans::self_ms_of(const std::string& name) const {
  std::vector<std::vector<int>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const int parent = spans_[i].parent;
    if (parent >= 0) {
      children[static_cast<std::size_t>(parent)].push_back(static_cast<int>(i));
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      out.push_back(self_ms(static_cast<int>(i), children[i]));
    }
  }
  return out;
}

void Spans::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  const auto ns = [](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << ns(s.start) << ",\"end_ns\":" << ns(s.end)
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << "}\n";
  }
}

std::uint64_t InputRng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
