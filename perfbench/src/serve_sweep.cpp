// serve_sweep: a closed loop over a pipe to sweep_serve.
//
// One client keeps a fixed window of jobs outstanding. Each round
// submits eight jobs: four fresh row-heavy sweeps, two resubmissions of
// sweeps (one still in flight, so usually a join; one from the previous
// round, so a hit), one replay of a freshly recorded trace and one small
// modelcheck. An operation is one job, timed from writing its request
// line to reading its `done` line.
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "agreement/flood_min.h"
#include "agreement/one_round_kset.h"
#include "checks.h"
#include "core/adversaries.h"
#include "core/engine.h"
#include "harness.h"
#include "serve/exec.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "sweep/sweep.h"
#include "trace/trace.h"

namespace perfbench {
namespace {

constexpr int kSweepN = 8;
constexpr int kSweepK = 2;
constexpr int kTrials = 10000;
constexpr int kJobsPerRound = 8;
/// Distinct replay traces and modelcheck pairs; a round uses entry
/// round % pool, so every replay and modelcheck in a run executes unless
/// the run completes more rounds than this.
constexpr int kPool = 512;
/// Peak RSS is read after this many whole rounds, at a drained point:
/// the result cache grows with every distinct job, so a later read would
/// grow with throughput instead of with memory per job.
constexpr int kRssRounds = 6;
constexpr int kSamplesPerSweep = 2;
const std::string kRev = "perfbench";

enum class Kind { kSweep, kReplay, kModelCheck };

struct Job {
  std::size_t index = 0;
  Kind kind = Kind::kSweep;
  std::string line;
  std::uint64_t seed = 0;                ///< sweeps
  const Job* original = nullptr;         ///< resubmissions
  bool warmup = false;                   ///< submitted during set-up
  std::vector<int> sample_trials;        ///< sweeps recomputed by the client
  std::uint64_t replay_digest = 0;       ///< decision digest at record time
  int mc_n = 0, mc_rounds = 0;           ///< modelchecks

  // Filled from the response stream.
  Clock::time_point submitted, accepted, first_result, done;
  bool has_accepted = false, has_result = false;
  std::string error;
  std::uint64_t rows = 0;
  std::uint64_t stream_fnv = kFnvOffset;
  std::uint64_t bytes = 0;
  std::vector<std::uint64_t> sample_digests;
  std::string first_row;
  std::string done_payload;
};

std::string json_string(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string submit_head(const std::string& id) {
  return R"({"schema":"rrfd-job-v1","op":"submit","client":"bench","id":")" +
         id + "\"";
}

std::string sweep_line(const std::string& id, std::uint64_t seed) {
  return submit_head(id) + R"(,"kind":"sweep","n":)" +
         std::to_string(kSweepN) + ",\"k\":" + std::to_string(kSweepK) +
         ",\"trials\":" + std::to_string(kTrials) +
         ",\"seed\":" + std::to_string(seed) + "}";
}

/// One recorded engine run, ready to be shipped as a replay job.
struct Recording {
  std::string protocol_fields;  ///< e.g. "protocol":"flood_min","f":1
  std::string trace_text;
  std::uint64_t digest = 0;
};

Recording record(int index, std::uint64_t seed) {
  using namespace rrfd;
  trace::CaptureRecorder capture;
  Recording rec;
  {
    trace::ScopedTrace attach(&capture);
    if (index % 2 == 0) {
      constexpr int n = 4, f = 1;
      std::vector<agreement::FloodMin> ps;
      for (int i = 0; i < n; ++i) ps.emplace_back(i * 3 + 1, f + 1);
      core::CrashAdversary adversary(n, f, seed);
      rec.digest = decisions_digest(core::run_rounds(ps, adversary).decisions);
      rec.protocol_fields = R"("protocol":"flood_min","f":1)";
    } else {
      constexpr int n = 5, k = 2;
      std::vector<agreement::OneRoundKSet> ps;
      for (int i = 0; i < n; ++i) ps.emplace_back(i + 1);
      core::KUncertaintyAdversary adversary(n, k, seed);
      rec.digest = decisions_digest(core::run_rounds(ps, adversary).decisions);
      rec.protocol_fields = R"("protocol":"kset","k":2)";
    }
  }
  trace::Trace recorded;
  recorded.schema = trace::kTraceSchema;
  recorded.git_rev = kRev;
  recorded.events = capture.events();
  std::ostringstream os;
  trace::write_trace(os, recorded);
  rec.trace_text = os.str();
  return rec;
}

/// Small compiled specs for the modelcheck jobs.
const char* const kSpecs[] = {
    "loss_cap(0)", "loss_cap(1)",  "loss_cap(2)",    "mobile(0)",
    "mobile(1)",   "mobile(2)",    "faulty(1)",      "faulty(2)",
    "kernel(1)",   "kernel(2)",    "self_delivery()", "no_partition()",
    "crash_only()", "link_budget(1)", "delay(1)",    "all(loss_cap(1),self_delivery())"};

/// The sweep_serve child process and the thread reading its responses.
class Child {
 public:
  Child(const std::string& bin, int workers, int sweep_threads) {
    int to_child[2], from_child[2];
    if (pipe2(to_child, O_CLOEXEC) != 0 || pipe2(from_child, O_CLOEXEC) != 0) {
      throw std::runtime_error("pipe failed");
    }
    const std::string w = std::to_string(workers);
    const std::string s = std::to_string(sweep_threads);
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      dup2(to_child[0], 0);
      dup2(from_child[1], 1);
      execl(bin.c_str(), bin.c_str(), "--workers", w.c_str(),
            "--sweep-threads", s.c_str(), "--rev", kRev.c_str(),
            static_cast<char*>(nullptr));
      _exit(127);
    }
    close(to_child[0]);
    close(from_child[1]);
    in_ = to_child[1];
    out_ = from_child[0];
    reader_ = std::thread([this] { read_loop(); });
  }

  ~Child() {
    close_input();
    if (reader_.joinable()) reader_.join();
    if (pid_ > 0) {
      int status = 0;
      waitpid(pid_, &status, 0);
    }
    close(out_);
  }

  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  int pid() const { return pid_; }

  Job& add(std::unique_ptr<Job> job) {
    std::lock_guard<std::mutex> lock(mu_);
    job->index = jobs_.size();
    jobs_.push_back(std::move(job));
    return *jobs_.back();
  }

  void submit(Job& job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++outstanding_;
      job.submitted = Clock::now();
    }
    write_line(job.line);
  }

  /// Blocks until fewer than `limit` jobs are outstanding.
  void wait_below(int limit) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return outstanding_ < limit || eof_; });
    if (eof_ && outstanding_ >= limit) {
      throw std::runtime_error("sweep_serve closed its output early");
    }
  }

  std::string stats() {
    write_line(R"({"schema":"rrfd-job-v1","op":"stats"})");
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !stats_.empty() || eof_; });
    std::string line;
    line.swap(stats_);
    return line;
  }

  void close_input() {
    if (in_ >= 0) {
      close(in_);
      in_ = -1;
    }
  }

  std::vector<std::unique_ptr<Job>>& jobs() { return jobs_; }
  std::uint64_t unexpected_lines() const { return unexpected_; }

 private:
  void write_line(const std::string& line) {
    std::string buf = line + "\n";
    std::size_t off = 0;
    while (off < buf.size()) {
      const ssize_t n = write(in_, buf.data() + off, buf.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("write to sweep_serve failed");
      off += static_cast<std::size_t>(n);
    }
  }

  void read_loop() {
    std::string pending;
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = read(out_, buf, sizeof buf);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      pending.append(buf, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (;;) {
        const std::size_t nl = pending.find('\n', start);
        if (nl == std::string::npos) break;
        on_line(std::string_view(pending).substr(start, nl - start));
        start = nl + 1;
      }
      pending.erase(0, start);
    }
    std::lock_guard<std::mutex> lock(mu_);
    eof_ = true;
    cv_.notify_all();
  }

  void on_line(std::string_view line) {
    const auto now = Clock::now();
    static constexpr std::string_view kHead =
        R"({"schema":"rrfd-job-v1","ev":")";
    static constexpr std::string_view kId = R"(","id":")";
    if (line.substr(0, kHead.size()) != kHead) {
      ++unexpected_;
      return;
    }
    const std::size_t ev_end = line.find('"', kHead.size());
    const std::string_view ev = line.substr(kHead.size(), ev_end - kHead.size());
    if (ev == "stats") {
      std::lock_guard<std::mutex> lock(mu_);
      stats_ = std::string(line);
      cv_.notify_all();
      return;
    }
    if (line.substr(ev_end, kId.size()) != kId || line.size() < 2 ||
        line[ev_end + kId.size()] != 'j') {
      ++unexpected_;
      return;
    }
    const std::size_t id_start = ev_end + kId.size() + 1;
    const std::size_t id_end = line.find('"', id_start);
    const std::size_t index =
        std::stoul(std::string(line.substr(id_start, id_end - id_start)));
    Job* job = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (index >= jobs_.size()) {
        ++unexpected_;
        return;
      }
      job = jobs_[index].get();
    }
    job->bytes += line.size() + 1;
    // Payload: between `",` after the id and the closing brace.
    const std::string_view payload =
        line.substr(id_end + 2, line.size() - id_end - 3);
    if (ev == "row") {
      if (!job->has_result) job->first_result = now;
      job->has_result = true;
      for (std::size_t s = 0; s < job->sample_trials.size(); ++s) {
        if (static_cast<std::uint64_t>(job->sample_trials[s]) == job->rows) {
          const auto at = payload.find("\"digest\":");
          job->sample_digests[s] =
              at == std::string_view::npos
                  ? 0
                  : std::stoull(std::string(payload.substr(at + 9)));
        }
      }
      if (job->rows == 0) job->first_row = std::string(payload);
      job->stream_fnv = fnv1a(job->stream_fnv, payload);
      job->stream_fnv = fnv1a(job->stream_fnv, "\n");
      ++job->rows;
      return;
    }
    if (ev == "accepted") {
      job->accepted = now;
      job->has_accepted = true;
      return;
    }
    // done, error or shed: terminal.
    if (!job->has_result) job->first_result = now;
    job->has_result = true;
    if (ev == "done") {
      job->done_payload = std::string(payload);
    } else {
      job->error = std::string(line);
    }
    std::lock_guard<std::mutex> lock(mu_);
    job->done = now;
    --outstanding_;
    cv_.notify_all();
  }

  int pid_ = -1;
  int in_ = -1;
  int out_ = -1;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Job>> jobs_;
  int outstanding_ = 0;
  bool eof_ = false;
  std::string stats_;
  std::uint64_t unexpected_ = 0;  // reader thread only
  std::thread reader_;
};

std::uint64_t field_u64(const std::string& text, const std::string& key) {
  const auto at = text.find("\"" + key + "\":");
  if (at == std::string::npos) return ~std::uint64_t{0};
  return std::stoull(text.substr(at + key.size() + 3));
}

bool has(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

/// The stream checks of one finished sweep job; false on any mismatch.
bool sweep_stream_ok(const Job& job) {
  return job.error.empty() && job.rows == kTrials &&
         field_u64(job.done_payload, "rows") == job.rows &&
         field_u64(job.done_payload, "stream_digest") == job.stream_fnv;
}

/// Recomputes one trial of a sweep from its counter-derived stream and
/// checks Thm 3.1 plus the row's digest.
bool trial_ok(std::uint64_t seed, int trial, std::uint64_t row_digest,
              std::string* why) {
  using namespace rrfd;
  Rng rng = Rng::stream(seed, static_cast<std::uint64_t>(trial));
  std::vector<agreement::OneRoundKSet> ps;
  std::vector<int> inputs;
  for (int i = 0; i < kSweepN; ++i) {
    ps.emplace_back(i + 1);
    inputs.push_back(i + 1);
  }
  core::KUncertaintyAdversary adversary(kSweepN, kSweepK, rng());
  const auto run = core::run_rounds(ps, adversary);
  *why = kset_violation(run.decisions, inputs, kSweepK);
  if (why->empty() && decisions_digest(run.decisions) != row_digest) {
    *why = "row digest differs from the recomputed trial";
  }
  return why->empty();
}

bool replay_ok(const Job& job) {
  return job.error.empty() && job.rows == 1 &&
         has(job.first_row, "\"byte_identical\":true") &&
         field_u64(job.first_row, "decision_digest") == job.replay_digest;
}

bool modelcheck_ok(const Job& job) {
  const std::uint64_t space =
      static_cast<std::uint64_t>(pattern_space(job.mc_n, job.mc_rounds));
  return job.error.empty() && job.rows == 2 &&
         has(job.first_row, "\"holds\":true") &&
         field_u64(job.first_row, "patterns") == space &&
         has(job.done_payload, "\"equivalent\":true");
}

bool resubmit_ok(const Job& job) {
  const Job& o = *job.original;
  return job.error.empty() && job.rows == o.rows &&
         job.stream_fnv == o.stream_fnv && job.done_payload == o.done_payload;
}

}  // namespace

void serve_sweep(const Options& opts, double seconds, Report& report,
                 Spans* spans) {
  const int threads = worker_threads();
  const int window = std::min(4, threads);
  const int workers = std::max(1, threads / 2);
  const int sweep_threads = std::max(1, threads / workers);

  // -- Set-up: inputs, recorded traces, the server answering `stats`. --
  InputRng rng(opts.seed);
  std::vector<Recording> recordings;
  for (int i = 0; i < kPool; ++i) recordings.push_back(record(i, rng.next()));
  const std::uint64_t sweep_base = rng.next();

  Child child(opts.serve_bin, workers, sweep_threads);
  report.check(!child.stats().empty(), "sweep_serve answers stats");

  const auto make = [&](Kind kind) -> Job& {
    auto job = std::make_unique<Job>();
    job->kind = kind;
    return child.add(std::move(job));
  };
  const auto fresh_sweep = [&]() -> Job& {
    Job& job = make(Kind::kSweep);
    job.seed = sweep_base + job.index;
    job.line = sweep_line("j" + std::to_string(job.index), job.seed);
    for (int s = 0; s < kSamplesPerSweep; ++s) {
      job.sample_trials.push_back(static_cast<int>(rng.below(kTrials)));
    }
    job.sample_digests.assign(job.sample_trials.size(), 0);
    return job;
  };

  // Set-up ends with a warm-up: one window of fresh sweeps, run to
  // completion before timing starts. They are checked like the others.
  for (int w = 0; w < window; ++w) {
    Job& job = fresh_sweep();
    job.warmup = true;
    child.submit(job);
  }
  child.wait_below(1);

  // A traced run splits its time between the pipe and in-process phases.
  const double pipe_seconds = spans ? seconds / 2 : seconds;
  Timed timed;
  timed.begin(proc_cpu_s(child.pid()));
  std::vector<Job*> by_round_c;  // each round's third fresh sweep
  int rounds = 0;
  for (;; ++rounds) {
    if (rounds == kRssRounds) {
      child.wait_below(1);
      timed.rss_mb = peak_rss_mb(child.pid());
    }
    if (timed.elapsed_s() >= pipe_seconds &&
        static_cast<std::uint64_t>(rounds * kJobsPerRound) >= kMinOps &&
        rounds >= kRssRounds) {
      break;
    }
    const auto resubmit = [&](const Job& original) -> Job& {
      Job& job = make(Kind::kSweep);
      job.seed = original.seed;
      job.original = &original;
      job.line = sweep_line("j" + std::to_string(job.index), job.seed);
      return job;
    };
    const auto replay = [&]() -> Job& {
      Job& job = make(Kind::kReplay);
      const Recording& rec = recordings[static_cast<std::size_t>(rounds % kPool)];
      job.replay_digest = rec.digest;
      job.line = submit_head("j" + std::to_string(job.index)) +
                 R"(,"kind":"replay",)" + rec.protocol_fields +
                 R"(,"trace":")" + json_string(rec.trace_text) + "\"}";
      return job;
    };
    const auto modelcheck = [&]() -> Job& {
      Job& job = make(Kind::kModelCheck);
      // Entry -> (spec, how each side repeats it in all(...), n, rounds):
      // kPool distinct cache keys, each an equivalence by definition.
      const int entry = rounds % kPool;
      const std::string spec = kSpecs[entry % 16];
      const std::string doubled = "all(" + spec + "," + spec + ")";
      const int form = (entry / 16) % 8;
      std::string side_b = form & 2 ? doubled : spec;
      if (form & 4) side_b = "all(" + side_b + "," + doubled + ")";
      job.mc_n = 2 + (entry / 128) % 2;
      job.mc_rounds = 1 + (entry / 256) % 2;
      job.line = submit_head("j" + std::to_string(job.index)) +
                 R"(,"kind":"modelcheck","spec_a":")" +
                 (form & 1 ? doubled : spec) + R"(","spec_b":")" +
                 side_b + R"(","n":)" +
                 std::to_string(job.mc_n) +
                 ",\"rounds\":" + std::to_string(job.mc_rounds) + "}";
      return job;
    };
    // Build the round before timing any of it, then submit in order.
    std::vector<Job*> round;
    Job& a = fresh_sweep();
    Job& b = fresh_sweep();
    round = {&a, &b, &resubmit(a), &fresh_sweep(), &replay()};
    round.push_back(&fresh_sweep());
    round.push_back(&resubmit(by_round_c.empty() ? b : *by_round_c.back()));
    round.push_back(&modelcheck());
    by_round_c.push_back(round[3]);
    for (Job* job : round) {
      child.wait_below(window);
      // A round lasts from its first submission to the next round's.
      if (job == round.front() && rounds > 0) {
        timed.round(kJobsPerRound, proc_cpu_s(child.pid()));
      }
      child.submit(*job);
    }
  }
  child.wait_below(1);
  timed.round(kJobsPerRound, proc_cpu_s(child.pid()));
  auto& jobs = child.jobs();
  const std::string stats = child.stats();
  child.close_input();

  // -- Output checks. --
  std::uint64_t accepted = 0;
  for (const auto& job : jobs) {
    ++report.attempted;
    if (!job->error.empty()) {
      ++report.failed;
      report.check(false, "job failed: " + job->error.substr(0, 300));
      continue;
    }
    if (!job->warmup) {
      timed.latency_ms.push_back(ms_between(job->submitted, job->done));
    }
    if (job->has_accepted) ++accepted;
    const std::string id = "job " + std::to_string(job->index);
    if (job->kind == Kind::kReplay) {
      report.check(replay_ok(*job), id + ": replay not byte-identical");
    } else if (job->kind == Kind::kModelCheck) {
      report.check(modelcheck_ok(*job), id + ": modelcheck result wrong");
    } else if (job->original) {
      report.check(resubmit_ok(*job), id + ": resubmission stream differs");
    } else {
      report.check(sweep_stream_ok(*job), id + ": sweep stream wrong");
      for (std::size_t s = 0; s < job->sample_trials.size(); ++s) {
        std::string why;
        report.check(trial_ok(job->seed, job->sample_trials[s],
                              job->sample_digests[s], &why),
                     id + " trial " + std::to_string(job->sample_trials[s]) +
                         ": " + why);
      }
    }
  }
  const std::uint64_t served = field_u64(stats, "cache_leads") +
                               field_u64(stats, "cache_joins") +
                               field_u64(stats, "cache_hits");
  report.check(served == accepted,
               "stats leads+joins+hits != accepted submissions");
  report.check(child.unexpected_lines() == 0, "unparseable response lines");

  // Negative controls: each check must reject a corrupted copy of this
  // run's own data.
  {
    const Job* sweep = nullptr;
    const Job* re = nullptr;
    const Job* rp = nullptr;
    const Job* mc = nullptr;
    for (const auto& job : jobs) {
      if (job->kind == Kind::kReplay) rp = job.get();
      if (job->kind == Kind::kModelCheck) mc = job.get();
      if (job->kind == Kind::kSweep && job->original) re = job.get();
      if (job->kind == Kind::kSweep && !job->original) sweep = job.get();
    }
    Job bad = *sweep;
    bad.stream_fnv ^= 1;
    report.check(!sweep_stream_ok(bad), "control: stream digest check");
    bad = *sweep;
    --bad.rows;
    report.check(!sweep_stream_ok(bad), "control: row count check");
    std::string why;
    report.check(!trial_ok(sweep->seed, sweep->sample_trials[0],
                           sweep->sample_digests[0] ^ 1, &why),
                 "control: trial digest check");
    std::vector<std::optional<int>> three{1, 2, 3, 1, 1, 1, 1, 1};
    report.check(!kset_violation(three, {1, 2, 3, 4, 5, 6, 7, 8}, 2).empty(),
                 "control: k-agreement check");
    std::vector<std::optional<int>> invalid{9, 1, 1, 1, 1, 1, 1, 1};
    report.check(!kset_violation(invalid, {1, 2, 3, 4, 5, 6, 7, 8}, 2).empty(),
                 "control: validity check");
    bad = *re;
    bad.done_payload += " ";
    report.check(!resubmit_ok(bad), "control: resubmission check");
    bad = *rp;
    bad.replay_digest ^= 1;
    report.check(!replay_ok(bad), "control: replay digest check");
    bad = *mc;
    ++bad.mc_rounds;
    report.check(!modelcheck_ok(bad), "control: pattern count check");
    report.check(served != accepted + 1, "control: stats check");
  }

  emit_end_to_end(opts, timed, report);
  if (!spans) return;

  // -- Traced: per-job spans from the pipe phase. --
  std::uint64_t bytes = 0;
  for (const auto& job : jobs) {
    bytes += job->bytes;
    const int id = spans->add("job", job->submitted, job->done, -1,
                              job->index);
    if (job->has_accepted) {
      spans->add("serve.ack", job->submitted, job->accepted, id, job->index);
      spans->add("serve.queue_wait", job->accepted, job->first_result, id,
                 job->index);
    }
    spans->add("serve.stream", job->first_result, job->done, id, job->index);
  }
  report.metric("serve.queue_wait_ms",
                median(spans->durations_ms("serve.queue_wait")), "ms");
  report.metric("serve.response_bytes_per_job",
                static_cast<double>(bytes) / static_cast<double>(jobs.size()),
                "bytes");
  const double leads = static_cast<double>(field_u64(stats, "cache_leads"));
  const double joins = static_cast<double>(field_u64(stats, "cache_joins"));
  const double hits = static_cast<double>(field_u64(stats, "cache_hits"));
  report.metric("serve.cache.leads", leads, "count");
  report.metric("serve.cache.joins", joins, "count");
  report.metric("serve.cache.hits", hits, "count");
  report.metric("serve.cache.reuse_ratio", (joins + hits) / (leads + joins + hits),
                "ratio");

  // -- Traced: the same layers called in process, one job at a time. --
  using namespace rrfd;
  serve::ServerOptions server_options;
  server_options.workers = workers;
  server_options.sweep_threads = sweep_threads;
  server_options.git_rev = kRev;
  serve::Server server(server_options);
  const auto in_process_start = Clock::now();
  for (int it = 0;; ++it) {
    if (it > 0 &&
        ms_between(in_process_start, Clock::now()) >= seconds * 1000 / 2) {
      break;
    }
    const std::uint64_t seed = rng.next();
    const std::string line = sweep_line("p" + std::to_string(it), seed);
    const int job = spans->open("inproc.job", -1, 1000000 + it);
    serve::Request req;
    {
      ScopedSpan s(spans, "serve.wire.parse", job);
      req = serve::parse_request(line);
    }
    serve::JobResult result;
    {
      ScopedSpan s(spans, "serve.exec", job);
      result = serve::execute(req, sweep_threads);
    }
    std::vector<std::uint64_t> digests;
    {
      ScopedSpan s(spans, "sweep.run", job);
      digests = sweep::run(
          kTrials, seed,
          [](int, Rng& trial_rng) {
            std::vector<agreement::OneRoundKSet> ps;
            for (int i = 0; i < kSweepN; ++i) ps.emplace_back(i + 1);
            core::KUncertaintyAdversary adv(kSweepN, kSweepK, trial_rng());
            return decisions_digest(core::run_rounds(ps, adv).decisions);
          },
          sweep_threads);
    }
    report.check(result.rows.size() == digests.size() &&
                     has(result.rows.back(),
                         "\"digest\":" + std::to_string(digests.back())),
                 "in-process execute disagrees with sweep::run");
    for (int t = 0; t < 200; ++t) {
      Rng trial_rng = Rng::stream(seed, static_cast<std::uint64_t>(t));
      std::vector<agreement::OneRoundKSet> ps;
      for (int i = 0; i < kSweepN; ++i) ps.emplace_back(i + 1);
      core::KUncertaintyAdversary adv(kSweepN, kSweepK, trial_rng());
      ScopedSpan s(spans, "core.engine.trial", job);
      (void)core::run_rounds(ps, adv);
    }
    // In-process server: first row to done at the sink.
    std::mutex mu;
    Clock::time_point first_row, done;
    bool seen_row = false;
    const int served_job = spans->open("inproc.server_job", job);
    server.submit_line(sweep_line("s" + std::to_string(it), seed ^ 1),
                       [&](const std::string& out) {
                         const auto now = Clock::now();
                         std::lock_guard<std::mutex> lock(mu);
                         if (!seen_row && has(out, "\"ev\":\"row\"")) {
                           seen_row = true;
                           first_row = now;
                         }
                         if (has(out, "\"ev\":\"done\"")) done = now;
                       });
    server.drain();
    spans->close(served_job);
    spans->add("serve.deliver", first_row, done, served_job);
    // Replay and trace parsing of one recording.
    const Recording& rec = recordings[static_cast<std::size_t>(it % kPool)];
    {
      ScopedSpan s(spans, "trace.read", job);
      std::istringstream is(rec.trace_text);
      (void)trace::read_trace(is);
    }
    const std::string replay_line =
        submit_head("r" + std::to_string(it)) + R"(,"kind":"replay",)" +
        rec.protocol_fields + R"(,"trace":")" + json_string(rec.trace_text) +
        "\"}";
    const serve::Request replay_req = serve::parse_request(replay_line);
    serve::JobResult replayed;
    {
      ScopedSpan s(spans, "serve.replay", job);
      replayed = serve::execute(replay_req, sweep_threads);
    }
    report.check(!replayed.failed && has(replayed.rows.front(),
                                         "\"byte_identical\":true"),
                 "in-process replay failed");
    spans->close(job);
  }
  server.shutdown();
  const double exec_ms = median(spans->durations_ms("serve.exec"));
  const double run_ms = median(spans->durations_ms("sweep.run"));
  report.metric("serve.wire.parse_us",
                median(spans->durations_ms("serve.wire.parse")) * 1000, "us");
  report.metric("serve.exec.sweep_ms", exec_ms, "ms");
  report.metric("sweep.run_ms", run_ms, "ms");
  report.metric("serve.exec.format_ms", exec_ms - run_ms, "ms");
  report.metric("core.engine.trial_us",
                median(spans->durations_ms("core.engine.trial")) * 1000, "us");
  report.metric("serve.deliver_ms",
                median(spans->durations_ms("serve.deliver")), "ms");
  report.metric("serve.replay_ms",
                median(spans->durations_ms("serve.replay")), "ms");
  report.metric("trace.read_ms", median(spans->durations_ms("trace.read")),
                "ms");
}

}  // namespace perfbench
