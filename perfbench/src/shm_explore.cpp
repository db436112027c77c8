// shm_explore: exhaustive schedule exploration of the n=2 adopt-commit
// protocol (Section 4.2) on the cooperative runtime, with no crash
// budget. An operation is one explored schedule, timed inside the
// run_one callback. Explorations follow one another, each over the whole
// tree for a seeded pair of proposals (unanimous in even explorations,
// split in odd ones).
//
// The run confines itself to one CPU at a time: the runtime passes a
// baton between one OS thread per simulated process, and unpinned, wall
// time is dominated by cross-core wake-ups whose cost varies by an order
// of magnitude between runs. Timed rounds of kRoundSchedules schedules
// each move to the next CPU (see CpuRotation); set-up ends with a
// warm-up of one round's worth of schedules on every CPU.
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "agreement/adopt_commit.h"
#include "checks.h"
#include "harness.h"
#include "runtime/explorer.h"
#include "runtime/sim.h"

namespace perfbench {
namespace {

constexpr int kN = 2;

/// What one explored schedule produced.
struct Run {
  std::vector<rrfd::core::ProcId> schedule;
  int steps = 0;
  bool all_completed = false;
  std::vector<AcOutcome> outcomes;
};

/// Checks one exploration: exhausted, one run per interleaving of the
/// per-process step counts, every schedule distinct, and adopt-commit's
/// three properties on every run.
std::string exploration_violation(const std::vector<Run>& runs,
                                  const std::vector<int>& proposals,
                                  bool exhausted) {
  if (!exhausted) return "exploration not exhausted";
  if (runs.empty()) return "no schedules";
  std::vector<int> counts(kN, 0);
  for (const auto p : runs.front().schedule) ++counts[static_cast<std::size_t>(p)];
  std::set<std::vector<rrfd::core::ProcId>> distinct;
  for (const Run& run : runs) {
    std::vector<int> c(kN, 0);
    for (const auto p : run.schedule) ++c[static_cast<std::size_t>(p)];
    if (c != counts) return "per-process step counts differ between schedules";
    if (!run.all_completed) return "a process did not complete";
    distinct.insert(run.schedule);
    const std::string why = adopt_commit_violation(proposals, run.outcomes);
    if (!why.empty()) return why;
  }
  if (distinct.size() != runs.size()) return "a schedule was explored twice";
  if (static_cast<std::int64_t>(runs.size()) != multinomial(counts)) {
    return "schedule count differs from the multinomial of step counts";
  }
  return "";
}

/// Schedules per timed round: a round moves to the next CPU, so a run's
/// rounds sample every CPU (an exploration takes about a second).
constexpr std::size_t kRoundSchedules = 132;

}  // namespace

void shm_explore(const Options& opts, double seconds, Report& report,
                 Spans* spans) {
  using namespace rrfd;
  CpuRotation cpus;
  InputRng rng(opts.seed);

  struct Exploration {
    std::vector<int> proposals;
    std::vector<Run> runs;
    bool exhausted = false;
  };
  std::vector<Exploration> explorations;  // the first two, for controls
  std::int64_t steps = 0;
  std::int64_t first_steps = 0;
  std::size_t first_schedules = 0;

  // Explores the whole schedule tree (or its first `limit` schedules) for
  // `ex.proposals`; `on_run` is called before each schedule runs.
  const auto explore = [&](Exploration& ex, long limit, int round,
                           const std::function<void()>& on_run,
                           std::vector<double>* latency) {
    const int explore_span = spans && latency ? spans->open("runtime.explore", -1, round) : -1;
    runtime::ScheduleExplorer explorer({limit, /*max_crashes=*/0});
    const auto stats = explorer.explore([&](runtime::Scheduler& sched) {
      on_run();
      const auto start = Clock::now();
      agreement::AdoptCommit ac(kN);
      std::vector<std::optional<agreement::AdoptCommitResult>> results(kN);
      runtime::Simulation sim(kN, [&](runtime::Context& ctx) {
        results[static_cast<std::size_t>(ctx.id())] =
            ac.run(ctx, ex.proposals[static_cast<std::size_t>(ctx.id())]);
      });
      const auto sim_start = Clock::now();
      const runtime::SimOutcome out = sim.run(sched);
      const auto sim_end = Clock::now();
      Run run;
      run.schedule = out.schedule;
      run.steps = out.steps;
      run.all_completed = out.completed.size() == kN;
      for (const auto& r : results) {
        run.outcomes.push_back(r ? AcOutcome{r->commit, r->value} : AcOutcome{false, -1});
      }
      ex.runs.push_back(std::move(run));
      const auto end = Clock::now();
      if (!latency) return;
      latency->push_back(ms_between(start, end));
      if (spans) {
        const int op = spans->add("runtime.run_one", start, end, explore_span,
                                  ex.runs.size());
        spans->add("runtime.sim_run", sim_start, sim_end, op, ex.runs.size());
      }
      steps += out.steps;
    });
    if (explore_span >= 0) spans->close(explore_span);
    ex.exhausted = stats.exhausted;
  };

  // Set-up: a warm-up of the first round's worth of schedules on every
  // CPU, each checked for adopt-commit's properties.
  for (int w = 0; w < cpus.size(); ++w) {
    report.check(cpus.next(), "could not pin to a CPU");
    Exploration ex;
    ex.proposals = {1, 2};
    explore(ex, kRoundSchedules, -1, [] {}, nullptr);
    report.attempted += ex.runs.size();
    for (const Run& run : ex.runs) {
      report.check(run.all_completed &&
                       adopt_commit_violation(ex.proposals, run.outcomes).empty(),
                   "warm-up schedule violates adopt-commit");
    }
  }

  report.check(cpus.next(), "could not pin to a CPU");
  Timed timed;
  timed.begin(self_cpu_s());
  for (int round = 0;; ++round) {
    if (timed.elapsed_s() >= seconds && timed.latency_ms.size() >= kMinOps) break;
    Exploration ex;
    const int base = static_cast<int>(rng.below(1000));
    ex.proposals = {base, round % 2 == 0 ? base : base + 1 + static_cast<int>(rng.below(9))};
    std::size_t in_round = 0;
    explore(ex, /*limit=*/5'000'000, round, [&] {
      if (in_round < kRoundSchedules) {
        ++in_round;
        return;
      }
      timed.round(in_round, self_cpu_s());
      cpus.next();
      timed.restart(self_cpu_s());
      in_round = 1;
    }, &timed.latency_ms);
    timed.round(in_round, self_cpu_s());

    report.attempted += ex.runs.size();
    const std::string why = exploration_violation(ex.runs, ex.proposals, ex.exhausted);
    report.check(why.empty(), "exploration: " + why);
    if (explorations.empty()) {
      first_schedules = ex.runs.size();
      for (const Run& run : ex.runs) first_steps += run.steps;
    }
    if (explorations.size() < 2) explorations.push_back(std::move(ex));
    cpus.next();
    timed.restart(self_cpu_s());
  }
  timed.rss_mb = peak_rss_mb();

  // Negative controls on this run's first two explorations (unanimous
  // and split proposals).
  for (std::size_t e = 0; e < 2 && e < explorations.size(); ++e) {
    const Exploration& ex = explorations[e];
    report.check(!exploration_violation(ex.runs, ex.proposals, false).empty(),
                 "control: exhaustion check");
    std::vector<Run> runs = ex.runs;
    runs.pop_back();
    report.check(!exploration_violation(runs, ex.proposals, true).empty(),
                 "control: multinomial check");
    runs = ex.runs;
    runs[1].outcomes[0].value = -7;
    report.check(!exploration_violation(runs, ex.proposals, true).empty(),
                 "control: validity check");
    runs = ex.runs;
    runs[2].outcomes[0] = {true, ex.proposals[0]};
    runs[2].outcomes[1] = {true, ex.proposals[1]};
    report.check(e == 0 ||
                     !exploration_violation(runs, ex.proposals, true).empty(),
                 "control: coherence check");
    runs = ex.runs;
    runs[3].outcomes[1].commit = false;
    report.check(e == 1 ||
                     !exploration_violation(runs, ex.proposals, true).empty(),
                 "control: convergence check");
  }

  emit_end_to_end(opts, timed, report);
  if (!spans) return;
  double explore_ms = 0;
  for (const double d : spans->durations_ms("runtime.explore")) explore_ms += d;
  report.metric("runtime.step_us", explore_ms * 1000 / static_cast<double>(steps),
                "us");
  report.metric("runtime.sim_overhead_us",
                median(spans->self_ms_of("runtime.run_one")) * 1000, "us");
  report.metric("runtime.schedules", static_cast<double>(first_schedules),
                "count");
  report.metric("runtime.steps", static_cast<double>(first_steps), "count");
}

}  // namespace perfbench
