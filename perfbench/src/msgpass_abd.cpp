// msgpass_abd: the asynchronous message-passing substrate in process.
//
// Each round runs, in order:
//   * an ABD register at n=21 through four batches, and one at n=63
//     through two; a batch is one write beside three concurrent reads
//     from other processes, driven until the network is quiet;
//   * one RoundEnforcedSim run at n=21 and one at n=63 (f = (n-1)/2,
//     f/2 seeded crashes, three rounds of min-flooding on top).
// An operation is one completed register operation (timed from its
// begin_* call to the delivery that completes it) or one simulator run.
// Set-up ends with two untimed warm-up rounds on every CPU; each timed
// round then runs pinned to the next CPU (see CpuRotation), and its
// outputs are checked between rounds, outside the timing.
#include <algorithm>
#include <string>
#include <vector>

#include "checks.h"
#include "core/fault_pattern.h"
#include "harness.h"
#include "msgpass/abd.h"
#include "msgpass/round_sim.h"

namespace perfbench {
namespace {

using rrfd::msgpass::AbdOpRecord;

constexpr int kReaders = 3;
constexpr int kSimRounds = 3;
struct Size {
  int n;
  int batches;
  const char* tag;
};
constexpr Size kAbdSizes[] = {{21, 4, "n21"}, {63, 2, "n63"}};
constexpr Size kSimSizes[] = {{21, 1, "n21"}, {63, 1, "n63"}};

/// Min-flooding over the enforced rounds: enough application work to
/// exercise emit/deliver without dominating the simulator.
class MinFlood final : public rrfd::msgpass::RoundProtocol {
 public:
  explicit MinFlood(int n) : min_(static_cast<std::size_t>(n)) {
    for (int i = 0; i < n; ++i) min_[static_cast<std::size_t>(i)] = 1000 + i;
  }
  std::uint64_t emit(rrfd::core::ProcId i, rrfd::core::Round) override {
    return static_cast<std::uint64_t>(min_[static_cast<std::size_t>(i)]);
  }
  void deliver(rrfd::core::ProcId i, rrfd::core::Round, rrfd::core::ProcId,
               std::uint64_t payload) override {
    auto& m = min_[static_cast<std::size_t>(i)];
    m = std::min(m, static_cast<int>(payload));
  }
  void round_complete(rrfd::core::ProcId, rrfd::core::Round,
                      const rrfd::core::ProcessSet&) override {}

 private:
  std::vector<int> min_;
};

/// Every announcement is small: |D(i,r)| <= f (predicate (3)).
bool pattern_within(const rrfd::core::FaultPattern& p, int f) {
  for (int r = 1; r <= p.rounds(); ++r) {
    for (int i = 0; i < p.n(); ++i) {
      if (p.d(i, r).size() > f) return false;
    }
  }
  return true;
}

struct Register {
  int n = 0;
  std::vector<AbdOpRecord> history;
  long messages = 0;
  int writes = 0;
  int reads = 0;
};

bool messages_ok(const Register& r) {
  return r.messages == 2L * r.n * r.writes + 4L * r.n * r.reads;
}

/// What one round produced.
struct RoundOutput {
  std::vector<Register> registers;
  std::vector<std::pair<rrfd::core::FaultPattern, int>> patterns;  // (p, f)
  std::vector<double> latency_ms;  ///< one entry per operation
  long deliveries[2] = {0, 0};     ///< step() calls, per kAbdSizes entry
};

RoundOutput run_round(InputRng& rng, int round, Spans* spans) {
  using namespace rrfd;
  RoundOutput out;
  for (std::size_t z = 0; z < 2; ++z) {
    const Size& size = kAbdSizes[z];
    msgpass::AbdRegister reg(size.n, /*writer=*/0, rng.next(), /*initial=*/0);
    Register rec;
    rec.n = size.n;
    for (int batch = 0; batch < size.batches; ++batch) {
      const int span = spans ? spans->open(std::string("abd.batch.") + size.tag,
                                           -1, round)
                             : -1;
      std::vector<int> ids;
      std::vector<Clock::time_point> starts;
      const auto begin = [&](int id) {
        ids.push_back(id);
        starts.push_back(Clock::now());
      };
      begin(reg.begin_write(1 + static_cast<int>(rng.below(1000000))));
      ++rec.writes;
      for (int r = 0; r < kReaders; ++r) {
        begin(reg.begin_read(static_cast<core::ProcId>(
            1 + (batch * kReaders + r) % (size.n - 1))));
        ++rec.reads;
      }
      std::vector<bool> done(ids.size(), false);
      std::size_t open = ids.size();
      while (open > 0 && reg.step()) {
        ++out.deliveries[z];
        for (std::size_t k = 0; k < ids.size(); ++k) {
          if (!done[k] && reg.op(ids[k]).done()) {
            done[k] = true;
            --open;
            out.latency_ms.push_back(ms_between(starts[k], Clock::now()));
          }
        }
      }
      if (spans) spans->close(span);
      // An operation that never completes leaves the round one short,
      // which the caller counts as failed.
      reg.run_until_quiet();
    }
    rec.history = reg.history();
    rec.messages = reg.messages_sent();
    out.registers.push_back(std::move(rec));
  }
  for (const Size& size : kSimSizes) {
    const int f = (size.n - 1) / 2;
    msgpass::RoundEnforcedSim sim(size.n, f, rng.next());
    std::vector<int> who(static_cast<std::size_t>(size.n));
    for (int i = 0; i < size.n; ++i) who[static_cast<std::size_t>(i)] = i;
    for (int c = 0; c < f / 2; ++c) {
      std::swap(who[static_cast<std::size_t>(c)],
                who[static_cast<std::size_t>(c + static_cast<int>(rng.below(
                                                     static_cast<std::uint64_t>(size.n - c))))]);
      sim.add_crash({who[static_cast<std::size_t>(c)],
                     1 + static_cast<int>(rng.below(kSimRounds)),
                     static_cast<int>(rng.below(static_cast<std::uint64_t>(size.n + 1)))});
    }
    MinFlood protocol(size.n);
    const auto start = Clock::now();
    core::FaultPattern pattern = sim.run(protocol, kSimRounds);
    const auto end = Clock::now();
    out.latency_ms.push_back(ms_between(start, end));
    if (spans) spans->add(std::string("msgpass.round_sim.run.") + size.tag, start, end, -1, round);
    out.patterns.emplace_back(std::move(pattern), f);
  }
  return out;
}

/// Operations in every round: each register's batches plus one
/// simulator run per size.
constexpr std::uint64_t kOpsPerRound =
    (kAbdSizes[0].batches + kAbdSizes[1].batches) * (1 + kReaders) +
    std::size(kSimSizes);

/// Warm-up rounds per CPU, run before timing starts.
constexpr int kWarmupRoundsPerCpu = 2;

}  // namespace

void msgpass_abd(const Options& opts, double seconds, Report& report,
                 Spans* spans) {
  using namespace rrfd;
  InputRng rng(opts.seed);
  CpuRotation cpus;
  std::vector<Register> first_registers;  // the first round's, for controls
  std::vector<std::pair<core::FaultPattern, int>> first_patterns;
  long messages = 0;
  long abd_ops = 0;
  long deliveries[2] = {0, 0};

  // Checks a round's outputs as soon as it ends, so that memory stays
  // that of one round however many rounds the run completes.
  const auto check = [&](RoundOutput& out) {
    report.attempted += kOpsPerRound;
    report.failed += kOpsPerRound - out.latency_ms.size();
    report.check(out.latency_ms.size() == kOpsPerRound,
                 "an ABD operation did not complete");
    for (const Register& r : out.registers) {
      const std::string why = abd_violation(r.history, 0);
      report.check(why.empty(), "ABD n=" + std::to_string(r.n) + ": " + why);
      report.check(messages_ok(r), "ABD message count differs from 2n/write + 4n/read");
      messages += r.messages;
      abd_ops += r.writes + r.reads;
    }
    for (const auto& [pattern, f] : out.patterns) {
      report.check(pattern.rounds() == kSimRounds && pattern_within(pattern, f),
                   "round simulator pattern violates |D(i,r)| <= f");
    }
    if (first_registers.empty()) {
      first_registers = std::move(out.registers);
      first_patterns = std::move(out.patterns);
    }
  };

  // Set-up: warm-up rounds on every CPU, then the timed rounds, each on
  // the next CPU.
  for (int w = 0; w < kWarmupRoundsPerCpu * cpus.size(); ++w) {
    report.check(cpus.next(), "could not pin to a CPU");
    RoundOutput out = run_round(rng, -1, nullptr);
    check(out);
  }
  report.check(cpus.next(), "could not pin to a CPU");
  Timed timed;
  timed.begin(self_cpu_s());
  for (int round = 0;; ++round) {
    if (timed.elapsed_s() >= seconds && timed.latency_ms.size() >= kMinOps) break;
    RoundOutput out = run_round(rng, round, spans);
    timed.round(out.latency_ms.size(), self_cpu_s());
    timed.latency_ms.insert(timed.latency_ms.end(), out.latency_ms.begin(),
                            out.latency_ms.end());
    for (std::size_t z = 0; z < 2; ++z) deliveries[z] += out.deliveries[z];
    check(out);
    cpus.next();
    timed.restart(self_cpu_s());
  }
  timed.rss_mb = peak_rss_mb();

  // Negative controls on this run's first register and pattern.
  {
    Register bad = first_registers.front();
    const auto read = std::find_if(bad.history.begin(), bad.history.end(),
                                   [](const AbdOpRecord& op) {
                                     return op.kind == AbdOpRecord::Kind::kRead;
                                   });
    read->value = -1;
    report.check(!abd_violation(bad.history, 0).empty(), "control: read value check");
    bad = first_registers.front();
    AbdOpRecord stale;
    stale.id = static_cast<int>(bad.history.size());
    stale.kind = AbdOpRecord::Kind::kRead;
    stale.client = 1;
    for (const AbdOpRecord& op : bad.history) {
      stale.started_at = std::max(stale.started_at, op.finished_at + 1);
    }
    stale.finished_at = stale.started_at + 1;
    bad.history.push_back(stale);  // returns the initial value after writes
    report.check(!abd_violation(bad.history, 0).empty(), "control: stale read check");
    ++bad.messages;
    report.check(!messages_ok(bad), "control: message count check");
    const auto& [pattern, f] = first_patterns.front();
    core::FaultPattern wide(pattern.n());
    for (int r = 1; r <= pattern.rounds(); ++r) {
      core::RoundFaults faults = pattern.round(r);
      if (r == 1) {
        faults[0] = core::ProcessSet::from_bits(pattern.n(), (1ULL << (f + 1)) - 1);
      }
      wide.append(std::move(faults));
    }
    report.check(!pattern_within(wide, f), "control: pattern bound check");
  }

  emit_end_to_end(opts, timed, report);
  if (!spans) return;
  for (std::size_t z = 0; z < 2; ++z) {
    double batch_ms = 0;
    for (const double d : spans->durations_ms(std::string("abd.batch.") + kAbdSizes[z].tag)) {
      batch_ms += d;
    }
    report.metric(std::string("msgpass.abd.delivery_us.") + kAbdSizes[z].tag,
                  batch_ms * 1000.0 / static_cast<double>(deliveries[z]), "us");
  }
  report.metric("msgpass.abd.messages_per_op",
                static_cast<double>(messages) / static_cast<double>(abd_ops), "count");
  for (const Size& size : kSimSizes) {
    report.metric(std::string("msgpass.round_sim.run_ms.") + size.tag,
                  median(spans->durations_ms(std::string("msgpass.round_sim.run.") + size.tag)),
                  "ms");
  }
}

}  // namespace perfbench
