// exhaustive_check: in-process exact submodel checks at nproc shard
// threads. An operation is one check, including compiling its specs.
//
// Set-up ends with an untimed warm-up round of every check. Each timed
// round then runs the same 21 checks in a seeded order (and, for
// equivalences, a seeded choice of which side is A), in five classes:
//   memo      n=4, rounds=3: suffix memoization decides almost everything;
//   sym       n=4, rounds=2: symmetry reduction and pruning;
//   plain     n=5, rounds=1: neither memo (one round) nor symmetry (n>4);
//   stateful  link_budget / delay specs at n=3, rounds=3;
//   zoo       hand-written core/predicates.h models.
// Expected verdicts follow from the definitions, e.g. loss_cap(1) is
// predicate (3) (async_message_passing(1)), mobile(f) bounds the union
// of a round's announcements so it implies loss_cap(f) and, for f < n,
// no_partition(), and on a finite pattern some process is never
// suspected iff at most n-1 processes are.
//
// The mix is shaped for steady percentiles: five cheap checks, nine
// memo-decided equivalences of similar cost (the median falls in their
// middle), six heavier checks (the 90th percentile falls among them) and
// the plain check on top.
#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "checks.h"
#include "core/predicates.h"
#include "core/submodel.h"
#include "harness.h"
#include "ho/compile.h"
#include "sweep/submodel_parallel.h"

namespace perfbench {
namespace {

using rrfd::core::PredicatePtr;

struct Side {
  std::string spec;                    ///< compiled through ho when set
  std::function<PredicatePtr()> zoo;   ///< hand-written model otherwise
};

struct CheckDef {
  std::string cls;
  Side a, b;
  int n = 0;
  int rounds = 0;
  bool equivalence = true;
  bool expect = true;  ///< equivalent / implication holds
};

Side spec(const std::string& text) { return {text, nullptr}; }
Side zoo(std::function<PredicatePtr()> make) { return {"", std::move(make)}; }

std::vector<CheckDef> mix() {
  using namespace rrfd::core;
  const auto memo = [](const char* a, const char* b) {
    return CheckDef{"memo", spec(a), spec(b), 4, 3, true, true};
  };
  return {
      // Cheap: refuted early, or small spaces.
      {"sym", spec("mobile(1)"), spec("loss_cap(1)"), 4, 2, true, false},
      {"stateful", spec("delay(1)"), spec("loss_cap(1)"), 3, 3, true, false},
      {"zoo", zoo([] { return atomic_snapshot(1); }),
       zoo([] { return async_message_passing(1); }), 4, 2, false, true},
      {"zoo", zoo([] { return async_message_passing(1); }),
       zoo([] { return swmr_shared_memory(1); }), 4, 2, false, false},
      {"zoo", zoo([] { return sync_omission(1); }),
       zoo([] { return sync_crash(1); }), 4, 2, false, false},
      // Memo-decided equivalences of similar cost: the median lies here.
      {"memo", spec("loss_cap(1)"), zoo([] { return async_message_passing(1); }), 4, 3, true, true},
      memo("loss_cap(1)", "loss_cap(1)"),
      memo("loss_cap(1)", "all(loss_cap(1),loss_cap(2))"),
      memo("mobile(1)", "mobile(1)"),
      memo("mobile(1)", "all(mobile(1),no_partition())"),
      memo("mobile(0)", "all(mobile(0),loss_cap(0))"),
      memo("all(loss_cap(1),self_delivery())", "all(self_delivery(),loss_cap(1))"),
      memo("all(mobile(1),self_delivery())", "all(self_delivery(),mobile(1))"),
      memo("all(loss_cap(1),no_partition())", "all(no_partition(),loss_cap(1))"),
      // Heavier: the 90th percentile lies here.
      memo("faulty(1)", "faulty(1)"),
      {"sym", spec("kernel(1)"), spec("kernel(1)"), 4, 2, true, true},
      {"sym", spec("crash_only()"), spec("crash_only()"), 4, 2, true, true},
      {"stateful", spec("link_budget(1)"), spec("link_budget(1)"), 3, 3, true, true},
      {"stateful", spec("delay(1)"), spec("delay(1)"), 3, 3, true, true},
      {"zoo", zoo([] { return std::make_shared<ImmortalProcess>(); }),
       zoo([] { return std::make_shared<CumulativeFaultBound>(3); }), 4, 2, true, true},
      // Plain DFS over 31^5 first rounds.
      {"plain", spec("mobile(1)"), spec("loss_cap(1)"), 5, 1, false, true},
  };
}

struct Outcome {
  CheckDef def;  ///< as run: equivalences may have A and B swapped
  rrfd::core::ImplicationResult forward, backward;  // backward: equivalences
  PredicatePtr a, b;
};

PredicatePtr build(const Side& side, Spans* spans, int parent) {
  if (side.spec.empty()) return side.zoo();
  ScopedSpan s(spans, "ho.compile", parent);
  return rrfd::ho::compile_text(side.spec);
}

Outcome run_check(const CheckDef& def, int threads, Spans* spans, int parent) {
  Outcome out;
  out.def = def;
  out.a = build(def.a, spans, parent);
  out.b = build(def.b, spans, parent);
  ScopedSpan s(spans, "core.submodel.check." + def.cls, parent);
  if (def.equivalence) {
    auto eq = rrfd::sweep::equivalent_exhaustive(*out.a, *out.b, def.n,
                                                 def.rounds, threads);
    out.forward = std::move(eq.forward);
    out.backward = std::move(eq.backward);
  } else {
    out.forward = rrfd::sweep::implies_exhaustive(*out.a, *out.b, def.n,
                                                  def.rounds, threads);
  }
  return out;
}

/// Checks one direction's result against the definitions: a holding
/// implication decided the whole space; a refuted one names a pattern of
/// the right size in A \ B under whole-pattern holds().
std::string direction_violation(const rrfd::core::ImplicationResult& r,
                                const rrfd::core::Predicate& a,
                                const rrfd::core::Predicate& b, int n,
                                int rounds) {
  if (r.holds) {
    return r.patterns_checked == pattern_space(n, rounds)
               ? ""
               : "patterns_checked differs from (2^n-1)^(n*rounds)";
  }
  if (!r.counterexample) return "refuted without a counterexample";
  const auto& cex = *r.counterexample;
  if (cex.n() != n || cex.rounds() != rounds) return "counterexample size";
  if (!a.holds(cex)) return "counterexample violates A";
  if (b.holds(cex)) return "counterexample satisfies B";
  return "";
}

std::string outcome_violation(const Outcome& o) {
  const CheckDef& def = o.def;
  std::string why = direction_violation(o.forward, *o.a, *o.b, def.n,
                                        def.rounds);
  if (why.empty() && def.equivalence) {
    why = direction_violation(o.backward, *o.b, *o.a, def.n, def.rounds);
  }
  const bool verdict =
      o.forward.holds && (!def.equivalence || o.backward.holds);
  if (why.empty() && verdict != def.expect) why = "verdict differs from the definitions";
  return why;
}

bool same_result(const rrfd::core::ImplicationResult& x,
                 const rrfd::core::ImplicationResult& y) {
  const auto& s = x.stats;
  const auto& t = y.stats;
  const bool same_cex =
      x.counterexample.has_value() == y.counterexample.has_value() &&
      (!x.counterexample ||
       x.counterexample->to_string() == y.counterexample->to_string());
  return x.holds == y.holds && x.patterns_checked == y.patterns_checked &&
         same_cex && s.nodes == t.nodes && s.leaves == t.leaves &&
         s.pruned_subtrees == t.pruned_subtrees &&
         s.memo_hits == t.memo_hits && s.memo_entries == t.memo_entries;
}

}  // namespace

void exhaustive_check(const Options& opts, double seconds, Report& report,
                      Spans* spans) {
  const int threads = worker_threads();
  InputRng rng(opts.seed);
  const std::vector<CheckDef> defs = mix();

  std::vector<std::vector<double>> parallel_ms(defs.size());
  std::int64_t memo_hits = 0, memo_misses = 0;
  const auto verify = [&](const Outcome& o) {
    ++report.attempted;
    const std::string why = outcome_violation(o);
    report.check(why.empty(), o.def.cls + " " + o.def.a.spec + " vs " +
                                  o.def.b.spec + ": " + why);
  };

  // Set-up ends with an untimed warm-up round: every check once, as
  // defined. Its results are the ones compared at one thread below.
  std::vector<Outcome> first_round;
  for (const CheckDef& def : defs) {
    first_round.push_back(run_check(def, threads, nullptr, -1));
    verify(first_round.back());
  }

  Timed timed;
  timed.begin(self_cpu_s());
  for (int round = 0;; ++round) {
    if (timed.elapsed_s() >= seconds && timed.latency_ms.size() >= kMinOps) break;
    // Seeded order and sides; every round runs the same checks.
    std::vector<std::size_t> order(defs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[rng.below(i + 1)]);
    }
    for (const std::size_t i : order) {
      CheckDef def = defs[i];
      if (def.equivalence && rng.below(2) == 1) std::swap(def.a, def.b);
      const int op = spans ? spans->open("op", -1, report.attempted) : -1;
      const auto start = Clock::now();
      const Outcome o = run_check(def, threads, spans, op);
      timed.latency_ms.push_back(ms_between(start, Clock::now()));
      parallel_ms[i].push_back(timed.latency_ms.back());
      if (spans) spans->close(op);
      verify(o);
      for (const auto* r : {&o.forward, &o.backward}) {
        memo_hits += r->stats.memo_hits;
        memo_misses += r->stats.memo_misses;
      }
    }
    timed.round(defs.size(), self_cpu_s());
  }
  timed.rss_mb = peak_rss_mb();

  // Results are identical at one thread; in a traced run this also
  // times every check serially for the shard speed-up.
  std::vector<double> serial_ms(defs.size(), 0);
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const Outcome& par = first_round[i];
    const auto start = Clock::now();
    const Outcome serial = run_check(par.def, 1, nullptr, -1);
    serial_ms[i] = ms_between(start, Clock::now());
    report.check(same_result(serial.forward, par.forward) &&
                     (!par.def.equivalence ||
                      same_result(serial.backward, par.backward)),
                 par.def.cls + " check differs between 1 and " +
                     std::to_string(threads) + " threads");
  }

  // Negative controls on this run's own results.
  for (std::size_t i = 0; i < defs.size(); ++i) {
    Outcome bad = first_round[i];
    if (bad.forward.holds) {
      ++bad.forward.patterns_checked;
    } else {
      std::swap(bad.a, bad.b);  // the counterexample now violates "A"
    }
    report.check(!outcome_violation(bad).empty(),
                 "control: " + defs[i].cls + " check " + std::to_string(i));
    bad = first_round[i];
    ++bad.forward.stats.nodes;
    report.check(!same_result(bad.forward, first_round[i].forward),
                 "control: thread-count comparison");
  }

  emit_end_to_end(opts, timed, report);
  if (!spans) return;
  report.metric("ho.compile_us", median(spans->durations_ms("ho.compile")) * 1000,
                "us");
  for (const char* cls : {"memo", "sym", "plain", "stateful", "zoo"}) {
    report.metric(std::string("core.submodel.check_ms.") + cls,
                  median(spans->durations_ms(std::string("core.submodel.check.") + cls)),
                  "ms");
  }
  report.metric("core.submodel.memo_hit_ratio",
                static_cast<double>(memo_hits) /
                    static_cast<double>(std::max<std::int64_t>(1, memo_hits + memo_misses)),
                "ratio");
  std::int64_t entries = 0, nodes = 0, pruned = 0;
  for (const Outcome& o : first_round) {
    for (const auto* r : {&o.forward, &o.backward}) {
      entries += r->stats.memo_entries;
      nodes += r->stats.nodes;
      pruned += r->stats.pruned_subtrees;
    }
  }
  report.metric("core.submodel.memo_entries", static_cast<double>(entries), "count");
  report.metric("core.submodel.nodes", static_cast<double>(nodes), "count");
  report.metric("core.submodel.pruned_subtrees", static_cast<double>(pruned), "count");
  for (const char* cls : {"memo", "plain"}) {
    double serial = 0, parallel = 0;
    for (std::size_t i = 0; i < defs.size(); ++i) {
      if (defs[i].cls != cls) continue;
      serial += serial_ms[i];
      parallel += median(parallel_ms[i]);
    }
    report.metric(std::string("sweep.shard_speedup.") + cls, serial / parallel,
                  "ratio");
  }
}

}  // namespace perfbench
