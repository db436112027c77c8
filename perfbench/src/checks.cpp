#include "checks.h"

#include <map>
#include <set>

namespace perfbench {

std::uint64_t fnv1a(std::uint64_t state, std::string_view bytes) {
  for (const char c : bytes) {
    state ^= static_cast<unsigned char>(c);
    state *= kFnvPrime;
  }
  return state;
}

std::uint64_t decisions_digest(const std::vector<std::optional<int>>& d) {
  std::uint64_t digest = kFnvOffset;
  for (const auto& decision : d) {
    const std::int64_t word = decision ? *decision : -1;
    digest ^= static_cast<std::uint64_t>(word);
    digest *= kFnvPrime;
  }
  return digest;
}

std::string kset_violation(const std::vector<std::optional<int>>& decisions,
                           const std::vector<int>& inputs, int k) {
  const std::set<int> allowed(inputs.begin(), inputs.end());
  std::set<int> decided;
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    if (!decisions[i]) return "process " + std::to_string(i) + " undecided";
    if (!allowed.count(*decisions[i])) {
      return "process " + std::to_string(i) + " decided a non-input";
    }
    decided.insert(*decisions[i]);
  }
  if (static_cast<int>(decided.size()) > k) {
    return std::to_string(decided.size()) + " distinct decisions > k=" +
           std::to_string(k);
  }
  return "";
}

std::int64_t pattern_space(int n, int rounds) {
  std::int64_t total = 1;
  const std::int64_t per_set = (std::int64_t{1} << n) - 1;
  for (int i = 0; i < n * rounds; ++i) total *= per_set;
  return total;
}

std::int64_t multinomial(const std::vector<int>& counts) {
  // Product of binomials C(prefix + c, c), each computed exactly.
  std::int64_t result = 1;
  std::int64_t prefix = 0;
  for (const int c : counts) {
    std::int64_t binom = 1;
    for (std::int64_t j = 1; j <= c; ++j) {
      binom = binom * (prefix + j) / j;
    }
    result *= binom;
    prefix += c;
  }
  return result;
}

std::string adopt_commit_violation(const std::vector<int>& proposals,
                                   const std::vector<AcOutcome>& outcomes) {
  const std::set<int> inputs(proposals.begin(), proposals.end());
  std::optional<int> committed;
  for (const AcOutcome& o : outcomes) {
    if (!inputs.count(o.value)) return "validity: output is not an input";
    if (o.commit) {
      if (committed && *committed != o.value) {
        return "coherence: two values committed";
      }
      committed = o.value;
    }
  }
  if (committed) {
    for (const AcOutcome& o : outcomes) {
      if (o.value != *committed) {
        return "coherence: a process left the committed value";
      }
    }
  }
  if (inputs.size() == 1) {
    for (const AcOutcome& o : outcomes) {
      if (!o.commit) return "convergence: unanimous input not committed";
    }
  }
  return "";
}

std::string abd_violation(const std::vector<rrfd::msgpass::AbdOpRecord>& ops,
                          int initial) {
  using Kind = rrfd::msgpass::AbdOpRecord::Kind;
  std::map<long, int> written{{0, initial}};  // timestamp -> value
  for (const auto& op : ops) {
    if (!op.done()) return "operation " + std::to_string(op.id) + " pending";
    if (op.kind == Kind::kWrite) {
      if (!written.emplace(op.timestamp, op.value).second) {
        return "two writes share timestamp " + std::to_string(op.timestamp);
      }
    }
  }
  for (const auto& r : ops) {
    if (r.kind != Kind::kRead) continue;
    const auto w = written.find(r.timestamp);
    if (w == written.end() || w->second != r.value) {
      return "read " + std::to_string(r.id) + " returned an unwritten value";
    }
    for (const auto& other : ops) {
      if (other.finished_at >= r.started_at) continue;  // not before r
      if (other.timestamp > r.timestamp) {
        return (other.kind == Kind::kWrite ? "read " : "new/old inversion: read ") +
               std::to_string(r.id) + " returned an older value than op " +
               std::to_string(other.id);
      }
    }
  }
  return "";
}

}  // namespace perfbench
