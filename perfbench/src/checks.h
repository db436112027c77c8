// Output checks written independently of the program: each recomputes
// what a correct answer must look like from the paper's definitions or
// from first principles, without calling the code path it checks.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "msgpass/abd.h"

namespace perfbench {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// FNV-1a over `bytes`, continuing from `state`.
std::uint64_t fnv1a(std::uint64_t state, std::string_view bytes);

/// The fold the job server documents for a run's decisions: FNV-style
/// over one 64-bit word per process, -1 for an undecided process.
std::uint64_t decisions_digest(const std::vector<std::optional<int>>& d);

/// Thm 3.1 for one-round k-set agreement: every process decided, every
/// decision is some process's input, and at most k values are decided.
/// Returns an empty string when the run is correct.
std::string kset_violation(const std::vector<std::optional<int>>& decisions,
                           const std::vector<int>& inputs, int k);

/// (2^n - 1)^(n * rounds): the number of fault patterns of that size.
std::int64_t pattern_space(int n, int rounds);

/// Number of interleavings of processes taking counts[i] steps each.
std::int64_t multinomial(const std::vector<int>& counts);

/// Adopt-commit outcome of one process: committed or adopted `value`.
struct AcOutcome {
  bool commit = false;
  int value = 0;
};

/// Validity, coherence and convergence of one adopt-commit execution in
/// which every process finished. Empty string when all three hold.
std::string adopt_commit_violation(const std::vector<int>& proposals,
                                   const std::vector<AcOutcome>& outcomes);

/// Single-writer atomicity of a completed ABD history: every read
/// returns a written value (or `initial`) with that write's timestamp,
/// a read that starts after a write completes returns that write or a
/// later one, and no read returns an older write than a read that
/// completed before it started. Empty string when atomic.
std::string abd_violation(const std::vector<rrfd::msgpass::AbdOpRecord>& ops,
                          int initial);

}  // namespace perfbench
