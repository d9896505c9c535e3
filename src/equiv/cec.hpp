// Combinational equivalence checking (CEC).
//
// Every fingerprint embedding must preserve functionality (requirement 1
// of the paper). This module provides the verification layers used
// throughout the tests and benches:
//
//  * random_sim_equal     — fast 64-way random simulation filter; finds
//                           almost all real differences in microseconds;
//  * exhaustive_equal     — complete for circuits with <= 24 inputs;
//  * check_equivalence    — SAT-based proof on a shared-PI miter;
//  * IncrementalCecSession — one long-lived solver holding the golden
//                           circuit's encoding; each edition stamps only
//                           its edited cone behind an activation literal,
//                           sweeps it (simulation-guided merge proofs
//                           fold nets equal to their golden counterpart
//                           back into the golden encoding) and answers
//                           the residual outputs by assumption solves;
//  * check_equivalence_portfolio — 2–3 solver configurations racing one
//                           query in deterministic round-robin slices.
//
// verify_equivalence() composes the first three: simulation first (cheap
// refutation), then exhaustive or SAT proof depending on input count.
//
// Circuits are matched by PI name and PO port name; mismatched interfaces
// throw CheckError.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/budget.hpp"
#include "netlist/netlist.hpp"
#include "sat/solver.hpp"
#include "sat/tseitin.hpp"

namespace odcfp {

struct CecResult {
  enum class Status { kEquivalent, kDifferent, kUnknown };
  Status status = Status::kUnknown;
  /// On kDifferent: one distinguishing input assignment (by PI order of
  /// the first netlist).
  std::vector<bool> counterexample;
  /// Which verification layer produced the verdict.
  std::string method;
  sat::Solver::Stats sat_stats;

  bool equivalent() const { return status == Status::kEquivalent; }
};

/// Random simulation: returns false (and fills `counterexample`) if a
/// distinguishing pattern is found within `num_words` 64-pattern words.
/// Returning true is evidence, not proof.
bool random_sim_equal(const Netlist& a, const Netlist& b,
                      std::size_t num_words, std::uint64_t seed,
                      std::vector<bool>* counterexample = nullptr);

/// Complete check by enumeration; requires a.inputs().size() <= 24.
bool exhaustive_equal(const Netlist& a, const Netlist& b,
                      std::vector<bool>* counterexample = nullptr);

/// SAT CEC on a miter with shared PIs. conflict_limit < 0 = no limit.
/// `budget` adds deadline / step / cancellation caps to the proof search.
/// Degenerate miters (no outputs to compare) are reported as trivially
/// equivalent with method "trivial-no-outputs" without touching a solver.
CecResult check_equivalence_sat(const Netlist& a, const Netlist& b,
                                std::int64_t conflict_limit = -1,
                                const Budget* budget = nullptr);

/// Deterministic solver portfolio racing one query: each configuration
/// gets its own solver + miter encoding, and they take turns solving in
/// fixed-size conflict slices on the calling thread. First verdict wins;
/// ties (two configs finishing in the same round) break by configuration
/// order. Time-sliced rather than thread-raced on purpose — the winner is
/// a pure function of the inputs, never of the scheduler.
struct PortfolioCecOptions {
  /// Configurations in race order (empty = default_portfolio_configs()).
  std::vector<sat::Solver::Config> configs;
  /// Conflicts per round-robin slice per configuration.
  std::int64_t slice_conflicts = 2048;
  /// Total conflicts across all configurations before giving up
  /// (< 0 = race until a verdict or the budget dies).
  std::int64_t total_conflict_limit = -1;
};

/// The three stock configurations: classic MiniSat-style defaults, a
/// positive-phase/slow-restart variant, and a seeded-branching/fast-
/// restart variant.
std::vector<sat::Solver::Config> default_portfolio_configs();

CecResult check_equivalence_portfolio(
    const Netlist& a, const Netlist& b,
    const PortfolioCecOptions& options = {}, const Budget* budget = nullptr);

/// Shared-miter incremental CEC: encodes the golden netlist once, then
/// answers each edition with assumption solves that only pay for the
/// edition's edited cones. The edition's delta clauses are guarded by a
/// fresh activation literal and retracted after the verdict, so the
/// solver — and everything it learned about the base circuit — stays warm
/// for the next edition.
///
/// Sweeping: the golden netlist is simulated once on fixed random words,
/// the edition on the same (name-matched) PI words. A freshly encoded
/// edition gate whose output net is the golden gate's output and whose
/// signature equals the golden one is proven equal to it (two assumption
/// solves under the activation literal, charged to the check's conflict
/// quota); a proven net is mapped to the golden variable, so structural
/// reuse takes over downstream. An ODC edit is masked at its location's
/// primary gate, so a correct edition merges there and its transitive
/// fanout costs nothing. Only outputs that still differ after sweeping
/// get a miter proof.
///
/// Contract: editions must be structural clones of the golden netlist
/// (same gate/net id space), which is exactly what batch_fingerprint
/// produces. An arbitrary same-interface netlist still verifies correctly
/// — it just encodes fresh (reuse degrades to zero, not to wrong).
/// Not thread-safe; one session per thread.
class IncrementalCecSession {
 public:
  struct Options {
    /// Per-check conflict quota (< 0 = unlimited). A check that blows it
    /// returns kUnknown; the batch layer escalates to the portfolio.
    std::int64_t conflict_limit = -1;
    /// Retired edition cones are swept from the clause database every
    /// this-many checks (1 = after every check). A sweep rebuilds every
    /// watch list, which costs more than letting a few already-satisfied
    /// cones sit in the database — propagation skips them via their
    /// false activation guard. The schedule is a pure function of the
    /// check count, so deferral never disturbs determinism.
    std::size_t simplify_interval = 1;
    sat::Solver::Config solver_config;
  };

  explicit IncrementalCecSession(const Netlist& golden)
      : IncrementalCecSession(golden, Options{}) {}
  IncrementalCecSession(const Netlist& golden, const Options& options);
  // The session only references `golden`; binding a temporary would
  // dangle on the first check, so reject rvalues at compile time.
  explicit IncrementalCecSession(Netlist&&) = delete;
  IncrementalCecSession(Netlist&&, const Options&) = delete;
  IncrementalCecSession(const IncrementalCecSession&) = delete;
  IncrementalCecSession& operator=(const IncrementalCecSession&) = delete;

  /// Proves or refutes golden == edition. kUnknown on quota/budget
  /// exhaustion (escalate) or when the session solver is no longer
  /// healthy. Degenerate checks (no outputs, or an edit cone that is
  /// empty after structural reuse, so no solve ran) are trivially
  /// equivalent with methods "trivial-no-outputs" /
  /// "trivial-identical-cone"; any check that ran a solve, merge proofs
  /// included, reports "sat-incremental".
  CecResult check(const Netlist& edition, const Budget* budget = nullptr);

  std::size_t checks() const { return checks_; }
  /// Cumulative structural-reuse tallies across all checks; the batch
  /// layer turns these into the cec.incremental.* telemetry counters.
  std::size_t gates_reused() const { return gates_reused_; }
  std::size_t gates_encoded() const { return gates_encoded_; }
  /// Cumulative sweep tallies: gates whose signature matched their golden
  /// counterpart, and those proven equal and merged into the golden
  /// encoding.
  std::size_t sweep_candidates() const { return sweep_candidates_; }
  std::size_t sweep_merges() const { return sweep_merges_; }

 private:
  /// 64-bit simulation words per net in the sweep signatures.
  static constexpr std::size_t kSignatureWords = 4;

  /// The check in flight: its budget, what is left of its conflict quota,
  /// and the result its solves are charged to.
  struct CheckState {
    const Budget* budget = nullptr;
    std::int64_t remaining = -1;
    CecResult* result = nullptr;
    bool solved = false;  // some solve ran (method is "sat-incremental")
  };

  struct StampedCone {
    sat::Var act = sat::kUndefVar;
    /// One "this output differs" variable per output whose edition cone
    /// did not resolve to the golden variable (empty = nothing to
    /// prove: the edit cone vanished under structural reuse).
    std::vector<sat::Var> diffs;
  };

  /// Validates the edition's interface (throws CheckError on mismatch),
  /// opens a fresh activation scope, and stamps the edition's edited
  /// cone into it, reusing the golden encoding for every structurally
  /// unchanged gate and merging every net the sweep proves equal to its
  /// golden counterpart.
  StampedCone stamp_edition(const Netlist& edition, CheckState& st);

  /// One assumption solve charged to the check: spends the check's
  /// conflict quota and adds its effort to the check's result.
  sat::Solver::Result charged_solve(const std::vector<sat::Lit>& assumptions,
                                    CheckState& st);

  /// True once the check's conflict quota is spent.
  bool quota_spent(const CheckState& st) const {
    return options_.conflict_limit >= 0 && st.remaining <= 0;
  }

  /// Retires a check's activation scope, runs the periodic database
  /// sweep (every Options::simplify_interval checks), and refreshes the
  /// session health flag.
  void retire_scope(sat::Var act);

  const Netlist& golden_;
  Options options_;
  sat::Solver solver_;
  std::optional<sat::TseitinEncoding> golden_enc_;
  sat::Var golden_vars_ = 0;  // variables of the golden encoding
  /// The sweep's simulation words: pi_words_[w][i] drives golden PI i,
  /// and golden_sigs_[net * kSignatureWords + w] is the golden response.
  std::vector<std::vector<std::uint64_t>> pi_words_;
  std::vector<std::uint64_t> golden_sigs_;
  bool healthy_ = true;
  std::size_t checks_since_simplify_ = 0;
  std::size_t checks_ = 0;
  std::size_t gates_reused_ = 0;
  std::size_t gates_encoded_ = 0;
  std::size_t sweep_candidates_ = 0;
  std::size_t sweep_merges_ = 0;
};

/// The composed checker: random simulation, then exhaustive (<= 20 PIs) or
/// SAT. `sat_conflict_limit` bounds the proof effort; on limit-exhaustion
/// the result is kUnknown (treat as failure in tests).
CecResult verify_equivalence(const Netlist& a, const Netlist& b,
                             std::size_t sim_words = 256,
                             std::uint64_t seed = 42,
                             std::int64_t sat_conflict_limit = -1);

struct BudgetedCecOptions {
  std::size_t sim_words = 256;       ///< Cheap up-front refutation filter.
  std::uint64_t seed = 42;
  std::int64_t sat_conflict_limit = -1;
  /// Cap on the extra refutation simulation run when the SAT proof
  /// exhausts its budget (64 patterns per word).
  std::size_t fallback_sim_words = 4096;
};

/// The degradation-aware checker the serving layers use. Differences from
/// verify_equivalence:
///  * mismatched interfaces (PI/PO count or name mismatch) return
///    Status::kMalformedInput instead of throwing CheckError;
///  * when the SAT proof exhausts `budget`, the checker falls back to
///    random-simulation refutation with whatever budget remains. A
///    difference found there is still an exact kDifferent verdict; if
///    simulation finds nothing the call returns Status::kExhausted
///    carrying a kUnknown CecResult whose confidence reflects the
///    simulation evidence accumulated (0 = none, asymptotically 1).
/// Equivalence proven within budget returns Status::kOk.
Outcome<CecResult> verify_equivalence_budgeted(
    const Netlist& a, const Netlist& b, const Budget* budget,
    const BudgetedCecOptions& options = {});

}  // namespace odcfp
