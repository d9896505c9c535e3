// IncrementalCecSession and the batch verification paths built on it.
//
// The load-bearing property (and the reason this suite is in the TSan
// regex): for every (circuit, edition) pair, the shared-miter incremental
// path, the solver portfolio, and the legacy per-buyer path must produce
// identical verdict statuses at any thread count — and every reported
// counterexample, whichever path found it, must actually distinguish the
// two circuits under simulation. (Counterexample bits may legitimately
// differ between paths: distinct searches find distinct models.)
#include "equiv/cec.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "benchgen/benchmarks.hpp"
#include "common/parallel.hpp"
#include "common/telemetry.hpp"
#include "fingerprint/batch.hpp"
#include "sat/tseitin.hpp"
#include "sim/simulator.hpp"

namespace odcfp {
namespace {

/// f = a & ~b, with PIs declared in the given order. The function is
/// asymmetric on purpose: wiring the PIs positionally instead of by name
/// would flip the verdict, which is exactly what the permuted-interface
/// tests pin.
Netlist a_and_not_b(bool declare_b_first) {
  Netlist nl(&default_cell_library(), "a_and_not_b");
  NetId a, b;
  if (declare_b_first) {
    b = nl.add_input("b");
    a = nl.add_input("a");
  } else {
    a = nl.add_input("a");
    b = nl.add_input("b");
  }
  const GateId inv = nl.add_gate_kind(CellKind::kInv, {b});
  const GateId g = nl.add_gate_kind(CellKind::kAnd,
                                    {a, nl.gate(inv).output});
  nl.add_output(nl.gate(g).output, "f");
  return nl;
}

/// Simulates `pattern` (in a's PI order) on both circuits and reports
/// whether any name-matched output pair disagrees.
bool cex_distinguishes(const Netlist& a, const Netlist& b,
                       const std::vector<bool>& pattern) {
  EXPECT_EQ(pattern.size(), a.inputs().size());
  Simulator sa(a), sb(b);
  for (std::size_t i = 0; i < a.inputs().size(); ++i) {
    const std::uint64_t word = pattern[i] ? ~0ull : 0ull;
    sa.set_input_word(i, word);
    const std::string& name = a.net(a.inputs()[i]).name;
    for (std::size_t j = 0; j < b.inputs().size(); ++j) {
      if (b.net(b.inputs()[j]).name == name) sb.set_input_word(j, word);
    }
  }
  sa.run();
  sb.run();
  for (const OutputPort& pa : a.outputs()) {
    for (const OutputPort& pb : b.outputs()) {
      if (pa.name != pb.name) continue;
      if ((sa.value(pa.net) & 1) != (sb.value(pb.net) & 1)) return true;
    }
  }
  return false;
}

struct Fixture {
  explicit Fixture(const char* circuit = "c880", std::size_t buyers = 6)
      : golden(make_benchmark(circuit)),
        locs(find_locations(golden)),
        book(locs, buyers, 17) {}

  Netlist golden;
  StaticTimingAnalyzer sta;
  PowerAnalyzer power;
  std::vector<FingerprintLocation> locs;
  Codebook book;

  BatchResult stamp() {
    BatchOptions opt;
    opt.max_delay_overhead = 0;
    return batch_fingerprint(golden, book, sta, power, opt);
  }
};

TEST(IncrementalCec, SessionProvesCloneEditionsEquivalent) {
  Fixture f;
  const BatchResult batch = f.stamp();
  IncrementalCecSession session(f.golden);
  for (const BuyerEdition& e : batch.editions) {
    const CecResult r = session.check(e.netlist);
    EXPECT_EQ(r.status, CecResult::Status::kEquivalent);
    EXPECT_EQ(r.method, "sat-incremental");
  }
  EXPECT_EQ(session.checks(), batch.editions.size());
  // Edits re-encode their whole transitive fanout, so reuse is partial —
  // but it must be substantial, or the session degraded to fresh
  // per-edition encoding.
  EXPECT_GT(4 * session.gates_reused(), session.gates_encoded());
}

TEST(IncrementalCec, SessionFindsRealCounterexamples) {
  // Corrupt each edition by inverting one stamped net's fanout; the
  // session must refute it with a counterexample that simulation
  // confirms, and keep answering correctly on the next check.
  Fixture f;
  const BatchResult batch = f.stamp();
  IncrementalCecSession session(f.golden);
  for (const BuyerEdition& e : batch.editions) {
    Netlist bad = e.netlist;
    for (GateId g = 0; g < bad.num_gates(); ++g) {
      if (bad.gate(g).is_dead()) continue;
      if (bad.cell_of(g).kind == CellKind::kNand &&
          bad.cell_of(g).num_inputs() == 2) {
        bad.rewire_gate(g, bad.library().find_kind(CellKind::kNor, 2),
                        bad.gate(g).fanins);
        break;
      }
    }
    const CecResult r = session.check(bad);
    ASSERT_EQ(r.status, CecResult::Status::kDifferent);
    EXPECT_TRUE(cex_distinguishes(f.golden, bad, r.counterexample));
  }
}

TEST(IncrementalCec, IdenticalCloneIsTriviallyEquivalent) {
  // A byte-identical clone reuses every cone: the degenerate empty edit
  // cone is answered without a solve, with its own diagnostic.
  const Netlist golden = make_benchmark("c432");
  const Netlist clone = make_benchmark("c432");
  IncrementalCecSession session(golden);
  const CecResult r = session.check(clone);
  EXPECT_EQ(r.status, CecResult::Status::kEquivalent);
  EXPECT_EQ(r.method, "trivial-identical-cone");
  EXPECT_EQ(r.sat_stats.conflicts, 0u);
}

TEST(IncrementalCec, NoOutputsIsTriviallyEquivalent) {
  Netlist golden(&default_cell_library(), "g");
  golden.add_input("x");
  Netlist edition(&default_cell_library(), "e");
  edition.add_input("x");
  IncrementalCecSession session(golden);
  const CecResult r = session.check(edition);
  EXPECT_EQ(r.status, CecResult::Status::kEquivalent);
  EXPECT_EQ(r.method, "trivial-no-outputs");
}

TEST(IncrementalCec, ZeroConflictQuotaReturnsUnknown) {
  // A quota the first sub-query cannot even start is an escalation
  // signal, never a fabricated verdict. The edition is a structurally
  // different implementation, so the check cannot short-circuit through
  // structural reuse.
  Netlist golden(&default_cell_library(), "flat");
  {
    const NetId a = golden.add_input("a");
    const NetId b = golden.add_input("b");
    const NetId c = golden.add_input("c");
    const GateId g = golden.add_gate_kind(CellKind::kAnd, {a, b, c});
    golden.add_output(golden.gate(g).output, "f");
  }
  Netlist tree(&default_cell_library(), "tree");
  {
    const NetId a = tree.add_input("a");
    const NetId b = tree.add_input("b");
    const NetId c = tree.add_input("c");
    const GateId g1 = tree.add_gate_kind(CellKind::kNand, {a, b});
    const GateId g2 = tree.add_gate_kind(CellKind::kInv,
                                         {tree.gate(g1).output});
    const GateId g3 = tree.add_gate_kind(CellKind::kAnd,
                                         {tree.gate(g2).output, c});
    tree.add_output(tree.gate(g3).output, "f");
  }
  IncrementalCecSession::Options options;
  options.conflict_limit = 0;
  IncrementalCecSession session(golden, options);
  const CecResult r = session.check(tree);
  EXPECT_EQ(r.status, CecResult::Status::kUnknown);

  // The same check with an honest quota proves equivalence — the
  // session stays healthy after a quota-exhausted answer.
  IncrementalCecSession generous(golden);
  EXPECT_EQ(generous.check(tree).status, CecResult::Status::kEquivalent);
}

TEST(IncrementalCec, PermutedInterfaceVerifiesByName) {
  // The edition declares its PIs in the opposite order but names them
  // identically, and implements ~b with different gates so nothing can
  // be structurally reused: the proof must run through PI vars shared by
  // the name-matched map, not positionally, or this asymmetric function
  // flips verdict.
  Netlist permuted(&default_cell_library(), "permuted");
  const NetId b = permuted.add_input("b");
  const NetId a = permuted.add_input("a");
  const GateId nb = permuted.add_gate_kind(CellKind::kNand, {b, b});
  const GateId g = permuted.add_gate_kind(CellKind::kAnd,
                                          {a, permuted.gate(nb).output});
  permuted.add_output(permuted.gate(g).output, "f");

  const Netlist golden = a_and_not_b(false);
  IncrementalCecSession session(golden);
  const CecResult r = session.check(permuted);
  EXPECT_EQ(r.status, CecResult::Status::kEquivalent);
  EXPECT_EQ(r.method, "sat-incremental");
}

TEST(IncrementalCec, PermutedInterfaceStillRefutesRealDifferences) {
  // Same declaration permutation, but the edition genuinely computes
  // b & ~a: the session must refute it, with a simulation-confirmed
  // counterexample.
  Netlist swapped(&default_cell_library(), "b_and_not_a");
  const NetId b = swapped.add_input("b");
  const NetId a = swapped.add_input("a");
  const GateId inv = swapped.add_gate_kind(CellKind::kInv, {a});
  const GateId g = swapped.add_gate_kind(
      CellKind::kAnd, {b, swapped.gate(inv).output});
  swapped.add_output(swapped.gate(g).output, "f");

  const Netlist golden = a_and_not_b(false);
  IncrementalCecSession session(golden);
  const CecResult r = session.check(swapped);
  ASSERT_EQ(r.status, CecResult::Status::kDifferent);
  EXPECT_TRUE(cex_distinguishes(golden, swapped, r.counterexample));
}

TEST(IncrementalCec, VerdictsIdenticalAcrossPathsAndThreadCounts) {
  // The property test from the issue: every (circuit, edition) pair
  // yields the same verdict status from the incremental path, the
  // portfolio, and the legacy per-buyer path, at 1/2/8 threads. One
  // edition is corrupted so both verdict polarities are exercised.
  Fixture f;
  BatchResult batch = f.stamp();
  ASSERT_GE(batch.editions.size(), 4u);
  Netlist& victim = batch.editions[2].netlist;
  for (GateId g = 0; g < victim.num_gates(); ++g) {
    if (victim.gate(g).is_dead()) continue;
    if (victim.cell_of(g).kind == CellKind::kNand &&
        victim.cell_of(g).num_inputs() == 2) {
      victim.rewire_gate(g, victim.library().find_kind(CellKind::kNor, 2),
                         victim.gate(g).fanins);
      break;
    }
  }

  std::vector<CecResult::Status> reference;
  const auto check_statuses =
      [&](const std::vector<Outcome<CecResult>>& verdicts,
          const char* label) {
        std::vector<CecResult::Status> statuses;
        for (std::size_t i = 0; i < verdicts.size(); ++i) {
          const CecResult& r = verdicts[i].value();
          statuses.push_back(r.status);
          if (r.status == CecResult::Status::kDifferent) {
            EXPECT_TRUE(cex_distinguishes(f.golden,
                                          batch.editions[i].netlist,
                                          r.counterexample))
                << label << " edition " << i;
          }
        }
        if (reference.empty()) {
          reference = statuses;
          EXPECT_EQ(statuses[2], CecResult::Status::kDifferent);
        } else {
          EXPECT_EQ(statuses, reference) << label;
        }
      };

  for (const bool incremental : {false, true}) {
    for (const int threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      BatchCecOptions opt;
      opt.pool = &pool;
      opt.incremental = incremental;
      const auto verdicts =
          batch_verify_equivalence(f.golden, batch.editions, opt);
      ASSERT_EQ(verdicts.size(), batch.editions.size());
      check_statuses(verdicts,
                     incremental ? "incremental" : "legacy");
    }
  }

  // The portfolio path, edition by edition (its race is single-threaded
  // by design).
  std::vector<CecResult::Status> portfolio;
  for (std::size_t i = 0; i < batch.editions.size(); ++i) {
    const CecResult r =
        check_equivalence_portfolio(f.golden, batch.editions[i].netlist);
    portfolio.push_back(r.status);
    if (r.status == CecResult::Status::kDifferent) {
      EXPECT_TRUE(cex_distinguishes(f.golden, batch.editions[i].netlist,
                                    r.counterexample))
          << "portfolio edition " << i;
    }
  }
  EXPECT_EQ(portfolio, reference);
}

TEST(IncrementalCec, SessionVerdictsMatchLegacyPerEdition) {
  // Direct session-vs-legacy agreement without the batch layer, so a
  // batch-layer bug cannot mask a session one.
  Fixture f;
  const BatchResult batch = f.stamp();
  IncrementalCecSession session(f.golden);
  for (const BuyerEdition& e : batch.editions) {
    const CecResult inc = session.check(e.netlist);
    const CecResult legacy = verify_equivalence(f.golden, e.netlist);
    EXPECT_EQ(inc.status, legacy.status);
  }
}

// ------------------------------------------------------------ sweeping

/// The cell computing the complement of gate g's function with the same
/// fanins, or kInvalidCell when the library has none.
CellId complement_cell(const Netlist& nl, GateId g) {
  static const std::vector<std::pair<CellKind, CellKind>> kPairs = {
      {CellKind::kAnd, CellKind::kNand}, {CellKind::kOr, CellKind::kNor},
      {CellKind::kXor, CellKind::kXnor}, {CellKind::kBuf, CellKind::kInv}};
  const CellKind kind = nl.cell_of(g).kind;
  const int arity = nl.cell_of(g).num_inputs();
  for (const auto& [a, b] : kPairs) {
    for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
      if (kind == from && nl.library().max_arity(to) >= arity) {
        return nl.library().find_kind(to, arity);
      }
    }
  }
  return kInvalidCell;
}

/// Complements gate g of a copy of `edition` (a planted bug), or returns
/// nullopt when the library cannot or the bug is unobservable at the
/// outputs (random simulation finds no difference from `golden`).
std::optional<Netlist> plant_bug(const Netlist& golden,
                                 const Netlist& edition, GateId g) {
  if (edition.gate(g).is_dead()) return std::nullopt;
  const CellId cell = complement_cell(edition, g);
  if (cell == kInvalidCell) return std::nullopt;
  Netlist bad = edition;
  bad.rewire_gate(g, cell, bad.gate(g).fanins);
  if (random_sim_equal(golden, bad, 64, 7)) return std::nullopt;
  return bad;
}

/// Locations whose FFC the edition actually modified.
std::vector<const FingerprintLocation*> edited_locations(
    const Netlist& golden, const Netlist& edition,
    const std::vector<FingerprintLocation>& locs) {
  std::vector<const FingerprintLocation*> edited;
  for (const FingerprintLocation& loc : locs) {
    for (const InjectionSite& site : loc.sites) {
      const Gate& a = golden.gate(site.gate);
      const Gate& b = edition.gate(site.gate);
      if (a.cell != b.cell || a.fanins != b.fanins) {
        edited.push_back(&loc);
        break;
      }
    }
  }
  return edited;
}

/// Gates a session WITHOUT sweeping would encode for `edition`: plain
/// structural reuse re-encodes each edit's whole transitive fanout.
std::size_t unswept_encoded_gates(const Netlist& golden,
                                  const Netlist& edition) {
  sat::Solver solver;
  const sat::TseitinEncoding base(solver, golden);
  sat::TseitinOptions options;
  options.share_inputs = &base.input_vars();
  options.base = &golden;
  options.base_encoding = &base;
  return sat::TseitinEncoding(solver, edition, options).encoded_gates();
}

std::int64_t tree_counter(const telemetry::Node& node, const char* name) {
  std::int64_t total = node.counter(name);
  for (const auto& [child_name, child] : node.children) {
    total += tree_counter(child, name);
  }
  return total;
}

TEST(IncrementalCecSweep, VerdictsMatchMonolithicOracle) {
  // The monolithic shared-PI miter (check_equivalence_sat) is the oracle:
  // the swept session must agree on every edition, and on a corrupted one
  // per circuit, with simulation-confirmed counterexamples.
  for (const auto& [circuit, buyers] :
       {std::pair{"c880", std::size_t{6}}, std::pair{"c3540", std::size_t{3}}}) {
    Fixture f(circuit, buyers);
    BatchResult batch = f.stamp();
    const Netlist& first = batch.editions[0].netlist;
    const auto edited = edited_locations(f.golden, first, f.locs);
    ASSERT_FALSE(edited.empty()) << circuit;
    std::optional<Netlist> bad;
    for (const FingerprintLocation* loc : edited) {
      bad = plant_bug(f.golden, first, loc->primary);
      if (bad) break;
    }
    ASSERT_TRUE(bad.has_value()) << circuit;
    std::vector<const Netlist*> editions = {&*bad};
    for (const BuyerEdition& e : batch.editions) {
      editions.push_back(&e.netlist);
    }

    IncrementalCecSession session(f.golden);
    for (const Netlist* e : editions) {
      const CecResult swept = session.check(*e);
      const CecResult oracle = check_equivalence_sat(f.golden, *e);
      EXPECT_EQ(swept.status, oracle.status) << circuit;
      EXPECT_EQ(swept.method, "sat-incremental") << circuit;
      if (swept.status == CecResult::Status::kDifferent) {
        EXPECT_TRUE(cex_distinguishes(f.golden, *e, swept.counterexample))
            << circuit;
      }
    }
    EXPECT_EQ(session.checks(), editions.size());
    EXPECT_GT(session.sweep_merges(), 0u) << circuit;
  }
}

TEST(IncrementalCecSweep, BugAtPrimaryGateIsRefuted) {
  // Complementing an edited location's primary gate breaks the very net
  // the sweep would merge: its signature no longer matches, so it stays
  // unmerged and the residual miter must find the difference.
  Fixture f("c3540", 2);
  const BatchResult batch = f.stamp();
  IncrementalCecSession session(f.golden);
  std::size_t planted = 0;
  for (const BuyerEdition& e : batch.editions) {
    for (const FingerprintLocation* loc :
         edited_locations(f.golden, e.netlist, f.locs)) {
      const std::optional<Netlist> bad =
          plant_bug(f.golden, e.netlist, loc->primary);
      if (!bad) continue;
      const CecResult r = session.check(*bad);
      ASSERT_EQ(r.status, CecResult::Status::kDifferent);
      EXPECT_TRUE(cex_distinguishes(f.golden, *bad, r.counterexample));
      // The session keeps answering correctly after a refutation.
      EXPECT_EQ(session.check(e.netlist).status,
                CecResult::Status::kEquivalent);
      ++planted;
      break;
    }
  }
  EXPECT_EQ(planted, batch.editions.size());
}

TEST(IncrementalCecSweep, BugDownstreamOfMergePointIsRefuted) {
  // The edit merges at its primary gate; a bug one gate further down must
  // still surface: merging hands the fanout back to structural reuse,
  // which re-encodes the corrupted gate and everything after it.
  Fixture f("c3540", 2);
  const BatchResult batch = f.stamp();
  IncrementalCecSession session(f.golden);
  std::size_t planted = 0;
  for (const BuyerEdition& e : batch.editions) {
    std::optional<Netlist> bad;
    for (const FingerprintLocation* loc :
         edited_locations(f.golden, e.netlist, f.locs)) {
      const NetId merge_point = e.netlist.gate(loc->primary).output;
      for (const FanoutRef& ref : e.netlist.net(merge_point).fanouts) {
        bad = plant_bug(f.golden, e.netlist, ref.gate);
        if (bad) break;
      }
      if (bad) break;
    }
    ASSERT_TRUE(bad.has_value());
    const std::size_t merges_before = session.sweep_merges();
    const CecResult r = session.check(*bad);
    ASSERT_EQ(r.status, CecResult::Status::kDifferent);
    EXPECT_TRUE(cex_distinguishes(f.golden, *bad, r.counterexample));
    // The untouched edits of this edition still merged.
    EXPECT_GT(session.sweep_merges(), merges_before);
    ++planted;
  }
  EXPECT_EQ(planted, batch.editions.size());
}

TEST(IncrementalCecSweep, MergesShrinkTheEncodingOnC3540) {
  // A regression that silently stops merging leaves verdicts intact but
  // re-encodes every edit's whole fanout: pin that the sweep merges and
  // encodes fewer gates than plain structural reuse would.
  Fixture f("c3540", 4);
  const BatchResult batch = f.stamp();
  IncrementalCecSession session(f.golden);
  std::size_t unswept = 0;
  for (const BuyerEdition& e : batch.editions) {
    const CecResult r = session.check(e.netlist);
    EXPECT_EQ(r.status, CecResult::Status::kEquivalent);
    EXPECT_EQ(r.method, "sat-incremental");
    unswept += unswept_encoded_gates(f.golden, e.netlist);
  }
  EXPECT_GT(session.sweep_merges(), 0u);
  EXPECT_GE(session.sweep_candidates(), session.sweep_merges());
  EXPECT_LT(session.gates_encoded(), unswept);

  // The batch layer reports the same deterministic cec.sweep.* counters.
  const bool was_enabled = telemetry::enabled();
  telemetry::set_enabled(true);
  std::vector<std::int64_t> merges;
  for (int run = 0; run < 2; ++run) {
    telemetry::flush_thread();
    telemetry::reset();
    const auto verdicts = batch_verify_equivalence(f.golden, batch.editions);
    for (const Outcome<CecResult>& v : verdicts) {
      EXPECT_TRUE(v.value().equivalent());
    }
    telemetry::flush_thread();
    merges.push_back(tree_counter(telemetry::snapshot(), "cec.sweep.merges"));
  }
  telemetry::set_enabled(was_enabled);
  EXPECT_GT(merges[0], 0);
  EXPECT_EQ(merges[0], merges[1]);
}

TEST(IncrementalCecSweep, SignatureMatchIsNeverTrustedWithoutProof) {
  // f = A & B over two 16-input AND chains; the edition computes A & A.
  // They differ only when A = 1 and B = 0 (2^-16 of patterns), so the
  // sweep's random signatures match, and only the merge proof can refuse
  // the merge. A sweep that merged on signatures alone would call the
  // edition equivalent.
  Netlist golden(&default_cell_library(), "and_chains");
  const auto chain = [&golden](int first) {
    const auto pi = [&golden](int i) {
      std::string name = "x";
      name += std::to_string(i);
      return golden.add_input(name);
    };
    NetId acc = pi(first);
    for (int i = first + 1; i < first + 16; ++i) {
      const NetId x = pi(i);
      acc = golden.gate(golden.add_gate_kind(CellKind::kAnd, {acc, x}))
                .output;
    }
    return acc;
  };
  const NetId a = chain(0);
  const NetId b = chain(16);
  const GateId root = golden.add_gate_kind(CellKind::kAnd, {a, b});
  golden.add_output(golden.gate(root).output, "f");

  Netlist edition = golden;
  edition.rewire_gate(root, edition.gate(root).cell, {a, a});
  IncrementalCecSession session(golden);
  const CecResult r = session.check(edition);
  EXPECT_EQ(session.sweep_candidates(), 1u);  // the signatures matched
  EXPECT_EQ(session.sweep_merges(), 0u);
  ASSERT_EQ(r.status, CecResult::Status::kDifferent);
  EXPECT_TRUE(cex_distinguishes(golden, edition, r.counterexample));
}

TEST(IncrementalCecSweep, ZeroQuotaSkipsMergeProofs) {
  // Merge proofs spend the check's conflict quota: with none, no merge
  // is attempted and the check escalates instead of answering.
  Fixture f("c3540", 1);
  const BatchResult batch = f.stamp();
  IncrementalCecSession::Options options;
  options.conflict_limit = 0;
  IncrementalCecSession session(f.golden, options);
  const CecResult r = session.check(batch.editions[0].netlist);
  EXPECT_EQ(r.status, CecResult::Status::kUnknown);
  EXPECT_EQ(session.sweep_merges(), 0u);
}

}  // namespace
}  // namespace odcfp
