// 64-way bit-parallel logic simulation.
//
// Each net carries a 64-bit word; bit b of the word is the net's value
// under pattern b. One run() therefore evaluates 64 input patterns. Used
// as the fast path of equivalence checking, for brute-force validation of
// ODC conditions in tests, and for switching-activity estimation.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "netlist/netlist.hpp"

namespace odcfp {

class Simulator {
 public:
  explicit Simulator(const Netlist& nl);

  /// The netlist this simulator was built for. The simulator caches the
  /// topological order, so the netlist must not be structurally modified
  /// between construction and run(); rebuild the Simulator after rewrites.
  const Netlist& netlist() const { return *nl_; }

  /// Sets the word of the i-th primary input (order of Netlist::inputs()).
  void set_input_word(std::size_t input_index, std::uint64_t word);

  /// Fills every PI word with random patterns.
  void randomize_inputs(Rng& rng);

  /// Loads PI words so that pattern b enumerates input combinations
  /// starting at `base`: PI i of pattern b = bit i of (base + b).
  /// Used for exhaustive simulation of small circuits.
  void load_counting_patterns(std::uint64_t base);

  /// Evaluates all gates in topological order.
  void run();

  /// Value word of an arbitrary net (valid after run()).
  std::uint64_t value(NetId net) const;

  /// Value words of the primary outputs, in port order.
  std::vector<std::uint64_t> output_words() const;

 private:
  const Netlist* nl_;
  std::vector<GateId> order_;
  std::vector<std::uint64_t> words_;  // indexed by NetId
};

/// Multi-word signatures: simulates `nl` once per entry of `input_words`
/// (input_words[w][i] is the word of the i-th primary input, order of
/// Netlist::inputs()) and returns every net's value words net-major:
/// result[net * W + w] with W = input_words.size().
std::vector<std::uint64_t> simulate_signatures(
    const Netlist& nl,
    const std::vector<std::vector<std::uint64_t>>& input_words);

/// Evaluates one gate function over value words: word-parallel application
/// of the truth table. Exposed for reuse by the power estimator.
std::uint64_t eval_tt_words(const TruthTable& tt,
                            const std::vector<std::uint64_t>& input_words);

}  // namespace odcfp
