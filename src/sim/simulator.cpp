#include "sim/simulator.hpp"

#include "common/check.hpp"

namespace odcfp {

std::uint64_t eval_tt_words(const TruthTable& tt,
                            const std::vector<std::uint64_t>& input_words) {
  ODCFP_DCHECK(static_cast<int>(input_words.size()) == tt.num_inputs());
  if (tt.num_inputs() == 0) {
    return tt.is_constant() && tt.constant_value() ? ~0ull : 0ull;
  }
  std::uint64_t out = 0;
  for (unsigned p = 0; p < tt.num_rows(); ++p) {
    if (!tt.eval(p)) continue;
    std::uint64_t term = ~0ull;
    for (int i = 0; i < tt.num_inputs(); ++i) {
      const std::uint64_t w = input_words[static_cast<std::size_t>(i)];
      term &= ((p >> i) & 1) ? w : ~w;
    }
    out |= term;
  }
  return out;
}

Simulator::Simulator(const Netlist& nl)
    : nl_(&nl), order_(nl.topo_order()), words_(nl.num_nets(), 0) {}

void Simulator::set_input_word(std::size_t input_index, std::uint64_t word) {
  ODCFP_CHECK(input_index < nl_->inputs().size());
  words_[nl_->inputs()[input_index]] = word;
}

void Simulator::randomize_inputs(Rng& rng) {
  for (NetId pi : nl_->inputs()) words_[pi] = rng.next_u64();
}

void Simulator::load_counting_patterns(std::uint64_t base) {
  const auto& pis = nl_->inputs();
  for (std::size_t i = 0; i < pis.size(); ++i) {
    std::uint64_t w = 0;
    for (unsigned b = 0; b < 64; ++b) {
      if (((base + b) >> i) & 1) w |= 1ull << b;
    }
    words_[pis[i]] = w;
  }
}

void Simulator::run() {
  std::vector<std::uint64_t> ins;
  for (GateId g : order_) {
    const Gate& gt = nl_->gate(g);
    const TruthTable& tt = nl_->library().cell(gt.cell).function;
    ins.clear();
    for (NetId in : gt.fanins) ins.push_back(words_[in]);
    words_[gt.output] = eval_tt_words(tt, ins);
  }
}

std::uint64_t Simulator::value(NetId net) const {
  ODCFP_CHECK(net < words_.size());
  return words_[net];
}

std::vector<std::uint64_t> Simulator::output_words() const {
  std::vector<std::uint64_t> out;
  out.reserve(nl_->outputs().size());
  for (const OutputPort& p : nl_->outputs()) out.push_back(words_[p.net]);
  return out;
}

std::vector<std::uint64_t> simulate_signatures(
    const Netlist& nl,
    const std::vector<std::vector<std::uint64_t>>& input_words) {
  const std::size_t num_words = input_words.size();
  std::vector<std::uint64_t> sigs(nl.num_nets() * num_words, 0);
  Simulator sim(nl);
  for (std::size_t w = 0; w < num_words; ++w) {
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      sim.set_input_word(i, input_words[w][i]);
    }
    sim.run();
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      sigs[n * num_words + w] = sim.value(n);
    }
  }
  return sigs;
}

}  // namespace odcfp
