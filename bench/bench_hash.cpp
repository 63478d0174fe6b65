// T-HASH — §3.2.3 / [Die92a]: multiway branches keyed on sparse
// aggregate-pc words must dispatch through a customized-hash jump table
// rather than a compare chain. Measure modeled dispatch cost, table
// density, and which hash families the searcher picks on real automata.
#include "bench_util.hpp"

#include "msc/driver/pipeline.hpp"
#include "msc/codegen/program.hpp"
#include "msc/hash/multiway.hpp"
#include "msc/support/rng.hpp"
#include "msc/workload/kernels.hpp"

using namespace msc;
using bench::Table;

namespace {

ir::CostModel kCost;

std::vector<std::uint64_t> subset_keys(int nbits, Rng& rng, std::size_t count) {
  // Random aggregate-pc values: subsets of nbits scattered pc bits.
  std::vector<int> bits;
  while (bits.size() < static_cast<std::size_t>(nbits)) {
    int b = static_cast<int>(rng.next_below(48));
    bool dup = false;
    for (int o : bits) dup |= o == b;
    if (!dup) bits.push_back(b);
  }
  std::vector<std::uint64_t> keys;
  while (keys.size() < count) {
    std::uint64_t k = 0;
    for (int b : bits)
      if (rng.chance(1, 2)) k |= 1ull << b;
    if (k == 0) continue;
    bool dup = false;
    for (std::uint64_t o : keys) dup |= o == k;
    if (!dup) keys.push_back(k);
  }
  return keys;
}

void report() {
  std::printf("== T-HASH: multiway-branch encoding ==\n");

  // Modeled dispatch cost: hashed jump table vs. linear compare chain.
  Table t({"cases", "hashed cost", "chain cost", "speedup", "mean density"},
          {8, 12, 12, 10, 13});
  Rng rng(7);
  for (std::size_t n : {2u, 4u, 8u, 16u, 32u}) {
    double density = 0.0;
    int trials = 20;
    for (int i = 0; i < trials; ++i) {
      auto keys = subset_keys(static_cast<int>(n < 6 ? 6 : n), rng, n);
      auto sw = hash::build_switch(keys);
      density += sw.density();
    }
    std::int64_t hashed = kCost.hash_dispatch;
    std::int64_t chain = kCost.case_test * static_cast<std::int64_t>((n + 1) / 2);
    t.row({bench::num(n), bench::num(hashed), bench::num(chain),
           bench::ratio(static_cast<double>(chain) / static_cast<double>(hashed)),
           bench::pct(density / trials)});
  }
  t.print("Modeled dispatch cycles per transition (chain cost = average "
          "successful compare depth)");

  // What the searcher picks on real meta-state automata.
  Table fam({"kernel", "switches", "identity", "shift", "not-shift",
             "xor-shift", "mul", "linear", "mean table"},
            {14, 10, 10, 8, 11, 11, 6, 8, 11});
  for (const auto& name : {"listing1", "listing3", "branchy4", "recursion"}) {
    auto compiled = driver::compile(workload::kernel(name).source);
    auto conv = bench::convert(compiled.graph, kCost);
    auto prog = codegen::generate(conv.automaton, conv.graph, kCost, {});
    std::size_t counts[6] = {0, 0, 0, 0, 0, 0};
    std::size_t total = 0, table_cells = 0;
    for (const auto& mc : prog.states) {
      if (mc.trans != codegen::TransKind::Multiway) continue;
      ++total;
      counts[static_cast<int>(mc.sw.fn.kind)]++;
      table_cells += mc.sw.table_size();
    }
    fam.row({name, bench::num(total), bench::num(counts[0]),
             bench::num(counts[1]), bench::num(counts[2]),
             bench::num(counts[3]), bench::num(counts[4]),
             bench::num(counts[5]),
             total ? fmt_double(static_cast<double>(table_cells) /
                                    static_cast<double>(total), 1)
                   : "-"});
  }
  fam.print("Hash-family selection over real automata ([Die92a] families; "
            "Listing 5 used not-shift and xor-shift forms)");
}

void BM_BuildSwitch(benchmark::State& state) {
  Rng rng(11);
  auto keys = subset_keys(8, rng, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(hash::build_switch(keys));
}
BENCHMARK(BM_BuildSwitch)->Arg(4)->Arg(16)->Arg(64);

void BM_HashedLookup(benchmark::State& state) {
  Rng rng(13);
  auto keys = subset_keys(8, rng, 16);
  auto sw = hash::build_switch(keys);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sw.lookup(keys[i++ % keys.size()]));
  }
}
BENCHMARK(BM_HashedLookup);

}  // namespace

MSC_BENCH_MAIN(report)
