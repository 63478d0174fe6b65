// FIG1/FIG2/FIG5/FIG6/LST5 — regenerate every figure and the Listing 5
// coding from the paper, and verify the exact structural properties the
// paper states for each. Timings: conversion wall-clock per figure.
#include "bench_util.hpp"

#include "msc/codegen/program.hpp"
#include "msc/driver/pipeline.hpp"
#include "msc/workload/kernels.hpp"

using namespace msc;
using bench::Table;

namespace {

ir::CostModel kCost;

void check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "MISMATCH", what);
}

void report() {
  std::printf("== Reproduction of the paper's figures ==\n");

  // FIG1: MIMD state graph of Listing 1.
  auto l1 = driver::compile(workload::listing1().source);
  std::printf("\nFIG1 — MIMD state graph for Listing 1 "
              "(paper: 4 states A, B;C, D;E, F)\n");
  check(l1.graph.size() == 4, "4 MIMD states");
  const ir::Block& a = l1.graph.at(l1.graph.start);
  check(a.exit == ir::ExitKind::Branch, "A has TRUE/FALSE successors");
  check(l1.graph.at(a.target).target == a.target &&
            l1.graph.at(a.alt).target == a.alt,
        "B;C and D;E are self-looping do-while states");
  check(l1.graph.at(l1.graph.at(a.target).alt).exit == ir::ExitKind::Halt,
        "F is the terminal state");

  // FIG2: base meta-state automaton of Listing 1.
  auto base = bench::convert(l1.graph, kCost);
  std::printf("\nFIG2 — meta-state graph for Listing 1 (paper: 8 meta states)\n");
  check(base.automaton.num_states() == 8, "8 meta states");
  check(base.automaton.at(base.automaton.start).arcs.size() == 3,
        "3 successors out of the start state (3^1)");
  check(base.automaton.validate(base.graph).empty(), "automaton validates");

  // FIG5: compressed automaton of Listing 1.
  auto compressed = bench::convert(l1.graph, kCost, bench::kCompressStages);
  std::printf("\nFIG5 — compressed meta-state graph "
              "(paper: only two meta-states, compared to eight)\n");
  check(compressed.automaton.num_states() == 2, "2 meta states");
  check(compressed.automaton.at(compressed.automaton.start).arcs.empty(),
        "entry into the compressed portion is unconditional");

  // FIG6: Listing 3 with barrier under the paper's rule.
  auto l3 = driver::compile(workload::listing3().source);
  core::ConvertOptions prune;
  prune.barrier_mode = core::BarrierMode::PaperPrune;
  auto fig6 = bench::convert(l3.graph, kCost, bench::kStages, prune);
  std::printf("\nFIG6 — meta-state graph for Listing 3 "
              "(paper: loop states {2},{6},{2,6} + barrier state 9)\n");
  check(fig6.automaton.num_states() == 6,
        "6 meta states (start, {B;C}, {D;E}, {B;C,D;E}, {wait}, {F})");
  std::size_t mixed = 0;
  for (const auto& s : fig6.automaton.states)
    if (s.members.intersects(fig6.automaton.barriers) &&
        !s.members.is_subset_of(fig6.automaton.barriers))
      ++mixed;
  check(mixed == 0, "no meta state mixes waiting and running members");

  // LST5: MPL-style coding of Listing 4.
  auto l4 = driver::compile(workload::listing4().source);
  auto conv4 = bench::convert(l4.graph, kCost);
  auto prog = codegen::generate(conv4.automaton, conv4.graph, kCost, {});
  std::string mpl = codegen::to_mpl(prog, conv4.graph);
  std::printf("\nLST5 — MPL coding of Listing 4 (paper: 8 meta states, "
              "globalor + hashed switch)\n");
  check(conv4.automaton.num_states() == 8, "8 meta states (ms_0..ms_2_6_9)");
  std::size_t multiway = 0, hashed = 0;
  for (const auto& mc : prog.states) {
    if (mc.trans != codegen::TransKind::Multiway) continue;
    ++multiway;
    if (!mc.sw.is_linear()) ++hashed;
  }
  check(multiway == 7, "7 multiway branches");
  check(hashed == multiway, "every multiway branch got a perfect hash");
  check(mpl.find("apc = globalor(pc);") != std::string::npos,
        "emitted code aggregates pc via globalor");
  check(mpl.find("if (pc & BIT(") != std::string::npos,
        "emitted code guards ops with pc bit masks");

  // Summary table.
  Table t({"figure", "paper", "measured", "note"}, {10, 24, 24, 40});
  t.row({"FIG1", "4 MIMD states", bench::num(l1.graph.size()),
         "A, B;C, D;E, F"});
  t.row({"FIG2", "8 meta states", bench::num(base.automaton.num_states()),
         bench::num(base.automaton.num_arcs()) + " arcs"});
  t.row({"FIG5", "2 meta states", bench::num(compressed.automaton.num_states()),
         "subsumed compressed automaton"});
  t.row({"FIG6", "4 core + entry/exit",
         bench::num(fig6.automaton.num_states()),
         "PaperPrune barrier handling"});
  t.row({"LST5", "8 meta states", bench::num(conv4.automaton.num_states()),
         bench::num(hashed) + "/" + bench::num(multiway) + " hashed switches"});
  t.print("Figure reproduction summary");
}

void BM_ConvertListing1Base(benchmark::State& state) {
  auto l1 = driver::compile(workload::listing1().source);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::meta_state_convert(l1.graph, kCost, {}));
}
BENCHMARK(BM_ConvertListing1Base);

void BM_ConvertListing1Compressed(benchmark::State& state) {
  auto l1 = driver::compile(workload::listing1().source);
  core::ConvertOptions opts;
  opts.compress = true;
  for (auto _ : state)
    benchmark::DoNotOptimize(core::meta_state_convert(l1.graph, kCost, opts));
}
BENCHMARK(BM_ConvertListing1Compressed);

void BM_CodegenListing4(benchmark::State& state) {
  auto l4 = driver::compile(workload::listing4().source);
  auto conv = bench::convert(l4.graph, kCost);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        codegen::generate(conv.automaton, conv.graph, kCost, {}));
}
BENCHMARK(BM_CodegenListing4);

void BM_FrontendListing1(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(driver::compile(workload::listing1().source));
}
BENCHMARK(BM_FrontendListing1);

}  // namespace

MSC_BENCH_MAIN(report)
