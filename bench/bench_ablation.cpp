// T-ABLATE — pipeline ablations for the design choices DESIGN.md calls
// out: §3.1 CSI, §4.2 straightening (fall-through layout), the IR
// peephole pass, and Fig.-5 subsumption. Each is toggled independently
// and measured end-to-end in SIMD cycles.
#include "bench_util.hpp"

#include "msc/driver/pipeline.hpp"
#include "msc/driver/runner.hpp"
#include "msc/ir/build.hpp"
#include "msc/ir/passes.hpp"
#include "msc/ir/peephole.hpp"
#include "msc/workload/kernels.hpp"

using namespace msc;
using bench::Table;

namespace {

ir::CostModel kCost;
constexpr std::uint64_t kSeed = 61;

std::int64_t run_cycles(const driver::Compiled& compiled,
                        const ir::StateGraph& graph,
                        const std::vector<std::string>& stages,
                        codegen::CodegenOptions gopts) {
  auto conv = bench::convert(graph, kCost, stages);
  auto prog = codegen::generate(conv.automaton, conv.graph, kCost, gopts);
  mimd::RunConfig cfg;
  cfg.nprocs = 16;
  auto m_ptr = simd::make_machine(prog, kCost, cfg);
  simd::SimdMachine& m = *m_ptr;
  driver::seed_machine(m, compiled, cfg, kSeed);
  m.run();
  return m.stats().control_cycles;
}

void report() {
  std::printf("== T-ABLATE: what each pipeline stage buys (SIMD cycles, "
              "16 PEs) ==\n");

  Table t({"kernel", "full", "-peephole", "-csi", "-straighten", "-all"},
          {18, 9, 12, 9, 13, 9});
  for (const char* name :
       {"listing1", "listing3", "branchy4", "loopmix", "floatmix",
        "barrier_pipeline"}) {
    const auto& k = workload::kernel(name);
    auto compiled = driver::compile(k.source);  // peephole applied
    // Rebuild the graph without peephole for that ablation.
    ir::StateGraph raw =
        ir::build_state_graph(*compiled.program, compiled.layout);
    ir::simplify(raw);

    codegen::CodegenOptions g_full, g_nocsi;
    g_nocsi.use_csi = false;

    const std::vector<std::string> no_straighten = {"convert", "subsume"};
    std::int64_t full =
        run_cycles(compiled, compiled.graph, bench::kStages, g_full);
    std::int64_t nopeep = run_cycles(compiled, raw, bench::kStages, g_full);
    std::int64_t nocsi =
        run_cycles(compiled, compiled.graph, bench::kStages, g_nocsi);
    std::int64_t nostraight =
        run_cycles(compiled, compiled.graph, no_straighten, g_full);
    std::int64_t none = run_cycles(compiled, raw, no_straighten, g_nocsi);
    t.row({name, bench::num(full), bench::num(nopeep), bench::num(nocsi),
           bench::num(nostraight), bench::num(none)});
  }
  t.print("Cycle cost with one stage disabled at a time (lower = better; "
          "'full' = shipping pipeline)");

  // How much static code the stages remove.
  Table s({"kernel", "instrs raw", "after peephole", "removed"},
          {18, 12, 16, 10});
  for (const char* name : {"listing1", "recursion", "barrier_pipeline"}) {
    const auto& k = workload::kernel(name);
    auto compiled = driver::compile(k.source);
    ir::StateGraph raw =
        ir::build_state_graph(*compiled.program, compiled.layout);
    ir::simplify(raw);
    std::size_t before = 0, after = 0;
    for (const auto& b : raw.blocks) before += b.body.size();
    for (const auto& b : compiled.graph.blocks) after += b.body.size();
    s.row({name, bench::num(before), bench::num(after),
           bench::pct(1.0 - static_cast<double>(after) /
                                static_cast<double>(before))});
  }
  s.print("Static instruction count, raw vs. peephole-optimized");
}

void BM_PipelineFull(benchmark::State& state) {
  const auto& k = workload::kernel("loopmix");
  for (auto _ : state) {
    auto compiled = driver::compile(k.source);
    auto conv = bench::convert(compiled.graph, kCost);
    auto prog = codegen::generate(conv.automaton, conv.graph, kCost, {});
    benchmark::DoNotOptimize(prog);
  }
}
BENCHMARK(BM_PipelineFull);

void BM_PeepholePass(benchmark::State& state) {
  const auto& k = workload::kernel("recursion");
  auto compiled = driver::compile(k.source);
  for (auto _ : state) {
    ir::StateGraph raw =
        ir::build_state_graph(*compiled.program, compiled.layout);
    ir::simplify(raw);
    benchmark::DoNotOptimize(ir::peephole(raw));
  }
}
BENCHMARK(BM_PeepholePass);

}  // namespace

MSC_BENCH_MAIN(report)
