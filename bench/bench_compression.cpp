// T-COMPRESS — §2.5: compression shrinks the automaton dramatically (8→2
// on Listing 1) but "the average meta-state is wider, which implies that
// the SIMD implementation will be less efficient." Quantify both sides of
// that trade across the kernel suite, plus the subsumption ablation.
#include "bench_util.hpp"

#include "msc/driver/pipeline.hpp"
#include "msc/driver/runner.hpp"
#include "msc/workload/kernels.hpp"

using namespace msc;
using bench::Table;

namespace {

ir::CostModel kCost;
constexpr std::uint64_t kSeed = 23;

void report() {
  std::printf("== T-COMPRESS: base vs. compressed automata ==\n");

  Table t({"kernel", "base st", "comp st", "base width", "comp width",
           "base cyc", "comp cyc", "base util", "comp util"},
          {18, 10, 10, 12, 12, 11, 11, 11, 10});
  for (const auto& k : workload::suite()) {
    auto compiled = driver::compile(k.source);
    mimd::RunConfig cfg;
    cfg.nprocs = 16;
    if (k.name == "spawn_tree") cfg.initial_active = 4;

    auto base = bench::convert(compiled.graph, kCost);
    auto comp = bench::convert(compiled.graph, kCost, bench::kCompressStages);

    simd::SimdStats bs, cs;
    driver::run_simd(compiled, base, cfg, kSeed, kCost, {}, &bs);
    driver::run_simd(compiled, comp, cfg, kSeed, kCost, {}, &cs);

    t.row({k.name, bench::num(base.automaton.num_states()),
           bench::num(comp.automaton.num_states()),
           fmt_double(base.automaton.mean_width(), 2),
           fmt_double(comp.automaton.mean_width(), 2),
           bench::num(bs.control_cycles), bench::num(cs.control_cycles),
           bench::pct(bs.utilization()), bench::pct(cs.utilization())});
  }
  t.print("States / mean width / SIMD cycles / utilization "
          "(paper: fewer-but-wider states cost efficiency)");

  // Ablation: the Fig. 5 subsumption merge.
  Table a({"kernel", "compressed", "without subsumption"}, {18, 12, 20});
  for (const auto& name : {"listing1", "listing3", "branchy4", "loopmix"}) {
    auto compiled = driver::compile(workload::kernel(name).source);
    auto w = bench::convert(compiled.graph, kCost, bench::kCompressStages);
    auto wo = bench::convert(compiled.graph, kCost,
                             {"compress", "convert", "straighten"});
    a.row({name, bench::num(w.automaton.num_states()),
           bench::num(wo.automaton.num_states())});
  }
  a.print("Ablation — subset-subsumption merging (what turns Listing 1's "
          "3 compressed states into Fig. 5's 2)");
}

void BM_RunBase(benchmark::State& state) {
  auto compiled = driver::compile(workload::kernel("loopmix").source);
  auto conv = bench::convert(compiled.graph, kCost);
  auto prog = codegen::generate(conv.automaton, conv.graph, kCost, {});
  mimd::RunConfig cfg;
  cfg.nprocs = 16;
  for (auto _ : state) {
    auto m_ptr = simd::make_machine(prog, kCost, cfg);
    simd::SimdMachine& m = *m_ptr;
    driver::seed_machine(m, compiled, cfg, kSeed);
    m.run();
    benchmark::DoNotOptimize(m.stats());
  }
}
BENCHMARK(BM_RunBase);

void BM_RunCompressed(benchmark::State& state) {
  auto compiled = driver::compile(workload::kernel("loopmix").source);
  auto conv = bench::convert(compiled.graph, kCost, bench::kCompressStages);
  auto prog = codegen::generate(conv.automaton, conv.graph, kCost, {});
  mimd::RunConfig cfg;
  cfg.nprocs = 16;
  for (auto _ : state) {
    auto m_ptr = simd::make_machine(prog, kCost, cfg);
    simd::SimdMachine& m = *m_ptr;
    driver::seed_machine(m, compiled, cfg, kSeed);
    m.run();
    benchmark::DoNotOptimize(m.stats());
  }
}
BENCHMARK(BM_RunCompressed);

}  // namespace

MSC_BENCH_MAIN(report)
