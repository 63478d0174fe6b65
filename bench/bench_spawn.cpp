// T-SPAWN — §3.2.5 restricted dynamic process creation: spawn/halt via
// the pc-pool trick. Measure pool occupancy, spawn throughput, and
// oracle-vs-SIMD agreement across pool pressures and reuse policies.
#include "bench_util.hpp"

#include <algorithm>

#include "msc/codegen/program.hpp"
#include "msc/driver/pipeline.hpp"
#include "msc/driver/runner.hpp"
#include "msc/simd/machine.hpp"
#include "msc/workload/kernels.hpp"

using namespace msc;
using bench::Table;

namespace {

ir::CostModel kCost;

std::string spawn_fanout_source(int children) {
  std::string s = R"(int main() {
  poly int i;
  i = 0;
  while (i < )" + std::to_string(children) +
                  R"() {
    spawn {
      return 1000 + procid();
    }
    i = i + 1;
  }
  return procid();
}
)";
  return s;
}

void report() {
  std::printf("== T-SPAWN: restricted dynamic process creation ==\n");

  Table t({"children/parent", "parents", "PEs", "spawns", "peak alive",
           "final alive", "oracle match"},
          {17, 9, 6, 8, 11, 12, 12});
  for (int children : {1, 2, 4}) {
    std::string src = spawn_fanout_source(children);
    auto compiled = driver::compile(src);
    auto conv = bench::convert(compiled.graph, kCost);
    auto prog = codegen::generate(conv.automaton, conv.graph, kCost, {});

    mimd::RunConfig cfg;
    cfg.nprocs = 16;
    cfg.initial_active = 3;
    auto m_ptr = simd::make_machine(prog, kCost, cfg);
    simd::SimdMachine& m = *m_ptr;
    std::int64_t peak = m.alive_count();
    while (m.step()) peak = std::max(peak, m.alive_count());

    auto oracle = driver::run_oracle(compiled, cfg, 1);
    std::vector<long long> a, b;
    for (std::int64_t p = 0; p < cfg.nprocs; ++p) {
      if (m.ever_ran(p)) a.push_back(m.peek(p, frontend::Layout::kResultAddr).i);
      if (oracle.ran[static_cast<std::size_t>(p)])
        b.push_back(oracle.results[static_cast<std::size_t>(p)].i);
    }
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());

    t.row({bench::num(std::int64_t{children}), "3", bench::num(cfg.nprocs),
           bench::num(m.stats().spawns), bench::num(peak),
           bench::num(m.alive_count()), a == b ? "yes" : "NO"});
  }
  t.print("Fan-out sweep: parents spawn workers that compute, return, and "
          "free their PEs");

  // Pool-reuse policy: with reuse, a tiny pool sustains many spawns.
  Table r({"policy", "PEs", "spawns completed", "outcome"}, {22, 6, 18, 24});
  {
    std::string src = spawn_fanout_source(6);
    auto compiled = driver::compile(src);
    auto conv = bench::convert(compiled.graph, kCost);
    auto prog = codegen::generate(conv.automaton, conv.graph, kCost, {});
    for (bool reuse : {false, true}) {
      mimd::RunConfig cfg;
      cfg.nprocs = 4;
      cfg.initial_active = 1;
      cfg.reuse_halted_pes = reuse;
      auto m_ptr = simd::make_machine(prog, kCost, cfg);
      simd::SimdMachine& m = *m_ptr;
      try {
        m.run();
        r.row({reuse ? "reuse halted PEs" : "fresh PEs only",
               bench::num(cfg.nprocs), bench::num(m.stats().spawns),
               "completed"});
      } catch (const ir::MachineFault&) {
        r.row({reuse ? "reuse halted PEs" : "fresh PEs only",
               bench::num(cfg.nprocs), bench::num(m.stats().spawns),
               "pool exhausted (fault)"});
      }
    }
  }
  r.print("§3.2.5 pool policy: \"processors that complete ... can be "
          "returned to the pool\" — 6 spawns through a 4-PE machine");
}

void BM_SpawnHeavyRun(benchmark::State& state) {
  std::string src = spawn_fanout_source(4);
  auto compiled = driver::compile(src);
  auto conv = bench::convert(compiled.graph, kCost);
  auto prog = codegen::generate(conv.automaton, conv.graph, kCost, {});
  mimd::RunConfig cfg;
  cfg.nprocs = 64;
  cfg.initial_active = 8;
  for (auto _ : state) {
    auto m_ptr = simd::make_machine(prog, kCost, cfg);
    simd::SimdMachine& m = *m_ptr;
    m.run();
    benchmark::DoNotOptimize(m.stats());
  }
}
BENCHMARK(BM_SpawnHeavyRun);

}  // namespace

MSC_BENCH_MAIN(report)
