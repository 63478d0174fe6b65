// T-SYNC — §5: "fine-grain MIMD code is generally inefficient on most
// MIMD machines due to the cost of runtime synchronization, but
// synchronization is implicit in the meta-state converted SIMD code, and
// hence has no runtime cost." Measure barrier protocol cycles on the MIMD
// machine vs. zero on the MSC automaton as barrier frequency and PE count
// grow.
#include "bench_util.hpp"

#include "msc/driver/pipeline.hpp"
#include "msc/driver/runner.hpp"
#include "msc/workload/kernels.hpp"

using namespace msc;
using bench::Table;

namespace {

ir::CostModel kCost;
constexpr std::uint64_t kSeed = 47;

void report() {
  std::printf("== T-SYNC: runtime synchronization cost, MIMD vs. MSC ==\n");

  Table t({"barriers", "MIMD sync cyc", "MIMD idle cyc", "MSC sync cyc",
           "MSC global-ors"},
          {10, 15, 15, 14, 15});
  for (int k : {1, 2, 4, 8}) {
    std::string src = workload::loopy_barrier_source(k);
    auto compiled = driver::compile(src);
    mimd::RunConfig cfg;
    cfg.nprocs = 16;
    mimd::MimdStats ms;
    driver::run_oracle(compiled, cfg, kSeed, &ms);
    core::ConvertOptions opts;
    // k>1 distinct barriers makes PaperPrune a compile error; occupancy
    // tracking folds synchronization into the automaton just the same.
    opts.barrier_mode = k == 1 ? core::BarrierMode::PaperPrune
                               : core::BarrierMode::TrackOccupancy;
    auto conv = bench::convert(compiled.graph, kCost, bench::kStages, opts);
    simd::SimdStats ss;
    driver::run_simd(compiled, conv, cfg, kSeed, kCost, {}, &ss);
    t.row({bench::num(std::int64_t{k}), bench::num(ms.barrier_sync_cycles),
           bench::num(ms.barrier_idle_cycles), "0",
           bench::num(ss.global_ors)});
  }
  t.print("Barrier-frequency sweep over k loops+barriers (16 PEs): the "
          "barrier \"does not result in a runtime operation\" under MSC");

  Table p({"PEs", "MIMD sync cyc", "MIMD sync share", "MSC sync cyc"},
          {6, 15, 17, 13});
  for (std::int64_t n : {4, 16, 64, 256}) {
    auto compiled = driver::compile(workload::loopy_barrier_source(4));
    mimd::RunConfig cfg;
    cfg.nprocs = n;
    mimd::MimdStats ms;
    driver::run_oracle(compiled, cfg, kSeed, &ms);
    double share = static_cast<double>(ms.barrier_sync_cycles) /
                   static_cast<double>(ms.busy_cycles + ms.barrier_sync_cycles);
    p.row({bench::num(n), bench::num(ms.barrier_sync_cycles),
           bench::pct(share), "0"});
  }
  p.print("PE-count sweep (4 barriers): MIMD pays per-PE sync cycles that "
          "grow with the machine; MSC folds synchronization into the "
          "automaton structure");
}

void BM_OracleWithBarriers(benchmark::State& state) {
  auto compiled = driver::compile(workload::loopy_barrier_source(4));
  mimd::RunConfig cfg;
  cfg.nprocs = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(driver::run_oracle(compiled, cfg, kSeed));
  }
}
BENCHMARK(BM_OracleWithBarriers)->Arg(16)->Arg(64);

void BM_SimdWithBarriers(benchmark::State& state) {
  auto compiled = driver::compile(workload::loopy_barrier_source(4));
  core::ConvertOptions opts;
  opts.barrier_mode = core::BarrierMode::TrackOccupancy;
  auto conv = bench::convert(compiled.graph, kCost, bench::kStages, opts);
  auto prog = codegen::generate(conv.automaton, conv.graph, kCost, {});
  mimd::RunConfig cfg;
  cfg.nprocs = state.range(0);
  for (auto _ : state) {
    auto m_ptr = simd::make_machine(prog, kCost, cfg);
    simd::SimdMachine& m = *m_ptr;
    driver::seed_machine(m, compiled, cfg, kSeed);
    m.run();
    benchmark::DoNotOptimize(m.stats());
  }
}
BENCHMARK(BM_SimdWithBarriers)->Arg(16)->Arg(64);

}  // namespace

MSC_BENCH_MAIN(report)
