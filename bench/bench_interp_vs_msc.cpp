// T-INTERP — §1.1's three interpretation overheads vs. meta-state
// conversion. For each kernel: SIMD cycles under the naive interpreter,
// the global-or-dispatch interpreter, and the MSC automaton; the cycle
// breakdown (fetch/decode, dispatch, loop) that MSC eliminates; and the
// per-PE program memory the interpreter replicates (§1.1 overhead 2 — the
// paper's 16 KB MasPar PE memory motivates this) vs. MSC's zero bytes.
#include "bench_util.hpp"

#include "msc/driver/pipeline.hpp"
#include "msc/driver/runner.hpp"
#include "msc/interp/machine.hpp"
#include "msc/workload/kernels.hpp"

using namespace msc;
using bench::Table;

namespace {

ir::CostModel kCost;
constexpr std::uint64_t kSeed = 17;

struct Row {
  std::string kernel;
  interp::InterpStats naive;
  interp::InterpStats smart;
  simd::SimdStats msc;       // codegen (default) engine
  simd::SimdStats msc_ref;   // reference (scalar) engine — must equal msc
};

mimd::RunConfig config_for(const workload::Kernel& k) {
  mimd::RunConfig cfg;
  cfg.nprocs = 16;
  if (k.name == "spawn_tree") cfg.initial_active = 4;
  return cfg;
}

Row measure(const workload::Kernel& k) {
  Row row;
  row.kernel = k.name;
  auto compiled = driver::compile(k.source);
  mimd::RunConfig cfg = config_for(k);
  for (auto dispatch : {interp::Dispatch::Naive, interp::Dispatch::GlobalOr}) {
    interp::InterpMachine m(compiled.graph, kCost, cfg, dispatch);
    driver::seed_machine(m, compiled, cfg, kSeed);
    m.run();
    (dispatch == interp::Dispatch::Naive ? row.naive : row.smart) = m.stats();
  }
  auto conv = bench::convert(compiled.graph, kCost);
  cfg.engine = mimd::SimdEngine::Codegen;
  driver::run_simd(compiled, conv, cfg, kSeed, kCost, {}, &row.msc);
  cfg.engine = mimd::SimdEngine::Reference;
  driver::run_simd(compiled, conv, cfg, kSeed, kCost, {}, &row.msc_ref);
  return row;
}

void report() {
  std::printf("== T-INTERP: MIMD interpretation vs. meta-state conversion "
              "(16 PEs) ==\n");
  std::vector<Row> rows;
  for (const auto& k : workload::suite()) {
    if (k.name == "imbalanced") continue;  // covered by bench_time_split
    rows.push_back(measure(k));
  }

  Table t({"kernel", "interp naive", "interp g-or", "msc", "speedup naive",
           "speedup g-or"},
          {18, 14, 14, 12, 15, 14});
  for (const Row& r : rows) {
    t.row({r.kernel, bench::num(r.naive.control_cycles),
           bench::num(r.smart.control_cycles), bench::num(r.msc.control_cycles),
           bench::ratio(static_cast<double>(r.naive.control_cycles) /
                        static_cast<double>(r.msc.control_cycles)),
           bench::ratio(static_cast<double>(r.smart.control_cycles) /
                        static_cast<double>(r.msc.control_cycles))});
  }
  t.print("Total SIMD cycles (lower is better; paper: interpretation is "
          "\"very inefficient\", MSC has \"no interpretation overhead\")");

  Table o({"kernel", "fetch", "dispatch", "loop", "execute", "overhead"},
          {18, 10, 10, 10, 10, 10});
  for (const Row& r : rows) {
    const auto& s = r.smart;
    double ov = static_cast<double>(s.fetch_cycles + s.dispatch_cycles +
                                    s.loop_cycles) /
                static_cast<double>(s.control_cycles);
    o.row({r.kernel, bench::num(s.fetch_cycles), bench::num(s.dispatch_cycles),
           bench::num(s.loop_cycles), bench::num(s.execute_cycles),
           bench::pct(ov)});
  }
  o.print("Interpreter (global-or dispatch) cycle breakdown — overheads 1 "
          "and 3 of §1.1; MSC spends these cycles on useful work");

  Table m({"kernel", "interp cells/PE", "msc cells/PE", "note"}, {18, 17, 14, 36});
  for (const Row& r : rows)
    m.row({r.kernel, bench::num(r.naive.program_cells_per_pe), "0",
           "control unit holds the automaton"});
  m.print("Per-PE program memory — overhead 2 of §1.1 (\"wastes a huge "
          "amount of memory\")");

  Table u({"kernel", "interp util", "msc util"}, {18, 13, 12});
  for (const Row& r : rows)
    u.row({r.kernel, bench::pct(r.smart.utilization()),
           bench::pct(r.msc.utilization())});
  u.print("PE utilization while executing");

  Table e({"kernel", "codegen cyc", "reference cyc", "stats equal"},
          {18, 12, 15, 12});
  for (const Row& r : rows)
    e.row({r.kernel, bench::num(r.msc.control_cycles),
           bench::num(r.msc_ref.control_cycles),
           r.msc == r.msc_ref ? "yes" : "DRIFT"});
  e.print("Engine cross-check — the codegen engine and the scalar "
          "reference report bit-identical simulated cycles");
}

void BM_InterpNaive(benchmark::State& state) {
  auto compiled = driver::compile(workload::listing1().source);
  mimd::RunConfig cfg;
  cfg.nprocs = 16;
  for (auto _ : state) {
    interp::InterpMachine m(compiled.graph, kCost, cfg, interp::Dispatch::Naive);
    driver::seed_machine(m, compiled, cfg, kSeed);
    m.run();
    benchmark::DoNotOptimize(m.stats());
  }
}
BENCHMARK(BM_InterpNaive);

void BM_InterpGlobalOr(benchmark::State& state) {
  auto compiled = driver::compile(workload::listing1().source);
  mimd::RunConfig cfg;
  cfg.nprocs = 16;
  for (auto _ : state) {
    interp::InterpMachine m(compiled.graph, kCost, cfg,
                            interp::Dispatch::GlobalOr);
    driver::seed_machine(m, compiled, cfg, kSeed);
    m.run();
    benchmark::DoNotOptimize(m.stats());
  }
}
BENCHMARK(BM_InterpGlobalOr);

void BM_MscExecution(benchmark::State& state) {
  auto compiled = driver::compile(workload::listing1().source);
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
BENCHMARK(BM_MscExecution);

}  // namespace

MSC_BENCH_MAIN(report)
