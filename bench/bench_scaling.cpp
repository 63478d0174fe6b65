// T-SCALE — machine-size scaling. The SIMD control unit broadcasts once
// regardless of PE count, so MSC cycles grow only with *divergence*
// (more PEs populate more distinct paths → more meta transitions), while
// the interpreter additionally serializes over every opcode type present.
// The paper's 16K-PE MasPar context makes this the deployment-relevant
// curve.
#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
#include <functional>

#include "msc/codegen/translate.hpp"
#include "msc/driver/pipeline.hpp"
#include "msc/driver/runner.hpp"
#include "msc/interp/machine.hpp"
#include "msc/support/trace.hpp"
#include "msc/workload/kernels.hpp"

using namespace msc;
using bench::Table;

namespace {

ir::CostModel kCost;
constexpr std::uint64_t kSeed = 59;

/// Best-of-9 wall-clock seconds for run() on one engine, in the default
/// configuration (4096 local cells per PE). Construction and seeding are
/// untimed: they are engine-independent and O(1) in local_mem_cells (the
/// lane store maps zero pages), while the engines differ only in the
/// broadcast/step hot path being measured.
double time_engine(const codegen::SimdProgram& prog,
                   const driver::Compiled& compiled, mimd::RunConfig cfg,
                   simd::SimdStats* stats_out) {
  double best = 1e100;
  for (int rep = 0; rep < 9; ++rep) {
    auto m = simd::make_machine(prog, kCost, cfg);
    driver::seed_machine(*m, compiled, cfg, kSeed);
    auto t0 = std::chrono::steady_clock::now();
    m->run();
    auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    if (stats_out) *stats_out = m->stats();
  }
  return best;
}

void report_engines() {
  // The tentpole claim: with sparse occupancy (1 of every 64 PEs active)
  // the occupancy-indexed engine does host work proportional to *enabled*
  // PEs while the reference engine scans all nprocs per broadcast op.
  // Simulated SimdStats are bit-identical by contract; only host wall
  // clock differs.
  std::printf("\n== T-ENGINE: fast vs reference engine, sparse occupancy "
              "(1/64 PEs active) ==\n");
  for (const char* name : {"listing1", "branchy4"}) {
    auto compiled = driver::compile(workload::kernel(name).source);
    auto conv = bench::convert(compiled.graph, kCost);
    auto prog = codegen::generate(conv.automaton, conv.graph, kCost, {});
    Table t({"PEs", "active", "fast us", "reference us", "host speedup",
             "stats equal"},
            {8, 8, 12, 14, 14, 12});
    for (std::int64_t n : {256, 1024, 4096, 8192}) {
      mimd::RunConfig cfg;
      cfg.nprocs = n;
      cfg.initial_active = n / 64;
      simd::SimdStats fast_stats, ref_stats;
      cfg.engine = mimd::SimdEngine::Fast;
      double fast_s = time_engine(prog, compiled, cfg, &fast_stats);
      cfg.engine = mimd::SimdEngine::Reference;
      double ref_s = time_engine(prog, compiled, cfg, &ref_stats);
      t.row({bench::num(n), bench::num(n / 64),
             bench::num(static_cast<std::int64_t>(fast_s * 1e6)),
             bench::num(static_cast<std::int64_t>(ref_s * 1e6)),
             bench::ratio(ref_s / fast_s),
             fast_stats == ref_stats ? "yes" : "DRIFT"});
    }
    t.print(std::string(name) +
            ": host wall clock of run() (best of 9); simulated cycle "
            "counters are bit-identical between engines");
  }
}

// Const-heavy straight-line loop body: the shape §11's folding and
// fusion — and §14's lane execution — are built for. Every PE follows
// the same path, so occupancy stays at 100% and the per-PE execution
// cost dominates. Shared by T-TC and T-VEC.
const char* kConstHeavy = R"(poly int x;
int main() {
  poly int acc;
  poly int i;
  acc = x;
  i = 64;
  do {
    acc = acc + 12345;
    acc = acc ^ 9876;
    acc = acc + (3 * 14 + 7);
    acc = acc - 4321;
    acc = acc ^ 1234;
    acc = acc + (100 - 36);
    acc = acc + 11;
    acc = acc + 13;
    acc = acc + 17;
    acc = acc + 19;
    i = i - 1;
  } while (i > 0);
  return acc;
}
)";

void report_translation_cache() {
  // T-TC — the translation-cache codegen engine (DESIGN.md §11). On
  // high-occupancy rows (every PE active, one densely populated group per
  // meta state) the specialized engine's pre-resolved guards, fused ops,
  // folded constants, and O(1) per-group stats charging must beat the
  // fast engine's per-SOp interpretation by ≥3x host wall clock while
  // staying bit-identical on the simulated counters. Both engines are
  // pinned to the scalar ISA: T-TC measures translation quality on the
  // per-PE interpretation path; the lane backend has its own table
  // (T-VEC) and would otherwise make the ratio an artifact of how much
  // of each stream vectorizes.
  std::printf("\n== T-TC: translation-cached codegen engine vs fast, "
              "full occupancy ==\n");
  auto compiled = driver::compile(kConstHeavy);
  auto conv = bench::convert(compiled.graph, kCost);
  auto prog = codegen::generate(conv.automaton, conv.graph, kCost, {});
  codegen::translation_cache_clear();  // count only this section's traffic

  bench::JsonReport& report = bench::JsonReport::instance();
  Table t({"PEs", "fast us", "codegen us", "host speedup", "stats equal"},
          {8, 10, 12, 14, 12});
  double gated_speedup = 0.0;
  bool stats_ok = true;
  for (std::int64_t n : {256, 1024, 4096}) {
    mimd::RunConfig cfg;
    cfg.nprocs = n;
    cfg.simd_isa = SimdIsa::Scalar;
    simd::SimdStats fast_stats, cg_stats;
    cfg.engine = mimd::SimdEngine::Fast;
    double fast_s = time_engine(prog, compiled, cfg, &fast_stats);
    cfg.engine = mimd::SimdEngine::Codegen;
    double cg_s = time_engine(prog, compiled, cfg, &cg_stats);
    const bool equal = fast_stats == cg_stats;
    stats_ok &= equal;
    const double speedup = fast_s / cg_s;
    gated_speedup = std::max(gated_speedup, speedup);
    t.row({bench::num(n), bench::num(static_cast<std::int64_t>(fast_s * 1e6)),
           bench::num(static_cast<std::int64_t>(cg_s * 1e6)),
           bench::ratio(speedup), equal ? "yes" : "DRIFT"});
    report.metric(cat("tc.speedup_", n, "pe"), speedup);
  }
  const codegen::TranslationCacheStats tc = codegen::translation_cache_stats();
  const auto trans = codegen::translate(prog, kCost);
  t.print(cat("const-heavy loop, all PEs active (best of 9); ",
              trans->source_ops, " SOps translated to ", trans->host_ops,
              " TOps; trans-cache hits=", tc.hits, " misses=", tc.misses));
  report.metric("tc.source_ops", static_cast<double>(trans->source_ops));
  report.metric("tc.host_ops", static_cast<double>(trans->host_ops));
  report.metric("tc.trans_cache_hits", static_cast<double>(tc.hits));
  report.metric("tc.trans_cache_misses", static_cast<double>(tc.misses));

  // The tentpole gates: ≥3x host speedup on the best high-occupancy row,
  // bit-identical simulated stats, and one translation shared across every
  // machine built for the automaton (repeat runs hit the cache).
  report.gate("T-TC.codegen-speedup", gated_speedup >= 3.0 && stats_ok,
              cat("best host speedup ", bench::ratio(gated_speedup),
                  " (gate 3.00x), stats ",
                  stats_ok ? "bit-identical" : "DRIFTED"));
  report.gate("T-TC.cache-reuse", tc.misses <= 1 && tc.hits >= 1,
              cat("hits=", tc.hits, " misses=", tc.misses,
                  " (one translation per automaton, shared thereafter)"));
}

void report_vectorization() {
  // T-VEC — the lane-major store's host-SIMD execution backend
  // (DESIGN.md §14). With every PE active the fast engine executes
  // whole-lane op runs under the host vector ISA; forcing
  // --simd-isa scalar takes the per-PE path over the same store. The
  // simulated SimdStats are bit-identical by contract — only host wall
  // clock may differ, and at ≥1024 PEs it must differ by ≥2x. Under
  // sparse occupancy (1/64 active) both ISAs take the per-PE fallback
  // spans, so vector selection must cost nothing there.
  const SimdIsa host = resolve_simd_isa(SimdIsa::Auto);
  std::printf("\n== T-VEC: host-SIMD lane execution vs forced scalar, "
              "fast engine, full occupancy (host isa: %s) ==\n",
              simd_isa_name(host));
  bench::JsonReport& report = bench::JsonReport::instance();
  auto compiled = driver::compile(kConstHeavy);
  auto conv = bench::convert(compiled.graph, kCost);
  auto prog = codegen::generate(conv.automaton, conv.graph, kCost, {});

  if (host == SimdIsa::Scalar) {
    // Forced-scalar CI leg (or a host without AVX2/NEON): the comparison
    // is vacuous; the gates skip-pass so the leg still proves the scalar
    // path end to end.
    std::printf("  (no vector ISA: scalar == scalar, gates skip-pass)\n");
    report.gate("T-VEC.simd-speedup", true,
                "skip-pass: host resolves to scalar, no vector ISA to gate");
    report.gate("T-VEC.low-occupancy-no-regression", true,
                "skip-pass: host resolves to scalar");
    return;
  }

  Table t({"PEs", "scalar us", "vector us", "host speedup", "stats equal"},
          {8, 11, 11, 14, 12});
  double gated_speedup = 0.0;
  bool stats_ok = true;
  for (std::int64_t n : {256, 1024, 4096}) {
    mimd::RunConfig cfg;
    cfg.nprocs = n;
    cfg.engine = mimd::SimdEngine::Fast;
    simd::SimdStats scalar_stats, vec_stats;
    cfg.simd_isa = SimdIsa::Scalar;
    double scalar_s = time_engine(prog, compiled, cfg, &scalar_stats);
    cfg.simd_isa = host;
    double vec_s = time_engine(prog, compiled, cfg, &vec_stats);
    const bool equal = scalar_stats == vec_stats;
    stats_ok &= equal;
    const double speedup = scalar_s / vec_s;
    if (n >= 1024) gated_speedup = std::max(gated_speedup, speedup);
    t.row({bench::num(n),
           bench::num(static_cast<std::int64_t>(scalar_s * 1e6)),
           bench::num(static_cast<std::int64_t>(vec_s * 1e6)),
           bench::ratio(speedup), equal ? "yes" : "DRIFT"});
    report.metric(cat("vec.speedup_", n, "pe"), speedup);
  }
  t.print(cat("const-heavy loop, all PEs active (best of 9), isa ",
              simd_isa_name(host), " lane width ",
              simd_isa_lane_width(host)));
  report.gate("T-VEC.simd-speedup", gated_speedup >= 2.0 && stats_ok,
              cat("best ≥1024-PE host speedup ", bench::ratio(gated_speedup),
                  " (gate 2.00x), stats ",
                  stats_ok ? "bit-identical" : "DRIFTED"));

  // Low occupancy: 1/64 PEs enabled puts every run below the lane
  // threshold, so both ISAs execute the identical per-PE fallback; the
  // vector build must not regress. Summed over the rows to keep the
  // ratio out of timer noise.
  double sparse_scalar = 0.0, sparse_vec = 0.0;
  bool sparse_ok = true;
  for (std::int64_t n : {1024, 4096}) {
    mimd::RunConfig cfg;
    cfg.nprocs = n;
    cfg.initial_active = n / 64;
    cfg.engine = mimd::SimdEngine::Fast;
    simd::SimdStats scalar_stats, vec_stats;
    cfg.simd_isa = SimdIsa::Scalar;
    sparse_scalar += time_engine(prog, compiled, cfg, &scalar_stats);
    cfg.simd_isa = host;
    sparse_vec += time_engine(prog, compiled, cfg, &vec_stats);
    sparse_ok &= scalar_stats == vec_stats;
  }
  const double sparse_ratio = sparse_vec / sparse_scalar;
  report.metric("vec.low_occ_ratio", sparse_ratio);
  report.gate("T-VEC.low-occupancy-no-regression",
              sparse_ratio <= 1.15 && sparse_ok,
              cat("sparse vector/scalar wall-clock ratio ",
                  bench::ratio(sparse_ratio), " (gate 1.15x), stats ",
                  sparse_ok ? "bit-identical" : "DRIFTED"));
}

void report_observability() {
  // T-OBS — the zero-cost-when-off contract (ISSUE: with no sink attached
  // FastSimdMachine throughput must not regress). The structural argument
  // is that the step() observability hook is a single bool test when
  // nothing is attached (DESIGN.md §10); this bench pins the residual cost
  // empirically by comparing a machine that never saw a sink against one
  // that had a sink attached and then detached — any state left behind by
  // attachment would show up as a wall-clock gap between the two. Tracing
  // and profiling overheads are reported alongside for the record.
  std::printf("\n== T-OBS: observability overhead on the fast engine ==\n");
  auto compiled = driver::compile(workload::kernel("branchy4").source);
  auto conv = bench::convert(compiled.graph, kCost);
  auto prog = codegen::generate(conv.automaton, conv.graph, kCost, {});
  mimd::RunConfig cfg;
  cfg.nprocs = 1024;

  simd::SimdStats stats;
  // All four modes are timed inside each rep (interleaved, rotating start
  // order, best-of minima): pairing the conditions under the same machine
  // state cancels slow thermal/scheduler drift, the rotation cancels
  // within-rep ordering effects, and a short rep (~1 ms) gives the minima
  // many chances to land in a quiet scheduling window.
  using Setup = std::function<void(simd::SimdMachine&, telemetry::TraceSink&)>;
  const Setup setups[4] = {
      [](simd::SimdMachine&, telemetry::TraceSink&) {},
      [](simd::SimdMachine& m, telemetry::TraceSink& sink) {
        m.set_trace_sink(&sink);    // attach...
        m.set_trace_sink(nullptr);  // ...and detach: must leave no residue
      },
      [](simd::SimdMachine& m, telemetry::TraceSink& sink) {
        m.set_trace_sink(&sink);
      },
      [](simd::SimdMachine& m, telemetry::TraceSink&) {
        m.enable_profiling();
      }};
  double best[4] = {1e100, 1e100, 1e100, 1e100};
  for (int rep = 0; rep < 80; ++rep) {
    for (int slot = 0; slot < 4; ++slot) {
      const int mode = (slot + rep) % 4;
      telemetry::TraceSink sink;
      auto m = simd::make_machine(prog, kCost, cfg);
      driver::seed_machine(*m, compiled, cfg, kSeed);
      setups[mode](*m, sink);
      auto t0 = std::chrono::steady_clock::now();
      m->run();
      auto t1 = std::chrono::steady_clock::now();
      best[mode] = std::min(
          best[mode], std::chrono::duration<double>(t1 - t0).count());
      stats = m->stats();
    }
  }
  const double baseline = best[0], detached = best[1], traced = best[2],
               profiled = best[3];

  const double per_transition =
      baseline / static_cast<double>(stats.meta_transitions) * 1e9;
  Table t({"mode", "best us", "vs baseline"}, {22, 10, 12});
  const auto row = [&](const char* mode, double s) {
    t.row({mode, bench::num(static_cast<std::int64_t>(s * 1e6)),
           bench::ratio(s / baseline)});
  };
  row("no sink (baseline)", baseline);
  row("attach+detach", detached);
  row("chrome trace on", traced);
  row("profiling on", profiled);
  t.print(cat("branchy4, nprocs=", cfg.nprocs, ", ", stats.meta_transitions,
              " meta transitions (best of 80); baseline ",
              fmt_double(per_transition, 1), " ns/transition"));

  bench::JsonReport& report = bench::JsonReport::instance();
  report.metric("obs.baseline_us", baseline * 1e6);
  report.metric("obs.detached_us", detached * 1e6);
  report.metric("obs.traced_us", traced * 1e6);
  report.metric("obs.profiled_us", profiled * 1e6);
  report.metric("obs.ns_per_meta_transition", per_transition);
  report.metric("obs.meta_transitions", stats.meta_transitions);

  // The gate: detaching must restore the exact no-sink cost, within noise.
  // Tolerance is max(1% relative, 30µs absolute) on best-of-80 minima —
  // the absolute floor keeps short runs from gating on scheduler jitter.
  const double tolerance = std::max(0.01 * baseline, 30e-6);
  report.gate("T-OBS.no-sink-overhead", detached <= baseline + tolerance,
              cat("baseline ", fmt_double(baseline * 1e6, 1),
                  " us, after attach+detach ", fmt_double(detached * 1e6, 1),
                  " us, tolerance ", fmt_double(tolerance * 1e6, 1), " us"));
}

void report() {
  std::printf("== T-SCALE: cycles vs. machine size ==\n");

  for (const char* name : {"listing1", "branchy4"}) {
    auto compiled = driver::compile(workload::kernel(name).source);
    auto conv = bench::convert(compiled.graph, kCost);
    Table t({"PEs", "msc cyc", "msc transitions", "msc util", "interp cyc",
             "interp iters", "mimd makespan"},
            {6, 10, 16, 10, 12, 13, 14});
    for (std::int64_t n : {1, 4, 16, 64, 256, 1024}) {
      mimd::RunConfig cfg;
      cfg.nprocs = n;
      simd::SimdStats ss;
      driver::run_simd(compiled, conv, cfg, kSeed, kCost, {}, &ss);
      interp::InterpMachine im(compiled.graph, kCost, cfg,
                               interp::Dispatch::GlobalOr);
      driver::seed_machine(im, compiled, cfg, kSeed);
      im.run();
      mimd::MimdStats ms;
      driver::run_oracle(compiled, cfg, kSeed, &ms);
      t.row({bench::num(n), bench::num(ss.control_cycles),
             bench::num(ss.meta_transitions), bench::pct(ss.utilization()),
             bench::num(im.stats().control_cycles),
             bench::num(im.stats().iterations), bench::num(ms.makespan)});
    }
    t.print(std::string(name) +
            ": SIMD cycles saturate once every path is populated; the MIMD "
            "makespan is the per-PE critical path");
  }
  report_engines();
  report_translation_cache();
  report_vectorization();
  report_observability();
}

void BM_SimdAtScale(benchmark::State& state) {
  auto compiled = driver::compile(workload::listing1().source);
  auto conv = bench::convert(compiled.graph, kCost);
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
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SimdAtScale)->RangeMultiplier(4)->Range(4, 1024)->Complexity();

void BM_SimdEngineSparse(benchmark::State& state) {
  // Args: {nprocs, engine} with 1/64 of the PEs initially active — the
  // sparse-occupancy regime where the occupancy-indexed engine wins.
  auto compiled = driver::compile(workload::kernel("branchy4").source);
  auto conv = bench::convert(compiled.graph, kCost);
  auto prog = codegen::generate(conv.automaton, conv.graph, kCost, {});
  mimd::RunConfig cfg;
  cfg.nprocs = state.range(0);
  cfg.initial_active = cfg.nprocs / 64;
  cfg.engine = state.range(1) == 0   ? mimd::SimdEngine::Fast
               : state.range(1) == 1 ? mimd::SimdEngine::Reference
                                     : mimd::SimdEngine::Codegen;
  for (auto _ : state) {
    state.PauseTiming();  // construction/seeding are engine-independent
    auto m = simd::make_machine(prog, kCost, cfg);
    driver::seed_machine(*m, compiled, cfg, kSeed);
    state.ResumeTiming();
    m->run();
    benchmark::DoNotOptimize(m->stats());
  }
  state.SetLabel(simd::engine_name(cfg.engine));
}
BENCHMARK(BM_SimdEngineSparse)
    ->ArgsProduct({{256, 1024, 4096}, {0, 1, 2}});

void BM_OracleAtScale(benchmark::State& state) {
  auto compiled = driver::compile(workload::listing1().source);
  mimd::RunConfig cfg;
  cfg.nprocs = state.range(0);
  for (auto _ : state)
    benchmark::DoNotOptimize(driver::run_oracle(compiled, cfg, kSeed));
}
BENCHMARK(BM_OracleAtScale)->RangeMultiplier(4)->Range(4, 1024);

}  // namespace

MSC_BENCH_MAIN(report)
