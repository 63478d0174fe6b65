// T-KERN / T-COSCHED — the verified-kernel conformance sweep and the
// MASIM-style co-scheduling payoff (DESIGN.md §12).
//
// T-KERN runs every verified kernel on every engine against its host-side
// ground truth and reports the simulated cost profile; the gate demands
// bit-correct results on all engines at PE counts spanning a machine word
// boundary (5, 64, 65).
//
// T-COSCHED time-multiplexes kernel mixes on one simulated machine and
// compares array utilization (busy / resident PE-cycles) across policies,
// with the best sequential order enumerated exactly over every
// permutation via CoOptions::order. Programs that shed occupancy (halt)
// make their tails cheap to preempt — on a two-reduction mix greedy
// co-scheduling must beat the best sequential order (the gate). Mixes
// where sequential wins (workqueue-heavy: spawns rebuild occupancy, so
// there is no cheap tail) are reported unvarnished.
#include "bench_util.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "msc/driver/pipeline.hpp"
#include "msc/driver/runner.hpp"
#include "msc/kernels/verified.hpp"
#include "msc/simd/coschedule.hpp"

using namespace msc;
using bench::Table;

namespace {

ir::CostModel kCost;
constexpr std::uint64_t kSeed = 1;

driver::PipelineOptions codegen_pipeline() {
  driver::PipelineOptions popts;
  popts.pipeline = driver::resolve_pipeline(popts);
  popts.pipeline.push_back("codegen");
  return popts;
}

struct KernelRun {
  simd::SimdStats stats;
  bool ground_truth_ok = false;
  std::string diagnostic;
};

/// Convert + run one verified kernel standalone and check it against the
/// host-side expected() answers.
KernelRun run_kernel(const std::string& spec, mimd::SimdEngine engine) {
  kernels::VerifiedParams params;
  params.input_seed = kSeed;
  const kernels::VerifiedCase c = kernels::parse_case(spec, params);
  auto conv = driver::convert(c.source, kCost, codegen_pipeline());
  mimd::RunConfig config = c.config;
  config.engine = engine;
  auto m = simd::make_machine(*conv.prog, kCost, config);
  driver::seed_machine(*m, conv.compiled, config, kSeed);
  m->run();
  KernelRun r;
  r.stats = m->stats();
  r.diagnostic = kernels::check(c, driver::observe_simd(*m, conv.compiled, config));
  r.ground_truth_ok = r.diagnostic.empty();
  return r;
}

/// Build and run one co-scheduled mix. `order` non-empty pins the
/// schedule order exactly (used to enumerate sequential permutations).
simd::CoResult run_mix(const std::vector<std::string>& mix,
                       simd::CoPolicy policy,
                       const std::vector<std::size_t>& order) {
  std::vector<std::unique_ptr<driver::Converted>> keep;
  simd::CoScheduler cs;
  for (const std::string& spec : mix) {
    kernels::VerifiedParams params;
    params.input_seed = kSeed;
    const kernels::VerifiedCase c = kernels::parse_case(spec, params);
    auto conv = std::make_unique<driver::Converted>(
        driver::convert(c.source, kCost, codegen_pipeline()));
    mimd::RunConfig config = c.config;
    auto m = simd::make_machine(*conv->prog, kCost, config);
    driver::seed_machine(*m, conv->compiled, config, kSeed);
    cs.add_program(spec, std::move(m));
    keep.push_back(std::move(conv));
  }
  simd::CoOptions co;
  co.policy = policy;
  co.seed = kSeed;
  co.order = order;
  return cs.run(co);
}

/// Exact best-sequential baseline: run every permutation of the mix.
double best_sequential_util(const std::vector<std::string>& mix) {
  std::vector<std::size_t> order(mix.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  double best = 0.0;
  do {
    best = std::max(
        best, run_mix(mix, simd::CoPolicy::Sequential, order)
                  .machine_utilization());
  } while (std::next_permutation(order.begin(), order.end()));
  return best;
}

void report_kernels() {
  auto& report = bench::JsonReport::instance();

  // ---- T-KERN: every kernel x engine at the word-boundary width.
  std::printf("== T-KERN: verified kernels vs host ground truth "
              "(n=65, all engines) ==\n");
  Table t({"kernel", "engine", "cycles", "busy", "util", "transitions",
           "ground truth"},
          {12, 11, 9, 9, 8, 13, 14});
  bool all_ok = true;
  std::string first_failure;
  for (const std::string& name : kernels::verified_names()) {
    for (const auto engine :
         {mimd::SimdEngine::Reference, mimd::SimdEngine::Codegen}) {
      const KernelRun r = run_kernel(name + "@65", engine);
      if (!r.ground_truth_ok && first_failure.empty())
        first_failure = cat(name, "@65/", simd::engine_name(engine), ": ",
                            r.diagnostic);
      all_ok = all_ok && r.ground_truth_ok;
      t.row({name, simd::engine_name(engine),
             bench::num(r.stats.control_cycles),
             bench::num(r.stats.busy_pe_cycles),
             bench::pct(r.stats.utilization()),
             bench::num(r.stats.meta_transitions),
             r.ground_truth_ok ? "ok" : "FAIL"});
    }
  }
  t.print("verified kernels, n=65 (word boundary), input seed 1");

  // The gate also sweeps the other word-boundary-adjacent widths.
  for (const std::string& name : kernels::verified_names())
    for (const int n : {5, 64})
      for (const auto engine :
           {mimd::SimdEngine::Reference, mimd::SimdEngine::Codegen}) {
        const KernelRun r = run_kernel(cat(name, "@", n), engine);
        if (!r.ground_truth_ok && first_failure.empty())
          first_failure = cat(name, "@", n, "/", simd::engine_name(engine),
                              ": ", r.diagnostic);
        all_ok = all_ok && r.ground_truth_ok;
      }
  report.gate("T-KERN.ground-truth", all_ok,
              all_ok ? "6 kernels x 2 engines x n in {5, 64, 65} all "
                       "bit-correct against host expected()"
                     : first_failure);

  // ---- T-COSCHED: policy comparison per mix, best-sequential exact.
  std::printf("\n== T-COSCHED: co-scheduling policies vs exact "
              "best-sequential (codegen engine) ==\n");
  const std::vector<std::vector<std::string>> mixes = {
      {"reduce@65", "reduce@64"},
      {"reduce@65", "scan@65"},
      {"reduce@65", "workqueue@64"},
      {"workqueue@64", "workqueue@64"},
      {"reduce@64", "reduce@65", "workqueue@64"},
  };
  Table ct({"mix", "best seq", "rr", "greedy", "winner"},
           {34, 10, 8, 8, 10});
  double gate_greedy = 0.0, gate_seq = 0.0;
  for (const auto& mix : mixes) {
    std::string label = mix[0];
    for (std::size_t i = 1; i < mix.size(); ++i) label += "+" + mix[i];
    const double seq = best_sequential_util(mix);
    const double rr =
        run_mix(mix, simd::CoPolicy::RoundRobin, {}).machine_utilization();
    const double greedy =
        run_mix(mix, simd::CoPolicy::GreedyOccupancy, {})
            .machine_utilization();
    if (mix == mixes[0]) {
      gate_greedy = greedy;
      gate_seq = seq;
    }
    const double best = std::max({seq, rr, greedy});
    ct.row({label, bench::pct(seq), bench::pct(rr), bench::pct(greedy),
            best == greedy && greedy > seq ? "greedy"
            : best == rr && rr > seq      ? "rr"
                                          : "sequential"});
    report.metric(cat("cosched.", label, ".best_seq"), seq);
    report.metric(cat("cosched.", label, ".greedy"), greedy);
  }
  ct.print(
      "array utilization = busy / resident PE-cycles; best seq enumerates "
      "every order; shedding mixes favor greedy, spawn-heavy mixes do not");

  report.gate(
      "T-COSCHED.greedy-beats-best-sequential",
      gate_greedy > gate_seq * 1.05,
      cat("reduce@65+reduce@64: greedy ", bench::pct(gate_greedy),
          " vs best sequential ", bench::pct(gate_seq),
          " (gate: greedy > 1.05x best sequential)"));
}

}  // namespace

MSC_BENCH_MAIN(report_kernels)
