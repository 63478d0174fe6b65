// Quickstart: the full meta-state conversion pipeline on the paper's
// Listing 1 — compile MIMDC, inspect the MIMD state graph (Fig. 1),
// convert to a meta-state automaton (Fig. 2 / Fig. 5), generate SIMD code,
// and run it against the asynchronous MIMD oracle.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <string>

#include "msc/driver/pipeline.hpp"
#include "msc/driver/runner.hpp"
#include "msc/pass/pass.hpp"
#include "msc/workload/kernels.hpp"

using namespace msc;

int main() {
  const workload::Kernel& kernel = workload::listing1();
  std::printf("== MIMDC source (%s) ==\n%s\n", kernel.name.c_str(),
              kernel.source.c_str());

  // 1. Front half: lex → parse → sema → CFG → straighten.
  driver::Compiled compiled = driver::compile(kernel.source);
  std::printf("== MIMD state graph (Fig. 1) ==\n%s\n",
              compiled.graph.dump().c_str());

  // 2. Meta-state conversion, base algorithm (§2.3 → Fig. 2), then the
  //    §4.2 fall-through layout: the default pipeline's conversion passes.
  ir::CostModel cost;
  auto base = pass::run_conversion_pipeline(
      compiled.graph, cost, {"convert", "subsume", "straighten"}, {});
  std::printf("== Base meta-state automaton (Fig. 2) ==\n%s\n",
              base.automaton.dump().c_str());

  // 3. With §2.5 compression, and Fig. 5 subsumption of the subset state.
  auto compressed = pass::run_conversion_pipeline(
      compiled.graph, cost, {"compress", "convert", "subsume", "straighten"},
      {});
  std::printf("== Compressed automaton (Fig. 5) ==\n%s\n",
              compressed.automaton.dump().c_str());

  // 4. Execute both on the SIMD machine and compare with the MIMD oracle.
  mimd::RunConfig config;
  config.nprocs = 8;
  std::uint64_t seed = 2026;
  driver::Observed oracle = driver::run_oracle(compiled, config, seed);

  simd::SimdStats base_stats, comp_stats;
  driver::Observed simd_base =
      driver::run_simd(compiled, base, config, seed, cost, {}, &base_stats);
  driver::Observed simd_comp = driver::run_simd(compiled, compressed, config,
                                                seed, cost, {}, &comp_stats);

  std::printf("oracle     : %s\n", oracle.to_string().c_str());
  std::printf("simd base  : %s\n", simd_base.to_string().c_str());
  std::printf("simd compr : %s\n", simd_comp.to_string().c_str());
  bool ok = oracle == simd_base && oracle == simd_comp;
  std::printf("\nequivalence: %s\n", ok ? "EXACT MATCH" : "MISMATCH");

  std::printf("\n              %12s %12s\n", "base", "compressed");
  std::printf("meta states   %12zu %12zu\n", base.automaton.num_states(),
              compressed.automaton.num_states());
  std::printf("cycles        %12lld %12lld\n",
              static_cast<long long>(base_stats.control_cycles),
              static_cast<long long>(comp_stats.control_cycles));
  std::printf("utilization   %11.1f%% %11.1f%%\n",
              100.0 * base_stats.utilization(),
              100.0 * comp_stats.utilization());
  std::printf("global-ors    %12lld %12lld\n",
              static_cast<long long>(base_stats.global_ors),
              static_cast<long long>(comp_stats.global_ors));
  return ok ? 0 : 1;
}
