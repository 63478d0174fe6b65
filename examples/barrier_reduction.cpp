// §2.6 barrier synchronization: how a `wait` statement constrains the
// meta-state space. Reproduces Fig. 6 on the paper's Listing 3 and then
// sweeps k sequential divergent loops with and without barriers, showing
// the state-count cliff and the zero runtime cost of MSC synchronization
// (§5) versus the MIMD machine's runtime barrier protocol.
//
// Build & run:  ./build/examples/barrier_reduction
#include <cstdio>
#include <string>
#include <vector>

#include "msc/driver/pipeline.hpp"
#include "msc/driver/runner.hpp"
#include "msc/pass/pass.hpp"
#include "msc/workload/kernels.hpp"

using namespace msc;

namespace {

std::string states_of(const std::string& src, core::ConvertOptions opts) {
  auto compiled = driver::compile(src);
  ir::CostModel cost;
  try {
    return std::to_string(
        core::meta_state_convert(compiled.graph, cost, opts)
            .automaton.num_states());
  } catch (const core::ExplosionError&) {
    return "explodes";
  } catch (const CompileError&) {
    // PaperPrune outside its soundness envelope (k>1 distinct barriers)
    // is a compile error now; the sweep renders the rejection.
    return "rejected";
  }
}

}  // namespace

int main() {
  ir::CostModel cost;

  // --- Fig. 6: Listing 3 under the paper's barrier rule.
  auto compiled = driver::compile(workload::listing3().source);
  core::ConvertOptions prune;
  prune.barrier_mode = core::BarrierMode::PaperPrune;
  const std::vector<std::string> passes = {"convert", "subsume", "straighten"};
  auto fig6 = pass::run_conversion_pipeline(compiled.graph, cost, passes, prune);
  std::printf("== Fig. 6: Listing 3 meta-state graph (PaperPrune) ==\n%s\n",
              fig6.automaton.dump().c_str());

  // --- State-count sweep: divergent loop chains, barrier vs not.
  std::printf("== Meta states vs. divergent-loop count k ==\n");
  std::printf("%4s %14s %14s %14s\n", "k", "no barrier", "barrier(prune)",
              "barrier(track)");
  for (int k = 1; k <= 7; ++k) {
    core::ConvertOptions base;
    base.max_meta_states = 30000;
    core::ConvertOptions track;
    track.barrier_mode = core::BarrierMode::TrackOccupancy;
    std::string none = states_of(workload::loopy_source(k), base);
    std::string p = states_of(workload::loopy_barrier_source(k), prune);
    std::string t = states_of(workload::loopy_barrier_source(k), track);
    std::printf("%4d %14s %14s %14s\n", k, none.c_str(), p.c_str(),
                t.c_str());
  }

  // --- Runtime synchronization cost: MIMD pays, MSC does not (§5).
  std::printf("\n== Synchronization cost at runtime (Listing 3, 8 PEs) ==\n");
  mimd::RunConfig config;
  config.nprocs = 8;
  mimd::MimdStats mimd_stats;
  driver::run_oracle(compiled, config, 7, &mimd_stats);
  auto conv = pass::run_conversion_pipeline(compiled.graph, cost, passes, prune);
  simd::SimdStats simd_stats;
  driver::run_simd(compiled, conv, config, 7, cost, {}, &simd_stats);
  std::printf("MIMD barrier protocol cycles : %lld (+%lld idle)\n",
              static_cast<long long>(mimd_stats.barrier_sync_cycles),
              static_cast<long long>(mimd_stats.barrier_idle_cycles));
  std::printf("MSC synchronization cycles   : 0 (implicit in the automaton; "
              "%lld global-ors already counted in dispatch)\n",
              static_cast<long long>(simd_stats.global_ors));
  return 0;
}
