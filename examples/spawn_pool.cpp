// §3.2.5 restricted dynamic process creation: spawn/halt on the SIMD
// machine. Traces the PE pool occupancy meta-state by meta-state while a
// couple of initial processes fork workers that compute and release their
// PEs, and cross-checks the final results against the MIMD oracle.
//
// Build & run:  ./build/examples/spawn_pool
#include <algorithm>
#include <cstdio>
#include <vector>

#include "msc/codegen/program.hpp"
#include "msc/driver/pipeline.hpp"
#include "msc/driver/runner.hpp"
#include "msc/pass/pass.hpp"
#include "msc/simd/machine.hpp"
#include "msc/workload/kernels.hpp"

using namespace msc;

int main() {
  const workload::Kernel& kernel = workload::kernel("spawn_tree");
  std::printf("== MIMDC source ==\n%s\n", kernel.source.c_str());

  driver::Compiled compiled = driver::compile(kernel.source);
  ir::CostModel cost;
  auto conv = pass::run_conversion_pipeline(
      compiled.graph, cost, {"convert", "subsume", "straighten"}, {});
  auto prog = codegen::generate(conv.automaton, conv.graph, cost, {});

  mimd::RunConfig config;
  config.nprocs = 8;
  config.initial_active = 2;  // PEs 2..7 form the free pool

  auto machine_ptr = simd::make_machine(prog, cost, config);
  simd::SimdMachine& machine = *machine_ptr;
  std::printf("== PE pool occupancy per meta state ==\n");
  std::printf("%6s %-14s %6s %8s\n", "step", "meta state", "alive", "spawns");
  int step = 0;
  std::printf("%6d %-14s %6lld %8lld\n", step, "(initial)",
              static_cast<long long>(machine.alive_count()), 0LL);
  while (machine.step()) {
    ++step;
    const auto& mc = prog.states[machine.current_state()];
    std::printf("%6d %-14s %6lld %8lld\n", step,
                mc.members.to_string().c_str(),
                static_cast<long long>(machine.alive_count()),
                static_cast<long long>(machine.stats().spawns));
  }
  std::printf("total spawns: %lld, final alive: %lld\n\n",
              static_cast<long long>(machine.stats().spawns),
              static_cast<long long>(machine.alive_count()));

  // Compare result multisets against the oracle (PE assignment order can
  // legally differ between the asynchronous and lockstep machines).
  auto oracle = driver::run_oracle(compiled, config, 1);
  std::vector<long long> simd_results, oracle_results;
  for (std::int64_t p = 0; p < config.nprocs; ++p) {
    if (machine.ever_ran(p))
      simd_results.push_back(machine.peek(p, frontend::Layout::kResultAddr).i);
    if (oracle.ran[static_cast<std::size_t>(p)])
      oracle_results.push_back(oracle.results[static_cast<std::size_t>(p)].i);
  }
  std::sort(simd_results.begin(), simd_results.end());
  std::sort(oracle_results.begin(), oracle_results.end());
  std::printf("sorted results (simd)  :");
  for (long long v : simd_results) std::printf(" %lld", v);
  std::printf("\nsorted results (oracle):");
  for (long long v : oracle_results) std::printf(" %lld", v);
  bool ok = simd_results == oracle_results;
  std::printf("\nequivalence: %s\n", ok ? "MATCH" : "MISMATCH");
  return ok ? 0 : 1;
}
