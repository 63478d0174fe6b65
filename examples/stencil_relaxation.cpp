// Domain example: 1-D Jacobi-style relaxation with a per-PE convergence
// test — the mixed data-parallel / control-parallel workload the paper's
// introduction motivates. Every PE owns a strip of cells, exchanges halo
// values with its neighbours through the router (`[[ ]]`), iterates until
// *its* strip converges (control-parallel divergence!), and a barrier
// separates the phases. MSC turns the whole thing into one SIMD automaton.
//
// Build & run:  ./build/examples/stencil_relaxation
#include <cstdio>

#include "msc/driver/pipeline.hpp"
#include "msc/driver/runner.hpp"
#include "msc/pass/pass.hpp"

using namespace msc;

namespace {

// Each PE relaxes STRIP interior cells; halo cells come from neighbours.
// The per-PE iteration count depends on the PE's data, so PEs diverge.
const char* kSource = R"(poly int x;          // seeded per-PE input

int main() {
  poly float cell[6];   // [0] left halo, [1..4] interior, [5] right halo
  poly float next[4];
  poly int j;
  poly int iters;
  poly int moved;

  // Initialize the strip from the seed: a spiky profile.
  for (j = 1; j <= 4; j++) { cell[j] = ((x >> j) & 3) * 8.0; }
  cell[0] = 0.0;
  cell[5] = 0.0;
  wait;                          // everyone's strip is ready

  iters = 0;
  moved = 1;
  while (moved) {
    // Halo exchange: my cell[1] is my left neighbour's right halo, etc.
    cell[0] = cell[4][[(procid() + nprocs() - 1) % nprocs()]];
    cell[5] = cell[1][[(procid() + 1) % nprocs()]];
    wait;                        // halos consistent before relaxing

    moved = 0;
    for (j = 1; j <= 4; j++) {
      next[j - 1] = (cell[j - 1] + cell[j] + cell[j + 1]) / 3.0;
      if (next[j - 1] - cell[j] > 0.5 || cell[j] - next[j - 1] > 0.5) {
        moved = 1;               // this PE's strip still changing
      }
    }
    for (j = 1; j <= 4; j++) { cell[j] = next[j - 1]; }
    iters++;
    if (iters >= 12) { break; }  // cap, like any real solver
    wait;                        // lockstep sweeps
  }
  wait;

  // Report: packed (iterations, rounded strip energy).
  poly float energy;
  energy = 0.0;
  for (j = 1; j <= 4; j++) { energy += cell[j]; }
  return iters * 1000 + energy;
}
)";

}  // namespace

int main() {
  driver::Compiled compiled = driver::compile(kSource);
  ir::CostModel cost;
  std::printf("MIMD states: %zu, barrier states: %zu\n", compiled.graph.size(),
              compiled.graph.barrier_states().count());

  // The default pipeline's conversion passes; barrier mode TrackOccupancy,
  // since several barriers interleave.
  auto conv = pass::run_conversion_pipeline(
      compiled.graph, cost, {"convert", "subsume", "straighten"}, {});
  std::printf("meta states: %zu (mean width %.2f)\n\n",
              conv.automaton.num_states(), conv.automaton.mean_width());

  mimd::RunConfig config;
  config.nprocs = 8;
  std::uint64_t seed = 77;

  mimd::MimdStats oracle_stats;
  auto oracle = driver::run_oracle(compiled, config, seed, &oracle_stats);
  simd::SimdStats simd_stats;
  auto simd = driver::run_simd(compiled, conv, config, seed, cost, {}, &simd_stats);

  std::printf("%4s %10s %8s\n", "PE", "iters", "energy");
  for (std::int64_t p = 0; p < config.nprocs; ++p) {
    long long packed = oracle.results[static_cast<std::size_t>(p)].i;
    std::printf("%4lld %10lld %8lld\n", static_cast<long long>(p),
                packed / 1000, packed % 1000);
  }
  bool ok = oracle == simd;
  std::printf("\noracle == simd: %s\n", ok ? "EXACT MATCH" : "MISMATCH");
  std::printf("MIMD: %lld busy cycles, %lld barrier releases, %lld idle at "
              "barriers\n",
              static_cast<long long>(oracle_stats.busy_cycles),
              static_cast<long long>(oracle_stats.barrier_releases),
              static_cast<long long>(oracle_stats.barrier_idle_cycles));
  std::printf("SIMD: %lld control cycles, utilization %.1f%%, %lld global-ors, "
              "0 sync cycles (automaton-implicit)\n",
              static_cast<long long>(simd_stats.control_cycles),
              100.0 * simd_stats.utilization(),
              static_cast<long long>(simd_stats.global_ors));
  return ok ? 0 : 1;
}
