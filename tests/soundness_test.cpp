// Deeper soundness properties from DESIGN.md:
//  - invariant 4 (compression soundness): every base-reachable occupancy is
//    contained in some compressed meta state;
//  - the multi-barrier analysis behind the two §2.6 modes: TrackOccupancy
//    stays exact when two distinct barrier states are occupied at once,
//    while the paper's pruning rule is rejected outright (a compile error
//    pointing at the second barrier — the occupancies it can reach are
//    ones conversion never enumerates);
//  - machine-level fault behaviour (recursion overflowing the frame stack).
#include <gtest/gtest.h>

#include "msc/driver/pipeline.hpp"
#include "msc/driver/runner.hpp"
#include "msc/workload/generator.hpp"
#include "msc/workload/kernels.hpp"

#include "user_conversion.hpp"

using namespace msc;
using namespace msc::core;

namespace {

ir::CostModel kCost;

/// A program where PEs wait at *different* textual barriers concurrently:
/// the unsound corner of the paper's §2.6 pruning rule.
const char* kTwoBarrierSource = R"(poly int x;
int main() {
  poly int r;
  poly int i;
  if (x & 1) {
    r = 10;
    wait;          // barrier state W1 — reached quickly
    r += 1;
  } else {
    r = 20;
    i = (x % 3) + 1;
    do { r += 5; i--; } while (i > 0);   // stagger the W2 arrivals
    wait;          // barrier state W2
    r += 2;
  }
  return r + x;
}
)";

}  // namespace

TEST(CompressionSoundness, BaseOccupanciesContainedInCompressedStates) {
  for (const auto& k : workload::suite()) {
    auto compiled = driver::compile(k.source);
    ConvertOptions base_opts;
    base_opts.max_meta_states = 100000;
    ConvertResult base;
    try {
      base = test::convert(compiled.graph, kCost, test::kStages, base_opts);
    } catch (const ExplosionError&) {
      continue;
    }
    auto comp = test::convert(compiled.graph, kCost, test::kCompressStages);
    // Invariant 4: each base meta state's members (an exact reachable
    // occupancy) must be ⊆ the members of some compressed state.
    for (const MetaState& bs : base.automaton.states) {
      bool covered = false;
      for (const MetaState& cs : comp.automaton.states)
        covered |= bs.members.is_subset_of(cs.members);
      EXPECT_TRUE(covered) << k.name << ": occupancy "
                           << bs.members.to_string()
                           << " not covered by any compressed state\n"
                           << comp.automaton.dump();
    }
  }
}

TEST(MultiBarrier, GraphHasTwoDistinctBarrierStates) {
  auto compiled = driver::compile(kTwoBarrierSource);
  EXPECT_EQ(compiled.graph.barrier_states().count(), 2u)
      << compiled.graph.dump();
}

TEST(MultiBarrier, TrackOccupancyIsExactWithoutRescues) {
  auto compiled = driver::compile(kTwoBarrierSource);
  ConvertOptions opts;
  opts.barrier_mode = BarrierMode::TrackOccupancy;
  auto conv = test::convert(compiled.graph, kCost, test::kStages, opts);
  mimd::RunConfig cfg;
  cfg.nprocs = 8;
  for (std::uint64_t seed : {1ull, 5ull, 9ull}) {
    simd::SimdStats stats;
    auto oracle = driver::run_oracle(compiled, cfg, seed);
    auto simd = driver::run_simd(compiled, conv, cfg, seed, kCost, {}, &stats);
    EXPECT_TRUE(oracle == simd) << "seed " << seed;
    EXPECT_EQ(stats.rescue_transitions, 0);
  }
}

TEST(MultiBarrier, PaperPruneIsRejectedAtCompileTime) {
  // The paper's rule merges the two waiting populations out of the
  // transition key, so conversion never enumerates the mixed-barrier
  // aggregates the program can reach. That unsoundness used to be papered
  // over by a runtime rescue; it is now a compile error whose location
  // points at the second `wait`.
  auto compiled = driver::compile(kTwoBarrierSource);
  ConvertOptions opts;
  opts.barrier_mode = BarrierMode::PaperPrune;
  try {
    meta_state_convert(compiled.graph, kCost, opts);
    FAIL() << "multi-barrier PaperPrune conversion must throw";
  } catch (const CompileError& e) {
    EXPECT_TRUE(e.loc().valid());
    EXPECT_NE(std::string(e.what()).find("barrier mode 'prune'"),
              std::string::npos)
        << e.what();
  }
}

TEST(MultiBarrier, PaperPruneRejectsSpawnAndCompression) {
  // Same promotion for the other two unsound corners: a dynamic process
  // population (found by mscfuzz — tests/corpus/spawn_child_barrier.mimdc)
  // and §2.5 compression (whose unconditional transitions leave the
  // §3.2.4 masking nothing to key on).
  auto spawny = driver::compile(R"(
int main() {
  spawn { return 2; }
  wait;
  return 1;
}
)");
  ConvertOptions opts;
  opts.barrier_mode = BarrierMode::PaperPrune;
  EXPECT_THROW(meta_state_convert(spawny.graph, kCost, opts), CompileError);

  auto single = driver::compile("int main() { wait; return 1; }");
  ConvertOptions copts;
  copts.barrier_mode = BarrierMode::PaperPrune;
  copts.compress = true;
  EXPECT_THROW(meta_state_convert(single.graph, kCost, copts), CompileError);
  // Without compression the single-barrier static program is fine.
  copts.compress = false;
  EXPECT_NO_THROW(meta_state_convert(single.graph, kCost, copts));
}

TEST(MultiBarrier, CompressedHandlesBothBarriers) {
  auto compiled = driver::compile(kTwoBarrierSource);
  auto conv = test::convert(compiled.graph, kCost, test::kCompressStages);
  mimd::RunConfig cfg;
  cfg.nprocs = 8;
  auto oracle = driver::run_oracle(compiled, cfg, 3);
  auto simd = driver::run_simd(compiled, conv, cfg, 3, kCost);
  EXPECT_TRUE(oracle == simd);
}

TEST(Faults, DeepRecursionOverflowsFrameStack) {
  // f recurses `x` deep with a sizeable frame; a tiny local memory must
  // fault cleanly rather than corrupt memory.
  const char* src = R"(poly int x;
int f(int n) {
  int a; int b; int c; int d;
  a = n; b = n; c = n; d = n;
  if (n <= 0) { return a; }
  return f(n - 1) + b + c + d;
}
int main() { return f(x); }
)";
  auto compiled = driver::compile(src);
  mimd::RunConfig cfg;
  cfg.nprocs = 1;
  cfg.local_mem_cells = 64;  // room for only a few frames
  mimd::MimdMachine m(compiled.graph, kCost, cfg);
  const auto* slot = compiled.layout.find("x");
  m.poke(0, slot->addr, Value::of_int(1000));
  EXPECT_THROW(m.run(), ir::MachineFault);
}

TEST(Faults, ModerateRecursionFitsAndMatches) {
  const char* src = R"(poly int x;
int f(int n) {
  if (n <= 0) { return 0; }
  return f(n - 1) + n;
}
int main() { return f(x % 10); }
)";
  auto compiled = driver::compile(src);
  auto conv = test::convert(compiled.graph, kCost);
  mimd::RunConfig cfg;
  cfg.nprocs = 6;
  auto oracle = driver::run_oracle(compiled, cfg, 2);
  auto simd = driver::run_simd(compiled, conv, cfg, 2, kCost);
  EXPECT_TRUE(oracle == simd);
  // Triangular numbers of x%10.
  for (std::size_t p = 0; p < 6; ++p) {
    std::int64_t x = driver::seed_input(2, static_cast<std::int64_t>(p)) % 10;
    EXPECT_EQ(oracle.results[p].i, x * (x + 1) / 2);
  }
}

TEST(RandomPrograms, WithNewSyntaxStillEquivalent) {
  // The generator now emits compound assignment, ++/--, and guarded break.
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    workload::GenOptions gen;
    gen.stmts = 6;
    gen.max_depth = 3;
    std::string source = workload::generate_program(seed, gen);
    SCOPED_TRACE(source);
    auto compiled = driver::compile(source);
    // compression never explodes
    auto conv = test::convert(compiled.graph, kCost, test::kCompressStages);
    mimd::RunConfig cfg;
    cfg.nprocs = 5;
    auto oracle = driver::run_oracle(compiled, cfg, seed);
    auto simd = driver::run_simd(compiled, conv, cfg, seed, kCost);
    EXPECT_TRUE(oracle == simd)
        << "oracle: " << oracle.to_string() << "\nsimd: " << simd.to_string();
  }
}
