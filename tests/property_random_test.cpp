// Property sweep: for randomly generated, always-terminating SPMD programs,
// the SIMD execution of the converted automaton must match the MIMD oracle
// in every conversion mode, and the automaton must be structurally closed
// (DESIGN.md invariants 1–3).
#include <gtest/gtest.h>

#include "msc/driver/pipeline.hpp"
#include "msc/driver/runner.hpp"
#include "msc/interp/machine.hpp"
#include "msc/simd/machine.hpp"
#include "msc/workload/generator.hpp"

#include "user_conversion.hpp"

using namespace msc;

namespace {

class RandomProgramTest : public testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomProgramTest, AllModesMatchOracle) {
  workload::GenOptions gen;
  gen.stmts = 5;
  gen.max_depth = 2;
  std::string source = workload::generate_program(GetParam(), gen);
  SCOPED_TRACE(source);

  driver::Compiled compiled;
  ASSERT_NO_THROW(compiled = driver::compile(source));
  ASSERT_TRUE(compiled.graph.validate().empty()) << compiled.graph.dump();

  mimd::RunConfig config;
  config.nprocs = 6;
  ir::CostModel cost;
  auto oracle = driver::run_oracle(compiled, config, GetParam() * 13 + 1);

  bool single_barrier = compiled.graph.barrier_states().count() <= 1;
  int configs_run = 0;
  for (bool compress : {false, true}) {
    for (auto mode :
         {core::BarrierMode::TrackOccupancy, core::BarrierMode::PaperPrune}) {
      if (mode == core::BarrierMode::PaperPrune &&
          (compress || !single_barrier || compiled.graph.has_spawn())) {
        // Unsound combinations must be rejected at compile time (the
        // converter's PaperPrune guard); soundness_test pins the details.
        core::ConvertOptions bad;
        bad.compress = compress;
        bad.barrier_mode = mode;
        EXPECT_THROW(core::meta_state_convert(compiled.graph, cost, bad),
                     CompileError);
        continue;
      }
      core::ConvertOptions opts;
      opts.barrier_mode = mode;
      opts.max_meta_states = 60000;
      core::ConvertResult conversion;
      try {
        conversion = test::convert(
            compiled.graph, cost,
            compress ? test::kCompressStages : test::kStages, opts);
      } catch (const core::ExplosionError&) {
        continue;  // base-mode explosion is a measured phenomenon, not a bug
      }
      ASSERT_TRUE(conversion.automaton.validate(conversion.graph).empty())
          << conversion.automaton.dump();

      simd::SimdStats stats;
      auto simd = driver::run_simd(compiled, conversion, config,
                                   GetParam() * 13 + 1, cost, {}, &stats);
      EXPECT_TRUE(oracle == simd)
          << "compress=" << compress << " prune="
          << (mode == core::BarrierMode::PaperPrune) << "\noracle: "
          << oracle.to_string() << "\nsimd:   " << simd.to_string();
      if (mode == core::BarrierMode::TrackOccupancy && !compress) {
        // Invariant 2 (closure): occupancy-tracked base automata never need
        // a rescue transition.
        EXPECT_EQ(stats.rescue_transitions, 0);
      }
      ++configs_run;
    }
  }
  EXPECT_GE(configs_run, 1) << "every mode exploded";

  // The §1.1 interpreter must agree with the oracle as well.
  interp::InterpMachine interp(compiled.graph, cost, config);
  driver::seed_machine(interp, compiled, config, GetParam() * 13 + 1);
  interp.run();
  for (std::int64_t p = 0; p < config.nprocs; ++p) {
    if (!oracle.ran[static_cast<std::size_t>(p)]) continue;
    EXPECT_EQ(interp.peek(p, frontend::Layout::kResultAddr),
              oracle.results[static_cast<std::size_t>(p)]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest,
                         testing::Range<std::uint64_t>(1, 41));

// 32-seed sweep over PE counts straddling the 64-bit word boundaries of
// the codegen engine's occupancy/free-pool bitsets, plus a large
// non-power-of-two count. Each seed's random program must match the oracle
// on every engine at every size, with bit-identical stats between the
// engines. The binary is registered as four `property`-labeled ctest
// shards (GTEST_SHARD_INDEX — see tests/CMakeLists.txt) so the widened
// sweep keeps tier-1 wall time flat.
class BoundaryPeCountTest : public testing::TestWithParam<std::uint64_t> {};

TEST_P(BoundaryPeCountTest, AllEnginesMatchOracleAtWordBoundaries) {
  const std::uint64_t seed = GetParam();
  ir::CostModel cost;
  workload::GenOptions gen;
  gen.stmts = 5;
  gen.max_depth = 2;
  std::string source = workload::generate_program(seed, gen);
  SCOPED_TRACE(source);
  auto compiled = driver::compile(source);
  core::ConvertResult conversion;
  try {
    conversion = test::convert(compiled.graph, cost);
  } catch (const core::ExplosionError&) {
    GTEST_SKIP() << "base-mode explosion is a measured phenomenon, not a bug";
  }
  // Word-boundary sizes for every seed; the allocation-heavy 1000-PE case
  // on every fourth seed (it checks scale, not boundaries, so a quarter of
  // the sweep buys the same signal at a quarter of the wall time).
  std::vector<std::int64_t> sizes{1, 63, 64, 65, 127};
  if (seed % 4 == 1) sizes.push_back(1000);
  for (std::int64_t nprocs : sizes) {
    mimd::RunConfig config;
    config.nprocs = nprocs;
    auto oracle = driver::run_oracle(compiled, config, seed + 1);
    simd::SimdStats stats[2];
    int idx = 0;
    for (auto engine :
         {mimd::SimdEngine::Reference, mimd::SimdEngine::Codegen}) {
      config.engine = engine;
      auto simd = driver::run_simd(compiled, conversion, config, seed + 1,
                                   cost, {}, &stats[idx]);
      EXPECT_TRUE(oracle == simd)
          << "nprocs=" << nprocs << " engine=" << simd::engine_name(engine)
          << "\noracle: " << oracle.to_string()
          << "\nsimd:   " << simd.to_string();
      ++idx;
    }
    EXPECT_TRUE(stats[0] == stats[1]) << "nprocs=" << nprocs;
  }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, BoundaryPeCountTest,
                         testing::Range<std::uint64_t>(1, 33));

}  // namespace
