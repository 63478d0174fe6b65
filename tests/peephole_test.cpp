#include <gtest/gtest.h>

#include "msc/driver/pipeline.hpp"
#include "msc/driver/runner.hpp"
#include "msc/ir/build.hpp"
#include "msc/ir/passes.hpp"
#include "msc/ir/peephole.hpp"
#include "msc/workload/generator.hpp"
#include "msc/workload/kernels.hpp"

#include "user_conversion.hpp"

using namespace msc;
using namespace msc::ir;

namespace {

std::vector<Instr> opt(std::vector<Instr> body) {
  StateGraph g;
  StateId b = g.add_block();
  g.start = b;
  g.at(b).body = std::move(body);
  peephole(g);
  return g.at(b).body;
}

}  // namespace

TEST(Peephole, ConstantFoldingBinary) {
  auto out = opt({Instr::push_i(2), Instr::push_i(3), Instr::of(Opcode::Mul)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], Instr::push_i(6));
  // Chains fold to a single push.
  out = opt({Instr::push_i(2), Instr::push_i(3), Instr::of(Opcode::Add),
             Instr::push_i(4), Instr::of(Opcode::Mul)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], Instr::push_i(20));
}

TEST(Peephole, FoldingMatchesRuntimeSemantics) {
  // Total division and float promotion must match exec_instr exactly.
  auto out = opt({Instr::push_i(7), Instr::push_i(0), Instr::of(Opcode::Div)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], Instr::push_i(0));
  out = opt({Instr::push_i(1), Instr::push_f(0.5), Instr::of(Opcode::Add)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], Instr::push_f(1.5));
  out = opt({Instr::push_f(2.75), Instr::of(Opcode::CastI)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], Instr::push_i(2));
}

TEST(Peephole, DeadValueElimination) {
  EXPECT_TRUE(opt({Instr::push_i(9), Instr::pop(1)}).empty());
  EXPECT_TRUE(opt({Instr::of(Opcode::Dup), Instr::pop(1)}).empty());
  // Pop(2) is not touched by the dead-value rule.
  auto out = opt({Instr::push_i(9), Instr::pop(2)});
  EXPECT_EQ(out.size(), 2u);
}

TEST(Peephole, StatementStoreShrinks) {
  auto out = opt({Instr::push_i(5), Instr::of(Opcode::Dup), Instr::push_i(12),
                  Instr::of(Opcode::StL), Instr::pop(1)});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], Instr::push_i(5));
  EXPECT_EQ(out[1], Instr::push_i(12));
  EXPECT_EQ(out[2].op, Opcode::StL);
}

TEST(Peephole, PopFusion) {
  auto out = opt({Instr::of(Opcode::LdL), Instr::pop(1), Instr::pop(2)});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1], Instr::pop(3));
}

TEST(Peephole, LeavesImpureCodeAlone) {
  std::vector<Instr> body = {Instr::push_i(1), Instr::of(Opcode::LdL),
                             Instr::of(Opcode::Add)};
  EXPECT_EQ(opt(body).size(), 3u);
}

TEST(Peephole, ShrinksRealKernels) {
  // compile() already runs peephole; rebuilding without it must be bigger.
  auto compiled = driver::compile(workload::listing1().source);
  ir::StateGraph raw = ir::build_state_graph(*compiled.program, compiled.layout);
  ir::simplify(raw);
  std::size_t before = 0, after = 0;
  for (const auto& b : raw.blocks) before += b.body.size();
  std::size_t removed = ir::peephole(raw);
  for (const auto& b : raw.blocks) after += b.body.size();
  EXPECT_GT(removed, 0u);
  EXPECT_EQ(after + removed, before);
}

TEST(Peephole, WholeSuiteStillEquivalentToOracle) {
  ir::CostModel cost;
  for (const auto& k : workload::suite()) {
    auto compiled = driver::compile(k.source);  // peephole applied
    auto conv = test::convert(compiled.graph, cost);
    mimd::RunConfig cfg;
    cfg.nprocs = 6;
    if (k.name == "spawn_tree") cfg.initial_active = 2;
    auto oracle = driver::run_oracle(compiled, cfg, 13);
    auto simd = driver::run_simd(compiled, conv, cfg, 13, cost);
    if (k.per_pe_deterministic) {
      EXPECT_TRUE(oracle == simd) << k.name;
    } else {
      EXPECT_TRUE(oracle.equivalent_unordered(simd)) << k.name;
    }
  }
}

TEST(Peephole, RandomProgramsUnchangedSemantics) {
  // Optimized vs unoptimized graphs must produce identical oracle results.
  ir::CostModel cost;
  for (std::uint64_t seed = 900; seed < 915; ++seed) {
    std::string src = workload::generate_program(seed);
    SCOPED_TRACE(src);
    auto compiled = driver::compile(src);  // with peephole
    ir::StateGraph raw = ir::build_state_graph(*compiled.program, compiled.layout);
    ir::simplify(raw);  // without peephole
    mimd::RunConfig cfg;
    cfg.nprocs = 4;

    mimd::MimdMachine a(compiled.graph, cost, cfg);
    mimd::MimdMachine b(raw, cost, cfg);
    driver::seed_machine(a, compiled, cfg, seed);
    driver::seed_machine(b, compiled, cfg, seed);
    a.run();
    b.run();
    for (std::int64_t p = 0; p < cfg.nprocs; ++p)
      EXPECT_EQ(a.peek(p, frontend::Layout::kResultAddr),
                b.peek(p, frontend::Layout::kResultAddr))
          << "PE " << p;
  }
}
