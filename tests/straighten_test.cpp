#include <gtest/gtest.h>

#include "msc/core/straighten.hpp"
#include "msc/driver/pipeline.hpp"
#include "msc/driver/runner.hpp"
#include "msc/workload/kernels.hpp"

using namespace msc;
using namespace msc::core;

namespace {

ir::CostModel kCost;

ConvertResult convert_unstraightened(const std::string& src) {
  auto compiled = driver::compile(src);
  return meta_state_convert(compiled.graph, kCost);
}

}  // namespace

TEST(Straighten, PureRelabeling) {
  // Straightening must not change state count, arc count, or member sets.
  auto res = convert_unstraightened(workload::kernel("barrier_pipeline").source);
  MetaAutomaton before = res.automaton;
  MetaAutomaton after = res.automaton;
  straighten(after);
  EXPECT_EQ(before.num_states(), after.num_states());
  EXPECT_EQ(before.num_arcs(), after.num_arcs());
  for (const MetaState& s : before.states) {
    MetaId mapped = after.find(s.members);
    ASSERT_NE(mapped, kNoMeta) << s.members.to_string();
  }
  EXPECT_EQ(after.states[after.start].members,
            before.states[before.start].members);
  EXPECT_TRUE(after.validate(res.graph).empty());
}

TEST(Straighten, ChainsBecomeConsecutive) {
  // barrier_pipeline is a straight chain of phases: after straightening,
  // every single-successor state with an in-degree-1 target must sit
  // right before it.
  auto res = convert_unstraightened(workload::kernel("barrier_pipeline").source);
  std::size_t ft = straighten(res.automaton);
  EXPECT_GT(ft, 0u);
  // Verify the layout property the emitter relies on.
  std::size_t consecutive = 0;
  for (const MetaState& s : res.automaton.states) {
    MetaId next = kNoMeta;
    if (s.unconditional != kNoMeta && s.arcs.empty()) next = s.unconditional;
    if (s.unconditional == kNoMeta && s.arcs.size() == 1) next = s.arcs[0].second;
    if (next == s.id + 1) ++consecutive;
  }
  EXPECT_GE(consecutive, ft);
}

TEST(Straighten, IdempotentOnSecondPass) {
  auto res = convert_unstraightened(workload::listing3().source);
  straighten(res.automaton);
  auto snapshot = res.automaton.dump();
  straighten(res.automaton);
  EXPECT_EQ(res.automaton.dump(), snapshot);
}

TEST(Straighten, FallthroughsSaveCycles) {
  const std::string src = workload::kernel("barrier_pipeline").source;
  auto compiled = driver::compile(src);
  auto a = meta_state_convert(compiled.graph, kCost);
  auto b = a;
  straighten(a.automaton);
  mimd::RunConfig cfg;
  cfg.nprocs = 8;
  simd::SimdStats sa, sb;
  auto ra = driver::run_simd(compiled, a, cfg, 3, kCost, {}, &sa);
  auto rb = driver::run_simd(compiled, b, cfg, 3, kCost, {}, &sb);
  EXPECT_TRUE(ra == rb);  // semantics unchanged
  EXPECT_LT(sa.control_cycles, sb.control_cycles);  // gotos became free
}

TEST(Straighten, WholeSuiteStillEquivalent) {
  for (const auto& k : workload::suite()) {
    auto compiled = driver::compile(k.source);
    auto conv = meta_state_convert(compiled.graph, kCost);
    straighten(conv.automaton);
    mimd::RunConfig cfg;
    cfg.nprocs = 8;
    if (k.name == "spawn_tree") cfg.initial_active = 2;
    auto oracle = driver::run_oracle(compiled, cfg, 11);
    auto simd = driver::run_simd(compiled, conv, cfg, 11, kCost);
    if (k.per_pe_deterministic) {
      EXPECT_TRUE(oracle == simd) << k.name;
    } else {
      EXPECT_TRUE(oracle.equivalent_unordered(simd)) << k.name;
    }
  }
}
