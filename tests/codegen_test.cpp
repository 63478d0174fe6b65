#include <gtest/gtest.h>

#include "msc/codegen/program.hpp"
#include "msc/driver/pipeline.hpp"
#include "msc/pass/pass.hpp"
#include "msc/workload/kernels.hpp"

using namespace msc;
using namespace msc::codegen;

namespace {

ir::CostModel kCost;

/// The pass list mscc --compress selects.
const std::vector<std::string> kCompressPipeline = {
    "simplify", "peephole", "compress", "convert", "subsume", "straighten"};

/// The program mscc generates for `src` under `pipeline`.
SimdProgram gen(const std::string& src, CodegenOptions gopts = {},
                std::vector<std::string> pipeline = pass::default_pipeline()) {
  driver::PipelineOptions popts;
  popts.pipeline = std::move(pipeline);
  popts.pipeline.push_back("codegen");
  popts.codegen = gopts;
  return std::move(*driver::convert(src, kCost, popts).prog);
}

const MetaCode* find_by_width(const SimdProgram& p, std::size_t width) {
  for (const MetaCode& mc : p.states)
    if (mc.members.count() == width) return &mc;
  return nullptr;
}

}  // namespace

TEST(Codegen, TransitionKindsMatchArcStructure) {
  SimdProgram p = gen(workload::listing1().source);
  ASSERT_EQ(p.states.size(), 8u);
  int exits = 0, multiway = 0, direct = 0;
  for (const MetaCode& mc : p.states) {
    switch (mc.trans) {
      case TransKind::Exit: ++exits; break;
      case TransKind::Direct: ++direct; break;
      case TransKind::Multiway: ++multiway; break;
    }
  }
  // {F} is terminal; every other Listing-1 meta state carries branches.
  EXPECT_EQ(exits, 1);
  EXPECT_EQ(direct, 0);
  EXPECT_EQ(multiway, 7);
}

TEST(Codegen, SingleExitArcBecomesPlainGoto) {
  // A deterministic straight-line region: Jump-only members → Direct with
  // no global-or (§3.2.2).
  SimdProgram p = gen("int main() { wait; return 1; }");
  bool found_free_goto = false;
  for (const MetaCode& mc : p.states)
    if (mc.trans == TransKind::Direct && !mc.needs_apc) found_free_goto = true;
  EXPECT_TRUE(found_free_goto);
}

TEST(Codegen, GuardsRestrictOpsToTheirThreads) {
  SimdProgram p = gen(workload::listing1().source);
  for (const MetaCode& mc : p.states) {
    for (const SOp& op : mc.code) {
      EXPECT_FALSE(op.guard.empty());
      EXPECT_TRUE(op.guard.is_subset_of(mc.members));
    }
  }
}

TEST(Codegen, EveryAdvancingMemberGetsExactlyOnePcUpdate) {
  for (const auto& kernel : workload::suite()) {
    SimdProgram p = gen(kernel.source);
    for (const MetaCode& mc : p.states) {
      bool all_barrier =
          !p.barriers.empty() && mc.members.is_subset_of(p.barriers);
      for (std::size_t m : mc.members.bits()) {
        int pc_updates = 0;
        for (const SOp& op : mc.code) {
          if (op.kind == SOpKind::Data || !op.guard.test(m)) continue;
          ++pc_updates;
        }
        bool stalled = !all_barrier && p.barriers.test(m);
        EXPECT_EQ(pc_updates, stalled ? 0 : 1)
            << kernel.name << " ms" << mc.id << " member " << m;
      }
    }
  }
}

TEST(Codegen, CsiStatsRecorded) {
  SimdProgram with_csi = gen(workload::listing1().source);
  CodegenOptions no_csi;
  no_csi.use_csi = false;
  SimdProgram without = gen(workload::listing1().source, no_csi);
  std::int64_t induced = 0, serialized = 0, naive = 0;
  for (const MetaCode& mc : with_csi.states) {
    induced += mc.induced_cost;
    serialized += mc.serialized_cost;
    EXPECT_GE(mc.induced_cost, mc.csi_lower_bound);
  }
  for (const MetaCode& mc : without.states) naive += mc.induced_cost;
  EXPECT_LE(induced, serialized);
  EXPECT_EQ(naive, serialized);  // no_csi == serialization
  // Listing 1's B;C and D;E share stack scaffolding: CSI must find some.
  EXPECT_LT(induced, serialized);
}

TEST(Codegen, HashedSwitchesArePerfectOverTheirKeys) {
  SimdProgram p = gen(workload::listing1().source);
  for (const MetaCode& mc : p.states) {
    if (mc.trans != TransKind::Multiway) continue;
    EXPECT_FALSE(mc.sw.is_linear());
    for (std::size_t i = 0; i < mc.case_keys.size(); ++i)
      EXPECT_EQ(mc.sw.lookup(mc.case_keys[i].fold64()),
                static_cast<std::int32_t>(i));
  }
}

TEST(Codegen, TransitionCostOrdering) {
  SimdProgram p = gen(workload::listing1().source);
  const MetaCode* exit_state = nullptr;
  const MetaCode* multi = nullptr;
  for (const MetaCode& mc : p.states) {
    if (mc.trans == TransKind::Exit) exit_state = &mc;
    if (mc.trans == TransKind::Multiway) multi = &mc;
  }
  ASSERT_TRUE(exit_state && multi);
  EXPECT_GT(p.transition_cost(*multi, kCost), p.transition_cost(*exit_state, kCost));
}

TEST(Codegen, CompressedFallbackSet) {
  SimdProgram p = gen(workload::listing1().source, {}, kCompressPipeline);
  ASSERT_EQ(p.states.size(), 2u);
  const MetaCode* wide = find_by_width(p, 3);
  ASSERT_NE(wide, nullptr);
  EXPECT_EQ(wide->trans, TransKind::Direct);
  EXPECT_EQ(wide->direct_target, wide->id);  // self loop
  EXPECT_TRUE(wide->needs_apc);              // must detect all-halted
}

// ------------------------------------------------------------------- emitter

TEST(Emitter, Listing5ShapeForListing4) {
  // The paper's Listing 5: 8 meta states ms_0 .. ms_2_6_9 with BIT()
  // guards, globalor, and hashed switch dispatch.
  auto conv = driver::convert(workload::listing4().source).conversion;
  EXPECT_EQ(conv.automaton.num_states(), 8u);
  auto prog = generate(conv.automaton, conv.graph, kCost, {});
  std::string mpl = to_mpl(prog, conv.graph);

  EXPECT_NE(mpl.find("ms_0:"), std::string::npos) << mpl;
  EXPECT_NE(mpl.find("if (pc & BIT("), std::string::npos);
  EXPECT_NE(mpl.find("apc = globalor(pc);"), std::string::npos);
  EXPECT_NE(mpl.find("switch ("), std::string::npos);
  EXPECT_NE(mpl.find("case "), std::string::npos);
  EXPECT_NE(mpl.find("goto ms_"), std::string::npos);
  EXPECT_NE(mpl.find("JumpF("), std::string::npos);
  EXPECT_NE(mpl.find("exit(0);"), std::string::npos);
  // Guard over multiple states, like `pc & (BIT(2) | BIT(9))`.
  EXPECT_NE(mpl.find("| BIT("), std::string::npos);
  // All eight labels present (one per meta state).
  std::size_t labels = 0;
  for (std::size_t pos = 0; (pos = mpl.find("\nms_", pos)) != std::string::npos;
       ++pos)
    ++labels;
  EXPECT_EQ(labels, 8u);  // the header comment line precedes ms_0's newline
}

TEST(Emitter, DirectTransitionRendersGoto) {
  driver::PipelineOptions popts;
  popts.pipeline = kCompressPipeline;
  auto conv = driver::convert(workload::listing1().source, kCost, popts)
                  .conversion;
  auto prog = generate(conv.automaton, conv.graph, kCost, {});
  std::string mpl = to_mpl(prog, conv.graph);
  EXPECT_NE(mpl.find("goto ms_"), std::string::npos);
  EXPECT_NE(mpl.find("if (!globalor(pc != NOWHERE)) exit(0);"),
            std::string::npos);
}
