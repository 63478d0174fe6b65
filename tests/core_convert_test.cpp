#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "msc/core/convert.hpp"
#include "msc/core/time_split.hpp"
#include "msc/driver/pipeline.hpp"
#include "msc/pass/pass.hpp"
#include "msc/workload/kernels.hpp"

using namespace msc;
using namespace msc::core;
using ir::ExitKind;
using ir::StateGraph;
using ir::StateId;

namespace {

ir::CostModel kCost;

std::set<std::string> member_sets(const MetaAutomaton& aut) {
  std::set<std::string> sets;
  for (const MetaState& s : aut.states) sets.insert(s.members.to_string());
  return sets;
}

MetaAutomaton convert_src(const std::string& src, ConvertOptions opts = {}) {
  auto compiled = driver::compile(src);
  auto res = meta_state_convert(compiled.graph, kCost, opts);
  EXPECT_TRUE(res.automaton.validate(res.graph).empty()) << res.automaton.dump();
  return std::move(res.automaton);
}

}  // namespace

TEST(Convert, Figure2ExactMetaStateSets) {
  // Fig. 2 (Listing 1, base conversion): with our numbering A=0, B;C=1,
  // D;E=2, F=3, the eight meta states are exactly these.
  MetaAutomaton aut = convert_src(workload::listing1().source);
  EXPECT_EQ(member_sets(aut),
            (std::set<std::string>{"{0}", "{1}", "{2}", "{3}", "{1,2}", "{1,3}",
                                   "{2,3}", "{1,2,3}"}));
}

TEST(Convert, Figure2StartStateBranchesThreeWays) {
  // From {A}: both arms, either arm — 3^1 successors (§2.3).
  auto compiled = driver::compile(workload::listing1().source);
  auto res = meta_state_convert(compiled.graph, kCost, {});
  const MetaAutomaton& aut = res.automaton;
  const MetaState& start = aut.at(aut.start);
  ASSERT_EQ(start.arcs.size(), 3u);
  const ir::Block& a = compiled.graph.at(compiled.graph.start);
  StateId bc = a.target, de = a.alt;
  std::set<DynBitset> keys;
  for (const auto& [key, target] : start.arcs) {
    keys.insert(key);
    EXPECT_EQ(aut.at(target).members, key);  // exact-occupancy invariant
  }
  std::set<DynBitset> want{DynBitset::of({bc}), DynBitset::of({de}),
                           DynBitset::of({bc, de})};
  EXPECT_EQ(keys, want);
}

TEST(Convert, TerminalMetaStateHasNoArcs) {
  auto compiled = driver::compile(workload::listing1().source);
  auto res = meta_state_convert(compiled.graph, kCost, {});
  // F is the halt state: {F} must be terminal.
  StateId f_state = ir::kNoState;
  for (const auto& b : compiled.graph.blocks)
    if (b.exit == ExitKind::Halt) f_state = b.id;
  ASSERT_NE(f_state, ir::kNoState);
  MetaId f = res.automaton.find(DynBitset::of({f_state}));
  ASSERT_NE(f, kNoMeta);
  EXPECT_TRUE(res.automaton.at(f).terminal());
}

TEST(Convert, Figure5CompressedTwoStates) {
  // Fig. 5 is the compressed automaton after subsumption.
  auto compiled = driver::compile(workload::listing1().source);
  MetaAutomaton aut = pass::run_conversion_pipeline(
                          compiled.graph, kCost,
                          {"compress", "convert", "subsume"}, {})
                          .automaton;
  ASSERT_EQ(aut.num_states(), 2u) << aut.dump();
  EXPECT_EQ(member_sets(aut), (std::set<std::string>{"{0}", "{1,2,3}"}));
  // Entries into compressed states are unconditional (§3.2.2).
  EXPECT_EQ(aut.at(aut.start).unconditional, aut.find(DynBitset::of({1, 2, 3})));
  EXPECT_TRUE(aut.at(aut.start).arcs.empty());
  // The wide state loops on itself.
  MetaId wide = aut.find(DynBitset::of({1, 2, 3}));
  EXPECT_EQ(aut.at(wide).unconditional, wide);
}

TEST(Convert, CompressedWithoutSubsumptionKeepsIntermediateState) {
  ConvertOptions opts;
  opts.compress = true;
  MetaAutomaton aut = convert_src(workload::listing1().source, opts);
  EXPECT_EQ(aut.num_states(), 3u);  // {A}, {B;C,D;E}, {B;C,D;E,F}
  // The intermediate two-member state is strictly contained in the wide
  // one (which is why subsumption can remove it).
  std::vector<std::size_t> widths;
  for (const MetaState& s : aut.states) widths.push_back(s.width());
  std::sort(widths.begin(), widths.end());
  EXPECT_EQ(widths, (std::vector<std::size_t>{1, 2, 3}));
}

TEST(Convert, Figure6BarrierGraphUnderPaperPrune) {
  // Fig. 6 (Listing 3): meta states {B;C}, {D;E}, {B;C,D;E} and the
  // all-barrier state, nothing else past the start.
  ConvertOptions opts;
  opts.barrier_mode = BarrierMode::PaperPrune;
  auto compiled = driver::compile(workload::listing3().source);
  auto res = meta_state_convert(compiled.graph, kCost, opts);
  const MetaAutomaton& aut = res.automaton;
  // Our numbering: A=0, B;C=1, D;E=2, wait=3, F=4.
  EXPECT_EQ(member_sets(aut),
            (std::set<std::string>{"{0}", "{1}", "{2}", "{1,2}", "{3}", "{4}"}));
  // No meta state mixes barrier and non-barrier members.
  for (const MetaState& s : aut.states) {
    bool has_barrier = s.members.intersects(aut.barriers);
    bool all_barrier = s.members.is_subset_of(aut.barriers);
    EXPECT_TRUE(!has_barrier || all_barrier) << s.members.to_string();
  }
}

TEST(Convert, BarrierTrackOccupancyKeepsWaitingMembers) {
  ConvertOptions opts;
  opts.barrier_mode = BarrierMode::TrackOccupancy;
  MetaAutomaton aut = convert_src(workload::listing3().source, opts);
  // Occupied barrier state 3 stays in the member sets: {1,3}, {2,3} exist.
  auto sets = member_sets(aut);
  EXPECT_TRUE(sets.count("{1,3}")) << aut.dump();
  EXPECT_TRUE(sets.count("{2,3}")) << aut.dump();
  // Still no transition past the barrier until everyone waits: the F
  // state {4} is only reachable from the all-barrier state {3}.
  MetaId f = aut.find(DynBitset::of({4}));
  MetaId w = aut.find(DynBitset::of({3}));
  ASSERT_NE(f, kNoMeta);
  ASSERT_NE(w, kNoMeta);
  for (const MetaState& s : aut.states) {
    for (const auto& [key, target] : s.arcs) {
      if (target == f) {
        EXPECT_EQ(s.id, w);
      }
    }
  }
}

TEST(Convert, BarrierCutsStateSpace) {
  // §2.6's purpose: the barrier version must be no bigger than the
  // barrier-free version for the same divergent code. With five distinct
  // barriers PaperPrune is a compile error, so occupancy tracking carries
  // the claim (waiting PEs pin their members, killing the cross-product).
  auto no_barrier = convert_src(workload::loopy_source(5));
  auto with_barrier = convert_src(workload::loopy_barrier_source(5));
  EXPECT_LT(with_barrier.num_states(), no_barrier.num_states());

  ConvertOptions prune;
  prune.barrier_mode = BarrierMode::PaperPrune;
  EXPECT_THROW(convert_src(workload::loopy_barrier_source(5), prune),
               CompileError);
  // One barrier keeps the paper's rule sound and accepted.
  auto pruned = convert_src(workload::loopy_barrier_source(1), prune);
  auto plain = convert_src(workload::loopy_source(1));
  EXPECT_LE(pruned.num_states(), plain.num_states());
}

TEST(Convert, SpawnTakesBothArcs) {
  MetaAutomaton aut = convert_src("int main() { spawn { return 2; } return 1; }");
  // Start state spawns: its single successor contains both the child
  // entry and the continuation.
  const MetaState& start = aut.at(aut.start);
  ASSERT_EQ(start.arcs.size(), 1u);
  EXPECT_EQ(start.arcs[0].first.count(), 2u);
}

TEST(Convert, UniformProgramStaysNarrow) {
  // No divergence → every meta state has exactly one member, even in base
  // mode (branches are uniform but conversion still enumerates... the
  // automaton width measures *potential* divergence).
  MetaAutomaton aut = convert_src(
      "int main() { poly int i; i = 3; do { i = i - 1; } while (i); return i; }");
  EXPECT_GE(aut.num_states(), 2u);
  EXPECT_LE(aut.max_width(), 2u);
}

TEST(Convert, ExplosionGuardFires) {
  ConvertOptions opts;
  opts.max_meta_states = 4;
  auto compiled = driver::compile(workload::loopy_source(6));
  EXPECT_THROW(meta_state_convert(compiled.graph, kCost, opts), ExplosionError);
}

TEST(Convert, ExplosionLimitIsExactAtBoundary) {
  // The guard must fire *before* inserting the state that exceeds it:
  // a limit of exactly the automaton's final state count succeeds, one
  // less throws. Listing 1's base conversion needs exactly 8 meta states.
  auto compiled = driver::compile(workload::listing1().source);
  ConvertOptions at_limit;
  at_limit.max_meta_states = 8;
  auto res = meta_state_convert(compiled.graph, kCost, at_limit);
  EXPECT_EQ(res.automaton.num_states(), 8u);
  ConvertOptions below;
  below.max_meta_states = 7;
  EXPECT_THROW(meta_state_convert(compiled.graph, kCost, below), ExplosionError);
  // Degenerate budgets: even the start state must respect the limit.
  ConvertOptions zero;
  zero.max_meta_states = 0;
  EXPECT_THROW(meta_state_convert(compiled.graph, kCost, zero), ExplosionError);
}

TEST(Convert, CompressionNeverExplodes) {
  // §2.5: compressed meta-state count is bounded by reachable unions —
  // tiny even where base mode blows past the guard.
  ConvertOptions opts;
  opts.compress = true;
  opts.max_meta_states = 64;
  auto compiled = driver::compile(workload::loopy_source(10));
  auto res = meta_state_convert(compiled.graph, kCost, opts);
  EXPECT_LE(res.automaton.num_states(), 24u);
  // ... where base mode on the same graph blows far past that:
  ConvertOptions base;
  base.max_meta_states = 2000;
  EXPECT_THROW(meta_state_convert(compiled.graph, kCost, base), ExplosionError);
}

TEST(Convert, StatsAreFilled) {
  auto compiled = driver::compile(workload::listing1().source);
  auto res = meta_state_convert(compiled.graph, kCost, {});
  EXPECT_EQ(res.stats.meta_states, 8u);
  EXPECT_EQ(res.stats.arcs, res.automaton.num_arcs());
  EXPECT_GT(res.stats.reach_calls, 8u);
  EXPECT_EQ(res.stats.splits_performed, 0);
}

TEST(Convert, DumpShowsPaperStyleLabels) {
  MetaAutomaton aut = convert_src(workload::listing1().source);
  std::string dump = aut.dump();
  EXPECT_NE(dump.find("{1,2,3}"), std::string::npos);
  EXPECT_NE(dump.find("8 states"), std::string::npos);
  std::string dot = aut.to_dot();
  EXPECT_NE(dot.find("digraph meta"), std::string::npos);
}

// ------------------------------------------------------------ time splitting

TEST(TimeSplit, SplitsExpensiveMemberIntoHeadAndTail) {
  // Fig. 3/4: states α (cheap) and β (expensive) merged into one meta
  // state; β is split so the head matches α's cost.
  auto compiled = driver::compile(workload::imbalanced_once_source(1, 12));
  StateGraph g = compiled.graph;
  std::size_t before = g.size();

  // Find the two divergent arms (successors of the start branch). Copy the
  // ids out: splitting appends blocks, invalidating references into g.
  ir::StateId arm_a = g.at(g.start).target;
  ir::StateId arm_b = g.at(g.start).alt;
  DynBitset members = DynBitset::of({arm_a, arm_b});
  std::int64_t cheap =
      std::min(kCost.block_cost(g.at(arm_a)), kCost.block_cost(g.at(arm_b)));

  int splits = time_split_state(g, members, kCost, 4, 75);
  EXPECT_EQ(splits, 1);
  EXPECT_EQ(g.size(), before + 1);
  EXPECT_TRUE(g.validate().empty());
  // The expensive arm now costs about the cheap arm.
  std::int64_t head_cost =
      std::max(kCost.block_cost(g.at(arm_a)), kCost.block_cost(g.at(arm_b)));
  EXPECT_LE(head_cost, cheap + 4);
}

TEST(TimeSplit, RespectsDeltaThreshold) {
  auto compiled = driver::compile(workload::imbalanced_once_source(3, 4));
  StateGraph g = compiled.graph;
  const ir::Block& start = g.at(g.start);
  DynBitset members = DynBitset::of({start.target, start.alt});
  // With a huge delta, the imbalance counts as noise.
  EXPECT_EQ(time_split_state(g, members, kCost, 1000, 75), 0);
}

TEST(TimeSplit, RespectsPercentThreshold) {
  auto compiled = driver::compile(workload::imbalanced_once_source(8, 10));
  StateGraph g = compiled.graph;
  const ir::Block& start = g.at(g.start);
  DynBitset members = DynBitset::of({start.target, start.alt});
  // min/max utilization is already above 10%: no split.
  EXPECT_EQ(time_split_state(g, members, kCost, 0, 10), 0);
}

TEST(TimeSplit, SingleInstructionBlocksCannotSplit) {
  StateGraph g;
  StateId a = g.add_block();
  StateId b = g.add_block();
  g.start = a;
  g.at(a).body.push_back(ir::Instr::push_i(1));
  g.at(a).exit = ExitKind::Jump;
  g.at(a).target = b;
  g.at(b).body.push_back(ir::Instr::of(ir::Opcode::RouteLd));  // expensive
  g.at(b).exit = ExitKind::Halt;
  EXPECT_EQ(time_split_state(g, DynBitset::of({a, b}), kCost, 0, 99), 0);
}

TEST(TimeSplit, SplitPreservesExecutionSemantics) {
  // Work conservation (DESIGN.md invariant 5): the split graph computes
  // the same results (checked via conversion in equivalence_test; here
  // check instruction conservation directly).
  auto compiled = driver::compile(workload::imbalanced_once_source(1, 12));
  StateGraph g = compiled.graph;
  std::size_t instrs_before = 0;
  for (const auto& b : g.blocks) instrs_before += b.body.size();
  const ir::Block& start = g.at(g.start);
  time_split_state(g, DynBitset::of({start.target, start.alt}), kCost, 4, 75);
  std::size_t instrs_after = 0;
  for (const auto& b : g.blocks) instrs_after += b.body.size();
  EXPECT_EQ(instrs_before, instrs_after);
}

TEST(TimeSplit, ConversionWithSplittingReducesIdleFraction) {
  auto compiled = driver::compile(workload::imbalanced_once_source(1, 12));
  ConvertOptions plain;
  auto unsplit = meta_state_convert(compiled.graph, kCost, plain);
  ConvertOptions split;
  split.time_split = true;
  auto splitres = meta_state_convert(compiled.graph, kCost, split);
  EXPECT_GT(splitres.stats.splits_performed, 0);
  EXPECT_GT(splitres.stats.restarts, 0);
  EXPECT_GT(splitres.graph.size(), unsplit.graph.size());

  // Worst idle fraction across meta states must improve.
  auto worst_idle = [&](const ConvertResult& res) {
    double worst = 0.0;
    for (const MetaState& s : res.automaton.states)
      worst = std::max(worst,
                       meta_state_idle_fraction(res.graph, s.members, kCost));
    return worst;
  };
  EXPECT_LT(worst_idle(splitres), worst_idle(unsplit));
}

// ----------------------------------------------------------- memo cache

TEST(ConvertCache, SurvivesTimeSplitRestartsAndMatchesUncached) {
  // Splitting restarts conversion (§2.4); the memo must serve the
  // untouched frontier back (hits), drop entries containing split states
  // (invalidations), and change nothing about the result. listing1 splits
  // blocks that earlier rounds already expanded, so all three counters move.
  auto compiled = driver::compile(workload::listing1().source);
  ConvertOptions cached;
  cached.time_split = true;
  auto with = meta_state_convert(compiled.graph, kCost, cached);
  ASSERT_GT(with.stats.restarts, 0);
  EXPECT_GT(with.stats.cache_hits, 0u);
  EXPECT_GT(with.stats.cache_invalidated, 0u);

  ConvertOptions uncached = cached;
  uncached.memoize = false;
  auto without = meta_state_convert(compiled.graph, kCost, uncached);
  EXPECT_EQ(without.stats.cache_hits, 0u);
  EXPECT_EQ(with.automaton.dump(), without.automaton.dump());
  EXPECT_EQ(with.graph.dump(), without.graph.dump());
  // The cache replaces re-enumeration: strictly fewer reach() calls.
  EXPECT_LT(with.stats.reach_calls, without.stats.reach_calls);
}

TEST(ConvertCache, NoRestartMeansNoHits) {
  // Member sets are unique per meta state, so within a single round every
  // lookup is a miss; hits only come from restart reuse.
  auto compiled = driver::compile(workload::listing1().source);
  auto res = meta_state_convert(compiled.graph, kCost, {});
  EXPECT_EQ(res.stats.cache_hits, 0u);
  EXPECT_EQ(res.stats.cache_misses, res.automaton.num_states());
  EXPECT_EQ(res.stats.restarts, 0);
}

TEST(ConvertStatsJson, ContainsEveryCounter) {
  auto compiled = driver::compile(workload::listing1().source);
  auto res = meta_state_convert(compiled.graph, kCost, {});
  std::string json = to_json(res.stats);
  for (const char* field :
       {"\"meta_states\"", "\"arcs\"", "\"reach_calls\"", "\"splits_performed\"",
        "\"restarts\"", "\"cache\"", "\"hits\"", "\"misses\"", "\"invalidated\"",
        "\"threads\"", "\"batches\"", "\"phase_seconds\"", "\"expand\"",
        "\"merge\"", "\"subsume\"", "\"straighten\"", "\"total\""})
    EXPECT_NE(json.find(field), std::string::npos) << field << "\n" << json;
}

TEST(Convert, AdaptiveFallsBackToCompression) {
  // The convert pass's adaptive policy.
  ConvertOptions opts;
  opts.max_meta_states = 200;
  const std::vector<std::string> stages = {"convert", "subsume", "straighten"};
  // Small graph: base mode fits, stays uncompressed.
  auto small = driver::compile(workload::listing1().source);
  auto a = pass::run_conversion_pipeline(small.graph, kCost, stages, opts,
                                         /*adaptive=*/true);
  EXPECT_FALSE(a.automaton.compressed);
  EXPECT_EQ(a.automaton.num_states(), 8u);
  // Divergent loop chain: base explodes past 200 → compressed result.
  auto big = driver::compile(workload::loopy_source(8));
  auto b = pass::run_conversion_pipeline(big.graph, kCost, stages, opts,
                                         /*adaptive=*/true);
  EXPECT_TRUE(b.automaton.compressed);
  EXPECT_LT(b.automaton.num_states(), 200u);
  EXPECT_TRUE(b.automaton.validate(b.graph).empty());
}
