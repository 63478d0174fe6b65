#include <gtest/gtest.h>

#include "msc/driver/pipeline.hpp"
#include "msc/pass/pass.hpp"
#include "msc/mimd/machine.hpp"
#include "msc/workload/kernels.hpp"

using namespace msc;

TEST(Smoke, Listing1GraphShape) {
  auto c = driver::compile(workload::listing1().source);
  EXPECT_TRUE(c.graph.validate().empty()) << c.graph.dump();
  // Fig. 1: four states — A, B;C, D;E, F.
  EXPECT_EQ(c.graph.size(), 4u) << c.graph.dump();
}

TEST(Smoke, Listing1BaseConversionEightMetaStates) {
  auto v = driver::convert(workload::listing1().source);
  // Fig. 2: eight meta states.
  EXPECT_EQ(v.conversion.automaton.num_states(), 8u)
      << v.conversion.automaton.dump();
  EXPECT_TRUE(v.conversion.automaton.validate(v.conversion.graph).empty());
}

TEST(Smoke, Listing1CompressedTwoMetaStates) {
  driver::PipelineOptions popts;
  popts.pipeline = pass::shorthand_pipeline(/*compress=*/true, false, true);
  auto v = driver::convert(workload::listing1().source, {}, popts);
  // Fig. 5: two meta states.
  EXPECT_EQ(v.conversion.automaton.num_states(), 2u)
      << v.conversion.automaton.dump();
}

TEST(Smoke, Listing1OracleRuns) {
  auto c = driver::compile(workload::listing1().source);
  ir::CostModel cost;
  mimd::RunConfig cfg;
  cfg.nprocs = 4;
  mimd::MimdMachine m(c.graph, cost, cfg);
  auto* slot = c.layout.find("x");
  ASSERT_NE(slot, nullptr);
  for (int p = 0; p < 4; ++p) m.poke(p, slot->addr, Value::of_int(p));
  m.run();
  // x=0: else arm, i=1: acc=1, +100 = 101
  // x=1: then arm, i=2: acc=6, +100 = 106
  // x=2: else arm, i=3: acc: 1,3 → i:1,-1 two iters: acc=1 then 3 → 103
  // x=3: then arm, i=4: acc=3,6,9,12 → 112
  EXPECT_EQ(m.peek(0, 0).i, 101);
  EXPECT_EQ(m.peek(1, 0).i, 106);
  EXPECT_EQ(m.peek(2, 0).i, 103);
  EXPECT_EQ(m.peek(3, 0).i, 112);
}
