#include <gtest/gtest.h>

#include "msc/core/profile.hpp"
#include "msc/driver/pipeline.hpp"
#include "msc/pass/pass.hpp"
#include "msc/workload/kernels.hpp"

using namespace msc;
using namespace msc::core;

namespace {

/// The automaton mscc --emit profile reports for `src`.
MetaAutomaton convert(const std::string& src,
                      driver::PipelineOptions popts = {}) {
  return driver::convert(src, {}, popts).conversion.automaton;
}

}  // namespace

TEST(Profile, Listing1BaseShape) {
  MetaAutomaton aut = convert(workload::listing1().source);
  AutomatonProfile p = profile(aut);
  EXPECT_EQ(p.states, 8u);
  EXPECT_EQ(p.arcs, aut.num_arcs());
  EXPECT_EQ(p.terminal_states, 1u);
  EXPECT_EQ(p.unconditional_states, 0u);
  EXPECT_EQ(p.max_width, 3u);
  // Fig. 2 widths: four singletons, three pairs, one triple.
  EXPECT_EQ(p.width_histogram.at(1), 4u);
  EXPECT_EQ(p.width_histogram.at(2), 3u);
  EXPECT_EQ(p.width_histogram.at(3), 1u);
  // 3^1 successors from the start; loop states also branch 3 ways.
  EXPECT_EQ(p.max_out_degree, 5u);  // {B;C,D;E}: 5 distinct aggregates
  // Every MIMD state except A appears in 4 meta states, A in 1.
  std::size_t ones = 0, fours = 0;
  for (std::size_t r : p.replication) (r == 1 ? ones : fours) += 1;
  EXPECT_EQ(ones, 1u);
  EXPECT_EQ(fours, 3u);
  EXPECT_GT(p.mean_replication(), 1.0);
}

TEST(Profile, CompressedShape) {
  driver::PipelineOptions popts;
  popts.pipeline = pass::shorthand_pipeline(/*compress=*/true, false, true);
  AutomatonProfile p = profile(convert(workload::listing1().source, popts));
  EXPECT_EQ(p.states, 2u);
  EXPECT_EQ(p.unconditional_states, 2u);
  EXPECT_EQ(p.terminal_states, 0u);
  EXPECT_EQ(p.max_out_degree, 0u);  // no keyed arcs at all
}

TEST(Profile, BarrierStatesCounted) {
  driver::PipelineOptions popts;
  popts.convert.barrier_mode = BarrierMode::PaperPrune;
  AutomatonProfile p = profile(convert(workload::listing3().source, popts));
  EXPECT_EQ(p.all_barrier_states, 1u);
}

TEST(Profile, TextReportContainsEverything) {
  std::string text = profile(convert(workload::listing1().source)).to_string();
  EXPECT_NE(text.find("states            8"), std::string::npos) << text;
  EXPECT_NE(text.find("width histogram"), std::string::npos);
  EXPECT_NE(text.find("degree histogram"), std::string::npos);
}
