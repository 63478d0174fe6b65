// Golden snapshot: the MPL-style coding of the paper's Listing 4 must be
// byte-identical to tests/golden/listing4.mpl. This pins the emitter,
// hash-function selection, CSI schedule, and automaton numbering all at
// once. If an intentional pipeline change alters the output, regenerate
// with:
//   ./build/tools/mscc --kernel listing4 --emit mpl > tests/golden/listing4.mpl
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "msc/codegen/program.hpp"
#include "msc/driver/pipeline.hpp"
#include "msc/driver/runner.hpp"
#include "msc/simd/machine.hpp"
#include "msc/workload/kernels.hpp"

using namespace msc;

TEST(Golden, Listing4MplSnapshot) {
  std::ifstream in(MSC_GOLDEN_DIR "/listing4.mpl");
  ASSERT_TRUE(in) << "missing golden file";
  std::ostringstream want;
  want << in.rdbuf();

  ir::CostModel cost;
  auto conv = driver::convert(workload::listing4().source, cost).conversion;
  auto prog = codegen::generate(conv.automaton, conv.graph, cost, {});
  std::string got = codegen::to_mpl(prog, conv.graph);

  EXPECT_EQ(got, want.str())
      << "emitter output drifted from the golden snapshot; if intentional, "
         "regenerate per the header comment";
}

// The --trace-simd JSON dump for listing1 (codegen engine, nprocs 4, seed 1)
// must be byte-identical to tests/golden/listing1_trace.json. This pins the
// execution-stats schema (engine name, resolved ISA, every cycle counter,
// utilization formatting, per-meta-state visits) and — because the
// counters themselves are part of the snapshot — the engine's cost
// accounting. The ISA is pinned to scalar so the snapshot is
// host-independent. Regenerate with:
//   ./build/tools/mscc --kernel listing1 --emit meta --nprocs 4 --seed 1
//       --simd-isa scalar --trace-simd tests/golden/listing1_trace.json
//       > /dev/null
// (single command line; wrapped here for width)
TEST(Golden, TraceSimdJsonSnapshot) {
  std::ifstream in(MSC_GOLDEN_DIR "/listing1_trace.json");
  ASSERT_TRUE(in) << "missing golden file";
  std::ostringstream want;
  want << in.rdbuf();

  ir::CostModel cost;
  driver::Converted v = driver::convert(workload::listing1().source, cost);
  const core::ConvertResult& conv = v.conversion;
  auto prog = codegen::generate(conv.automaton, conv.graph, cost, {});
  mimd::RunConfig config;
  config.nprocs = 4;
  config.simd_isa = SimdIsa::Scalar;  // host-independent snapshot
  auto machine = simd::make_machine(prog, cost, config);
  driver::seed_machine(*machine, v.compiled, config, 1);
  machine->run();
  std::string got = simd::to_json(*machine);

  EXPECT_EQ(got, want.str())
      << "simd trace JSON drifted from the golden snapshot; if intentional, "
         "regenerate per the comment above";
  // Schema sanity independent of exact values.
  EXPECT_NE(got.find("\"engine\": \"codegen\""), std::string::npos);
  EXPECT_NE(got.find("\"utilization\""), std::string::npos);
  EXPECT_NE(got.find("\"visits\""), std::string::npos);
}
