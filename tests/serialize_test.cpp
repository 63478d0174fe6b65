#include <gtest/gtest.h>

#include "msc/core/serialize.hpp"
#include "msc/driver/pipeline.hpp"
#include "msc/driver/runner.hpp"
#include "msc/workload/kernels.hpp"

#include "user_conversion.hpp"

using namespace msc;
using namespace msc::core;

namespace {

ir::CostModel kCost;

Module module_of(const std::string& src,
                 const std::vector<std::string>& stages = test::kStages,
                 const ConvertOptions& opts = {}) {
  auto compiled = driver::compile(src);
  auto conv = test::convert(compiled.graph, kCost, stages, opts);
  return Module{std::move(conv.graph), std::move(conv.automaton), conv.stats};
}

}  // namespace

TEST(Serialize, RoundTripPreservesStructure) {
  for (const auto& k : workload::suite()) {
    for (bool compress : {false, true}) {
      Module a = module_of(
          k.source, compress ? test::kCompressStages : test::kStages);
      Module b = deserialize(serialize(a));
      // Graph identical.
      EXPECT_EQ(a.graph.dump(), b.graph.dump()) << k.name;
      // Automaton identical.
      EXPECT_EQ(a.automaton.dump(), b.automaton.dump()) << k.name;
      EXPECT_EQ(serialize(a), serialize(b)) << k.name;
    }
  }
}

TEST(Serialize, ReloadedModuleExecutesIdentically) {
  const auto& k = workload::listing1();
  auto compiled = driver::compile(k.source);
  auto conv = test::convert(compiled.graph, kCost);
  Module reloaded =
      deserialize(serialize(Module{conv.graph, conv.automaton}));

  auto prog = codegen::generate(reloaded.automaton, reloaded.graph, kCost, {});
  mimd::RunConfig cfg;
  cfg.nprocs = 8;
  auto m_ptr = simd::make_machine(prog, kCost, cfg);
  simd::SimdMachine& m = *m_ptr;
  driver::seed_machine(m, compiled, cfg, 3);
  m.run();
  auto oracle = driver::run_oracle(compiled, cfg, 3);
  for (std::int64_t p = 0; p < cfg.nprocs; ++p)
    EXPECT_EQ(m.peek(p, frontend::Layout::kResultAddr),
              oracle.results[static_cast<std::size_t>(p)]);
}

TEST(Serialize, FloatPayloadsAreBitExact) {
  Module a = module_of(workload::kernel("floatmix").source);
  Module b = deserialize(serialize(a));
  for (const auto& blk : a.graph.blocks)
    for (std::size_t i = 0; i < blk.body.size(); ++i)
      EXPECT_EQ(blk.body[i], b.graph.at(blk.id).body[i]);
}

TEST(Serialize, RejectsMalformedInput) {
  Module good = module_of(workload::listing1().source);
  std::string text = serialize(good);

  EXPECT_THROW(deserialize(""), std::runtime_error);
  EXPECT_THROW(deserialize("bogus 1\n"), std::runtime_error);
  EXPECT_THROW(deserialize("mscmod 99\n"), std::runtime_error);
  // Truncated (no 'end').
  EXPECT_THROW(deserialize(text.substr(0, text.size() / 2)), std::runtime_error);
  // Corrupt a block record's exit kind.
  std::string bad = text;
  auto pos = bad.find("\nblock ");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos + 1, 5, "blork");
  EXPECT_THROW(deserialize(bad), std::runtime_error);
}

TEST(Serialize, RoundTripsFullConfiguration) {
  // barrier_mode, compressed, and the ConvertStats block must all survive
  // a round trip — not just the graph/automaton structure.
  ConvertOptions opts;
  opts.barrier_mode = BarrierMode::PaperPrune;
  Module a =
      module_of(workload::listing3().source, test::kSplitStages, opts);
  ASSERT_EQ(a.automaton.barrier_mode, BarrierMode::PaperPrune);
  Module b = deserialize(serialize(a));
  EXPECT_EQ(b.automaton.barrier_mode, BarrierMode::PaperPrune);
  EXPECT_EQ(b.automaton.compressed, a.automaton.compressed);
  EXPECT_EQ(b.stats.meta_states, a.stats.meta_states);
  EXPECT_EQ(b.stats.arcs, a.stats.arcs);
  EXPECT_EQ(b.stats.reach_calls, a.stats.reach_calls);
  EXPECT_EQ(b.stats.splits_performed, a.stats.splits_performed);
  EXPECT_EQ(b.stats.restarts, a.stats.restarts);
  EXPECT_EQ(b.stats.cache_hits, a.stats.cache_hits);
  EXPECT_EQ(b.stats.cache_misses, a.stats.cache_misses);
  EXPECT_EQ(b.stats.cache_invalidated, a.stats.cache_invalidated);
  EXPECT_EQ(b.stats.threads_used, a.stats.threads_used);
  EXPECT_EQ(b.stats.batches, a.stats.batches);
  // Times are stored at microsecond resolution: stable once round-tripped.
  EXPECT_EQ(serialize(a), serialize(b));
}

TEST(Serialize, RejectsMismatchedVersionWithClearError) {
  Module good = module_of(workload::listing1().source);
  std::string text = serialize(good);
  auto expect_version_error = [&](const std::string& header) {
    std::string old = text;
    old.replace(0, old.find('\n'), header);
    try {
      deserialize(old);
      FAIL() << "expected version rejection for '" << header << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
          << e.what();
    }
  };
  expect_version_error("mscmod 1");   // the pre-stats format
  expect_version_error("mscmod 3");   // from the future
  expect_version_error("mscmod -1");
}

TEST(Serialize, RejectsOutOfRangeConfiguration) {
  Module good = module_of(workload::listing1().source);
  std::string text = serialize(good);
  // Corrupt the automaton record's barrier mode / compressed flag.
  auto corrupt = [&](const std::string& from, const std::string& to) {
    std::string bad = text;
    auto pos = bad.find(from);
    EXPECT_NE(pos, std::string::npos);
    bad.replace(pos, from.size(), to);
    EXPECT_THROW(deserialize(bad), std::runtime_error) << to;
  };
  // "automaton <nstates> <start> <mode> <compressed>"
  std::string line = text.substr(text.find("automaton "));
  line = line.substr(0, line.find('\n'));
  corrupt(line, line.substr(0, line.rfind(' ')) + " 7");  // bad compressed
  std::string head = line.substr(0, line.rfind(' '));
  corrupt(head, head.substr(0, head.rfind(' ')) + " 9");  // bad mode
  // Truncated stats record.
  corrupt("\nstats ", "\nstats 1 2 3\nstats9 ");
}

TEST(Serialize, CommentsAndBlankLinesIgnored) {
  Module a = module_of(workload::listing1().source);
  std::string text = "# cached conversion\n\n" + serialize(a) + "\n# trailer\n";
  Module b = deserialize(text);
  EXPECT_EQ(a.automaton.dump(), b.automaton.dump());
}
