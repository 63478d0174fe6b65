// Build determinism: two independent runs of the whole pipeline over the
// same source must produce byte-identical artifacts (guards against
// unordered-container iteration leaking into output), and the automaton
// validator must catch each class of structural corruption.
#include <gtest/gtest.h>

#include "msc/codegen/program.hpp"
#include "msc/core/serialize.hpp"
#include "msc/driver/pipeline.hpp"
#include "msc/pass/pass.hpp"
#include "msc/workload/generator.hpp"
#include "msc/workload/kernels.hpp"

#include "user_conversion.hpp"

using namespace msc;
using namespace msc::core;

namespace {
ir::CostModel kCost;
}

TEST(Determinism, PipelineArtifactsAreByteStable) {
  for (const auto& name : {"listing1", "listing3", "recursion", "oddeven_sort"}) {
    const auto& k = workload::kernel(name);
    for (bool compress : {false, true}) {
      auto run = [&] {
        auto compiled = driver::compile(k.source);
        auto conv = test::convert(
            compiled.graph, kCost,
            compress ? test::kCompressStages : test::kStages);
        auto prog = codegen::generate(conv.automaton, conv.graph, kCost, {});
        return serialize(Module{conv.graph, conv.automaton}) + "\n---\n" +
               codegen::to_mpl(prog, conv.graph);
      };
      EXPECT_EQ(run(), run()) << name << " compress=" << compress;
    }
  }
}

TEST(Determinism, RandomProgramsStable) {
  for (std::uint64_t seed = 300; seed < 310; ++seed) {
    std::string src = workload::generate_program(seed);
    auto run = [&] {
      auto compiled = driver::compile(src);
      auto conv = test::convert(compiled.graph, kCost);
      return conv.automaton.dump();
    };
    EXPECT_EQ(run(), run()) << src;
  }
}

TEST(Determinism, ParallelConversionBitIdenticalToSerial) {
  // The parallel frontier expansion must not leak thread timing into the
  // result: across every option combination, 1-thread and 4-thread (and
  // all-cores) conversions must produce bit-identical automata — same
  // state ids, transitions, straightened order, serialized bytes.
  for (const auto& name : {"listing1", "listing3", "branchy4", "oddeven_sort"}) {
    const auto& k = workload::kernel(name);
    const bool multi_barrier =
        driver::compile(k.source).graph.barrier_states().count() > 1;
    for (bool compress : {false, true}) {
      for (bool subsume : {false, true}) {
        for (auto mode :
             {BarrierMode::TrackOccupancy, BarrierMode::PaperPrune}) {
          // PaperPrune with compression or >1 barrier (oddeven_sort) is a
          // compile error now, not a conversion mode.
          if (mode == BarrierMode::PaperPrune && (compress || multi_barrier))
            continue;
          for (bool split : {false, true}) {
            driver::PipelineOptions popts;
            popts.pipeline = pass::shorthand_pipeline(compress, split, subsume);
            popts.convert.barrier_mode = mode;
            auto run = [&](unsigned threads) {
              popts.convert.threads = threads;
              auto conv = driver::convert(k.source, kCost, popts).conversion;
              return serialize(
                  Module{std::move(conv.graph), std::move(conv.automaton)});
            };
            std::string serial = run(1);
            EXPECT_EQ(serial, run(4))
                << name << " compress=" << compress << " subsume=" << subsume
                << " prune=" << (mode == BarrierMode::PaperPrune)
                << " split=" << split;
            EXPECT_EQ(serial, run(0)) << name << " (threads=all)";
          }
        }
      }
    }
  }
}

TEST(Determinism, CacheDoesNotChangeResults) {
  // Memoized and unmemoized conversions of a restart-heavy workload must
  // serialize identically (stats excluded — Module carries default stats).
  std::string src = workload::kernel("branchy4").source;
  for (bool split : {false, true}) {
    ConvertOptions opts;
    opts.time_split = split;
    auto run = [&](bool memoize) {
      opts.memoize = memoize;
      auto compiled = driver::compile(src);
      auto conv = meta_state_convert(compiled.graph, kCost, opts);
      return serialize(Module{std::move(conv.graph), std::move(conv.automaton)});
    };
    EXPECT_EQ(run(true), run(false)) << "split=" << split;
  }
}

TEST(Validate, CatchesStructuralCorruption) {
  auto compiled = driver::compile(workload::listing1().source);
  auto conv = meta_state_convert(compiled.graph, kCost, {});
  ASSERT_TRUE(conv.automaton.validate(conv.graph).empty());

  {  // arc target out of range
    MetaAutomaton bad = conv.automaton;
    bad.states[0].arcs[0].second = 999;
    EXPECT_FALSE(bad.validate(conv.graph).empty());
  }
  {  // empty member set
    MetaAutomaton bad = conv.automaton;
    bad.states[1].members = DynBitset();
    EXPECT_FALSE(bad.validate(conv.graph).empty());
  }
  {  // key does not match target members (exact-occupancy violation)
    MetaAutomaton bad = conv.automaton;
    bad.states[0].arcs[0].first = DynBitset::of({1, 2, 3});
    EXPECT_FALSE(bad.validate(conv.graph).empty());
  }
  {  // member referencing a MIMD state beyond the graph
    MetaAutomaton bad = conv.automaton;
    bad.states[1].members.set(77);
    EXPECT_FALSE(bad.validate(conv.graph).empty());
  }
  {  // unconditional arc in a base-mode automaton
    MetaAutomaton bad = conv.automaton;
    bad.states[1].unconditional = 0;
    EXPECT_FALSE(bad.validate(conv.graph).empty());
  }
  {  // start state out of range
    MetaAutomaton bad = conv.automaton;
    bad.start = 999;
    EXPECT_FALSE(bad.validate(conv.graph).empty());
  }
}
