// Unit tests for the translation cache behind the codegen engine
// (DESIGN.md §11): repeat translations of a structurally identical
// program+cost pair must hit (sharing one immutable TransProgram), any
// structural or cost-model change must miss, and the LRU bound must hold.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "msc/codegen/translate.hpp"
#include "msc/driver/pipeline.hpp"
#include "msc/simd/machine.hpp"
#include "msc/workload/kernels.hpp"

#include "user_conversion.hpp"

using namespace msc;

namespace {

ir::CostModel kCost;

codegen::SimdProgram program_for(const std::string& source,
                                 const ir::CostModel& cost) {
  auto compiled = driver::compile(source);
  auto conv = test::convert(compiled.graph, cost);
  return codegen::generate(conv.automaton, conv.graph, cost, {});
}

TEST(TranslationCache, RepeatTranslationHits) {
  codegen::translation_cache_clear();
  EXPECT_EQ(codegen::translation_cache_stats().entries, 0u);

  const auto prog = program_for(workload::kernel("listing1").source, kCost);
  auto first = codegen::translate(prog, kCost);
  auto stats = codegen::translation_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 1u);

  // Same structure, different SimdProgram object: still a hit, and the
  // cached translation is shared, not re-derived.
  const auto again = program_for(workload::kernel("listing1").source, kCost);
  auto second = codegen::translate(again, kCost);
  stats = codegen::translation_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(second.get(), first.get());

  // Folding never grows the host stream.
  EXPECT_LE(first->host_ops, first->source_ops);
  EXPECT_GT(first->source_ops, 0u);
}

TEST(TranslationCache, MachinesShareOneTranslationPerAutomaton) {
  codegen::translation_cache_clear();
  const auto prog = program_for(workload::kernel("listing1").source, kCost);
  mimd::RunConfig config;
  config.nprocs = 8;
  config.engine = mimd::SimdEngine::Codegen;
  auto a = simd::make_machine(prog, kCost, config);
  auto b = simd::make_machine(prog, kCost, config);
  const auto stats = codegen::translation_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(TranslationCache, ProgramOrCostChangeInvalidates) {
  codegen::translation_cache_clear();
  const auto prog = program_for(workload::kernel("listing1").source, kCost);
  codegen::translate(prog, kCost);

  // A different program misses.
  const auto other =
      program_for(workload::kernel("oddeven_sort").source, kCost);
  codegen::translate(other, kCost);
  auto stats = codegen::translation_cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 2u);

  // Same program under a different cost model misses too: the per-group
  // cycle aggregates bake the cost model in.
  ir::CostModel expensive = kCost;
  expensive.alu += 7;
  codegen::translate(prog, expensive);
  stats = codegen::translation_cache_stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.entries, 3u);

  // And every original entry still hits.
  codegen::translate(prog, kCost);
  codegen::translate(other, kCost);
  codegen::translate(prog, expensive);
  stats = codegen::translation_cache_stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 3u);
}

TEST(TranslationCache, LruEvictsBeyondCapacity) {
  codegen::translation_cache_clear();
  const auto prog = program_for(workload::kernel("listing1").source, kCost);
  // 17 distinct cost models > the 16-entry capacity: the oldest entry
  // (jump=+1) must be evicted and miss on re-translation.
  for (int i = 1; i <= 17; ++i) {
    ir::CostModel c = kCost;
    c.jump += i;
    codegen::translate(prog, c);
  }
  auto stats = codegen::translation_cache_stats();
  EXPECT_EQ(stats.misses, 17u);
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.entries, 16u);

  ir::CostModel first = kCost;
  first.jump += 1;
  codegen::translate(prog, first);
  EXPECT_EQ(codegen::translation_cache_stats().misses, 18u);

  // The most recent entry survived.
  ir::CostModel last = kCost;
  last.jump += 17;
  codegen::translate(prog, last);
  EXPECT_EQ(codegen::translation_cache_stats().hits, 1u);
}

// The cache is process-global and machines are built from arbitrary
// threads (the fuzzer's differential matrix, co-scheduling harnesses):
// N threads racing to translate the same program must produce exactly one
// translation — 1 miss, N−1 hits, every thread holding the same shared
// TransProgram. Run under MSC_SANITIZE this also proves the lock
// discipline is ASan/TSan-clean.
TEST(TranslationCache, ConcurrentTranslationIsSingleMiss) {
  codegen::translation_cache_clear();
  const auto prog = program_for(workload::kernel("listing1").source, kCost);

  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::shared_ptr<const codegen::TransProgram>> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load()) {
      }  // spin so all threads hit the cache as close together as possible
      got[static_cast<std::size_t>(t)] = codegen::translate(prog, kCost);
    });
  }
  while (ready.load() < kThreads) {
  }
  go.store(true);
  for (std::thread& th : threads) th.join();

  const auto stats = codegen::translation_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.entries, 1u);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(got[0].get(), got[t].get());
}

}  // namespace
