// Co-scheduler semantics (DESIGN.md §12): per-program attribution must be
// exact — each program's SimdStats/StateProfile/visits are identical to a
// standalone run and sum bit-exactly to the machine-level totals across
// every policy, seed, engine, and quantum; the whole run is a pure
// function of (programs, policy, seed, quantum); and on occupancy-
// shedding mixes greedy co-scheduling beats the best sequential order on
// machine utilization (the T-COSCHED property bench_kernels gates).
#include <gtest/gtest.h>

#include <memory>

#include "msc/driver/pipeline.hpp"
#include "msc/driver/runner.hpp"
#include "msc/kernels/verified.hpp"
#include "msc/simd/coschedule.hpp"

using namespace msc;

namespace {

driver::PipelineOptions codegen_pipeline() {
  driver::PipelineOptions popts;
  popts.pipeline = driver::resolve_pipeline(popts);
  popts.pipeline.push_back("codegen");
  return popts;
}

/// Build a CoScheduler over verified-kernel specs, mirroring
/// mscc --coschedule: one partition per program, seeded inputs, optional
/// profiling. Keeps the Converted programs alive for the machines.
struct CoHarness {
  ir::CostModel cost;  // machines keep a reference; must outlive them
  std::vector<std::unique_ptr<driver::Converted>> keep;
  std::vector<kernels::VerifiedCase> cases;
  std::vector<mimd::RunConfig> configs;
  simd::CoScheduler cs;

  CoHarness(const std::vector<std::string>& specs, mimd::SimdEngine engine,
            bool profiling, std::uint64_t input_seed = 1) {
    for (const std::string& spec : specs) {
      kernels::VerifiedParams params;
      params.input_seed = input_seed;
      kernels::VerifiedCase c = kernels::parse_case(spec, params);
      auto conv = std::make_unique<driver::Converted>(
          driver::convert(c.source, cost, codegen_pipeline()));
      mimd::RunConfig config = c.config;
      config.engine = engine;
      auto m = simd::make_machine(*conv->prog, cost, config);
      driver::seed_machine(*m, conv->compiled, config, input_seed);
      if (profiling) m->enable_profiling();
      cs.add_program(spec, std::move(m));
      keep.push_back(std::move(conv));
      cases.push_back(std::move(c));
      configs.push_back(config);
    }
  }
};

/// The same program run standalone (machine.run()) — the attribution
/// baseline co-scheduling must not perturb.
simd::SimdStats standalone_stats(const std::string& spec,
                                 mimd::SimdEngine engine,
                                 std::vector<std::int64_t>* visits_out) {
  ir::CostModel cost;
  kernels::VerifiedParams params;
  params.input_seed = 1;
  const kernels::VerifiedCase c = kernels::parse_case(spec, params);
  auto conv = driver::convert(c.source, cost, codegen_pipeline());
  mimd::RunConfig config = c.config;
  config.engine = engine;
  auto m = simd::make_machine(*conv.prog, cost, config);
  driver::seed_machine(*m, conv.compiled, config, 1);
  m->run();
  if (visits_out) *visits_out = m->state_visits();
  return m->stats();
}

void expect_stats_sum(const simd::CoResult& r) {
  simd::SimdStats sum;
  std::int64_t held = 0, idle = 0;
  for (const simd::CoProgramResult& p : r.programs) {
    sum.control_cycles += p.stats.control_cycles;
    sum.busy_pe_cycles += p.stats.busy_pe_cycles;
    sum.offered_pe_cycles += p.stats.offered_pe_cycles;
    sum.meta_transitions += p.stats.meta_transitions;
    sum.global_ors += p.stats.global_ors;
    sum.guard_switches += p.stats.guard_switches;
    sum.spawns += p.stats.spawns;
    sum.rescue_transitions += p.stats.rescue_transitions;
    sum.router_ops += p.stats.router_ops;
    held += p.held_pe_cycles;
    idle += p.idle_pe_cycles;
  }
  EXPECT_EQ(sum, r.machine);  // bit-exact, field by field
  EXPECT_EQ(r.elapsed_control_cycles, r.machine.control_cycles);
  EXPECT_EQ(r.held_pe_cycles, held);
  EXPECT_EQ(r.idle_pe_cycles, idle);
}

void expect_profile_sums(const simd::CoProgramResult& p) {
  ASSERT_FALSE(p.profile.empty());
  simd::StateProfile total;
  std::int64_t visits = 0;
  for (const simd::StateProfile& sp : p.profile) {
    visits += sp.visits;
    total.control_cycles += sp.control_cycles;
    total.busy_pe_cycles += sp.busy_pe_cycles;
    total.offered_pe_cycles += sp.offered_pe_cycles;
    total.global_ors += sp.global_ors;
    total.guard_switches += sp.guard_switches;
    total.router_ops += sp.router_ops;
    total.spawns += sp.spawns;
  }
  EXPECT_EQ(visits, p.steps);
  EXPECT_EQ(total.control_cycles, p.stats.control_cycles);
  EXPECT_EQ(total.busy_pe_cycles, p.stats.busy_pe_cycles);
  EXPECT_EQ(total.offered_pe_cycles, p.stats.offered_pe_cycles);
  EXPECT_EQ(total.global_ors, p.stats.global_ors);
  EXPECT_EQ(total.guard_switches, p.stats.guard_switches);
  EXPECT_EQ(total.router_ops, p.stats.router_ops);
  EXPECT_EQ(total.spawns, p.stats.spawns);
}

const std::vector<std::string> kMix = {"reduce@65", "workqueue@64", "scan@16"};

// Satellite: per-program StateProfile visit and cycle totals sum
// bit-exactly to the machine-level SimdStats across seeds and policies.
TEST(CoScheduleTest, AccountingSumsBitExactly) {
  for (const auto policy :
       {simd::CoPolicy::Sequential, simd::CoPolicy::RoundRobin,
        simd::CoPolicy::GreedyOccupancy}) {
    for (const std::uint64_t seed : {1ull, 7ull, 1234ull}) {
      CoHarness h(kMix, mimd::SimdEngine::Codegen, /*profiling=*/true);
      simd::CoOptions co;
      co.policy = policy;
      co.seed = seed;
      const simd::CoResult r = h.cs.run(co);
      expect_stats_sum(r);
      for (const simd::CoProgramResult& p : r.programs) {
        expect_profile_sums(p);
        std::int64_t visit_sum = 0;
        for (const std::int64_t v : p.visits) visit_sum += v;
        EXPECT_EQ(visit_sum, p.steps);
        EXPECT_EQ(p.held_pe_cycles + p.idle_pe_cycles >= 0, true);
        EXPECT_LE(p.completion_cycle, r.elapsed_control_cycles);
      }
    }
  }
}

// Preemption must not perturb execution: a co-scheduled program's stats
// and visits are identical to its standalone run on every engine.
TEST(CoScheduleTest, AttributionMatchesStandaloneRun) {
  for (const auto engine :
       {mimd::SimdEngine::Reference, mimd::SimdEngine::Codegen}) {
    CoHarness h(kMix, engine, /*profiling=*/false);
    simd::CoOptions co;
    co.policy = simd::CoPolicy::RoundRobin;
    co.quantum = 3;
    const simd::CoResult r = h.cs.run(co);
    for (std::size_t i = 0; i < kMix.size(); ++i) {
      std::vector<std::int64_t> visits;
      const simd::SimdStats alone = standalone_stats(kMix[i], engine, &visits);
      EXPECT_EQ(r.programs[i].stats, alone) << kMix[i];
      EXPECT_EQ(r.programs[i].visits, visits) << kMix[i];
    }
  }
}

// Every co-scheduled program still meets its host-side ground truth.
TEST(CoScheduleTest, GroundTruthUnderCoscheduling) {
  CoHarness h(kMix, mimd::SimdEngine::Codegen, /*profiling=*/false);
  simd::CoOptions co;
  co.policy = simd::CoPolicy::GreedyOccupancy;
  h.cs.run(co);
  for (std::size_t i = 0; i < kMix.size(); ++i) {
    const auto obs =
        driver::observe_simd(h.cs.machine(i), h.keep[i]->compiled, h.configs[i]);
    EXPECT_EQ(kernels::check(h.cases[i], obs), "") << kMix[i];
  }
}

// The run is a pure function of (programs, policy, seed, quantum): two
// identical schedulers render byte-identical documents; engines agree
// bit-exactly on everything the document contains.
TEST(CoScheduleTest, DeterministicAndEngineIndependent) {
  const auto render = [](mimd::SimdEngine engine) {
    CoHarness h(kMix, engine, /*profiling=*/true);
    simd::CoOptions co;
    co.policy = simd::CoPolicy::GreedyOccupancy;
    co.seed = 42;
    return simd::to_json(h.cs.run(co));
  };
  const std::string a = render(mimd::SimdEngine::Codegen);
  EXPECT_EQ(a, render(mimd::SimdEngine::Codegen));
  // The engine name and the resolved host ISA appear inside each embedded
  // run document; both are legitimately engine-dependent (the reference
  // engine always reports scalar), so strip them before comparing.
  const auto neutral = [](std::string s) {
    for (const char* e : {"\"reference\"", "\"codegen\""}) {
      std::size_t pos;
      while ((pos = s.find(e)) != std::string::npos)
        s.replace(pos, std::string(e).size(), "\"E\"");
    }
    for (const char* line : {"\"isa\": ", "\"isa_lane_width\": "}) {
      std::size_t pos = 0;
      while ((pos = s.find(line, pos)) != std::string::npos) {
        const std::size_t from = pos + std::string(line).size();
        const std::size_t to = s.find_first_of(",\n", from);
        s.replace(from, to - from, "X");
        pos = from;
      }
    }
    return s;
  };
  EXPECT_EQ(neutral(a), neutral(render(mimd::SimdEngine::Reference)));
}

TEST(CoScheduleTest, ExplicitOrderAndErrorHandling) {
  {
    CoHarness h({"reduce@16", "scan@16"}, mimd::SimdEngine::Codegen, false);
    simd::CoOptions co;
    co.policy = simd::CoPolicy::Sequential;
    co.order = {1, 0};
    const simd::CoResult r = h.cs.run(co);
    // Sequential in explicit order: program 1 finishes before program 0
    // starts accruing anything but idle.
    EXPECT_EQ(r.programs[1].idle_pe_cycles, 0);
    EXPECT_GT(r.programs[0].idle_pe_cycles, 0);
    EXPECT_THROW(h.cs.run(co), std::logic_error);  // re-run refused
  }
  {
    CoHarness h({"reduce@16", "scan@16"}, mimd::SimdEngine::Codegen, false);
    simd::CoOptions co;
    co.order = {0, 0};
    EXPECT_THROW(h.cs.run(co), std::invalid_argument);
    co.order = {0, 2};
    EXPECT_THROW(h.cs.run(co), std::invalid_argument);
    co.order.clear();
    co.quantum = 0;
    EXPECT_THROW(h.cs.run(co), std::invalid_argument);
  }
  simd::CoScheduler empty;
  EXPECT_THROW(empty.run(simd::CoOptions{}), std::logic_error);
  EXPECT_THROW(simd::parse_copolicy("nope"), std::invalid_argument);
  EXPECT_EQ(std::string(simd::copolicy_name(simd::CoPolicy::GreedyOccupancy)),
            "greedy");
}

// The MASIM payoff, pinned as a property: on a mix of two occupancy-
// shedding reductions, greedy co-scheduling beats BOTH sequential orders
// on machine utilization (bench_kernels gates the same property with
// numbers in T-COSCHED).
TEST(CoScheduleTest, GreedyBeatsBestSequentialOnSheddingMix) {
  const std::vector<std::string> mix = {"reduce@65", "reduce@64"};
  const auto run_util = [&](simd::CoPolicy policy,
                            std::vector<std::size_t> order) {
    CoHarness h(mix, mimd::SimdEngine::Codegen, false);
    simd::CoOptions co;
    co.policy = policy;
    co.order = std::move(order);
    return h.cs.run(co).machine_utilization();
  };
  const double seq01 = run_util(simd::CoPolicy::Sequential, {0, 1});
  const double seq10 = run_util(simd::CoPolicy::Sequential, {1, 0});
  const double greedy = run_util(simd::CoPolicy::GreedyOccupancy, {0, 1});
  EXPECT_GT(greedy, std::max(seq01, seq10) * 1.05)
      << "greedy=" << greedy << " seq01=" << seq01 << " seq10=" << seq10;
}

}  // namespace
