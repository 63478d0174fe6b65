#include <gtest/gtest.h>

#include "msc/driver/pipeline.hpp"
#include "msc/driver/runner.hpp"
#include "msc/mimd/machine.hpp"
#include "msc/simd/machine.hpp"
#include "msc/workload/kernels.hpp"

#include "user_conversion.hpp"

using namespace msc;

namespace {

ir::CostModel kCost;

driver::Compiled compile(const std::string& src) { return driver::compile(src); }

}  // namespace

// --------------------------------------------------------------- MIMD oracle

TEST(MimdMachine, AsynchronousClocksDiverge) {
  // PEs with larger trip counts finish later.
  auto c = compile(workload::listing1().source);
  mimd::RunConfig cfg;
  cfg.nprocs = 4;
  mimd::MimdMachine m(c.graph, kCost, cfg);
  const auto* slot = c.layout.find("x");
  for (int p = 0; p < 4; ++p) m.poke(p, slot->addr, Value::of_int(p));
  m.run();
  // x=3 loops twice as often as x=1 in the same arm.
  EXPECT_GT(m.finish_clock(3), m.finish_clock(1));
  EXPECT_GT(m.stats().makespan, 0);
  EXPECT_EQ(m.stats().makespan,
            std::max({m.finish_clock(0), m.finish_clock(1), m.finish_clock(2),
                      m.finish_clock(3)}));
}

TEST(MimdMachine, BarrierBlocksEarlyArrivals) {
  auto c = compile(workload::listing3().source);
  mimd::RunConfig cfg;
  cfg.nprocs = 4;
  mimd::MimdMachine m(c.graph, kCost, cfg);
  const auto* slot = c.layout.find("x");
  // Strongly imbalanced trip counts.
  m.poke(0, slot->addr, Value::of_int(0));
  m.poke(1, slot->addr, Value::of_int(3));
  m.poke(2, slot->addr, Value::of_int(3));
  m.poke(3, slot->addr, Value::of_int(3));
  m.run();
  EXPECT_EQ(m.stats().barrier_releases, 1);
  EXPECT_GT(m.stats().barrier_idle_cycles, 0);  // PE0 waited for the rest
  EXPECT_EQ(m.stats().barrier_sync_cycles,
            4 * mimd::MimdMachine::kBarrierSyncCost);
}

TEST(MimdMachine, BarrierThenHaltDoesNotDeadlock) {
  // One PE takes the barrier path, the other halts without ever waiting:
  // the waiter must still be released.
  auto c = compile(R"(
poly int x;
int main() {
  if (x) { halt; }
  wait;
  return 7;
}
)");
  mimd::RunConfig cfg;
  cfg.nprocs = 2;
  mimd::MimdMachine m(c.graph, kCost, cfg);
  const auto* slot = c.layout.find("x");
  m.poke(0, slot->addr, Value::of_int(0));
  m.poke(1, slot->addr, Value::of_int(1));
  m.run();
  EXPECT_EQ(m.peek(0, frontend::Layout::kResultAddr).i, 7);
}

TEST(MimdMachine, SpawnWithoutFreePEFaults) {
  auto c = compile("int main() { spawn { return 1; } return 0; }");
  mimd::RunConfig cfg;
  cfg.nprocs = 2;
  cfg.initial_active = 2;  // nobody free
  mimd::MimdMachine m(c.graph, kCost, cfg);
  EXPECT_THROW(m.run(), ir::MachineFault);
}

TEST(MimdMachine, SpawnReusePolicy) {
  // 1 parent spawning 2 children sequentially with only 1 spare PE:
  // works only when halted PEs return to the pool.
  auto c = compile(R"(
int main() {
  poly int i;
  i = 0;
  while (i < 2) {
    spawn { return 5; }
    i = i + 1;
  }
  return 1;
}
)");
  mimd::RunConfig cfg;
  cfg.nprocs = 2;
  cfg.initial_active = 1;
  {
    mimd::MimdMachine strict(c.graph, kCost, cfg);
    EXPECT_THROW(strict.run(), ir::MachineFault);
  }
  cfg.reuse_halted_pes = true;
  mimd::MimdMachine reuse(c.graph, kCost, cfg);
  reuse.run();
  EXPECT_EQ(reuse.stats().spawns, 2);
  EXPECT_EQ(reuse.peek(1, frontend::Layout::kResultAddr).i, 5);
}

TEST(MimdMachine, TimeoutOnInfiniteLoop) {
  auto c = compile("int main() { for (;;) ; }");
  mimd::RunConfig cfg;
  cfg.nprocs = 1;
  cfg.max_blocks = 100;
  mimd::MimdMachine m(c.graph, kCost, cfg);
  EXPECT_THROW(m.run(), mimd::Timeout);
}

TEST(MimdMachine, MonoBroadcastVisibleToAll) {
  auto c = compile(workload::kernel("mono_reduce").source);
  mimd::RunConfig cfg;
  cfg.nprocs = 3;
  mimd::MimdMachine m(c.graph, kCost, cfg);
  const auto* x = c.layout.find("x");
  for (int p = 0; p < 3; ++p) m.poke(p, x->addr, Value::of_int(p * 10));
  m.run();
  const auto* total = c.layout.find("total");
  EXPECT_EQ(m.peek_mono(total->addr).i, 42);
  for (int p = 0; p < 3; ++p)
    EXPECT_EQ(m.peek(p, frontend::Layout::kResultAddr).i, 42 + p * 10);
}

// --------------------------------------------------------------- SIMD machine

TEST(MimdMachine, CostModelIsCopiedAtConstruction) {
  // A caller's CostModel may change or die after the machine is built.
  auto c = compile(workload::listing1().source);
  mimd::RunConfig cfg;
  cfg.nprocs = 4;
  auto run = [&](bool mutate) {
    ir::CostModel cost;
    mimd::MimdMachine m(c.graph, cost, cfg);
    if (mutate) cost.alu = 1000;
    const auto* slot = c.layout.find("x");
    for (int p = 0; p < 4; ++p) m.poke(p, slot->addr, Value::of_int(p));
    m.run();
    return m.stats();
  };
  const mimd::MimdStats plain = run(false);
  const mimd::MimdStats mutated = run(true);
  EXPECT_EQ(plain.busy_cycles, mutated.busy_cycles);
  EXPECT_EQ(plain.makespan, mutated.makespan);
}

TEST(SimdMachine, UtilizationIsOneWithoutDivergence) {
  auto c = compile("int main() { poly int a; a = 3 * 4; return a; }");
  auto conv = test::convert(c.graph, kCost);
  auto prog = codegen::generate(conv.automaton, conv.graph, kCost, {});
  mimd::RunConfig cfg;
  cfg.nprocs = 8;
  auto m_ptr = simd::make_machine(prog, kCost, cfg);
  simd::SimdMachine& m = *m_ptr;
  m.run();
  EXPECT_DOUBLE_EQ(m.stats().utilization(), 1.0);
  EXPECT_EQ(m.stats().spawns, 0);
}

TEST(SimdMachine, DivergenceCostsUtilization) {
  auto c = compile(workload::imbalanced_once_source(1, 12));
  auto conv = test::convert(c.graph, kCost);
  auto prog = codegen::generate(conv.automaton, conv.graph, kCost, {});
  mimd::RunConfig cfg;
  cfg.nprocs = 8;
  auto m_ptr = simd::make_machine(prog, kCost, cfg);
  simd::SimdMachine& m = *m_ptr;
  driver::seed_machine(m, c, cfg, 3);
  m.run();
  EXPECT_LT(m.stats().utilization(), 1.0);
  EXPECT_GT(m.stats().utilization(), 0.0);
}

TEST(SimdMachine, TrackOccupancyNeedsNoRescues) {
  for (const auto& k : workload::suite()) {
    auto c = compile(k.source);
    auto conv = test::convert(c.graph, kCost);
    auto prog = codegen::generate(conv.automaton, conv.graph, kCost, {});
    mimd::RunConfig cfg;
    cfg.nprocs = 8;
    if (k.name == "spawn_tree") cfg.initial_active = 2;
    auto m_ptr = simd::make_machine(prog, kCost, cfg);
    simd::SimdMachine& m = *m_ptr;
    driver::seed_machine(m, c, cfg, 9);
    m.run();
    EXPECT_EQ(m.stats().rescue_transitions, 0) << k.name;
  }
}

TEST(SimdMachine, StateVisitCountsCoverRun) {
  auto c = compile(workload::listing1().source);
  auto conv = test::convert(c.graph, kCost);
  auto prog = codegen::generate(conv.automaton, conv.graph, kCost, {});
  mimd::RunConfig cfg;
  cfg.nprocs = 4;
  auto m_ptr = simd::make_machine(prog, kCost, cfg);
  simd::SimdMachine& m = *m_ptr;
  driver::seed_machine(m, c, cfg, 1);
  m.run();
  std::int64_t total = 0;
  for (std::int64_t v : m.state_visits()) total += v;
  EXPECT_EQ(total, m.stats().meta_transitions);
  EXPECT_EQ(m.state_visits()[prog.start], 1);
}

TEST(SimdMachine, GlobalOrCountMatchesMultiwayTraffic) {
  auto c = compile(workload::listing1().source);
  auto conv = test::convert(c.graph, kCost);
  auto prog = codegen::generate(conv.automaton, conv.graph, kCost, {});
  mimd::RunConfig cfg;
  cfg.nprocs = 4;
  auto m_ptr = simd::make_machine(prog, kCost, cfg);
  simd::SimdMachine& m = *m_ptr;
  driver::seed_machine(m, c, cfg, 2);
  m.run();
  EXPECT_GT(m.stats().global_ors, 0);
  EXPECT_LE(m.stats().global_ors, m.stats().meta_transitions);
}

TEST(SimdMachine, ZeroActivePEsExitImmediately) {
  auto c = compile("int main() { return 1; }");
  auto conv = test::convert(c.graph, kCost);
  auto prog = codegen::generate(conv.automaton, conv.graph, kCost, {});
  mimd::RunConfig cfg;
  cfg.nprocs = 4;
  cfg.initial_active = 0;
  auto m_ptr = simd::make_machine(prog, kCost, cfg);
  simd::SimdMachine& m = *m_ptr;
  m.run();
  EXPECT_EQ(m.stats().meta_transitions, 0);
}

TEST(SimdMachine, ControlCyclesAreChargedOncePerBroadcast) {
  // The whole point of SIMD: control cycles don't scale with PE count.
  auto c = compile(workload::kernel("uniform").source);
  auto conv = test::convert(c.graph, kCost);
  auto prog = codegen::generate(conv.automaton, conv.graph, kCost, {});
  std::int64_t cycles_small, cycles_large;
  {
    mimd::RunConfig cfg;
    cfg.nprocs = 2;
    auto m_ptr = simd::make_machine(prog, kCost, cfg);
    simd::SimdMachine& m = *m_ptr;
    driver::seed_machine(m, c, cfg, 4);
    m.run();
    cycles_small = m.stats().control_cycles;
  }
  {
    mimd::RunConfig cfg;
    cfg.nprocs = 64;
    auto m_ptr = simd::make_machine(prog, kCost, cfg);
    simd::SimdMachine& m = *m_ptr;
    driver::seed_machine(m, c, cfg, 4);
    m.run();
    cycles_large = m.stats().control_cycles;
  }
  // Identical inputs per PE (uniform kernel is seeded but control flow is
  // the same shape), so the control stream length matches.
  EXPECT_EQ(cycles_small, cycles_large);
}

namespace {

/// Records the occupancy sequence for tracer tests.
class RecordingTracer final : public simd::SimdTracer {
 public:
  std::vector<std::string> states;
  std::vector<std::string> apcs;
  bool exited = false;

  void on_state(core::MetaId, const DynBitset& occ, std::int64_t) override {
    states.push_back(occ.to_string());
  }
  void on_transition(core::MetaId, core::MetaId to, const DynBitset& apc) override {
    apcs.push_back(apc.to_string());
    if (to == core::kNoMeta) exited = true;
  }
};

}  // namespace

TEST(SimdMachine, TracerSeesEveryStateAndTheExit) {
  auto c = compile(workload::listing1().source);
  auto conv = test::convert(c.graph, kCost);
  auto prog = codegen::generate(conv.automaton, conv.graph, kCost, {});
  mimd::RunConfig cfg;
  cfg.nprocs = 4;
  auto m_ptr = simd::make_machine(prog, kCost, cfg);
  simd::SimdMachine& m = *m_ptr;
  driver::seed_machine(m, c, cfg, 6);
  RecordingTracer tracer;
  m.set_tracer(&tracer);
  m.run();
  EXPECT_EQ(static_cast<std::int64_t>(tracer.states.size()),
            m.stats().meta_transitions);
  EXPECT_TRUE(tracer.exited);
  // First state is the SPMD start occupancy; last apc is empty (all halted).
  EXPECT_EQ(tracer.states.front(),
            DynBitset::single(c.graph.start).to_string());
  EXPECT_EQ(tracer.apcs.back(), "{}");
}

// ------------------------------------------- engine boundaries & regressions

TEST(SimdMachine, PeCountBoundaries) {
  // PE counts straddling the 64-bit words of the occupancy and free-pool
  // bitsets (1, 63, 64, 65, 127) plus a large non-power-of-two count.
  // Every engine must match the oracle and each other at every size.
  auto c = compile(workload::kernel("escape_iter").source);
  auto conv = test::convert(c.graph, kCost);
  for (std::int64_t nprocs : {1, 63, 64, 65, 127, 1000}) {
    SCOPED_TRACE(nprocs);
    mimd::RunConfig cfg;
    cfg.nprocs = nprocs;
    auto oracle = driver::run_oracle(c, cfg, 3);
    simd::SimdStats stats[2];
    int idx = 0;
    for (auto engine :
         {mimd::SimdEngine::Reference, mimd::SimdEngine::Codegen}) {
      cfg.engine = engine;
      auto simd = driver::run_simd(c, conv, cfg, 3, kCost, {}, &stats[idx]);
      EXPECT_TRUE(oracle == simd)
          << "engine=" << simd::engine_name(engine)
          << "\noracle: " << oracle.to_string()
          << "\nsimd:   " << simd.to_string();
      ++idx;
    }
    EXPECT_TRUE(stats[0] == stats[1]);
  }
}

TEST(SimdMachine, SpawnWithoutFreePEFaultsAllEngines) {
  auto c = compile("int main() { spawn { return 1; } return 0; }");
  auto conv = test::convert(c.graph, kCost);
  auto prog = codegen::generate(conv.automaton, conv.graph, kCost, {});
  for (auto engine : {mimd::SimdEngine::Reference, mimd::SimdEngine::Codegen}) {
    mimd::RunConfig cfg;
    cfg.nprocs = 2;
    cfg.initial_active = 2;  // nobody free
    cfg.engine = engine;
    auto m = simd::make_machine(prog, kCost, cfg);
    EXPECT_THROW(m->run(), ir::MachineFault);
  }
}

TEST(SimdMachine, SpawnReusePolicyAllEngines) {
  // SIMD twin of MimdMachine.SpawnReusePolicy: 1 parent spawning 2
  // children sequentially with only 1 spare PE. Succeeds only when halted
  // PEs return to the pool — the exact path the codegen engine's free list
  // must get right.
  auto c = compile(R"(
int main() {
  poly int i;
  i = 0;
  while (i < 2) {
    spawn { return 5; }
    i = i + 1;
  }
  return 1;
}
)");
  auto conv = test::convert(c.graph, kCost);
  auto prog = codegen::generate(conv.automaton, conv.graph, kCost, {});
  for (auto engine : {mimd::SimdEngine::Reference, mimd::SimdEngine::Codegen}) {
    mimd::RunConfig cfg;
    cfg.nprocs = 2;
    cfg.initial_active = 1;
    cfg.engine = engine;
    {
      auto strict = simd::make_machine(prog, kCost, cfg);
      EXPECT_THROW(strict->run(), ir::MachineFault);
    }
    cfg.reuse_halted_pes = true;
    auto reuse = simd::make_machine(prog, kCost, cfg);
    reuse->run();
    EXPECT_EQ(reuse->stats().spawns, 2);
    EXPECT_EQ(reuse->peek(1, frontend::Layout::kResultAddr).i, 5);
  }
}

TEST(SimdMachine, TracerDoesNotChangeStats) {
  // Tracer inputs (occupancy, alive count, apc) are computed lazily; an
  // attached tracer must observe the run without perturbing any counter.
  auto c = compile(workload::listing1().source);
  auto conv = test::convert(c.graph, kCost);
  auto prog = codegen::generate(conv.automaton, conv.graph, kCost, {});
  for (auto engine : {mimd::SimdEngine::Reference, mimd::SimdEngine::Codegen}) {
    mimd::RunConfig cfg;
    cfg.nprocs = 8;
    cfg.engine = engine;
    auto plain = simd::make_machine(prog, kCost, cfg);
    driver::seed_machine(*plain, c, cfg, 6);
    plain->run();
    auto traced = simd::make_machine(prog, kCost, cfg);
    driver::seed_machine(*traced, c, cfg, 6);
    RecordingTracer tracer;
    traced->set_tracer(&tracer);
    traced->run();
    EXPECT_TRUE(plain->stats() == traced->stats()) << plain->engine_name();
    EXPECT_EQ(plain->state_visits(), traced->state_visits());
    EXPECT_FALSE(tracer.states.empty());
  }
}

TEST(SimdMachine, GuardSwitchesCounted) {
  auto c = compile(workload::listing1().source);
  auto conv = test::convert(c.graph, kCost);
  auto prog = codegen::generate(conv.automaton, conv.graph, kCost, {});
  mimd::RunConfig cfg;
  cfg.nprocs = 8;
  auto m_ptr = simd::make_machine(prog, kCost, cfg);
  simd::SimdMachine& m = *m_ptr;
  driver::seed_machine(m, c, cfg, 6);
  m.run();
  EXPECT_GT(m.stats().guard_switches, 0);
  // At least one mask program per executed meta state.
  EXPECT_GE(m.stats().guard_switches, m.stats().meta_transitions);
}

TEST(SimdMachine, CostModelIsCopiedAtConstruction) {
  // A caller's CostModel may change or die after the machine is built
  // (e.g. make_machine(prog, {}, cfg)); every engine keeps its own copy.
  auto c = compile(workload::listing1().source);
  auto conv = test::convert(c.graph, kCost);
  auto prog = codegen::generate(conv.automaton, conv.graph, kCost, {});
  for (auto engine : {mimd::SimdEngine::Reference, mimd::SimdEngine::Codegen}) {
    mimd::RunConfig cfg;
    cfg.nprocs = 8;
    cfg.engine = engine;
    auto run = [&](bool mutate) {
      ir::CostModel cost;
      auto m = simd::make_machine(prog, cost, cfg);
      if (mutate) {
        cost.alu = 1000;
        cost.guard_switch = 1000;
        cost.jump = 1000;
      }
      driver::seed_machine(*m, c, cfg, 6);
      m->run();
      return m->stats();
    };
    EXPECT_TRUE(run(false) == run(true)) << simd::engine_name(engine);
  }
}
