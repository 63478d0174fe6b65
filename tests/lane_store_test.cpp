// Unit tests for the lane-major PE state store (ir/lane_store.hpp) at the
// PE counts where the 64-PE word geometry has edges — 1, 63, 64, 65,
// 127, 1000 — plus the seeded-input regression that pins fill_int_lane
// byte-identical to the per-PE poke path it replaced. Machine-level
// companions (tail masks never enable pad PEs, spawn free-list /
// reuse_halted_pes on the lane store) run the real engines at the same
// PE counts and compare scalar vs host-vector execution. The last two
// groups pin the zero-page store: spawn resets clear every address any
// write path reached, and a 16K-PE machine costs what it touches. The MIMD
// oracle and the interpreter share the store, so both groups cover them
// too, and their stats are pinned against goldens.
#include <gtest/gtest.h>
#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <cstdio>
#include <cstring>
#include <optional>
#include <type_traits>

#include "msc/driver/pipeline.hpp"
#include "msc/driver/runner.hpp"
#include "msc/interp/machine.hpp"
#include "msc/kernels/verified.hpp"
#include "msc/ir/lane_store.hpp"
#include "msc/simd/machine.hpp"
#include "msc/support/str.hpp"
#include "msc/workload/kernels.hpp"

#include "user_conversion.hpp"

using namespace msc;
using ir::LaneStore;

namespace {

const std::int64_t kPeCounts[] = {1, 63, 64, 65, 127, 1000};

ir::CostModel kCost;

TEST(LaneStore, GeometryAndWordAlignment) {
  for (std::int64_t n : kPeCounts) {
    SCOPED_TRACE(n);
    LaneStore ls(n, 3);
    EXPECT_EQ(ls.nprocs(), n);
    EXPECT_EQ(ls.cells(), 3);
    // width is nprocs rounded up to a whole number of 64-bit mask words.
    EXPECT_EQ(ls.width(), (n + 63) / 64 * 64);
    EXPECT_EQ(ls.width() % 64, 0);
    EXPECT_EQ(ls.mask_words(), static_cast<std::size_t>(ls.width()) / 64);
    EXPECT_GE(ls.width(), n);
    EXPECT_LT(ls.width() - n, 64);
  }
}

TEST(LaneStore, AddrMajorLayoutRoundTrips) {
  for (std::int64_t n : kPeCounts) {
    SCOPED_TRACE(n);
    LaneStore ls(n, 4);
    for (std::int64_t pe = 0; pe < n; ++pe) {
      ls.store(pe, 0, Value::of_int(pe * 3 + 1));
      ls.store(pe, 2, Value::of_float(0.5 * static_cast<double>(pe)));
    }
    for (std::int64_t pe = 0; pe < n; ++pe) {
      // Scalar view and raw lanes agree on the same element.
      EXPECT_EQ(ls.load(pe, 0).as_int(), pe * 3 + 1);
      EXPECT_EQ(ls.int_lane(0)[pe], pe * 3 + 1);
      EXPECT_EQ(ls.load(pe, 2).as_double(), 0.5 * static_cast<double>(pe));
      EXPECT_EQ(ls.float_lane(2)[pe], 0.5 * static_cast<double>(pe));
    }
    // Untouched addresses and every pad element stay default-initialized.
    for (std::int64_t pe = 0; pe < ls.width(); ++pe) {
      EXPECT_EQ(ls.tag_lane(1)[pe], ls.tag_lane(3)[pe]);
      EXPECT_EQ(ls.int_lane(1)[pe], 0);
      EXPECT_EQ(ls.float_lane(1)[pe], 0.0);
    }
    for (std::int64_t pe = n; pe < ls.width(); ++pe) {
      EXPECT_EQ(ls.int_lane(0)[pe], 0) << "pad lane written at pe " << pe;
      EXPECT_EQ(ls.float_lane(2)[pe], 0.0) << "pad lane written at pe " << pe;
    }
  }
}

TEST(LaneStore, FillIntLaneByteIdenticalToScalarStores) {
  for (std::int64_t n : kPeCounts) {
    SCOPED_TRACE(n);
    std::vector<std::int64_t> vals(static_cast<std::size_t>(n));
    for (std::int64_t p = 0; p < n; ++p)
      vals[static_cast<std::size_t>(p)] = driver::seed_input(42, p);

    LaneStore bulk(n, 2), scalar(n, 2);
    bulk.fill_int_lane(1, vals.data(), n);
    for (std::int64_t p = 0; p < n; ++p)
      scalar.store(p, 1, Value::of_int(vals[static_cast<std::size_t>(p)]));

    const std::size_t w = static_cast<std::size_t>(bulk.width());
    EXPECT_EQ(0, std::memcmp(bulk.tag_lane(1), scalar.tag_lane(1), w));
    EXPECT_EQ(0, std::memcmp(bulk.int_lane(1), scalar.int_lane(1),
                             w * sizeof(std::int64_t)));
    EXPECT_EQ(0, std::memcmp(bulk.float_lane(1), scalar.float_lane(1),
                             w * sizeof(double)));
    // Neighbouring lanes untouched.
    for (std::int64_t p = 0; p < bulk.width(); ++p)
      EXPECT_EQ(bulk.int_lane(0)[p], 0);
  }
}

TEST(LaneStore, ClearPeResetsOneColumnOnly) {
  LaneStore ls(65, 3);
  for (std::int64_t pe = 0; pe < 65; ++pe)
    for (std::int64_t a = 0; a < 3; ++a)
      ls.store(pe, a, Value::of_int(100 * pe + a));
  ls.stack(64).push_back(Value::of_int(9));
  ls.clear_pe(64);
  EXPECT_TRUE(ls.stack(64).empty());
  for (std::int64_t a = 0; a < 3; ++a) {
    EXPECT_EQ(ls.load(64, a).as_int(), 0);
    EXPECT_EQ(ls.load(63, a).as_int(), 100 * 63 + a) << "neighbour clobbered";
    EXPECT_EQ(ls.load(0, a).as_int(), a) << "neighbour clobbered";
  }
}

TEST(LaneStore, WritesRaiseTheHighWaterMark) {
  LaneStore ls(65, 64);
  EXPECT_EQ(ls.used(), 0);
  // Reads never raise it.
  EXPECT_EQ(ls.load(3, 40).as_int(), 0);
  EXPECT_EQ(ls.used(), 0);
  ls.store(3, 9, Value::of_int(1));
  EXPECT_EQ(ls.used(), 10);
  ls.store(64, 2, Value::of_int(1));  // below the mark: unchanged
  EXPECT_EQ(ls.used(), 10);
  const std::vector<std::int64_t> vals(65, 5);
  ls.fill_int_lane(20, vals.data(), 65);
  EXPECT_EQ(ls.used(), 21);
  ls.pe_view(0).put(33, Value::of_float(2.5));
  EXPECT_EQ(ls.used(), 34);
  // A spawn reset still zeroes the highest written cell.
  ls.clear_pe(0);
  EXPECT_EQ(ls.load(0, 33).as_double(), 0.0);
  EXPECT_EQ(ls.load(0, 20).as_int(), 0);
  EXPECT_EQ(ls.load(1, 20).as_int(), 5) << "neighbour clobbered";
}

TEST(LaneStore, StacksAreIndependentPerPe) {
  LaneStore ls(127, 1);
  for (std::int64_t pe = 0; pe < 127; ++pe)
    for (std::int64_t d = 0; d <= pe % 3; ++d)
      ls.stack(pe).push_back(Value::of_int(pe * 10 + d));
  for (std::int64_t pe = 0; pe < 127; ++pe) {
    ASSERT_EQ(ls.stack(pe).size(), static_cast<std::size_t>(pe % 3 + 1));
    EXPECT_EQ(ls.stack(pe).back().as_int(), pe * 10 + pe % 3);
  }
}

// ---------------------------------------------------------------------------
// Seeded-input regression (satellite of the lane-store refactor): the
// bulk fill_lane seeding path must produce exactly the values the
// per-PE poke loop produced before the refactor. The constants below
// are the pre-refactor golden seed_input values — if seed_input or the
// fill path drifts, machine inputs silently change and every downstream
// differential loses its anchor.

TEST(LaneSeeding, SeedInputGoldenValues) {
  const std::int64_t want42[] = {6, 1, 88, 58, 48, 90, 18, 65};
  const std::int64_t want1[] = {37, 18, 79, 33, 14, 10, 45, 31};
  for (std::int64_t p = 0; p < 8; ++p) {
    EXPECT_EQ(driver::seed_input(42, p), want42[p]) << "pe " << p;
    EXPECT_EQ(driver::seed_input(1, p), want1[p]) << "pe " << p;
  }
}

TEST(LaneSeeding, FillLaneMatchesPokeLoopOnRealMachine) {
  auto compiled = driver::compile(workload::kernel("listing1").source);
  const auto* slot = compiled.layout.find("x");
  ASSERT_NE(slot, nullptr);
  auto conv = test::convert(compiled.graph, kCost);
  auto prog = codegen::generate(conv.automaton, conv.graph, kCost, {});
  for (std::int64_t n : kPeCounts) {
    SCOPED_TRACE(n);
    mimd::RunConfig config;
    config.nprocs = n;
    auto bulk = simd::make_machine(prog, kCost, config);
    auto poked = simd::make_machine(prog, kCost, config);
    driver::seed_machine(*bulk, compiled, config, 42);  // fill_lane path
    for (std::int64_t p = 0; p < n; ++p)
      poked->poke(p, slot->addr, Value::of_int(driver::seed_input(42, p)));
    for (std::int64_t p = 0; p < n; ++p) {
      const Value a = bulk->peek(p, slot->addr);
      const Value b = poked->peek(p, slot->addr);
      EXPECT_TRUE(a == b) << "pe " << p << ": " << a.to_string() << " vs "
                          << b.to_string();
    }
  }
}

// ---------------------------------------------------------------------------
// Machine-level edges: tail masks and the spawn free-list, at the same
// PE counts, under both the scalar and the host-vector path.

void expect_scalar_vector_identical(const driver::Compiled& compiled,
                                    const core::ConvertResult& conv,
                                    mimd::RunConfig config,
                                    std::uint64_t seed) {
  const SimdIsa host = resolve_simd_isa(SimdIsa::Auto);
  for (auto engine : {mimd::SimdEngine::Reference, mimd::SimdEngine::Fast,
                      mimd::SimdEngine::Codegen}) {
    SCOPED_TRACE(simd::engine_name(engine));
    config.engine = engine;
    config.simd_isa = SimdIsa::Scalar;
    simd::SimdStats s_stats;
    std::vector<std::int64_t> s_visits;
    auto scalar = driver::run_simd(compiled, conv, config, seed, kCost, {},
                                   &s_stats, &s_visits);
    if (host == SimdIsa::Scalar) continue;  // no vector ISA on this host
    config.simd_isa = host;
    simd::SimdStats v_stats;
    std::vector<std::int64_t> v_visits;
    auto vector = driver::run_simd(compiled, conv, config, seed, kCost, {},
                                   &v_stats, &v_visits);
    EXPECT_TRUE(scalar == vector)
        << "scalar: " << scalar.to_string() << "\nvector: "
        << vector.to_string();
    EXPECT_TRUE(s_stats == v_stats);
    EXPECT_EQ(s_visits, v_visits);
  }
}

TEST(LaneMachine, TailMasksNeverEnablePadPes) {
  // At 63/65/127/1000 PEs the last mask word is partial: a stray pad bit
  // would corrupt results or over-count busy cycles. Run a branchy
  // kernel at every edge count and demand scalar/vector bit-identity on
  // all three engines.
  auto compiled = driver::compile(workload::kernel("listing1").source);
  auto conv = test::convert(compiled.graph, kCost);
  for (std::int64_t n : kPeCounts) {
    SCOPED_TRACE(n);
    mimd::RunConfig config;
    config.nprocs = n;
    expect_scalar_vector_identical(compiled, conv, config, 42);
  }
}

TEST(LaneMachine, SpawnFreeListAndReuseAcrossWordBoundaries) {
  // spawn_tree allocates PEs through the free list (clear_pe on the lane
  // store); reuse_halted_pes re-routes allocation through halted
  // columns. Both policies must stay bit-identical across ISAs exactly
  // at the word-boundary PE counts.
  auto compiled = driver::compile(workload::kernel("spawn_tree").source);
  auto conv = test::convert(compiled.graph, kCost);
  for (std::int64_t n : {63ll, 64ll, 65ll}) {
    for (bool reuse : {false, true}) {
      SCOPED_TRACE(cat("n", n, reuse ? "/reuse" : "/fresh"));
      mimd::RunConfig config;
      config.nprocs = n;
      config.initial_active = 2;
      config.reuse_halted_pes = reuse;
      expect_scalar_vector_identical(compiled, conv, config, 7);
    }
  }
}

// ---------------------------------------------------------------------------
// Spawn resets and the written-address high-water mark. clear_pe zeroes
// only the addresses below LaneStore::used(), so every path that writes
// PE memory must raise it: a write a path failed to record would survive
// into the next child spawned on that PE.

constexpr std::int64_t kProbePes = 128;
constexpr std::int64_t kProbeActive = 64;
constexpr std::int64_t kProbeIndex = 4000;  // a[4000]: near local_mem_cells

/// Every initial PE runs `prologue`; then odd PEs halt, and even ones
/// idle a few steps and spawn one child each. A child returns its own
/// a[4000] + 1000, so 1000 exactly when its spawn reset cleared the cell.
/// With reuse_halted_pes the 32 children land on the halted odd PEs (the
/// lowest free ids); without, on the never-run PEs 64..95. The prologue
/// runs under one guard, so the lane engines execute it as a single lane
/// run. `a` is the last static: only the path under test writes as high
/// as a[4000], and a path that failed to raise used() leaves the mark
/// below the cell.
std::string spawn_probe(const std::string& prologue) {
  return cat(R"(poly int j;
poly int k;
poly int a[4001];
int main() {
)", prologue, R"(
  if (procid() % 2 == 1) {
    return 5;
  }
  j = 0;
  while (j < 4) { j = j + 1; }
  spawn { return a[4000] + 1000; }
  return 1;
}
)");
}

enum class HostWrite { None, Poke, FillLane };

struct ProbeRun {
  driver::Observed observed;
  simd::SimdStats stats;               ///< SIMD machines only
  std::vector<std::int64_t> visits;    ///< SIMD machines only
  std::vector<Value> memory;  ///< every PE's every local cell, address-major
};

/// Apply `host`'s write to `addr`, run `m` (a SIMD engine, the MIMD oracle
/// or the interpreter) and collect what it left behind.
template <typename M>
ProbeRun run_probe(M& m, const driver::Compiled& compiled,
                   const mimd::RunConfig& config, HostWrite host,
                   std::int64_t addr) {
  if (host == HostWrite::Poke)
    for (std::int64_t p = 0; p < config.nprocs; ++p)
      m.poke(p, addr, Value::of_int(7));
  if (host == HostWrite::FillLane)
    m.fill_lane(addr, std::vector<std::int64_t>(
                          static_cast<std::size_t>(config.nprocs), 7));
  m.run();
  ProbeRun r;
  r.observed = driver::observe(m, compiled, config);
  if constexpr (std::is_same_v<M, simd::SimdMachine>) {
    r.stats = m.stats();
    r.visits = m.state_visits();
  }
  r.memory.reserve(static_cast<std::size_t>(config.nprocs *
                                            config.local_mem_cells));
  for (std::int64_t a = 0; a < config.local_mem_cells; ++a)
    for (std::int64_t p = 0; p < config.nprocs; ++p)
      r.memory.push_back(m.peek(p, a));
  return r;
}

/// Every child read a cleared a[4000] (returned 1000, never 1007), and
/// there is one child per even initial PE.
void expect_children_saw_zero(const ProbeRun& r) {
  int children = 0;
  for (std::int64_t p = 0; p < kProbePes; ++p) {
    const std::size_t i = static_cast<std::size_t>(p);
    if (!r.observed.ran[i]) continue;
    const std::int64_t v = r.observed.results[i].as_int();
    EXPECT_NE(v, 1007) << "child on pe " << p << " saw a stale cell";
    if (v == 1000 || v == 1007) ++children;
  }
  EXPECT_EQ(children, kProbeActive / 2);
}

TEST(LaneSpawn, ChildrenSeeZeroWhereverAnyWritePathReached) {
  struct Scenario {
    const char* name;
    std::string prologue;
    HostWrite host;
  };
  const Scenario scenarios[] = {
      {"poke", "", HostWrite::Poke},
      {"fill_lane", "", HostWrite::FillLane},
      // Router stores reach every never-run PE and every initial PE.
      {"route_store",
       "a[4000][[procid() + 64]] = 7;\n"
       "a[4000][[(procid() + 1) % 64]] = 7;",
       HostWrite::None},
      // Constant address: scalar StL (reference, fast/scalar), lane
      // StoreLane (fast and codegen under a vector ISA), StLImm
      // (codegen/scalar).
      {"constant_store", "a[4000] = 7;", HostWrite::None},
      // Computed address (a[4000] on odd PEs): scalar StL, or lane
      // StDynLane.
      {"dynamic_store", "k = 3999 + procid() % 2;\na[k] = 7;",
       HostWrite::None},
  };
  const SimdIsa host_isa = resolve_simd_isa(SimdIsa::Auto);
  for (const Scenario& sc : scenarios) {
    auto compiled = driver::compile(spawn_probe(sc.prologue));
    const auto* slot = compiled.layout.find("a");
    ASSERT_NE(slot, nullptr);
    for (const auto& [name, g] : compiled.layout.globals)
      ASSERT_LE(g.addr + g.size, slot->addr + slot->size) << name;
    const std::int64_t addr = slot->addr + kProbeIndex;
    auto conv = test::convert(compiled.graph, kCost);
    auto prog = codegen::generate(conv.automaton, conv.graph, kCost, {});
    for (bool reuse : {false, true}) {
      mimd::RunConfig config;
      config.nprocs = kProbePes;
      config.initial_active = kProbeActive;
      config.reuse_halted_pes = reuse;
      ASSERT_LT(addr, config.local_mem_cells);
      std::optional<ProbeRun> first;
      for (auto engine : {mimd::SimdEngine::Reference, mimd::SimdEngine::Fast,
                          mimd::SimdEngine::Codegen}) {
        for (SimdIsa isa : {SimdIsa::Scalar, host_isa}) {
          SCOPED_TRACE(cat(sc.name, reuse ? "/reuse/" : "/fresh/",
                           simd::engine_name(engine), "/",
                           simd_isa_name(isa)));
          config.engine = engine;
          config.simd_isa = isa;
          auto m = simd::make_machine(prog, kCost, config);
          ProbeRun r = run_probe(*m, compiled, config, sc.host, addr);
          expect_children_saw_zero(r);
          EXPECT_EQ(r.stats.spawns, kProbeActive / 2);
          if (!first) {
            first = std::move(r);
            continue;
          }
          EXPECT_TRUE(r.observed == first->observed);
          EXPECT_TRUE(r.stats == first->stats);
          EXPECT_EQ(r.visits, first->visits);
          EXPECT_TRUE(r.memory == first->memory);
        }
      }
      // The MIMD oracle and the interpreter keep PE memory in the same
      // store, so the same spawn reset must clear what their writes
      // reached, and they must leave what the SIMD engines left.
      {
        SCOPED_TRACE(cat(sc.name, reuse ? "/reuse/" : "/fresh/", "mimd"));
        mimd::MimdMachine m(compiled.graph, kCost, config);
        ProbeRun r = run_probe(m, compiled, config, sc.host, addr);
        expect_children_saw_zero(r);
        EXPECT_EQ(m.stats().spawns, kProbeActive / 2);
        EXPECT_TRUE(r.observed == first->observed)
            << r.observed.to_string() << "\n" << first->observed.to_string();
        EXPECT_TRUE(r.memory == first->memory);
      }
      {
        SCOPED_TRACE(cat(sc.name, reuse ? "/reuse/" : "/fresh/", "interp"));
        interp::InterpMachine m(compiled.graph, kCost, config);
        ProbeRun r = run_probe(m, compiled, config, sc.host, addr);
        expect_children_saw_zero(r);
        EXPECT_EQ(m.stats().spawns, kProbeActive / 2);
        EXPECT_TRUE(r.observed == first->observed)
            << r.observed.to_string() << "\n" << first->observed.to_string();
        EXPECT_TRUE(r.memory == first->memory);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The paper's 16K-PE machine at the default 4096 cells per PE: the lane
// store maps zero pages, so resident memory grows with the cells a run
// touches (a few per PE here), not with nprocs * local_mem_cells (~1.1 GB).

#if defined(__SANITIZE_ADDRESS__)
#define MSC_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MSC_TEST_ASAN 1
#endif
#endif

/// Hand freed heap back to the system, so memory an earlier machine freed
/// cannot hide the next machine's growth.
void trim_heap() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

/// This process's resident set in bytes, or -1 without /proc.
std::int64_t resident_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return -1;
  long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%lld %lld", &size, &resident);
  std::fclose(f);
  return n == 2 ? resident * sysconf(_SC_PAGESIZE) : -1;
}

TEST(LaneFootprint, PaperSizeRunsCostWhatTheyTouch) {
#ifdef MSC_TEST_ASAN
  GTEST_SKIP() << "ASan shadow pages count toward the resident set";
#endif
  if (resident_bytes() < 0) GTEST_SKIP() << "no /proc/self/statm";
  constexpr std::int64_t kBudget = 64ll << 20;
  for (const char* name : {"reduce", "workqueue"}) {
    kernels::VerifiedParams params;
    params.n = 16384;
    const kernels::VerifiedCase c = kernels::make_case(name, params);
    auto compiled = driver::compile(c.source);
    auto conv = test::convert(compiled.graph, kCost);
    auto prog = codegen::generate(conv.automaton, conv.graph, kCost, {});
    for (auto engine : {mimd::SimdEngine::Reference, mimd::SimdEngine::Fast,
                        mimd::SimdEngine::Codegen}) {
      SCOPED_TRACE(cat(name, "@16384/", simd::engine_name(engine)));
      mimd::RunConfig config = c.config;
      config.engine = engine;
      ASSERT_EQ(config.local_mem_cells, 4096);
      const std::int64_t before = resident_bytes();
      auto m = simd::make_machine(prog, kCost, config);
      driver::seed_machine(*m, compiled, config, c.input_seed);
      m->run();
      const std::int64_t growth = resident_bytes() - before;
      EXPECT_LT(growth, kBudget) << "resident growth " << (growth >> 20)
                                 << " MB";
      EXPECT_EQ(kernels::check(c, driver::observe_simd(*m, compiled, config)),
                "");
    }
  }
}

TEST(LaneFootprint, OracleAndInterpreterCostWhatTheyTouch) {
#ifdef MSC_TEST_ASAN
  GTEST_SKIP() << "ASan shadow pages count toward the resident set";
#endif
  if (resident_bytes() < 0) GTEST_SKIP() << "no /proc/self/statm";
  // Construction and seeding only: the oracle's run at this size is a
  // scheduling cost, not a memory one.
  constexpr std::int64_t kBudget = 64ll << 20;
  kernels::VerifiedParams params;
  params.n = 16384;
  const kernels::VerifiedCase c = kernels::make_case("reduce", params);
  auto compiled = driver::compile(c.source);
  const mimd::RunConfig& config = c.config;
  ASSERT_EQ(config.local_mem_cells, 4096);
  {
    trim_heap();
    const std::int64_t before = resident_bytes();
    mimd::MimdMachine m(compiled.graph, kCost, config);
    driver::seed_machine(m, compiled, config, c.input_seed);
    const std::int64_t growth = resident_bytes() - before;
    EXPECT_LT(growth, kBudget) << "oracle: resident growth " << (growth >> 20)
                               << " MB";
  }
  {
    trim_heap();
    const std::int64_t before = resident_bytes();
    interp::InterpMachine m(compiled.graph, kCost, config);
    driver::seed_machine(m, compiled, config, c.input_seed);
    const std::int64_t growth = resident_bytes() - before;
    EXPECT_LT(growth, kBudget) << "interpreter: resident growth "
                               << (growth >> 20) << " MB";
  }
}

// ---------------------------------------------------------------------------
// MimdStats and InterpStats of the six verified kernels at n = 65, taken
// while both machines still kept PE memory in per-PE arrays: moving them
// onto the lane store (or changing how the oracle schedules) must leave
// every counter as it was.

std::vector<std::int64_t> fields(const mimd::MimdStats& s) {
  return {s.blocks_executed,     s.busy_cycles,         s.makespan,
          s.barrier_idle_cycles, s.barrier_sync_cycles, s.barrier_releases,
          s.spawns};
}

std::vector<std::int64_t> fields(const interp::InterpStats& s) {
  return {s.control_cycles,    s.fetch_cycles,      s.dispatch_cycles,
          s.execute_cycles,    s.loop_cycles,       s.busy_pe_cycles,
          s.offered_pe_cycles, s.iterations,        s.global_ors,
          s.spawns,            s.program_cells_per_pe};
}

TEST(StoreMachines, OracleAndInterpreterStatsMatchGoldens) {
  struct Golden {
    const char* kernel;
    std::vector<std::int64_t> mimd;    ///< fields(MimdStats)
    std::vector<std::int64_t> interp;  ///< fields(InterpStats), GlobalOr
  };
  const Golden goldens[] = {
      {"reduce", {602, 10382, 879, 216, 3216, 7, 0},
       {7299, 2196, 3531, 840, 732, 44688, 46784, 366, 366, 0, 219}},
      {"scan", {1823, 33961, 921, 4064, 21840, 14, 0},
       {6506, 2070, 3126, 620, 690, 162711, 174850, 345, 345, 0, 207}},
      {"oddeven", {35377, 571989, 12161, 15676, 202800, 130, 0},
       {94223, 29076, 45441, 10014, 9692, 2427757, 2540850, 4846, 4846, 0,
        351}},
      {"stencil", {1682, 36940, 764, 240, 12480, 8, 0},
       {5795, 1746, 2751, 716, 582, 151038, 160030, 291, 291, 0, 273}},
      {"bfs", {1950, 69467, 1328, 1253, 15600, 10, 0},
       {9881, 2856, 4635, 1438, 952, 251013, 279110, 476, 476, 0, 429}},
      {"workqueue", {810, 21398, 811, 0, 0, 0, 48},
       {12391, 3114, 6486, 1753, 1038, 102920, 130272, 519, 519, 48, 219}},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(g.kernel);
    kernels::VerifiedParams params;
    params.n = 65;
    const kernels::VerifiedCase c = kernels::make_case(g.kernel, params);
    auto compiled = driver::compile(c.source);
    mimd::MimdMachine oracle(compiled.graph, kCost, c.config);
    driver::seed_machine(oracle, compiled, c.config, c.input_seed);
    oracle.run();
    EXPECT_EQ(fields(oracle.stats()), g.mimd);
    EXPECT_EQ(kernels::check(c, driver::observe(oracle, compiled, c.config)),
              "");
    interp::InterpMachine im(compiled.graph, kCost, c.config);
    driver::seed_machine(im, compiled, c.config, c.input_seed);
    im.run();
    EXPECT_EQ(fields(im.stats()), g.interp);
    EXPECT_EQ(kernels::check(c, driver::observe(im, compiled, c.config)), "");
  }
}

}  // namespace
