// T-EXPLODE — §1.2 warns the meta-state space can reach S!/(S−N)! states
// and §2.3 derives up to 3^n successors from n branching members. Measure
// meta-state counts as divergence grows, against the analytic bounds, and
// show which §2 mechanisms (compression, barriers) tame the growth.
#include "bench_util.hpp"

#include "msc/driver/pipeline.hpp"
#include "msc/workload/kernels.hpp"

using namespace msc;
using bench::Table;

namespace {

ir::CostModel kCost;

std::string states_or_explodes(const std::string& src,
                               core::ConvertOptions opts,
                               const std::vector<std::string>& stages =
                                   bench::kStages,
                               std::size_t limit = 150000) {
  opts.max_meta_states = limit;
  auto compiled = driver::compile(src);
  try {
    auto res = bench::convert(compiled.graph, kCost, stages, opts);
    return bench::num(res.automaton.num_states());
  } catch (const core::ExplosionError&) {
    return ">" + bench::num(limit);
  } catch (const CompileError&) {
    return "rejected";  // PaperPrune + >1 barrier is a compile error now
  }
}

void report() {
  std::printf("== T-EXPLODE: meta-state space growth ==\n");

  // Divergent loop chains: occupancy windows overlap → exponential base
  // growth; compression and barriers both collapse it.
  Table t({"k loops", "base", "compressed", "barrier(prune)",
           "barrier(track)", "4^k"},
          {10, 12, 12, 16, 16, 12});
  for (int k = 1; k <= 8; ++k) {
    core::ConvertOptions base, prune, track;
    prune.barrier_mode = core::BarrierMode::PaperPrune;
    track.barrier_mode = core::BarrierMode::TrackOccupancy;
    std::int64_t bound = 1;
    for (int i = 0; i < k; ++i) bound *= 4;
    t.row({bench::num(std::int64_t{k}),
           states_or_explodes(workload::loopy_source(k), base),
           states_or_explodes(workload::loopy_source(k), base,
                              bench::kCompressStages),
           states_or_explodes(workload::loopy_barrier_source(k), prune),
           states_or_explodes(workload::loopy_barrier_source(k), track),
           bench::num(bound)});
  }
  t.print("Meta states vs. k sequential divergent loops (base grows ~4^k; "
          "§2.5 compression and §2.6 barriers stay linear)");

  // Sequential diamonds re-synchronize at joins: growth is linear even in
  // base mode. This isolates *where* explosion comes from (loop-exit
  // drift, not branching per se).
  Table d({"k diamonds", "base", "compressed"}, {12, 12, 12});
  for (int k = 2; k <= 12; k += 2) {
    d.row({bench::num(std::int64_t{k}),
           states_or_explodes(workload::branchy_source(k), {}),
           states_or_explodes(workload::branchy_source(k), {},
                              bench::kCompressStages)});
  }
  d.print("Meta states vs. k sequential if/else diamonds (joins resync: "
          "linear growth even in base mode)");

  // §2.3: 3^n successors from one meta state with n branching members.
  Table s({"n branching members", "successor arcs", "3^n"}, {20, 16, 10});
  for (int n = 1; n <= 5; ++n) {
    // n parallel independent do-while loops reached simultaneously: put n
    // loops behind one divergent split so a meta state holds n branchers.
    // Simpler: measure the widest out-degree in loopy(n)'s automaton.
    auto compiled = driver::compile(workload::loopy_source(n));
    core::ConvertOptions opts;
    opts.max_meta_states = 150000;
    std::size_t max_arcs = 0;
    try {
      auto res = core::meta_state_convert(compiled.graph, kCost, opts);
      for (const auto& ms : res.automaton.states)
        max_arcs = std::max(max_arcs, ms.arcs.size());
    } catch (const core::ExplosionError&) {
    }
    std::int64_t bound = 1;
    for (int i = 0; i < n; ++i) bound *= 3;
    s.row({bench::num(std::int64_t{n}), bench::num(max_arcs),
           bench::num(bound)});
  }
  s.print("Widest multiway branch vs. the §2.3 3^n bound (loopy(k) meta "
          "states hold up to k branching members)");
}

void BM_ConvertLoopy(benchmark::State& state) {
  auto compiled = driver::compile(workload::loopy_source(static_cast<int>(state.range(0))));
  core::ConvertOptions opts;
  opts.max_meta_states = 1 << 22;
  for (auto _ : state)
    benchmark::DoNotOptimize(core::meta_state_convert(compiled.graph, kCost, opts));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ConvertLoopy)->DenseRange(1, 6)->Complexity();

void BM_ConvertLoopyCompressed(benchmark::State& state) {
  auto compiled = driver::compile(workload::loopy_source(static_cast<int>(state.range(0))));
  core::ConvertOptions opts;
  opts.compress = true;
  for (auto _ : state)
    benchmark::DoNotOptimize(core::meta_state_convert(compiled.graph, kCost, opts));
}
BENCHMARK(BM_ConvertLoopyCompressed)->DenseRange(1, 6);

}  // namespace

MSC_BENCH_MAIN(report)
