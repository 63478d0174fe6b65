// T-BARRIER — §2.6: barrier synchronization reduces the state space
// "without adding to the complexity of each meta state." Measure state
// counts and mean width with/without barriers, in both barrier modes,
// against compression (which also shrinks states but widens them).
#include "bench_util.hpp"

#include "msc/driver/pipeline.hpp"
#include "msc/workload/kernels.hpp"

using namespace msc;
using bench::Table;

namespace {

ir::CostModel kCost;

struct Sample {
  std::string states;
  double width = 0.0;
};

Sample sample(const std::string& src, core::ConvertOptions opts,
              const std::vector<std::string>& stages = bench::kStages) {
  opts.max_meta_states = 150000;
  auto compiled = driver::compile(src);
  try {
    auto res = bench::convert(compiled.graph, kCost, stages, opts);
    return {bench::num(res.automaton.num_states()),
            res.automaton.mean_width()};
  } catch (const core::ExplosionError&) {
    return {">150000", 0.0};
  } catch (const CompileError&) {
    // PaperPrune with >1 distinct barrier is rejected at compile time now;
    // keep the table shape and render the refusal.
    return {"rejected", 0.0};
  }
}

void report() {
  std::printf("== T-BARRIER: barriers vs. compression as state-space "
              "control ==\n");

  Table t({"k", "no barrier", "prune", "track", "compressed", "prune width",
           "comp width"},
          {6, 12, 10, 10, 12, 13, 11});
  for (int k = 1; k <= 7; ++k) {
    core::ConvertOptions base, prune, track;
    prune.barrier_mode = core::BarrierMode::PaperPrune;
    track.barrier_mode = core::BarrierMode::TrackOccupancy;
    Sample none = sample(workload::loopy_source(k), base);
    Sample p = sample(workload::loopy_barrier_source(k), prune);
    Sample tr = sample(workload::loopy_barrier_source(k), track);
    Sample c = sample(workload::loopy_source(k), base, bench::kCompressStages);
    t.row({bench::num(std::int64_t{k}), none.states, p.states, tr.states,
           c.states, fmt_double(p.width, 2), fmt_double(c.width, 2)});
  }
  t.print("Meta states over k divergent loops — barriers keep states "
          "*narrow* (≈1 member) while compression pays with width");

  // Barrier placement frequency sweep: a barrier every loop vs. every
  // second loop vs. only at the end.
  Table f({"placement", "meta states"}, {26, 12});
  {
    core::ConvertOptions prune;
    prune.barrier_mode = core::BarrierMode::PaperPrune;
    f.row({"every loop (k=6)",
           sample(workload::loopy_barrier_source(6), prune).states});
    // Every second loop: interleave manually.
    std::string half = R"(poly int x;
int main() {
  poly int acc;
  poly int i;
  acc = 0;
)";
    for (int j = 0; j < 6; ++j) {
      half += "  i = ((x >> " + std::to_string(j) + ") & 3) + 1;\n";
      half += "  do { acc = acc * 2 + " + std::to_string(j) +
              "; i = i - 1; } while (i > 0);\n";
      if (j % 2 == 1) half += "  wait;\n";
    }
    half += "  return acc;\n}\n";
    f.row({"every 2nd loop (k=6)", sample(half, prune).states});
    f.row({"no barrier (k=6)", sample(workload::loopy_source(6), prune).states});
  }
  f.print("Barrier placement frequency (k=6): each barrier truncates the "
          "divergence window");
}

void BM_ConvertBarrierPrune(benchmark::State& state) {
  auto compiled =
      driver::compile(workload::loopy_barrier_source(static_cast<int>(state.range(0))));
  core::ConvertOptions opts;
  opts.barrier_mode = core::BarrierMode::PaperPrune;
  for (auto _ : state)
    benchmark::DoNotOptimize(core::meta_state_convert(compiled.graph, kCost, opts));
}
// k=1 is the only accepted prune shape since multi-barrier pruning became
// a compile error; the k sweep moved to BM_ConvertBarrierTrack.
BENCHMARK(BM_ConvertBarrierPrune)->DenseRange(1, 1);

void BM_ConvertBarrierTrack(benchmark::State& state) {
  auto compiled =
      driver::compile(workload::loopy_barrier_source(static_cast<int>(state.range(0))));
  core::ConvertOptions opts;
  opts.barrier_mode = core::BarrierMode::TrackOccupancy;
  for (auto _ : state)
    benchmark::DoNotOptimize(core::meta_state_convert(compiled.graph, kCost, opts));
}
BENCHMARK(BM_ConvertBarrierTrack)->DenseRange(2, 8, 2);

void BM_ConvertNoBarrier(benchmark::State& state) {
  auto compiled =
      driver::compile(workload::loopy_source(static_cast<int>(state.range(0))));
  core::ConvertOptions opts;
  opts.max_meta_states = 1 << 22;
  for (auto _ : state)
    benchmark::DoNotOptimize(core::meta_state_convert(compiled.graph, kCost, opts));
}
BENCHMARK(BM_ConvertNoBarrier)->DenseRange(2, 6, 2);

}  // namespace

MSC_BENCH_MAIN(report)
