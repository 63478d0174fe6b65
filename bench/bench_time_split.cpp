// T-SPLIT / FIG3-4 — §2.4: without time splitting, a meta state mixing a
// 5-cycle and a 100-cycle MIMD state wastes "up to 95% of its processor
// cycles simply waiting." Reproduce that exact example, then sweep arm
// imbalance and measure PE utilization before/after splitting.
#include "bench_util.hpp"

#include "msc/core/time_split.hpp"
#include "msc/driver/pipeline.hpp"
#include "msc/driver/runner.hpp"
#include "msc/workload/kernels.hpp"

using namespace msc;
using bench::Table;

namespace {

ir::CostModel kCost;
constexpr std::uint64_t kSeed = 31;

struct Measured {
  std::size_t graph_states;
  std::size_t meta_states;
  double worst_idle;
  double runtime_util;
  std::int64_t cycles;
  int splits;
};

Measured measure(const std::string& src, bool split) {
  auto compiled = driver::compile(src);
  auto conv = bench::convert(compiled.graph, kCost,
                             split ? bench::kSplitStages : bench::kStages);
  Measured m;
  m.graph_states = conv.graph.size();
  m.meta_states = conv.automaton.num_states();
  m.splits = conv.stats.splits_performed;
  m.worst_idle = 0.0;
  for (const auto& ms : conv.automaton.states)
    m.worst_idle = std::max(
        m.worst_idle, core::meta_state_idle_fraction(conv.graph, ms.members, kCost));
  mimd::RunConfig cfg;
  cfg.nprocs = 16;
  simd::SimdStats stats;
  driver::run_simd(compiled, conv, cfg, kSeed, kCost, {}, &stats);
  m.runtime_util = stats.utilization();
  m.cycles = stats.control_cycles;
  return m;
}

void report() {
  std::printf("== T-SPLIT: §2.4 MIMD-state time splitting ==\n");

  // The paper's own numbers: a 5-cycle state merged with a 100-cycle
  // state → ~95%% idle. Build arms with those raw costs.
  {
    // Each `acc = acc * 3 + 1;` costs 11 cycles with the default model
    // (2 loads+2 stores pattern); calibrate op counts to land near 5/100.
    auto compiled = driver::compile(workload::imbalanced_once_source(1, 12));
    const ir::Block& start = compiled.graph.at(compiled.graph.start);
    std::int64_t cheap = kCost.block_cost(compiled.graph.at(start.target));
    std::int64_t dear = kCost.block_cost(compiled.graph.at(start.alt));
    if (cheap > dear) std::swap(cheap, dear);
    std::printf("\nFIG3/4 arms: cheap=%lld cycles, expensive=%lld cycles "
                "(paper example: 5 vs 100)\n",
                static_cast<long long>(cheap), static_cast<long long>(dear));
    Table fig({"", "graph states", "meta states", "worst idle", "runtime util",
               "cycles", "splits"},
              {14, 14, 13, 12, 14, 10, 8});
    Measured before = measure(workload::imbalanced_once_source(1, 12), false);
    Measured after = measure(workload::imbalanced_once_source(1, 12), true);
    fig.row({"unsplit", bench::num(before.graph_states),
             bench::num(before.meta_states), bench::pct(before.worst_idle),
             bench::pct(before.runtime_util), bench::num(before.cycles),
             bench::num(std::int64_t{before.splits})});
    fig.row({"time-split", bench::num(after.graph_states),
             bench::num(after.meta_states), bench::pct(after.worst_idle),
             bench::pct(after.runtime_util), bench::num(after.cycles),
             bench::num(std::int64_t{after.splits})});
    fig.print("Figs. 3-4 reproduction (straight-line imbalanced arms)");
  }

  // Sweep the imbalance ratio.
  Table sweep({"expensive ops", "idle unsplit", "idle split", "util unsplit",
               "util split", "splits"},
              {15, 13, 12, 13, 12, 8});
  for (int ops : {2, 4, 8, 16, 32}) {
    Measured before = measure(workload::imbalanced_once_source(1, ops), false);
    Measured after = measure(workload::imbalanced_once_source(1, ops), true);
    sweep.row({bench::num(std::int64_t{ops}), bench::pct(before.worst_idle),
               bench::pct(after.worst_idle), bench::pct(before.runtime_util),
               bench::pct(after.runtime_util),
               bench::num(std::int64_t{after.splits})});
  }
  sweep.print("Imbalance sweep: worst-case meta-state idle fraction and "
              "measured runtime utilization");

  // Threshold ablation (split_delta / split_percent of the paper's
  // pseudocode).
  Table thr({"split_delta", "split_percent", "splits", "meta states"},
            {13, 15, 8, 12});
  for (auto [delta, percent] : std::vector<std::pair<int, int>>{
           {4, 75}, {16, 75}, {64, 75}, {4, 25}, {4, 5}}) {
    auto compiled = driver::compile(workload::imbalanced_once_source(1, 16));
    core::ConvertOptions opts;
    opts.split_delta = delta;
    opts.split_percent = percent;
    auto conv =
        bench::convert(compiled.graph, kCost, bench::kSplitStages, opts);
    thr.row({bench::num(std::int64_t{delta}), bench::num(std::int64_t{percent}),
             bench::num(std::int64_t{conv.stats.splits_performed}),
             bench::num(conv.automaton.num_states())});
  }
  thr.print("Threshold ablation — the paper's noise-level and "
            "acceptable-utilization cutoffs");

  // The cost of splitting: more states. Loops make base-mode conversion
  // explode (see DESIGN.md); compression keeps it tractable.
  Table cost({"kernel", "mode", "meta unsplit", "meta split", "splits"},
             {16, 12, 13, 11, 8});
  {
    auto compiled = driver::compile(workload::imbalanced_source(1, 12));
    auto plain = bench::convert(compiled.graph, kCost, bench::kCompressStages);
    auto split = bench::convert(
        compiled.graph, kCost,
        {"compress", "time-split", "convert", "subsume", "straighten"});
    cost.row({"imbalanced(loop)", "compressed",
              bench::num(plain.automaton.num_states()),
              bench::num(split.automaton.num_states()),
              bench::num(std::int64_t{split.stats.splits_performed})});
  }
  cost.print("State-count cost of splitting under compression");
}

void BM_ConvertWithSplitting(benchmark::State& state) {
  auto compiled = driver::compile(workload::imbalanced_once_source(1, 16));
  core::ConvertOptions opts;
  opts.time_split = true;
  for (auto _ : state)
    benchmark::DoNotOptimize(core::meta_state_convert(compiled.graph, kCost, opts));
}
BENCHMARK(BM_ConvertWithSplitting);

void BM_ConvertWithoutSplitting(benchmark::State& state) {
  auto compiled = driver::compile(workload::imbalanced_once_source(1, 16));
  for (auto _ : state)
    benchmark::DoNotOptimize(core::meta_state_convert(compiled.graph, kCost, {}));
}
BENCHMARK(BM_ConvertWithoutSplitting);

}  // namespace

MSC_BENCH_MAIN(report)
