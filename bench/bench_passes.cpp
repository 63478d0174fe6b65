// PASS-PIPELINE — the instrumented PassManager (DESIGN.md §9) must cost
// (almost) nothing: its job is attribution, not transformation. Two tables:
//
//   1. per-pass time share — where the default (+compress/+split) pipeline
//      actually spends its wall time on scaling workloads, straight from
//      the telemetry trace the manager records anyway.
//   2. dispatch overhead — PassManager-run default pipeline versus the
//      same stages called directly (simplify → peephole →
//      meta_state_convert → subsume → straighten), with a bit-identity
//      check. The pin: manager overhead < 2% of the direct chain.
#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "msc/core/straighten.hpp"
#include "msc/core/subsume.hpp"
#include "msc/driver/pipeline.hpp"
#include "msc/ir/passes.hpp"
#include "msc/ir/peephole.hpp"
#include "msc/pass/pass.hpp"
#include "msc/workload/generator.hpp"
#include "msc/workload/kernels.hpp"

using namespace msc;
using bench::Table;

namespace {

ir::CostModel kCost;

struct Workload {
  const char* name;
  std::string source;
};

std::vector<Workload> workloads() {
  return {
      {"listing4", workload::listing4().source},
      {"branchy(5)", workload::branchy_source(5)},
      {"oddeven_sort", workload::kernel("oddeven_sort").source},
      {"nested(4)", workload::nested_branch_source(4)},
  };
}

double best_of(int reps, const std::function<double()>& once) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) best = std::min(best, once());
  return best;
}

// The exact work the default pipeline performs, called directly with no
// manager, no trace records, no metric snapshots.
core::ConvertResult direct_chain(ir::StateGraph graph,
                                 const core::ConvertOptions& base) {
  ir::simplify(graph);
  ir::peephole(graph);
  core::ConvertResult conv = core::meta_state_convert(graph, kCost, base);
  if (conv.automaton.compressed) core::subsume_automaton(conv.automaton);
  core::straighten(conv.automaton);
  return conv;
}

void report() {
  // ---- Table 1: per-pass wall-time share --------------------------------
  Table shares({"workload", "pipeline", "pass", "seconds", "share"},
               {20, 26, 12, 12, 8});
  for (const Workload& w : workloads()) {
    for (bool heavy : {false, true}) {
      driver::PipelineOptions popts;
      popts.pipeline =
          heavy ? std::vector<std::string>{"simplify", "peephole", "compress",
                                           "time-split", "convert", "subsume",
                                           "straighten"}
                : pass::default_pipeline();
      driver::Converted conv = driver::convert(w.source, kCost, popts);
      double total = 0;
      for (const auto& rec : conv.trace.passes) total += rec.seconds;
      for (const auto& rec : conv.trace.passes)
        shares.row({w.name, heavy ? "default+compress+split" : "default",
                    rec.name, fmt_double(rec.seconds * 1e3, 3) + "ms",
                    bench::pct(total > 0 ? rec.seconds / total : 0)});
    }
  }
  shares.print("T-PASS-SHARE: per-pass wall time, telemetry trace");

  // ---- Table 2: manager dispatch overhead vs the direct call chain ------
  // The <2% pin is enforced on workloads whose direct chain runs >=1ms.
  // Below that the fixed telemetry cost (a handful of heap allocations per
  // pass record) and steady_clock jitter dominate a microsecond-scale
  // conversion, so a percentage there measures noise, not dispatch.
  Table overhead({"workload", "direct", "managed", "overhead", "identical"},
                 {20, 12, 12, 12, 10});
  constexpr double kPinThresholdSeconds = 1e-3;
  double worst_overhead = 0;
  for (const Workload& w : workloads()) {
    const driver::Compiled fronted = driver::front(w.source);
    const core::ConvertOptions base;  // default pipeline: no compress/split

    std::string direct_dump;
    const double direct_s = best_of(9, [&] {
      auto t0 = std::chrono::steady_clock::now();
      core::ConvertResult conv = direct_chain(fronted.graph, base);
      auto t1 = std::chrono::steady_clock::now();
      direct_dump = conv.automaton.dump();
      return std::chrono::duration<double>(t1 - t0).count();
    });

    std::string managed_dump;
    const double managed_s = best_of(9, [&] {
      auto t0 = std::chrono::steady_clock::now();
      core::ConvertResult conv = pass::run_conversion_pipeline(
          fronted.graph, kCost, pass::default_pipeline(), base);
      auto t1 = std::chrono::steady_clock::now();
      managed_dump = conv.automaton.dump();
      return std::chrono::duration<double>(t1 - t0).count();
    });

    const double over = managed_s / direct_s - 1.0;
    const bool pinned = direct_s >= kPinThresholdSeconds;
    if (pinned) worst_overhead = std::max(worst_overhead, over);
    overhead.row({w.name, fmt_double(direct_s * 1e3, 3) + "ms",
                  fmt_double(managed_s * 1e3, 3) + "ms",
                  bench::pct(over) + (pinned ? "" : " (info)"),
                  direct_dump == managed_dump ? "yes" : "NO"});
    if (direct_dump != managed_dump) {
      std::fprintf(stderr,
                   "FATAL: managed pipeline diverged from direct chain on %s\n",
                   w.name);
      std::exit(1);
    }
  }
  overhead.print("T-PASS-OVERHEAD: PassManager dispatch vs direct calls");
  std::printf("\nworst dispatch overhead (>=1ms workloads): %.2f%% (budget 2%%)\n",
              100.0 * worst_overhead);
  if (worst_overhead >= 0.02) {
    std::fprintf(stderr, "FATAL: PassManager dispatch overhead exceeds 2%%\n");
    std::exit(1);
  }
}

// google-benchmark timings: the managed/direct pair on the heaviest
// workload, so regressions show up in the standard bench output too.
void BM_DirectChain(benchmark::State& state) {
  const driver::Compiled fronted =
      driver::front(workload::nested_branch_source(3));
  for (auto _ : state)
    benchmark::DoNotOptimize(direct_chain(fronted.graph, {}));
}
BENCHMARK(BM_DirectChain)->Unit(benchmark::kMillisecond);

void BM_ManagedPipeline(benchmark::State& state) {
  const driver::Compiled fronted =
      driver::front(workload::nested_branch_source(3));
  for (auto _ : state)
    benchmark::DoNotOptimize(pass::run_conversion_pipeline(
        fronted.graph, kCost, pass::default_pipeline(), {}));
}
BENCHMARK(BM_ManagedPipeline)->Unit(benchmark::kMillisecond);

}  // namespace

MSC_BENCH_MAIN(report)
