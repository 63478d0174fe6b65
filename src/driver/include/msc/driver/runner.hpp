#ifndef MSC_DRIVER_RUNNER_HPP
#define MSC_DRIVER_RUNNER_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "msc/codegen/program.hpp"
#include "msc/driver/pipeline.hpp"
#include "msc/mimd/machine.hpp"
#include "msc/simd/machine.hpp"

namespace msc::driver {

/// What a run produced, in machine-independent form — the basis of every
/// oracle-vs-SIMD equivalence check.
struct Observed {
  /// main's per-PE return value (Layout::kResultAddr); only meaningful
  /// where `ran[p]` is true.
  std::vector<Value> results;
  std::vector<bool> ran;
  /// Final values of every named poly global, per PE (arrays flattened).
  std::map<std::string, std::vector<Value>> poly_globals;
  /// Final values of every named mono global.
  std::map<std::string, std::vector<Value>> mono_globals;

  bool operator==(const Observed& o) const;
  /// Per-PE-order-insensitive comparison (for spawn workloads, where PE
  /// allocation order may differ between the asynchronous oracle and the
  /// lockstep SIMD machine): multisets of (result, ran) plus globals.
  bool equivalent_unordered(const Observed& o) const;
  std::string to_string() const;
};

/// Deterministic per-PE input: value poked into poly global `x` (when the
/// program declares one) before running. Shared by both machines.
std::int64_t seed_input(std::uint64_t seed, std::int64_t pe);

/// Write seeds/initial values into a machine via the layout: one bulk
/// fill_lane of seed_input per seeded variable. M is MimdMachine,
/// InterpMachine or SimdMachine; all three keep PE memory in the same
/// lane-major ir::LaneStore, where fill_lane(addr, vals) is byte-identical
/// to nprocs pokes of Value::of_int(vals[p]) (lane_store_test pins it).
template <typename M>
void seed_machine(M& machine, const Compiled& compiled,
                  const mimd::RunConfig& config, std::uint64_t seed) {
  const auto* slot = compiled.layout.find("x");
  if (!slot || slot->storage != frontend::Storage::PolyStatic) return;
  std::vector<std::int64_t> vals(static_cast<std::size_t>(config.nprocs));
  for (std::int64_t p = 0; p < config.nprocs; ++p)
    vals[static_cast<std::size_t>(p)] = seed_input(seed, p);
  machine.fill_lane(slot->addr, vals);
}

/// Write a pre-rendered JSON document to `path` ("-" = stdout); `what`
/// names the payload in error messages. Throws std::runtime_error when the
/// file cannot be written. Shared by every --trace-*/--profile-*/--metrics
/// sink in mscc and by mscprof's --write.
void write_json_file(const std::string& json, const std::string& what,
                     const std::string& path);

/// Write `stats` as JSON to `path` ("-" = stdout). Throws
/// std::runtime_error when the file cannot be written. Used by
/// --trace-convert and PipelineOptions::trace_convert_path.
void write_convert_trace(const core::ConvertStats& stats,
                         const std::string& path);

/// Write a pipeline's per-pass telemetry (support/telemetry.hpp JSON,
/// schema in DESIGN.md §9) to `path` ("-" = stdout). Throws
/// std::runtime_error when the file cannot be written. Used by mscc
/// --pass-timings and PipelineOptions::pass_timings_path.
void write_pass_timings(const telemetry::PipelineTrace& trace,
                        const std::string& path);

/// Write a finished SIMD machine's execution trace (simd::to_json: engine
/// name, cycle stats, utilization, per-meta-state visits) to `path`
/// ("-" = stdout). Throws std::runtime_error when the file cannot be
/// written. Used by mscc --trace-simd.
void write_simd_trace(const simd::SimdMachine& machine,
                      const std::string& path);

/// Collect observations from a finished machine M (MimdMachine,
/// InterpMachine or SimdMachine; all share the peek/ever_ran interface):
/// per-PE results/ran plus final globals, in the form run_oracle() and
/// run_simd() return.
template <typename M>
Observed observe(const M& machine, const Compiled& compiled,
                 const mimd::RunConfig& config) {
  Observed obs;
  obs.ran.resize(static_cast<std::size_t>(config.nprocs));
  obs.results.resize(static_cast<std::size_t>(config.nprocs));
  for (std::int64_t p = 0; p < config.nprocs; ++p) {
    obs.ran[static_cast<std::size_t>(p)] = machine.ever_ran(p);
    if (obs.ran[static_cast<std::size_t>(p)])
      obs.results[static_cast<std::size_t>(p)] =
          machine.peek(p, frontend::Layout::kResultAddr);
  }
  for (const auto& [name, slot] : compiled.layout.globals) {
    if (slot.storage == frontend::Storage::MonoStatic) {
      std::vector<Value> vals;
      for (std::int64_t c = 0; c < slot.size; ++c)
        vals.push_back(machine.peek_mono(slot.addr + c));
      obs.mono_globals[name] = std::move(vals);
    } else {
      std::vector<Value> vals;
      for (std::int64_t p = 0; p < config.nprocs; ++p) {
        if (!obs.ran[static_cast<std::size_t>(p)]) continue;
        for (std::int64_t c = 0; c < slot.size; ++c)
          vals.push_back(machine.peek(p, slot.addr + c));
      }
      obs.poly_globals[name] = std::move(vals);
    }
  }
  return obs;
}

/// observe() for a SIMD machine the caller ran (manual step() loops, the
/// co-scheduler).
Observed observe_simd(const simd::SimdMachine& machine,
                      const Compiled& compiled,
                      const mimd::RunConfig& config);

/// Run the MIMD oracle and collect observations.
Observed run_oracle(const Compiled& compiled, const mimd::RunConfig& config,
                    std::uint64_t seed, mimd::MimdStats* stats_out = nullptr);

/// Convert + codegen + run on the SIMD machine (engine per
/// `config.engine`) and collect observations. `visits_out`, when given,
/// receives the per-meta-state visit counts (differential tests,
/// --trace-simd).
Observed run_simd(const Compiled& compiled, const core::ConvertResult& conversion,
                  const mimd::RunConfig& config, std::uint64_t seed,
                  const ir::CostModel& cost = {},
                  const codegen::CodegenOptions& cg = {},
                  simd::SimdStats* stats_out = nullptr,
                  std::vector<std::int64_t>* visits_out = nullptr);

}  // namespace msc::driver

#endif  // MSC_DRIVER_RUNNER_HPP
