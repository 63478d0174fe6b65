#ifndef MSC_PASS_PASS_HPP
#define MSC_PASS_PASS_HPP

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "msc/codegen/program.hpp"
#include "msc/core/convert.hpp"
#include "msc/ir/cost.hpp"
#include "msc/ir/graph.hpp"
#include "msc/support/telemetry.hpp"

namespace msc::telemetry {
class TraceSink;
}

namespace msc::pass {

/// Thrown on pipeline-construction errors (unknown pass name, duplicate
/// pass, invariant-violating order) and by --verify-each when a pass
/// leaves the intermediate program in an invalid state.
class PipelineError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The unit every pass transforms: the toolchain's whole intermediate
/// state, from the compiled MIMD state graph through the meta-state
/// automaton to the generated SIMD program. A stage fills in the optional
/// it owns; later stages read it.
struct PipelineState {
  ir::StateGraph graph;      ///< mutated in place by IR passes
  ir::CostModel cost;
  /// Options for the convert pass's engine call. The `compress` and
  /// `time-split` passes set the matching fields; the caller sets the rest.
  core::ConvertOptions options;
  /// Convert-pass policy: on ExplosionError, retry compressed (the
  /// driver-level adaptive behavior; DESIGN.md §4).
  bool adaptive = false;
  codegen::CodegenOptions cgopts;
  /// Chrome-trace sink shared by the whole pipeline run (null = tracing
  /// off). The PassManager opens one wall-clock span per pass; passes may
  /// additionally emit child spans (the convert pass emits its per-phase
  /// breakdown). Never changes pass behaviour.
  telemetry::TraceSink* trace_sink = nullptr;
  std::optional<core::ConvertResult> conversion;   ///< set by `convert`
  std::optional<codegen::SimdProgram> prog;        ///< set by `codegen`
};

/// Pipeline position class; declares each pass's ordering invariants.
/// IR passes mutate `graph` and must precede the conversion; Config
/// passes parameterize the conversion and must precede it; exactly one
/// Convert pass may appear; Automaton and Codegen passes require a
/// conversion to exist.
enum class Stage : std::uint8_t { IR, Config, Convert, Automaton, Codegen };
const char* to_string(Stage stage);

/// Pass-specific counters surfaced in the telemetry record (cache hits,
/// blocks removed, fall-throughs created, ...).
using Counters = std::vector<std::pair<std::string, std::int64_t>>;

struct Pass {
  std::string name;
  std::string description;
  Stage stage = Stage::IR;
  /// Member of the default pipeline (what runs when no explicit
  /// --pass-pipeline is given and no flag enables it).
  bool default_on = false;
  std::function<void(PipelineState&, Counters&)> run;
};

/// The global pass registry. Built-ins are registered on first use;
/// register_pass() adds a custom pass (tests, future plugins). Returns
/// false when the name is already taken. Not thread-safe: register before
/// spawning pipeline runs.
const std::vector<Pass>& registered_passes();
bool register_pass(Pass pass);
const Pass* find_pass(const std::string& name);

/// Names of the default_on built-ins, in canonical (registration) order:
/// simplify, peephole, convert, subsume, straighten.
std::vector<std::string> default_pipeline();

/// The one translation of the stage shorthands (mscc --compress/--split/
/// --no-subsume, the wire fields and old manifest booleans compress/
/// time_split/subsume) into a pass list: default_pipeline() with
/// `compress`/`time-split` inserted before `convert`, minus `subsume`.
std::vector<std::string> shorthand_pipeline(bool compress, bool time_split,
                                            bool subsume);

/// `pipeline` without its IR-stage passes, for graphs compile() produced.
std::vector<std::string> conversion_stages(std::vector<std::string> pipeline);

struct ManagerOptions {
  /// Pass names in execution order; empty = default_pipeline().
  std::vector<std::string> pipeline;
  /// Names removed from the pipeline after resolution (--disable-pass).
  std::vector<std::string> disabled;
  /// Run the structural invariant checkers (ir::StateGraph::validate,
  /// core::MetaAutomaton::validate) after every pass, throwing
  /// PipelineError naming the offending pass — a miscompiling pass is
  /// pinpointed at its boundary instead of surfacing downstream.
  bool verify_each = false;
};

/// Resolves, validates, and runs a pass pipeline with per-pass
/// instrumentation. Construction throws PipelineError on unknown names,
/// duplicates, or stage-order violations.
class PassManager {
 public:
  explicit PassManager(ManagerOptions options);

  const std::vector<Pass>& passes() const { return passes_; }
  std::vector<std::string> names() const;
  bool contains(const std::string& name) const;

  /// Run every pass over `state`, sampling metrics and wall time at each
  /// boundary. Throws PipelineError when `state.options` arrives with
  /// `compress` or `time_split` set: only the config passes set those.
  /// Exceptions from passes propagate (ExplosionError, PipelineError from
  /// verification, ...).
  telemetry::PipelineTrace run(PipelineState& state) const;

 private:
  void verify(const std::string& pass_name, const PipelineState& state) const;

  ManagerOptions options_;
  std::vector<Pass> passes_;  ///< resolved copies, in execution order
};

/// Convenience for callers that already hold a compiled state graph (the
/// fuzzer's differential matrix): run a conversion-stage pipeline (e.g.
/// {"convert", "subsume", "straighten"}, optionally prefixed with config
/// passes) over a copy of `graph` and return the conversion. `base`
/// supplies the engine options, with `compress` and `time_split` unset as
/// PassManager::run requires. Throws PipelineError when the pipeline
/// contains no convert pass.
core::ConvertResult run_conversion_pipeline(
    const ir::StateGraph& graph, const ir::CostModel& cost,
    const std::vector<std::string>& pipeline, const core::ConvertOptions& base,
    bool adaptive = false);

}  // namespace msc::pass

#endif  // MSC_PASS_PASS_HPP
