#ifndef MSC_DRIVER_PIPELINE_HPP
#define MSC_DRIVER_PIPELINE_HPP

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "msc/codegen/program.hpp"
#include "msc/core/convert.hpp"
#include "msc/frontend/ast.hpp"
#include "msc/frontend/sema.hpp"
#include "msc/ir/cost.hpp"
#include "msc/ir/graph.hpp"
#include "msc/support/diag.hpp"
#include "msc/support/telemetry.hpp"

namespace msc::telemetry {
class TraceSink;
}

namespace msc::driver {

/// Output of the MIMDC front half: analyzed AST, memory layout, and the
/// simplified whole-program MIMD state graph (§2.1–2.2).
struct Compiled {
  std::unique_ptr<frontend::Program> program;
  frontend::Layout layout;
  Diagnostics diags;
  ir::StateGraph graph;
};

/// Lex → parse → sema → CFG build, with no IR passes applied. Building
/// block for custom pipelines; most callers want compile().
Compiled front(const std::string& source);

/// front() + the IR-stage passes of the default pipeline (simplify,
/// peephole). Throws CompileError on malformed input.
Compiled compile(const std::string& source);

/// compile() + the conversion-stage pipeline in one call.
struct Converted {
  Compiled compiled;
  core::ConvertResult conversion;
  /// Per-pass instrumentation for the pipeline that ran (--pass-timings).
  telemetry::PipelineTrace trace;
  /// Set when the pipeline included the `codegen` pass.
  std::optional<codegen::SimdProgram> prog;
};

/// Full front-half configuration: the pass list and the options it reads.
struct PipelineOptions {
  /// Options for the convert pass's engine call. Leave `compress` and
  /// `time_split` unset (convert() throws pass::PipelineError otherwise):
  /// the `compress` and `time-split` passes in `pipeline` select them.
  core::ConvertOptions convert;
  /// Options for the `codegen` pass, when the pipeline includes it.
  codegen::CodegenOptions codegen;
  /// Retry under compression when plain conversion explodes (DESIGN.md §4).
  bool adaptive = false;
  /// When non-empty, write the conversion's ConvertStats as JSON to this
  /// path after a successful conversion ("-" = stdout). Schema: see
  /// core::to_json / DESIGN.md §5 (--trace-convert in mscc).
  std::string trace_convert_path;
  /// The pass list (--pass-pipeline, or pass::shorthand_pipeline of the
  /// stage shorthands). Empty = the default pipeline.
  std::vector<std::string> pipeline;
  /// Pass names removed after resolution (--disable-pass).
  std::vector<std::string> disabled;
  /// Run the structural invariant checkers after every pass
  /// (--verify-each); failures raise pass::PipelineError naming the pass.
  bool verify_each = false;
  /// When non-empty, write the pipeline's telemetry JSON here
  /// ("-" = stdout); schema in DESIGN.md §9 (--pass-timings in mscc).
  std::string pass_timings_path;
  /// Chrome-trace sink for the pipeline run (null = tracing off). The
  /// PassManager emits one wall-clock span per pass and the convert pass
  /// adds its phase breakdown (--trace-chrome in mscc; DESIGN.md §10).
  telemetry::TraceSink* trace_sink = nullptr;
};

/// The pass list `options` describes: `options.pipeline`, or the default
/// pipeline when that is empty.
std::vector<std::string> resolve_pipeline(const PipelineOptions& options);

Converted convert(const std::string& source, const ir::CostModel& cost = {},
                  const PipelineOptions& options = {});

}  // namespace msc::driver

#endif  // MSC_DRIVER_PIPELINE_HPP
