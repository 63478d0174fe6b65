#include "msc/driver/pipeline.hpp"

#include "msc/driver/runner.hpp"
#include "msc/frontend/parser.hpp"
#include "msc/ir/build.hpp"
#include "msc/pass/pass.hpp"

namespace msc::driver {

Compiled front(const std::string& source) {
  Compiled out;
  out.program = frontend::parse_mimdc(source);
  out.layout = frontend::analyze(*out.program, out.diags);
  out.graph = ir::build_state_graph(*out.program, out.layout);
  return out;
}

Compiled compile(const std::string& source) {
  Compiled out = front(source);
  pass::ManagerOptions mo;
  mo.pipeline = {"simplify", "peephole"};
  pass::PassManager pm(std::move(mo));
  pass::PipelineState st;
  st.graph = std::move(out.graph);
  pm.run(st);
  out.graph = std::move(st.graph);
  return out;
}

std::vector<std::string> resolve_pipeline(const PipelineOptions& options) {
  return options.pipeline.empty() ? pass::default_pipeline() : options.pipeline;
}

Converted convert(const std::string& source, const ir::CostModel& cost,
                  const PipelineOptions& options) {
  Converted out;
  out.compiled = front(source);

  pass::ManagerOptions mo;
  mo.pipeline = resolve_pipeline(options);
  mo.disabled = options.disabled;
  mo.verify_each = options.verify_each;
  pass::PassManager pm(std::move(mo));

  pass::PipelineState st;
  st.graph = std::move(out.compiled.graph);
  st.cost = cost;
  st.options = options.convert;
  st.adaptive = options.adaptive;
  st.cgopts = options.codegen;
  st.trace_sink = options.trace_sink;

  out.trace = pm.run(st);
  out.compiled.graph = std::move(st.graph);
  if (!st.conversion)
    throw pass::PipelineError("pipeline contains no convert pass");
  out.conversion = std::move(*st.conversion);
  out.prog = std::move(st.prog);
  out.trace.sections.emplace_back("convert", core::to_json(out.conversion.stats));

  if (!options.trace_convert_path.empty())
    write_convert_trace(out.conversion.stats, options.trace_convert_path);
  if (!options.pass_timings_path.empty())
    write_pass_timings(out.trace, options.pass_timings_path);
  return out;
}

}  // namespace msc::driver
