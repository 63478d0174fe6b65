// Pipeline resolution, invariant-order validation, and the instrumented
// run loop.
#include <algorithm>
#include <chrono>

#include "msc/pass/pass.hpp"
#include "msc/support/metrics.hpp"
#include "msc/support/str.hpp"
#include "msc/support/trace.hpp"

namespace msc::pass {

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string known_names() {
  std::vector<std::string> names;
  for (const Pass& p : registered_passes()) names.push_back(p.name);
  return join(names, ", ");
}

telemetry::Metrics snapshot(const PipelineState& st) {
  telemetry::Metrics m;
  m.mimd_states = static_cast<std::int64_t>(
      st.conversion ? st.conversion->graph.size() : st.graph.size());
  if (st.conversion) {
    m.meta_states =
        static_cast<std::int64_t>(st.conversion->automaton.num_states());
    m.meta_arcs =
        static_cast<std::int64_t>(st.conversion->automaton.num_arcs());
  }
  return m;
}

}  // namespace

PassManager::PassManager(ManagerOptions options) : options_(std::move(options)) {
  std::vector<std::string> names =
      options_.pipeline.empty() ? default_pipeline() : options_.pipeline;

  // --disable-pass names must exist (catching typos beats silence) and are
  // removed from the resolved list.
  for (const std::string& off : options_.disabled) {
    if (!find_pass(off))
      throw PipelineError(cat("cannot disable unknown pass '", off,
                              "' (registered: ", known_names(), ")"));
    names.erase(std::remove(names.begin(), names.end(), off), names.end());
  }
  if (names.empty()) throw PipelineError("empty pass pipeline");

  for (const std::string& name : names) {
    const Pass* p = find_pass(name);
    if (!p)
      throw PipelineError(cat("unknown pass '", name,
                              "' (registered: ", known_names(), ")"));
    for (const Pass& seen : passes_)
      if (seen.name == name)
        throw PipelineError(cat("pass '", name, "' appears twice"));
    passes_.push_back(*p);
  }

  // Declared stage invariants: IR and Config passes precede the (single)
  // convert pass; Automaton/Codegen passes follow it.
  bool converted = false;
  bool has_convert = false;
  for (const Pass& p : passes_) has_convert |= p.stage == Stage::Convert;
  for (const Pass& p : passes_) {
    switch (p.stage) {
      case Stage::IR:
        if (converted)
          throw PipelineError(cat("IR pass '", p.name,
                                  "' after the conversion stage: it could no "
                                  "longer affect the automaton"));
        break;
      case Stage::Config:
        if (converted)
          throw PipelineError(cat("config pass '", p.name,
                                  "' after the conversion stage it is meant "
                                  "to parameterize"));
        if (!has_convert)
          throw PipelineError(cat("config pass '", p.name,
                                  "' without a convert pass to configure"));
        break;
      case Stage::Convert:
        if (converted)
          throw PipelineError("pipeline contains more than one convert pass");
        converted = true;
        break;
      case Stage::Automaton:
      case Stage::Codegen:
        if (!converted)
          throw PipelineError(cat(to_string(p.stage), " pass '", p.name,
                                  "' before any convert pass: there is no "
                                  "automaton to transform"));
        break;
    }
  }
}

std::vector<std::string> PassManager::names() const {
  std::vector<std::string> out;
  for (const Pass& p : passes_) out.push_back(p.name);
  return out;
}

bool PassManager::contains(const std::string& name) const {
  for (const Pass& p : passes_)
    if (p.name == name) return true;
  return false;
}

void PassManager::verify(const std::string& pass_name,
                         const PipelineState& state) const {
  std::vector<std::string> problems = state.graph.validate();
  if (state.conversion) {
    std::vector<std::string> aut =
        state.conversion->automaton.validate(state.conversion->graph);
    problems.insert(problems.end(), aut.begin(), aut.end());
  }
  if (!problems.empty())
    throw PipelineError(cat("invariant violation after pass '", pass_name,
                            "': ", join(problems, "; ")));
}

telemetry::PipelineTrace PassManager::run(PipelineState& state) const {
  if (state.options.compress || state.options.time_split)
    throw PipelineError(
        "ConvertOptions compress/time_split are set by the compress and "
        "time-split passes; select those in the pass list instead");
  telemetry::PipelineTrace trace;
  telemetry::MetricsRegistry& reg = telemetry::MetricsRegistry::global();
  static telemetry::Counter& pass_runs = reg.counter("pass.runs");
  static telemetry::Counter& pipeline_runs = reg.counter("pass.pipelines");
  static telemetry::Histogram& pass_us = reg.histogram(
      "pass.seconds_us", telemetry::Histogram::pow2_bounds(24));
  const Clock::time_point t_total = Clock::now();
  for (const Pass& pass : passes_) {
    telemetry::PassRecord rec;
    rec.name = pass.name;
    rec.before = snapshot(state);
    telemetry::ScopedSpan span(state.trace_sink, pass.name, "pass");
    const Clock::time_point t0 = Clock::now();
    pass.run(state, rec.counters);
    rec.seconds = since(t0);
    rec.after = snapshot(state);
    span.arg("meta_states_after", rec.after.meta_states);
    span.arg("mimd_states_after", rec.after.mimd_states);
    pass_runs.add();
    pass_us.record(static_cast<std::int64_t>(rec.seconds * 1e6));
    // Per-pass cumulative wall time; names come from a closed registry, so
    // the lookup cost (a map find under an uncontended mutex, per pass
    // execution) is negligible next to the pass itself.
    reg.counter(cat("pass.", pass.name, ".us"))
        .add(static_cast<std::int64_t>(rec.seconds * 1e6));
    trace.passes.push_back(std::move(rec));
    if (options_.verify_each) verify(pass.name, state);
  }
  trace.total_seconds = since(t_total);
  pipeline_runs.add();
  return trace;
}

core::ConvertResult run_conversion_pipeline(
    const ir::StateGraph& graph, const ir::CostModel& cost,
    const std::vector<std::string>& pipeline, const core::ConvertOptions& base,
    bool adaptive) {
  ManagerOptions mo;
  mo.pipeline = pipeline;
  PassManager pm(std::move(mo));
  PipelineState st;
  st.graph = graph;
  st.cost = cost;
  st.options = base;
  st.adaptive = adaptive;
  pm.run(st);
  if (!st.conversion)
    throw PipelineError("pipeline contains no convert pass");
  return std::move(*st.conversion);
}

}  // namespace msc::pass
