// Engine-independent SIMD machine substrate: construction, the step()
// skeleton, and the §3.2 transition-table lookup. The two per-broadcast
// hot paths live in reference.cpp and codegen_engine.cpp.
#include "msc/simd/machine.hpp"

#include <cstdio>
#include <stdexcept>

#include "msc/support/coverage.hpp"
#include "msc/support/metrics.hpp"
#include "msc/support/str.hpp"
#include "msc/support/trace.hpp"

namespace msc::simd {

using codegen::MetaCode;
using codegen::TransKind;
using core::kNoMeta;
using core::MetaId;
using ir::kNoState;
using ir::MachineFault;

SimdMachine::SimdMachine(const codegen::SimdProgram& program,
                         const ir::CostModel& cost, const mimd::RunConfig& config)
    : MachineMemory(config), prog_(program), cost_(cost), config_(config) {
  // Resolve the host execution backend up front so an unavailable explicit
  // request faults at construction, like any other bad RunConfig.
  try {
    isa_ = resolve_simd_isa(config_.simd_isa);
  } catch (const std::invalid_argument& e) {
    throw MachineFault(e.what());
  }
  pes_.resize(static_cast<std::size_t>(config_.nprocs));
  visits_.assign(prog_.states.size(), 0);
  for (std::int64_t i = 0; i < config_.nprocs; ++i) {
    Pe& pe = pes_[static_cast<std::size_t>(i)];
    if (i < config_.active()) {
      // All initial PEs begin in the MIMD start state (SPMD restriction).
      // The start meta state has exactly that one member.
      const DynBitset& members = prog_.states[prog_.start].members;
      pe.pc = static_cast<ir::StateId>(members.first());
      pe.ever_ran = true;
    }
  }
}

Value SimdMachine::route_load(std::int64_t proc, std::int64_t addr) {
  ++stats_.router_ops;
  return MachineMemory::route_load(proc, addr);
}
void SimdMachine::route_store(std::int64_t proc, std::int64_t addr, Value v) {
  ++stats_.router_ops;
  MachineMemory::route_store(proc, addr, v);
}

DynBitset SimdMachine::aggregate_pc() const {
  DynBitset apc(prog_.mimd_states);
  for (const Pe& pe : pes_)
    if (pe.pc != kNoState) apc.set(pe.pc);
  return apc;
}

std::int64_t SimdMachine::alive_count() const {
  std::int64_t n = 0;
  for (const Pe& pe : pes_)
    if (pe.pc != kNoState) ++n;
  return n;
}

bool SimdMachine::any_alive() const {
  for (const Pe& pe : pes_)
    if (pe.pc != kNoState) return true;
  return false;
}

MetaId SimdMachine::resolve_transition(const MetaCode& mc,
                                       const DynBitset& apc) {
  stats_.control_cycles += prog_.transition_cost(mc, cost_);
  if (mc.needs_apc || mc.trans == TransKind::Multiway) ++stats_.global_ors;

  if (apc.empty()) return kNoMeta;  // every process finished: exit

  DynBitset key = prog_.transition_key(apc);
  switch (mc.trans) {
    case TransKind::Direct: {
      const DynBitset& tm = prog_.states[mc.direct_target].members;
      if (key.is_subset_of(tm)) return mc.direct_target;
      break;  // occupancy left the expected set (e.g. everyone reached a
              // barrier out of a PaperPrune direct chain): try the rescue
    }
    case TransKind::Multiway: {
      std::int32_t idx = mc.sw.lookup(key.fold64());
      if (idx >= 0 && mc.case_keys[static_cast<std::size_t>(idx)] == key)
        return mc.case_targets[static_cast<std::size_t>(idx)];
      if (mc.fallback != kNoMeta) return mc.fallback;
      break;  // fall through to the rescue lookup
    }
    case TransKind::Exit:
      break;
  }
  // Rescue: resolve by exact member set (PaperPrune barrier/halt corner
  // cases and fold collisions; see DESIGN.md).
  auto it = prog_.index.find(key);
  if (it != prog_.index.end()) {
    ++stats_.rescue_transitions;
    coverage_hit(cov::kSimdRescue, 1);
    return it->second;
  }
  throw MachineFault(cat("no meta-state transition for aggregate pc ",
                         apc.to_string(), " from meta state ", mc.id));
}

bool SimdMachine::step() {
  if (finished_) return false;
  if (cur_ == kNoMeta) {  // first step
    cur_ = prog_.start;
    if (!any_alive()) {
      finished_ = true;
      return false;
    }
  }
  const MetaCode& mc = prog_.states[cur_];
  ++visits_[cur_];
  // Tracer inputs are computed lazily: an untraced run pays no occupancy
  // or alive-count work here in either engine.
  if (tracer_) tracer_->on_state(cur_, occupancy(), alive_count());
  // Observability snapshot: deltas against `pre` are attributed to this
  // state after the transition resolves. One bool test when detached.
  const bool observe = profiling_ || trace_sink_ != nullptr;
  SimdStats pre;
  std::int64_t pre_alive = 0;
  if (observe) {
    pre = stats_;
    pre_alive = alive_count();
  }
  const MetaId executing = cur_;
  exec_state(mc);
  ++stats_.meta_transitions;
  if (stats_.meta_transitions > config_.max_blocks) throw mimd::Timeout();
  // One aggregate-pc computation per step, produced by next_state() and
  // reused for the tracer (the seed engine recomputed it three times).
  DynBitset apc;
  MetaId next = next_state(mc, &apc);
  if (tracer_) tracer_->on_transition(cur_, next, apc);
  if (observe) record_step(executing, pre, pre_alive);
  if (coverage_sink())
    coverage_hit(cov::kSimdTransitionKind, static_cast<std::uint64_t>(mc.trans));
  if (next == kNoMeta) {
    finished_ = true;
    // Fuzzer feature coverage: the finished run's guard-switch / spawn /
    // transition / global-or shape, bucketed (DESIGN.md §8).
    if (coverage_sink())
      coverage_hit(
          cov::kSimdRunShape,
          (std::uint64_t{coverage_bucket(
               static_cast<std::uint64_t>(stats_.guard_switches))}
           << 24) |
              (std::uint64_t{coverage_bucket(
                   static_cast<std::uint64_t>(stats_.spawns))}
               << 16) |
              (std::uint64_t{coverage_bucket(
                   static_cast<std::uint64_t>(stats_.meta_transitions))}
               << 8) |
              coverage_bucket(static_cast<std::uint64_t>(stats_.global_ors)));
    return false;
  }
  cur_ = next;
  return true;
}

void SimdMachine::record_step(MetaId state, const SimdStats& pre,
                              std::int64_t pre_alive) {
  const std::int64_t d_control = stats_.control_cycles - pre.control_cycles;
  const std::int64_t d_busy = stats_.busy_pe_cycles - pre.busy_pe_cycles;
  const std::int64_t d_offered =
      stats_.offered_pe_cycles - pre.offered_pe_cycles;
  const std::int64_t d_gor = stats_.global_ors - pre.global_ors;
  const std::int64_t d_guard = stats_.guard_switches - pre.guard_switches;
  const std::int64_t d_router = stats_.router_ops - pre.router_ops;
  const std::int64_t d_spawns = stats_.spawns - pre.spawns;
  if (profiling_) {
    StateProfile& p = profile_[static_cast<std::size_t>(state)];
    if (p.visits == 0 || pre_alive < p.enabled_min) p.enabled_min = pre_alive;
    if (pre_alive > p.enabled_max) p.enabled_max = pre_alive;
    ++p.visits;
    p.enabled_sum += pre_alive;
    std::uint32_t bucket =
        coverage_bucket(static_cast<std::uint64_t>(pre_alive));
    if (bucket >= StateProfile::kEnabledBuckets)
      bucket = StateProfile::kEnabledBuckets - 1;
    ++p.enabled_hist[bucket];
    p.control_cycles += d_control;
    p.busy_pe_cycles += d_busy;
    p.offered_pe_cycles += d_offered;
    p.global_ors += d_gor;
    p.guard_switches += d_guard;
    p.router_ops += d_router;
    p.spawns += d_spawns;
  }
  if (trace_sink_) {
    // Deterministic simulated timeline: ts/dur are control cycles, so the
    // file is byte-stable across hosts (golden-pinned in mscprof_test).
    trace_sink_->complete(
        cat("ms", state), "meta-state", telemetry::TraceSink::kSimdPid,
        /*tid=*/0, /*ts_us=*/pre.control_cycles, /*dur_us=*/d_control,
        {{"state", state},
         {"enabled_pes", pre_alive},
         {"occupied_states", static_cast<std::int64_t>(occupancy().count())},
         {"busy_pe_cycles", d_busy},
         {"offered_pe_cycles", d_offered},
         {"global_ors", d_gor},
         {"router_ops", d_router},
         {"guard_switches", d_guard},
         {"spawns", d_spawns}});
  }
}

void SimdMachine::run() {
  while (step()) {
  }
  publish_metrics();
}

void SimdMachine::publish_metrics() {
  if (metrics_published_) return;
  metrics_published_ = true;
  // Resolve each metric once per process (the registry hands back stable
  // references), then publish with relaxed atomic adds.
  using telemetry::Counter;
  using telemetry::Histogram;
  using telemetry::MetricsRegistry;
  MetricsRegistry& reg = MetricsRegistry::global();
  static Counter& runs = reg.counter("simd.runs");
  static Counter& transitions = reg.counter("simd.meta_transitions");
  static Counter& control = reg.counter("simd.control_cycles");
  static Counter& busy = reg.counter("simd.busy_pe_cycles");
  static Counter& offered = reg.counter("simd.offered_pe_cycles");
  static Counter& gors = reg.counter("simd.global_ors");
  static Counter& routers = reg.counter("simd.router_ops");
  static Counter& rescues = reg.counter("simd.rescue_transitions");
  static Histogram& util = reg.histogram(
      "simd.utilization_pct", {10, 20, 30, 40, 50, 60, 70, 80, 90});
  // PE-memory high water: local cells the run wrote, of local_mem_cells.
  static Histogram& cells_used =
      reg.histogram("simd.pe_cells_used", Histogram::pow2_bounds(13));
  static telemetry::Gauge& isa_width = reg.gauge("simd.isa_lane_width");
  isa_width.set(simd_isa_lane_width(isa_));
  runs.add();
  transitions.add(stats_.meta_transitions);
  control.add(stats_.control_cycles);
  busy.add(stats_.busy_pe_cycles);
  offered.add(stats_.offered_pe_cycles);
  gors.add(stats_.global_ors);
  routers.add(stats_.router_ops);
  rescues.add(stats_.rescue_transitions);
  util.record(static_cast<std::int64_t>(stats_.utilization() * 100.0));
  cells_used.record(store_.used());
}

std::unique_ptr<SimdMachine> make_machine(const codegen::SimdProgram& program,
                                          const ir::CostModel& cost,
                                          const mimd::RunConfig& config) {
  if (config.engine == mimd::SimdEngine::Reference)
    return std::make_unique<ReferenceSimdMachine>(program, cost, config);
  return std::make_unique<CodegenSimdMachine>(program, cost, config);
}

mimd::SimdEngine parse_engine(const std::string& name) {
  if (name == "reference") return mimd::SimdEngine::Reference;
  if (name == "codegen") return mimd::SimdEngine::Codegen;
  throw std::invalid_argument(cat("unknown SIMD engine '", name,
                                  "' (expected reference|codegen)"));
}

const char* engine_name(mimd::SimdEngine engine) {
  switch (engine) {
    case mimd::SimdEngine::Reference: return "reference";
    case mimd::SimdEngine::Codegen: return "codegen";
  }
  return "?";
}

std::string to_json(const SimdMachine& machine) {
  const SimdStats& s = machine.stats();
  char util[32];
  std::snprintf(util, sizeof util, "%.6f", s.utilization());
  std::string json = cat(
      "{\n"
      "  \"engine\": \"", machine.engine_name(), "\",\n"
      "  \"isa\": \"", simd_isa_name(machine.isa()), "\",\n"
      "  \"isa_lane_width\": ", simd_isa_lane_width(machine.isa()), ",\n"
      "  \"meta_states\": ", machine.state_visits().size(), ",\n"
      "  \"meta_transitions\": ", s.meta_transitions, ",\n"
      "  \"control_cycles\": ", s.control_cycles, ",\n"
      "  \"busy_pe_cycles\": ", s.busy_pe_cycles, ",\n"
      "  \"offered_pe_cycles\": ", s.offered_pe_cycles, ",\n"
      "  \"utilization\": ", util, ",\n"
      "  \"guard_switches\": ", s.guard_switches, ",\n"
      "  \"global_ors\": ", s.global_ors, ",\n"
      "  \"rescue_transitions\": ", s.rescue_transitions, ",\n"
      "  \"router_ops\": ", s.router_ops, ",\n"
      "  \"spawns\": ", s.spawns, ",\n"
      "  \"visits\": [");
  const std::vector<std::int64_t>& visits = machine.state_visits();
  for (std::size_t i = 0; i < visits.size(); ++i)
    json += cat(i ? ", " : "", visits[i]);
  json += "]";
  if (machine.profiling()) {
    const std::vector<StateProfile>& prof = machine.profile();
    json += ",\n  \"profile\": [\n";
    for (std::size_t i = 0; i < prof.size(); ++i) {
      const StateProfile& p = prof[i];
      std::snprintf(util, sizeof util, "%.6f", p.utilization());
      json += cat(
          "    {\"state\": ", i,
          ", \"visits\": ", p.visits,
          ", \"enabled_min\": ", p.visits ? p.enabled_min : 0,
          ", \"enabled_max\": ", p.enabled_max,
          ", \"enabled_sum\": ", p.enabled_sum,
          ",\n     \"control_cycles\": ", p.control_cycles,
          ", \"busy_pe_cycles\": ", p.busy_pe_cycles,
          ", \"offered_pe_cycles\": ", p.offered_pe_cycles,
          ", \"utilization\": ", util,
          ",\n     \"global_ors\": ", p.global_ors,
          ", \"guard_switches\": ", p.guard_switches,
          ", \"router_ops\": ", p.router_ops,
          ", \"spawns\": ", p.spawns,
          ",\n     \"enabled_hist\": [");
      for (int b = 0; b < StateProfile::kEnabledBuckets; ++b)
        json += cat(b ? ", " : "", p.enabled_hist[static_cast<std::size_t>(b)]);
      json += cat("]}", i + 1 < prof.size() ? "," : "", "\n");
    }
    json += "  ]";
  }
  json += "\n}\n";
  return json;
}

}  // namespace msc::simd
