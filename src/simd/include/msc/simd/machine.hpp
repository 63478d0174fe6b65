#ifndef MSC_SIMD_MACHINE_HPP
#define MSC_SIMD_MACHINE_HPP

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "msc/codegen/program.hpp"
#include "msc/codegen/translate.hpp"
#include "msc/ir/cost.hpp"
#include "msc/ir/exec.hpp"
#include "msc/mimd/machine.hpp"  // RunConfig, SimdEngine, Timeout
#include "msc/simd/lanes.hpp"
#include "msc/support/simd_isa.hpp"

namespace msc::telemetry {
class TraceSink;
}

namespace msc::simd {

struct SimdStats {
  /// Cycles consumed by the single control unit (everything is serialized
  /// through it: guarded bodies, pc updates, global-ors, dispatches).
  std::int64_t control_cycles = 0;
  /// Σ op-cost × enabled PEs — actual work done.
  std::int64_t busy_pe_cycles = 0;
  /// Σ op-cost × alive PEs — work capacity offered while code ran.
  std::int64_t offered_pe_cycles = 0;
  std::int64_t meta_transitions = 0;
  std::int64_t global_ors = 0;
  /// Enable-mask reprogrammings (one per `if (pc & …)` boundary).
  std::int64_t guard_switches = 0;
  std::int64_t spawns = 0;
  /// PaperPrune/fold-collision transitions resolved via the member index
  /// instead of the hashed switch (see DESIGN.md §2.6 discussion).
  std::int64_t rescue_transitions = 0;
  /// Router traversals (parallel-subscript loads/stores through the
  /// inter-PE network). Counted in the shared MemoryBus layer, so both
  /// engines agree by construction.
  std::int64_t router_ops = 0;

  /// PE utilization while executing meta-state bodies (§2.4 motivates
  /// time splitting with "up to 95% of its processor cycles ... waiting").
  double utilization() const {
    return offered_pe_cycles == 0
               ? 1.0
               : static_cast<double>(busy_pe_cycles) /
                     static_cast<double>(offered_pe_cycles);
  }

  bool operator==(const SimdStats& o) const = default;
};

/// Per-meta-state execution profile (§2.4's utilization lens applied per
/// state rather than per run). Accumulated in the engine-independent
/// step() skeleton from SimdStats deltas, so (a) both engines produce
/// bit-identical profiles and (b) summing any cycle field over all states
/// reproduces the run's SimdStats total exactly — `mscprof` and the
/// observability tests rely on both properties.
struct StateProfile {
  /// Power-of-two buckets over the enabled-PE count at state entry:
  /// bucket 0 ↔ 0 PEs, bucket k ↔ [2^(k-1), 2^k), last bucket open.
  static constexpr int kEnabledBuckets = 16;

  std::int64_t visits = 0;
  std::int64_t enabled_min = 0;  ///< fewest PEs alive at any entry
  std::int64_t enabled_max = 0;
  std::int64_t enabled_sum = 0;  ///< Σ over visits (mean = sum / visits)
  std::int64_t control_cycles = 0;   ///< broadcast + transition cost here
  std::int64_t busy_pe_cycles = 0;
  std::int64_t offered_pe_cycles = 0;
  std::int64_t global_ors = 0;
  std::int64_t guard_switches = 0;
  std::int64_t router_ops = 0;
  std::int64_t spawns = 0;
  std::array<std::int64_t, kEnabledBuckets> enabled_hist{};

  double utilization() const {
    return offered_pe_cycles == 0
               ? 1.0
               : static_cast<double>(busy_pe_cycles) /
                     static_cast<double>(offered_pe_cycles);
  }

  bool operator==(const StateProfile&) const = default;
};

/// Observer for meta-state execution (tracing/visualization). Callbacks
/// fire synchronously from run()/step(); implementations must not mutate
/// the machine. Attaching a tracer never changes the run's statistics:
/// both engines compute tracer inputs lazily (machine_test asserts this).
class SimdTracer {
 public:
  virtual ~SimdTracer() = default;
  /// Before a meta state's code runs: which MIMD states are occupied and
  /// how many PEs are alive.
  virtual void on_state(core::MetaId id, const DynBitset& occupancy,
                        std::int64_t alive) = 0;
  /// After the transition is resolved (to == kNoMeta on exit).
  virtual void on_transition(core::MetaId from, core::MetaId to,
                             const DynBitset& apc) = 0;
};

/// MasPar-MP-1-like SIMD array executing a meta-state SIMD program: one
/// control unit walking the automaton, N PEs holding only data (§1.2: "PEs
/// merely hold data"), per-PE enable bits derived from the pc guards, a
/// global-or network for aggregate pcs, and a router for parallel
/// subscripts. Per-PE program memory footprint is zero by construction.
///
/// This is the engine-independent interface plus the shared substrate
/// (stats, visit counts, the step() skeleton and the transition-table
/// lookup); PE and mono memory are mimd::MachineMemory's, the store every
/// machine shares. Two engines implement the per-broadcast hot path — see
/// mimd::SimdEngine and make_machine(); their observable behaviour is
/// bit-identical by contract (simd_differential_test).
class SimdMachine : public mimd::MachineMemory {
 public:
  SimdMachine(const codegen::SimdProgram& program, const ir::CostModel& cost,
              const mimd::RunConfig& config);
  ~SimdMachine() override = default;

  void run();

  /// Publish run aggregates into MetricsRegistry::global() (mscc
  /// --metrics). run() calls this on clean completion; callers driving
  /// step() manually may call it themselves. Idempotent per machine.
  void publish_metrics();

  /// Attach an execution observer (nullptr to detach).
  void set_tracer(SimdTracer* tracer) { tracer_ = tracer; }

  /// Attach a Chrome-trace sink (nullptr to detach): every step() emits
  /// one complete event on the deterministic cycle timeline
  /// (telemetry::TraceSink::kSimdPid) carrying enabled-PE count, occupied
  /// meta-state members, and the step's global-or/router/cycle deltas.
  /// With no sink attached the per-step cost is one pointer test; stats,
  /// memories, and visits are unchanged either way (pinned by
  /// simd_differential_test and bench_scaling's T-OBS gate).
  void set_trace_sink(telemetry::TraceSink* sink) { trace_sink_ = sink; }

  /// Start accumulating per-meta-state profiles (mscc --profile-simd).
  /// Call before run(); idempotent. Profiling never changes observable
  /// execution — it only reads SimdStats deltas at step boundaries.
  void enable_profiling() {
    profile_.assign(prog_.states.size(), StateProfile{});
    profiling_ = true;
  }
  bool profiling() const { return profiling_; }
  /// Per-meta-state profiles (empty unless enable_profiling() was called).
  const std::vector<StateProfile>& profile() const { return profile_; }

  /// Execute one meta state and take its transition. Returns false once
  /// the automaton exits (nothing executed then). Lets examples/benches
  /// trace occupancy over time.
  bool step();
  core::MetaId current_state() const { return cur_; }
  virtual std::int64_t alive_count() const;
  /// Machine width (RunConfig::nprocs) — partition bookkeeping for the
  /// co-scheduler and reporting tools.
  std::int64_t nprocs() const { return config_.nprocs; }
  /// Resolved host ISA executing whole-lane broadcasts. Always Scalar for
  /// the reference engine (it is the scalar differential oracle).
  SimdIsa isa() const { return isa_; }

  /// "reference" or "codegen" (--trace-simd, bench labels).
  virtual const char* engine_name() const = 0;

  const SimdStats& stats() const { return stats_; }
  bool ever_ran(std::int64_t proc) const {
    return pes_[static_cast<std::size_t>(proc)].ever_ran;
  }
  /// Per-meta-state execution counts (benches, --trace-simd).
  const std::vector<std::int64_t>& state_visits() const { return visits_; }

  // MemoryBus: router traversals count into SimdStats::router_ops, so
  // every engine agrees on them by construction.
  Value route_load(std::int64_t proc, std::int64_t addr) override;
  void route_store(std::int64_t proc, std::int64_t addr, Value v) override;

 protected:
  /// Per-PE control state only: local memory and operand stacks live in
  /// the lane-major store (MachineMemory::store_), so the engines own no
  /// PE memory and whole-lane execution needs no per-PE indirection.
  struct Pe {
    ir::StateId pc = ir::kNoState;
    ir::StateId next_pc = ir::kNoState;
    bool ever_ran = false;
  };

  bool alive(const Pe& pe) const { return pe.pc != ir::kNoState; }

  /// Run one meta state's guarded broadcasts and commit the pc updates.
  virtual void exec_state(const codegen::MetaCode& mc) = 0;
  /// Produce the post-exec aggregate pc into *apc (a single computation
  /// per step, shared by the transition and the tracer) and resolve the
  /// exit transition via resolve_transition().
  virtual core::MetaId next_state(const codegen::MetaCode& mc,
                                  DynBitset* apc) = 0;
  /// Is any PE running? (pre-first-step emptiness check)
  virtual bool any_alive() const;
  /// Current occupancy for the tracer (only called when a tracer is set).
  virtual DynBitset occupancy() const { return aggregate_pc(); }

  /// Transition-table lookup shared by both engines: charges the static
  /// transition cost, counts global-ors, and resolves Direct/Multiway/
  /// rescue exactly as §3.2.1–3.2.4 prescribe.
  core::MetaId resolve_transition(const codegen::MetaCode& mc,
                                  const DynBitset& apc);
  /// O(nprocs) occupancy scan (reference path; tracer fallback).
  DynBitset aggregate_pc() const;

  const codegen::SimdProgram& prog_;
  ir::CostModel cost_;
  mimd::RunConfig config_;
  SimdIsa isa_ = SimdIsa::Scalar;
  std::vector<Pe> pes_;
  SimdStats stats_;
  std::vector<std::int64_t> visits_;
  /// Attribute the stats delta of one executed step (state entry through
  /// transition) to `state`: profile accumulation and/or one trace event.
  void record_step(core::MetaId state, const SimdStats& pre,
                   std::int64_t pre_alive);

  core::MetaId cur_ = core::kNoMeta;  ///< next meta state step() will run
  bool finished_ = false;
  bool metrics_published_ = false;
  SimdTracer* tracer_ = nullptr;
  telemetry::TraceSink* trace_sink_ = nullptr;
  std::vector<StateProfile> profile_;
  bool profiling_ = false;
};

/// The original scalar implementation, kept compiled in forever as the
/// differential oracle: every broadcast scans all nprocs PEs against the
/// guard and the aggregate pc is a full rescan. The only indexed structure
/// it keeps is the spawn free-pool (`free_`), because the historical
/// from-zero rescan it replaces was O(nprocs) per spawn — quadratic on
/// spawn-heavy kernels — without being any more obviously correct:
/// first() IS the lowest-numbered free PE of §3.2.5's linear search.
class ReferenceSimdMachine final : public SimdMachine {
 public:
  ReferenceSimdMachine(const codegen::SimdProgram& program,
                       const ir::CostModel& cost,
                       const mimd::RunConfig& config);
  const char* engine_name() const override { return "reference"; }

 protected:
  void exec_state(const codegen::MetaCode& mc) override;
  core::MetaId next_state(const codegen::MetaCode& mc,
                          DynBitset* apc) override;

 private:
  /// PEs a spawn may claim: pc == none, no pending claim, and fresh per
  /// `reuse_halted_pes`. Maintained at the per-meta-state pc commit.
  DynBitset free_;
};

/// Translation-cache engine, the default (DESIGN.md §7, §11). At
/// construction the program body is compiled — through the process-global
/// cache in codegen/translate.hpp, so repeat runs of the same automaton
/// skip the work — into fused same-guard groups of constant-folded host
/// ops. exec_state resolves each group's guard once, charges the group's
/// precomputed cycle aggregates, and runs the folded stream either
/// whole-lane (vector ISA, dense group) or op-major (threaded dispatch)
/// over a flat enabled-PE list, in the reference engine's PE order.
/// Observable behaviour — memories, SimdStats, profiles, visits, tracer
/// streams — stays bit-identical to the reference oracle by construction.
///
/// Occupancy index (DESIGN.md §11.1), maintained between meta states:
///   occ_[s] == { i | pes_[i].pc == s }, occ_count_[s] == |occ_[s]|,
///   apc_.test(s) == (occ_count_[s] > 0), alive_ == Σ occ_count_,
///   pes_[i].next_pc == pes_[i].pc, and free_ holds exactly the PEs a
///   spawn may claim. Within exec_state, pcs are frozen (lockstep
///   semantics) — only next_pc changes, each changed PE recorded once in
///   moved_ — so host cost per group is O(enabled PEs + guard states).
class CodegenSimdMachine final : public SimdMachine, protected LaneHost {
 public:
  CodegenSimdMachine(const codegen::SimdProgram& program,
                     const ir::CostModel& cost, const mimd::RunConfig& config);
  const char* engine_name() const override { return "codegen"; }
  std::int64_t alive_count() const override { return alive_; }

 protected:
  void exec_state(const codegen::MetaCode& mc) override;
  core::MetaId next_state(const codegen::MetaCode& mc,
                          DynBitset* apc) override;
  bool any_alive() const override { return alive_ > 0; }
  DynBitset occupancy() const override { return apc_; }

  /// LaneHost: execute TOps [first, end) of the current group for every
  /// masked PE, op-outer / PE-inner.
  void lane_scalar_span(std::int32_t first, std::int32_t end,
                        const std::uint64_t* mask,
                        std::size_t nwords) override;
  /// LaneHost: next-pc write with moved_ bookkeeping.
  void lane_set_next_pc(std::int64_t pe, ir::StateId target) override;

 private:
  /// Fill enabled_scratch_ with the PEs of the occupied guard states in
  /// occupied_scratch_, in ascending PE id (the reference engine's
  /// 0..nprocs scan order).
  void gather_enabled();
  /// OR the occ_ words of the states in occupied_scratch_ into lane_mask_.
  void build_lane_mask();
  /// Dispatch folded host ops [op, end) over enabled_scratch_ (the whole
  /// group on the flat-list path; a ScalarSpan subrange on the lane path).
  void run_ops(const codegen::TOp* op, const codegen::TOp* end);
  const LanePlan& plan_for(core::MetaId id, const codegen::TransState& ts);
  LaneExecutor& lane_executor();

  /// Apply the next_pc of every PE in moved_, maintaining occ_/apc_/
  /// alive_/free_ incrementally (end of each meta state).
  void commit();
  /// §3.2.5 spawn: claim the lowest free PE for a child entering
  /// `child_entry`; `parent` continues at `cont`. Exact fault and
  /// child-choice semantics of the reference engine's linear search.
  void spawn_pe(Pe& parent, std::int64_t parent_id, ir::StateId child_entry,
                ir::StateId cont);

  std::shared_ptr<const codegen::TransProgram> trans_;
  /// occ_[s] = PE ids whose pc == s (bit order doubles as the PE-id
  /// execution order the reference engine uses); occ_count_[s] = |occ_[s]|.
  std::vector<DynBitset> occ_;
  std::vector<std::int64_t> occ_count_;
  /// Incremental aggregate pc: bit s set iff occ_count_[s] > 0.
  DynBitset apc_;
  std::int64_t alive_ = 0;
  /// PEs a spawn may claim (lowest-first; see ReferenceSimdMachine::free_).
  DynBitset free_;
  /// PEs with a pending next_pc ≠ pc this meta state (each PE executes at
  /// most one pc-writing op per state, so entries are unique).
  std::vector<std::int64_t> moved_;
  /// Count-limited iterator over one occupied state's PE set: `left`
  /// bounds the traversal so bits() never pays the trailing zero-word
  /// scan, keeping per-group host cost proportional to enabled PEs.
  struct OccCursor {
    const DynBitset* pes;
    std::size_t pos;
    std::int64_t left;
  };

  // Scratch reused across groups (no per-group allocation).
  std::vector<ir::StateId> occupied_scratch_;
  std::vector<OccCursor> cursor_scratch_;
  std::vector<std::int64_t> enabled_scratch_;
  /// Whole-lane enable mask (store_.mask_words() words).
  std::vector<std::uint64_t> lane_mask_;
  /// Lazily lowered lane plans, indexed by meta-state id (per machine —
  /// the shared translation cache stays RunConfig/ISA-independent).
  std::vector<std::unique_ptr<LanePlan>> lane_plans_;
  std::unique_ptr<LaneExecutor> lane_exec_;
  const codegen::TGroup* cur_group_ = nullptr;  ///< span source
};

/// Build the engine selected by `config.engine`.
std::unique_ptr<SimdMachine> make_machine(const codegen::SimdProgram& program,
                                          const ir::CostModel& cost,
                                          const mimd::RunConfig& config);

/// Parse "reference"/"codegen" (mscc --simd-engine, the wire and manifest
/// `engine` fields); throws std::invalid_argument on anything else.
mimd::SimdEngine parse_engine(const std::string& name);
/// Canonical name of an engine ("reference"/"codegen").
const char* engine_name(mimd::SimdEngine engine);

/// JSON for --trace-simd / --profile-simd: engine name, cycle/utilization
/// stats, per-meta-state visit counts, and — when profiling was enabled —
/// a "profile" array with one StateProfile object per meta state. Schema
/// documented in DESIGN.md §7 and §10.
std::string to_json(const SimdMachine& machine);

}  // namespace msc::simd

#endif  // MSC_SIMD_MACHINE_HPP
