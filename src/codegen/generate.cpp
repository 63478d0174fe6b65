#include <set>

#include "msc/codegen/program.hpp"
#include "msc/codegen/translate.hpp"
#include "msc/support/str.hpp"

namespace msc::codegen {

using core::kNoMeta;
using core::MetaAutomaton;
using core::MetaId;
using core::MetaState;
using ir::Block;
using ir::ExitKind;
using ir::StateGraph;
using ir::StateId;

DynBitset SimdProgram::transition_key(const DynBitset& apc) const {
  if (barrier_mode == core::BarrierMode::TrackOccupancy || barriers.empty())
    return apc;
  if (apc.is_subset_of(barriers)) return apc;
  return apc - barriers;
}

std::int64_t SimdProgram::transition_cost(const MetaCode& mc,
                                          const ir::CostModel& cost) const {
  switch (mc.trans) {
    case TransKind::Exit:
      return cost.halt;
    case TransKind::Direct:
      return (mc.fallthrough ? 0 : cost.jump) +
             (mc.needs_apc ? cost.global_or : 0);
    case TransKind::Multiway: {
      std::int64_t dispatch =
          mc.sw.is_linear()
              ? cost.case_test *
                    static_cast<std::int64_t>((mc.case_targets.size() + 1) / 2)
              : cost.hash_dispatch;
      return cost.global_or + dispatch + cost.jump;
    }
  }
  return 0;
}

namespace {

class Generator {
 public:
  Generator(const MetaAutomaton& aut, const StateGraph& graph,
            const ir::CostModel& cost, const CodegenOptions& opts)
      : aut_(aut), graph_(graph), cost_(cost), opts_(opts) {}

  SimdProgram run() {
    SimdProgram prog;
    prog.start = aut_.start;
    prog.barriers = aut_.barriers;
    prog.barrier_mode = aut_.barrier_mode;
    prog.compressed = aut_.compressed;
    prog.mimd_states = graph_.size();
    prog.index = aut_.index;
    prog.states.reserve(aut_.states.size());
    for (const MetaState& ms : aut_.states) {
      MetaCode mc = gen_state(ms);
      finalize_guards(mc);
      prog.states.push_back(std::move(mc));
    }
    // §4.2 straightening laid direct chains out consecutively; mark the
    // transitions that became fall-throughs.
    for (MetaCode& mc : prog.states)
      if (mc.trans == TransKind::Direct && mc.direct_target == mc.id + 1)
        mc.fallthrough = true;
    prog.body_hash = hash_body(prog);
    return prog;
  }

 private:
  static void finalize_guards(MetaCode& mc) {
    const DynBitset* prev = nullptr;
    for (SOp& op : mc.code) {
      op.guard_states.clear();
      for (std::size_t s : op.guard.bits())
        op.guard_states.push_back(static_cast<StateId>(s));
      op.new_guard = !prev || !(*prev == op.guard);
      prev = &op.guard;
    }
  }

  MetaCode gen_state(const MetaState& ms) {
    MetaCode mc;
    mc.id = ms.id;
    mc.members = ms.members;

    const bool all_barrier =
        !aut_.barriers.empty() && ms.members.is_subset_of(aut_.barriers);

    // ---- body: common subexpression induction over member threads (§3.1)
    std::vector<csi::Thread> threads;
    for (std::size_t s : ms.members.bits()) {
      const Block& b = graph_.at(static_cast<StateId>(s));
      if (b.barrier_wait && !all_barrier) continue;  // stalled: executes nothing
      if (b.body.empty()) continue;
      threads.push_back({s, &b.body});
    }
    csi::CsiOptions copts;
    copts.algorithm =
        opts_.use_csi ? opts_.csi_algorithm : csi::Algorithm::Serialize;
    copts.guard_bits = graph_.size();
    csi::CsiResult induced = csi::induce(threads, cost_, copts);
    mc.serialized_cost = induced.serialized_cost;
    mc.induced_cost = induced.induced_cost;
    mc.csi_lower_bound = induced.lower_bound;
    for (csi::GuardedOp& op : induced.schedule) {
      SOp s;
      s.kind = SOpKind::Data;
      s.guard = std::move(op.guard);
      s.instr = op.instr;
      mc.code.push_back(std::move(s));
    }

    // ---- per-member exits (the multiway branch inputs, §3.2)
    bool any_halt = false;
    for (std::size_t m : ms.members.bits()) {
      const Block& b = graph_.at(static_cast<StateId>(m));
      if (b.barrier_wait && !all_barrier) continue;  // waiting PEs keep pc
      SOp s;
      s.guard = DynBitset(graph_.size());
      s.guard.set(m);
      switch (b.exit) {
        case ExitKind::Halt:
          s.kind = SOpKind::HaltPc;
          any_halt = true;
          break;
        case ExitKind::Jump:
          s.kind = SOpKind::SetPc;
          s.a = b.target;
          break;
        case ExitKind::Branch:
          s.kind = SOpKind::CondSetPc;
          s.a = b.target;
          s.b = b.alt;
          break;
        case ExitKind::Spawn:
          s.kind = SOpKind::SpawnPc;
          s.a = b.target;
          s.b = b.alt;
          break;
      }
      mc.code.push_back(std::move(s));
    }

    // ---- transition encoding (§3.2.1–3.2.4)
    mc.fallback = ms.unconditional;
    if (ms.arcs.empty() && ms.unconditional == kNoMeta) {
      mc.trans = TransKind::Exit;
      mc.needs_apc = false;
      return mc;
    }
    if (ms.arcs.empty()) {
      mc.trans = TransKind::Direct;
      mc.direct_target = ms.unconditional;
      mc.needs_apc = any_halt;  // must notice "everyone finished"
      return mc;
    }
    if (ms.arcs.size() == 1 && ms.unconditional == kNoMeta && !any_halt) {
      // Deterministic single successor: plain goto, no global-or needed.
      mc.trans = TransKind::Direct;
      mc.direct_target = ms.arcs[0].second;
      mc.needs_apc = false;
      return mc;
    }
    mc.trans = TransKind::Multiway;
    mc.needs_apc = true;
    std::vector<std::uint64_t> folds;
    std::set<std::uint64_t> distinct;
    for (const auto& [key, target] : ms.arcs) {
      mc.case_keys.push_back(key);
      mc.case_targets.push_back(target);
      std::uint64_t f = key.fold64();
      folds.push_back(f);
      distinct.insert(f);
    }
    if (distinct.size() == folds.size()) {
      mc.sw = hash::build_switch(folds, opts_.hash_options);
    } else {
      // >64 MIMD states with colliding folds: fall back to a compare
      // chain; the executor verifies exact keys either way.
      hash::HashFn fn;
      fn.kind = hash::HashFn::Kind::Linear;
      mc.sw.fn = fn;
      mc.sw.keys = folds;
    }
    return mc;
  }

  const MetaAutomaton& aut_;
  const StateGraph& graph_;
  const ir::CostModel& cost_;
  const CodegenOptions& opts_;
};

}  // namespace

SimdProgram generate(const MetaAutomaton& automaton, const StateGraph& graph,
                     const ir::CostModel& cost, const CodegenOptions& options) {
  return Generator(automaton, graph, cost, options).run();
}

}  // namespace msc::codegen
