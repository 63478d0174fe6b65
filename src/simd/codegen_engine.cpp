// The default SIMD engine (DESIGN.md §7, §11): the occupancy index plus
// the translation cache. The reference engine pays per-SOp dispatch, guard
// resolution, cycle arithmetic and a full nprocs scan on every broadcast;
// this engine runs the pre-translated form from codegen/translate.cpp over
// only the PEs each group enables:
//
//  - occ_[s] holds the ids of the PEs sitting in MIMD state s, and apc_
//    (the aggregate pc), alive_ and the spawn pool free_ are maintained at
//    the pc commit of each meta state instead of by full scans per step;
//  - per fused same-guard group, the enabled count is summed from
//    occ_count_ and the group's precomputed cycle aggregates are charged
//    in O(1);
//  - a group then runs one of two ways. Under a vector host ISA, when at
//    least one lane element in eight is enabled, its folded stream —
//    lowered once per state by lanes.cpp — is evaluated whole-lane under
//    the OR of the guard's occ_ words. Otherwise the enabled PEs are
//    gathered into a flat ascending list and the folded stream is
//    dispatched op-major over it (threaded computed-goto dispatch under
//    GCC/Clang, a switch loop elsewhere), immediate-fused ops skipping
//    their unfused push/pop traffic.
//
// Op-major order (instruction outer, PE inner) is what keeps faults and
// cross-PE side effects bit-identical to the reference engine: the n-th
// broadcast reaches PE i before PE j > i, and no PE sees broadcast n+1
// until every PE saw n. Within exec_state pcs are frozen (lockstep
// semantics): only next_pc changes, and each changed PE is recorded once
// in moved_.
#include "msc/simd/machine.hpp"

#include <algorithm>
#include <memory>

#include "msc/support/coverage.hpp"
#include "msc/support/str.hpp"

namespace msc::simd {

using codegen::MetaCode;
using codegen::TGroup;
using codegen::TOp;
using codegen::TOpKind;
using codegen::TransState;
using core::MetaId;
using ir::kNoState;
using ir::MachineFault;
using ir::StateId;

CodegenSimdMachine::CodegenSimdMachine(const codegen::SimdProgram& program,
                                       const ir::CostModel& cost,
                                       const mimd::RunConfig& config)
    : SimdMachine(program, cost, config),
      trans_(codegen::translate(program, cost)),
      occ_(prog_.mimd_states,
           DynBitset(static_cast<std::size_t>(config_.nprocs))),
      occ_count_(prog_.mimd_states, 0),
      apc_(prog_.mimd_states),
      free_(static_cast<std::size_t>(config_.nprocs)) {
  for (std::int64_t i = 0; i < config_.nprocs; ++i) {
    Pe& pe = pes_[static_cast<std::size_t>(i)];
    pe.next_pc = pe.pc;
    if (pe.pc != kNoState) {
      occ_[static_cast<std::size_t>(pe.pc)].set(static_cast<std::size_t>(i));
      if (occ_count_[static_cast<std::size_t>(pe.pc)]++ == 0)
        apc_.set(static_cast<std::size_t>(pe.pc));
      ++alive_;
    } else {
      free_.set(static_cast<std::size_t>(i));  // never ran: spawnable
    }
  }
}

void CodegenSimdMachine::exec_state(const MetaCode& mc) {
  const TransState& ts = trans_->states[static_cast<std::size_t>(mc.id)];
  const bool vector_isa = isa_ != SimdIsa::Scalar;
  for (std::size_t gi = 0; gi < ts.groups.size(); ++gi) {
    const TGroup& g = ts.groups[gi];
    // One charge per group visit: the aggregates were computed from the
    // ORIGINAL ops, so the totals equal the reference engine's per-op
    // accounting exactly, whichever path executes the group.
    stats_.control_cycles += g.control_cost;
    ++stats_.guard_switches;
    stats_.offered_pe_cycles += g.cost_sum * alive_;
    std::int64_t enabled = 0;
    occupied_scratch_.clear();
    for (StateId s : g.guard_states) {
      const std::int64_t n = occ_count_[static_cast<std::size_t>(s)];
      if (n == 0) continue;
      occupied_scratch_.push_back(s);
      enabled += n;
    }
    stats_.busy_pe_cycles += g.cost_sum * enabled;
    if (enabled == 0 || g.code.empty()) continue;
    if (vector_isa && enabled * 8 >= store_.width()) {
      // Dense group: whole-lane evaluation under the guard's enable mask.
      build_lane_mask();
      cur_group_ = &g;
      lane_executor().run(plan_for(mc.id, ts).runs[gi], lane_mask_.data(),
                          *this);
    } else {
      // Sparse group (or the scalar ISA): whole-lane work would touch
      // mostly-disabled elements; the flat list is the same machine.
      gather_enabled();
      run_ops(g.code.data(), g.code.data() + g.code.size());
    }
  }
  commit();
}

void CodegenSimdMachine::gather_enabled() {
  enabled_scratch_.clear();
  if (occupied_scratch_.size() == 1) {
    // Count-limited traversal: stop after occ_count_ PEs instead of
    // scanning the bitset's trailing zero words for the npos sentinel.
    std::size_t s = static_cast<std::size_t>(occupied_scratch_[0]);
    const DynBitset& pes = occ_[s];
    std::size_t i = pes.first();
    for (std::int64_t left = occ_count_[s];;) {
      enabled_scratch_.push_back(static_cast<std::int64_t>(i));
      if (--left == 0) break;
      i = pes.next(i);
    }
    return;
  }
  // A PE sits in exactly one MIMD state, so the per-state PE sets are
  // disjoint: a k-way merge of count-limited cursors visits the union in
  // ascending PE id without materializing it.
  cursor_scratch_.clear();
  for (StateId s : occupied_scratch_) {
    const DynBitset& pes = occ_[static_cast<std::size_t>(s)];
    cursor_scratch_.push_back(
        {&pes, pes.first(), occ_count_[static_cast<std::size_t>(s)]});
  }
  while (!cursor_scratch_.empty()) {
    std::size_t best = 0;
    for (std::size_t k = 1; k < cursor_scratch_.size(); ++k)
      if (cursor_scratch_[k].pos < cursor_scratch_[best].pos) best = k;
    OccCursor& c = cursor_scratch_[best];
    enabled_scratch_.push_back(static_cast<std::int64_t>(c.pos));
    if (--c.left == 0) {
      cursor_scratch_.erase(cursor_scratch_.begin() +
                            static_cast<std::ptrdiff_t>(best));
    } else {
      c.pos = c.pes->next(c.pos);
    }
  }
}

void CodegenSimdMachine::build_lane_mask() {
  lane_mask_.assign(store_.mask_words(), 0);
  for (StateId s : occupied_scratch_) {
    const DynBitset& pes = occ_[static_cast<std::size_t>(s)];
    // DynBitset words hold ceil(nprocs/64) == mask_words() words; pads
    // beyond nprocs are never set, so pad PEs are never enabled.
    for (std::size_t w = 0; w < pes.word_size(); ++w)
      lane_mask_[w] |= pes.word(w);
  }
}

const LanePlan& CodegenSimdMachine::plan_for(MetaId id, const TransState& ts) {
  if (lane_plans_.size() != trans_->states.size())
    lane_plans_.resize(trans_->states.size());
  auto& slot = lane_plans_[static_cast<std::size_t>(id)];
  if (!slot) slot = std::make_unique<LanePlan>(build_lane_plan(ts));
  return *slot;
}

LaneExecutor& CodegenSimdMachine::lane_executor() {
  if (!lane_exec_)
    lane_exec_ = std::make_unique<LaneExecutor>(store_, *this, config_.nprocs,
                                                isa_);
  return *lane_exec_;
}

void CodegenSimdMachine::lane_scalar_span(std::int32_t first, std::int32_t end,
                                          const std::uint64_t* mask,
                                          std::size_t nwords) {
  // Gather the mask into the flat ascending PE list the op-major
  // dispatcher wants, then run the source subrange through it.
  enabled_scratch_.clear();
  for_each_lane_bit(mask, nwords, [&](std::size_t k) {
    enabled_scratch_.push_back(static_cast<std::int64_t>(k));
  });
  run_ops(cur_group_->code.data() + first, cur_group_->code.data() + end);
}

void CodegenSimdMachine::lane_set_next_pc(std::int64_t pe, StateId target) {
  pes_[static_cast<std::size_t>(pe)].next_pc = target;
  moved_.push_back(pe);
}

void CodegenSimdMachine::spawn_pe(Pe& parent, std::int64_t parent_id,
                                  StateId child_entry, StateId cont) {
  std::size_t child = free_.first();
  if (child == DynBitset::npos)
    throw MachineFault("spawn failed: no free processing element "
                       "(§3.2.5 assumes processes ≤ processors)");
  free_.reset(child);
  Pe& ch = pes_[child];
  if (ch.ever_ran) coverage_hit(cov::kSimdSpawnReuse, 1);
  store_.clear_pe(static_cast<std::int64_t>(child));
  ch.next_pc = child_entry;
  ch.ever_ran = true;
  moved_.push_back(static_cast<std::int64_t>(child));
  ++stats_.spawns;
  parent.next_pc = cont;
  moved_.push_back(parent_id);
}

void CodegenSimdMachine::commit() {
  for (std::int64_t i : moved_) {
    Pe& pe = pes_[static_cast<std::size_t>(i)];
    if (pe.next_pc == pe.pc) continue;  // e.g. a self-loop branch target
    if (pe.pc != kNoState) {
      std::size_t old_pc = static_cast<std::size_t>(pe.pc);
      occ_[old_pc].reset(static_cast<std::size_t>(i));
      if (--occ_count_[old_pc] == 0) apc_.reset(old_pc);
    } else {
      ++alive_;  // spawned child comes to life
    }
    if (pe.next_pc != kNoState) {
      std::size_t new_pc = static_cast<std::size_t>(pe.next_pc);
      occ_[new_pc].set(static_cast<std::size_t>(i));
      if (occ_count_[new_pc]++ == 0) apc_.set(new_pc);
    } else {
      --alive_;  // halted; §3.2.5: returns to the pool only under reuse
      if (config_.reuse_halted_pes) free_.set(static_cast<std::size_t>(i));
    }
    pe.pc = pe.next_pc;
  }
  moved_.clear();
}

void CodegenSimdMachine::run_ops(const TOp* op, const TOp* const end) {
  if (op == end) return;
  const std::int64_t* const pe_begin = enabled_scratch_.data();
  const std::int64_t* const pe_end = pe_begin + enabled_scratch_.size();

#if defined(__GNUC__) || defined(__clang__)
#define MSC_TOP(name) l_##name:
#define MSC_NEXT()                                         \
  do {                                                     \
    if (++op == end) return;                               \
    goto* kDispatch[static_cast<std::size_t>(op->kind)];   \
  } while (0)
  // Label order must match codegen::TOpKind's declaration order.
  static const void* const kDispatch[] = {
      &&l_Exec,   &&l_PushI,  &&l_PushF,  &&l_LdLImm,    &&l_StLImm,
      &&l_LdMImm, &&l_StMImm, &&l_BinImm, &&l_SetPc,     &&l_CondSetPc,
      &&l_HaltPc, &&l_SpawnPc};
  goto* kDispatch[static_cast<std::size_t>(op->kind)];
#else
#define MSC_TOP(name) case TOpKind::name:
#define MSC_NEXT() break
  for (; op != end; ++op) {
    switch (op->kind) {
#endif

  MSC_TOP(Exec) {
    for (const std::int64_t* p = pe_begin; p != pe_end; ++p) {
      ir::PeContext ctx{store_.pe_view(*p), &store_.stack(*p), *p,
                        config_.nprocs};
      ir::exec_instr(op->instr, ctx, *this);
    }
  }
  MSC_NEXT();

  MSC_TOP(PushI)
  MSC_TOP(PushF) {
    const Value v = op->instr.imm;
    for (const std::int64_t* p = pe_begin; p != pe_end; ++p)
      store_.stack(*p).push_back(v);
  }
  MSC_NEXT();

  MSC_TOP(LdLImm) {
    const std::int64_t addr = op->instr.imm.as_int();
    // All PE locals share config_.local_mem_cells cells, so a bad address
    // faults at the first enabled PE either way.
    if (addr < 0 || addr >= config_.local_mem_cells)
      throw MachineFault(cat("local load out of range: ", addr));
    for (const std::int64_t* p = pe_begin; p != pe_end; ++p)
      store_.stack(*p).push_back(store_.load(*p, addr));
  }
  MSC_NEXT();

  MSC_TOP(StLImm) {
    const std::int64_t addr = op->instr.imm.as_int();
    for (const std::int64_t* p = pe_begin; p != pe_end; ++p) {
      // Underflow precedes the range check, as in the unfused pop order.
      Value v = ir::stack_pop(store_.stack(*p));
      if (addr < 0 || addr >= config_.local_mem_cells)
        throw MachineFault(cat("local store out of range: ", addr));
      store_.store(*p, addr, v);
    }
  }
  MSC_NEXT();

  MSC_TOP(LdMImm) {
    // No side effects and no stores in between: one load serves all PEs.
    const Value v = mono_load(op->instr.imm.as_int());
    for (const std::int64_t* p = pe_begin; p != pe_end; ++p)
      store_.stack(*p).push_back(v);
  }
  MSC_NEXT();

  MSC_TOP(StMImm) {
    const std::int64_t addr = op->instr.imm.as_int();
    for (const std::int64_t* p = pe_begin; p != pe_end; ++p) {
      Value v = ir::stack_pop(store_.stack(*p));
      mono_store(addr, v);
    }
  }
  MSC_NEXT();

  MSC_TOP(BinImm) {
    const Value imm = op->instr.imm;
    const ir::Opcode opc = op->instr.op;
    for (const std::int64_t* p = pe_begin; p != pe_end; ++p) {
      auto& st = store_.stack(*p);
      if (st.empty()) throw MachineFault("operand stack underflow");
      st.back() = ir::eval_binary(opc, st.back(), imm);
    }
  }
  MSC_NEXT();

  MSC_TOP(SetPc) {
    for (const std::int64_t* p = pe_begin; p != pe_end; ++p) {
      pes_[static_cast<std::size_t>(*p)].next_pc = op->a;
      moved_.push_back(*p);
    }
  }
  MSC_NEXT();

  MSC_TOP(CondSetPc) {
    for (const std::int64_t* p = pe_begin; p != pe_end; ++p) {
      Value cond = ir::stack_pop(store_.stack(*p));
      pes_[static_cast<std::size_t>(*p)].next_pc = cond.truthy() ? op->a
                                                                 : op->b;
      moved_.push_back(*p);
    }
  }
  MSC_NEXT();

  MSC_TOP(HaltPc) {
    for (const std::int64_t* p = pe_begin; p != pe_end; ++p) {
      pes_[static_cast<std::size_t>(*p)].next_pc = kNoState;
      moved_.push_back(*p);
    }
  }
  MSC_NEXT();

  MSC_TOP(SpawnPc) {
    for (const std::int64_t* p = pe_begin; p != pe_end; ++p)
      spawn_pe(pes_[static_cast<std::size_t>(*p)], *p, op->a, op->b);
  }
  MSC_NEXT();

#if !(defined(__GNUC__) || defined(__clang__))
    }
  }
#endif
#undef MSC_TOP
#undef MSC_NEXT
}

MetaId CodegenSimdMachine::next_state(const MetaCode& mc, DynBitset* apc) {
  *apc = apc_;
  return resolve_transition(mc, *apc);
}

}  // namespace msc::simd
