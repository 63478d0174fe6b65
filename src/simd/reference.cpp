// The original scalar SIMD engine, kept as the differential oracle: every
// broadcast scans all nprocs PEs and the aggregate pc is a full rescan.
// Deliberately simple — its value is being obviously correct, so the
// occupancy-indexed engines can be checked against it bit-for-bit forever
// (tests/simd_differential_test.cpp). The one concession is the spawn
// pool free_: the historical per-spawn rescan from PE 0 was O(nprocs) —
// quadratic on spawn-heavy kernels — and "lowest set bit of the idle+fresh
// set" is exactly the PE that scan found, so the optimization does not
// cost any obviousness.
#include "msc/simd/machine.hpp"

#include "msc/support/coverage.hpp"

namespace msc::simd {

using codegen::MetaCode;
using codegen::SOp;
using codegen::SOpKind;
using core::MetaId;
using ir::kNoState;
using ir::MachineFault;

ReferenceSimdMachine::ReferenceSimdMachine(const codegen::SimdProgram& program,
                                           const ir::CostModel& cost,
                                           const mimd::RunConfig& config)
    : SimdMachine(program, cost, config),
      free_(static_cast<std::size_t>(config_.nprocs)) {
  // The oracle's value is being obviously correct: it never takes the
  // whole-lane path, whatever RunConfig::simd_isa asked for.
  isa_ = SimdIsa::Scalar;
  for (std::int64_t i = 0; i < config_.nprocs; ++i)
    if (pes_[static_cast<std::size_t>(i)].pc == kNoState)
      free_.set(static_cast<std::size_t>(i));  // never ran: spawnable
}

void ReferenceSimdMachine::exec_state(const MetaCode& mc) {
  std::int64_t alive_count = 0;
  for (Pe& pe : pes_) {
    pe.next_pc = pe.pc;
    if (alive(pe)) ++alive_count;
  }

  const DynBitset* prev_guard = nullptr;
  for (const SOp& op : mc.code) {
    // Re-programming the PE enable mask costs a broadcast of its own
    // whenever consecutive ops carry different guards (the `if (pc & …)`
    // boundaries of Listing 5).
    // (Charged to the control unit only: utilization remains the §2.4
    // divergence metric over instruction broadcasts.)
    if (!prev_guard || !(*prev_guard == op.guard)) {
      stats_.control_cycles += cost_.guard_switch;
      ++stats_.guard_switches;
    }
    prev_guard = &op.guard;
    // Single instruction broadcast: enabled PEs act, the rest idle.
    std::int64_t op_cost = 0;
    switch (op.kind) {
      case SOpKind::Data: op_cost = cost_.instr_cost(op.instr); break;
      case SOpKind::SetPc: op_cost = cost_.jump; break;
      case SOpKind::CondSetPc: op_cost = cost_.branch; break;
      case SOpKind::HaltPc: op_cost = cost_.halt; break;
      case SOpKind::SpawnPc: op_cost = cost_.spawn; break;
    }
    stats_.control_cycles += op_cost;
    stats_.offered_pe_cycles += op_cost * alive_count;

    for (std::int64_t i = 0; i < config_.nprocs; ++i) {
      Pe& pe = pes_[static_cast<std::size_t>(i)];
      if (!alive(pe) || !op.guard.test(pe.pc)) continue;
      stats_.busy_pe_cycles += op_cost;
      switch (op.kind) {
        case SOpKind::Data: {
          ir::PeContext ctx{store_.pe_view(i), &store_.stack(i), i,
                            config_.nprocs};
          ir::exec_instr(op.instr, ctx, *this);
          break;
        }
        case SOpKind::SetPc:
          pe.next_pc = op.a;
          break;
        case SOpKind::CondSetPc: {
          Value cond = ir::stack_pop(store_.stack(i));
          pe.next_pc = cond.truthy() ? op.a : op.b;
          break;
        }
        case SOpKind::HaltPc:
          pe.next_pc = kNoState;
          break;
        case SOpKind::SpawnPc: {
          // Allocate the lowest-numbered free PE (free: not running and
          // not already claimed in this meta state).
          std::size_t child = free_.first();
          if (child == DynBitset::npos)
            throw MachineFault("spawn failed: no free processing element "
                               "(§3.2.5 assumes processes ≤ processors)");
          free_.reset(child);
          Pe& ch = pes_[child];
          if (ch.ever_ran) coverage_hit(cov::kSimdSpawnReuse, 1);
          store_.clear_pe(static_cast<std::int64_t>(child));
          ch.next_pc = op.a;
          ch.ever_ran = true;
          ++stats_.spawns;
          pe.next_pc = op.b;
          break;
        }
      }
    }
  }
  for (std::size_t i = 0; i < pes_.size(); ++i) {
    Pe& pe = pes_[i];
    // A PE halting this state re-enters the spawn pool only under reuse
    // (§3.2.5); fresh never-ran PEs are already in it.
    if (config_.reuse_halted_pes && pe.pc != kNoState && pe.next_pc == kNoState)
      free_.set(i);
    pe.pc = pe.next_pc;
  }
}

MetaId ReferenceSimdMachine::next_state(const MetaCode& mc, DynBitset* apc) {
  *apc = aggregate_pc();
  return resolve_transition(mc, *apc);
}

}  // namespace msc::simd
