#include "msc/mimd/machine.hpp"

#include <algorithm>

#include "msc/support/str.hpp"

namespace msc::mimd {

using ir::ExitKind;
using ir::kNoState;
using ir::MachineFault;
using ir::StateId;

std::int64_t validated_nprocs(const RunConfig& config) {
  if (config.nprocs <= 0) throw MachineFault("nprocs must be positive");
  if (config.active() > config.nprocs)
    throw MachineFault("initial_active exceeds nprocs");
  return config.nprocs;
}

MachineMemory::MachineMemory(const RunConfig& config)
    : store_(validated_nprocs(config), config.local_mem_cells),
      mono_(static_cast<std::size_t>(config.mono_mem_cells)) {}

void MachineMemory::check_local(std::int64_t proc, std::int64_t addr) const {
  if (proc < 0 || proc >= store_.nprocs())
    throw MachineFault(cat("PE index out of range: ", proc));
  if (addr < 0 || addr >= store_.cells())
    throw MachineFault(cat("local address out of range: ", addr));
}

void MachineMemory::poke(std::int64_t proc, std::int64_t addr, Value v) {
  check_local(proc, addr);
  store_.store(proc, addr, v);
}

Value MachineMemory::peek(std::int64_t proc, std::int64_t addr) const {
  check_local(proc, addr);
  return store_.load(proc, addr);
}

void MachineMemory::fill_lane(std::int64_t addr,
                              const std::vector<std::int64_t>& vals) {
  check_local(0, addr);
  store_.fill_int_lane(addr, vals.data(), store_.nprocs());
}

void MachineMemory::poke_mono(std::int64_t addr, Value v) {
  if (addr < 0 || addr >= static_cast<std::int64_t>(mono_.size()))
    throw MachineFault(cat("mono address out of range: ", addr));
  mono_[static_cast<std::size_t>(addr)] = v;
}

Value MachineMemory::peek_mono(std::int64_t addr) const {
  if (addr < 0 || addr >= static_cast<std::int64_t>(mono_.size()))
    throw MachineFault(cat("mono address out of range: ", addr));
  return mono_[static_cast<std::size_t>(addr)];
}

Value MachineMemory::mono_load(std::int64_t addr) { return peek_mono(addr); }

void MachineMemory::mono_store(std::int64_t addr, Value v) {
  poke_mono(addr, v);
}

Value MachineMemory::route_load(std::int64_t proc, std::int64_t addr) {
  return peek(proc, addr);
}

void MachineMemory::route_store(std::int64_t proc, std::int64_t addr,
                                Value v) {
  poke(proc, addr, v);
}

MimdMachine::MimdMachine(const ir::StateGraph& graph, const ir::CostModel& cost,
                         const RunConfig& config)
    : MachineMemory(config), graph_(graph), cost_(cost), config_(config) {
  pes_.resize(static_cast<std::size_t>(config_.nprocs));
  for (std::int64_t i = 0; i < config_.nprocs; ++i) {
    Pe& pe = pes_[static_cast<std::size_t>(i)];
    if (i < config_.active()) {
      pe.pc = graph_.start;
      pe.status = Status::Running;
      pe.ever_ran = true;
    }
  }
}

std::int64_t MimdMachine::pick_next() const {
  std::int64_t best = -1;
  for (std::int64_t i = 0; i < config_.nprocs; ++i) {
    const Pe& pe = pes_[static_cast<std::size_t>(i)];
    if (pe.status != Status::Running) continue;
    if (best < 0 || pe.clock < pes_[static_cast<std::size_t>(best)].clock) best = i;
  }
  return best;
}

void MimdMachine::exec_block(std::int64_t pid) {
  Pe& pe = pes_[static_cast<std::size_t>(pid)];
  const ir::Block& b = graph_.at(pe.pc);

  if (b.barrier_wait) {
    // Arrived at a barrier-wait state; block here until everyone arrives.
    pe.status = Status::Waiting;
    maybe_release_barrier();
    return;
  }

  ir::PeContext ctx{store_.pe_view(pid), &store_.stack(pid), pid,
                    config_.nprocs};
  for (const ir::Instr& in : b.body) ir::exec_instr(in, ctx, *this);
  pe.clock += cost_.block_cost(b);
  stats_.busy_cycles += cost_.block_cost(b);
  ++stats_.blocks_executed;
  if (stats_.blocks_executed > config_.max_blocks) throw Timeout();

  switch (b.exit) {
    case ExitKind::Halt:
      // §3.2.5: with pool reuse the PE goes straight back to Free.
      pe.status = config_.reuse_halted_pes ? Status::Free : Status::Halted;
      pe.pc = kNoState;
      // A halting PE may have been the last one a barrier was waiting on.
      maybe_release_barrier();
      return;
    case ExitKind::Jump:
      pe.pc = b.target;
      return;
    case ExitKind::Branch: {
      Value cond = ir::stack_pop(store_.stack(pid));
      pe.pc = cond.truthy() ? b.target : b.alt;
      return;
    }
    case ExitKind::Spawn: {
      std::int64_t child = -1;
      for (std::int64_t i = 0; i < config_.nprocs; ++i) {
        if (pes_[static_cast<std::size_t>(i)].status == Status::Free) {
          child = i;
          break;
        }
      }
      if (child < 0)
        throw MachineFault("spawn failed: no free processing element "
                           "(§3.2.5 assumes processes ≤ processors)");
      store_.clear_pe(child);
      Pe& ch = pes_[static_cast<std::size_t>(child)];
      ch.pc = b.target;
      ch.clock = pe.clock;
      ch.status = Status::Running;
      ch.ever_ran = true;
      ++stats_.spawns;
      pe.pc = b.alt;
      return;
    }
  }
}

void MimdMachine::maybe_release_barrier() {
  bool any_waiting = false;
  std::int64_t release_clock = 0;
  for (const Pe& pe : pes_) {
    if (pe.status == Status::Running) return;  // someone still computing
    if (pe.status == Status::Waiting) {
      any_waiting = true;
      release_clock = std::max(release_clock, pe.clock);
    }
  }
  if (!any_waiting) return;
  // Everyone live is at a barrier-wait state: release them all (§2.6).
  for (Pe& pe : pes_) {
    if (pe.status != Status::Waiting) continue;
    stats_.barrier_idle_cycles += release_clock - pe.clock;
    pe.clock = release_clock + kBarrierSyncCost;
    stats_.barrier_sync_cycles += kBarrierSyncCost;
    pe.pc = graph_.at(pe.pc).target;
    pe.status = Status::Running;
  }
  ++stats_.barrier_releases;
}

void MimdMachine::run() {
  for (;;) {
    std::int64_t pid = pick_next();
    if (pid < 0) break;
    exec_block(pid);
  }
  for (const Pe& pe : pes_)
    if (pe.status == Status::Waiting)
      throw MachineFault("deadlock: PEs waiting at a barrier at program end");
  for (const Pe& pe : pes_) stats_.makespan = std::max(stats_.makespan, pe.clock);
}

}  // namespace msc::mimd
