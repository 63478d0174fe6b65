#ifndef MSC_MIMD_MACHINE_HPP
#define MSC_MIMD_MACHINE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "msc/ir/cost.hpp"
#include "msc/ir/exec.hpp"
#include "msc/ir/graph.hpp"
#include "msc/ir/lane_store.hpp"
#include "msc/support/simd_isa.hpp"

namespace msc::mimd {

/// Which SIMD simulator executes the meta-state program. All engines are
/// observably identical (memories, stats, tracer streams — enforced by
/// tests/simd_differential_test.cpp); they differ only in host cost:
///  - Fast: occupancy-indexed — per-broadcast work proportional to the
///    PEs actually enabled, with incrementally maintained aggregate pc,
///    alive count, and free-PE pool.
///  - Reference: the original scalar oracle — every broadcast scans all
///    nprocs PEs; kept compiled in forever as the differential baseline.
///  - Codegen: translation-cache engine — at automaton load each meta
///    state's guarded SOp sequence is compiled (once per program hash ×
///    cost model, qemu-TCG-style) into a fused, constant-folded host
///    stream executed group-at-a-time; fastest on high-occupancy runs.
enum class SimdEngine : std::uint8_t { Fast, Reference, Codegen };

/// Shared run parameters for both simulated machines.
struct RunConfig {
  std::int64_t nprocs = 4;
  /// PEs that begin in main's start state; the rest form the free pool for
  /// `spawn` (§3.2.5: "processing elements that are not in use"). -1 = all.
  std::int64_t initial_active = -1;
  std::int64_t local_mem_cells = 4096;
  std::int64_t mono_mem_cells = 1024;
  /// Safety cap on total executed blocks (guards non-terminating inputs).
  std::int64_t max_blocks = 4'000'000;
  /// §3.2.5: "processors that complete their processes early can be
  /// returned to the pool of free processors." When true, a halted PE can
  /// be re-allocated by a later spawn — which makes PE assignment depend
  /// on execution timing, so the asynchronous oracle and the lockstep
  /// SIMD machine may hand the same process different PEs. The default
  /// (false) allocates fresh PEs only, keeping assignment deterministic.
  bool reuse_halted_pes = false;
  /// SIMD simulator engine built by simd::make_machine / driver::run_simd.
  SimdEngine engine = SimdEngine::Fast;
  /// Host ISA for whole-lane PE evaluation (simulated semantics are
  /// ISA-independent; this only selects the host execution backend).
  /// Resolved at machine construction; unavailable explicit requests fault.
  SimdIsa simd_isa = SimdIsa::Auto;

  std::int64_t active() const { return initial_active < 0 ? nprocs : initial_active; }
};

/// config.nprocs, after checking it and initial_active: MachineFault on a
/// bad config. Every machine calls it before allocating its PE store.
std::int64_t validated_nprocs(const RunConfig& config);

/// Thrown when `max_blocks` is exhausted.
class Timeout : public ir::MachineFault {
 public:
  Timeout() : ir::MachineFault("execution exceeded the configured block budget") {}
};

struct MimdStats {
  std::int64_t blocks_executed = 0;
  std::int64_t busy_cycles = 0;          ///< sum of executed block costs
  std::int64_t makespan = 0;             ///< latest PE clock at completion
  std::int64_t barrier_idle_cycles = 0;  ///< time spent blocked at barriers
  std::int64_t barrier_sync_cycles = 0;  ///< runtime sync protocol cost (§5)
  std::int64_t barrier_releases = 0;
  std::int64_t spawns = 0;
};

/// The memories of a per-PE machine (the MIMD oracle, the §1.1
/// interpreter): every PE's local memory and operand stack in one
/// lane-major store, plus the mono memory, with the bounds-checked host
/// accessors and the MemoryBus its instructions route through.
class MachineMemory : public ir::MemoryBus {
 public:
  // Pre/post-run raw memory access (the driver layers names on top).
  void poke(std::int64_t proc, std::int64_t addr, Value v);
  Value peek(std::int64_t proc, std::int64_t addr) const;
  /// Seed one local cell across all PEs from a per-PE integer vector
  /// (vals.size() == nprocs): one memcpy into the int lane, byte-identical
  /// to nprocs scalar pokes of Value::of_int.
  void fill_lane(std::int64_t addr, const std::vector<std::int64_t>& vals);
  void poke_mono(std::int64_t addr, Value v);
  Value peek_mono(std::int64_t addr) const;

  // MemoryBus:
  Value mono_load(std::int64_t addr) override;
  void mono_store(std::int64_t addr, Value v) override;
  Value route_load(std::int64_t proc, std::int64_t addr) override;
  void route_store(std::int64_t proc, std::int64_t addr, Value v) override;

 protected:
  /// Validates `config` (validated_nprocs) before allocating anything.
  explicit MachineMemory(const RunConfig& config);

  ir::LaneStore store_;
  std::vector<Value> mono_;

 private:
  void check_local(std::int64_t proc, std::int64_t addr) const;
};

/// Asynchronous MIMD multiprocessor — the paper's execution model being
/// emulated, and this repo's semantic oracle. Each PE runs the MIMD state
/// graph independently with its own clock; PEs are scheduled in
/// (clock, pe-id) order so runs are deterministic. Barrier-wait states
/// block a PE until every live PE sits in some barrier state (§2.6);
/// the MIMD machine pays `cost.mimd_barrier` per release, modelling the
/// runtime synchronization the paper says MSC eliminates.
class MimdMachine : public MachineMemory {
 public:
  /// Cost knob for the runtime barrier protocol (MIMD machines only).
  static constexpr std::int64_t kBarrierSyncCost = 24;

  MimdMachine(const ir::StateGraph& graph, const ir::CostModel& cost,
              const RunConfig& config);

  /// Run to completion (all PEs halted or back in the free pool).
  void run();

  const MimdStats& stats() const { return stats_; }
  bool halted(std::int64_t proc) const { return pes_[proc].status == Status::Halted; }
  /// True if the PE executed at least one block (spawned or initial).
  bool ever_ran(std::int64_t proc) const { return pes_[proc].ever_ran; }
  std::int64_t finish_clock(std::int64_t proc) const { return pes_[proc].clock; }

 private:
  enum class Status : std::uint8_t { Free, Running, Waiting, Halted };

  /// Per-PE control state only: local memories and operand stacks live in
  /// the lane-major store (MachineMemory::store_).
  struct Pe {
    ir::StateId pc = ir::kNoState;
    std::int64_t clock = 0;
    Status status = Status::Free;
    bool ever_ran = false;
  };

  void exec_block(std::int64_t pid);
  void maybe_release_barrier();
  std::int64_t pick_next() const;  ///< PE with min (clock, id), or -1

  const ir::StateGraph& graph_;
  ir::CostModel cost_;
  RunConfig config_;
  std::vector<Pe> pes_;
  MimdStats stats_;
};

}  // namespace msc::mimd

#endif  // MSC_MIMD_MACHINE_HPP
