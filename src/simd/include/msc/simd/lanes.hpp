#ifndef MSC_SIMD_LANES_HPP
#define MSC_SIMD_LANES_HPP

// Lane-major PE state store and whole-lane execution backend.
//
// The store lays every PE's copy of a local-memory cell out contiguously
// (structure-of-arrays per variable: one kind-tag lane, one int lane, one
// float lane per address), padded to a 64-PE boundary so enable masks are
// whole 64-bit words aligned with DynBitset's backing words. The engines
// no longer own PE memory: ReferenceSimdMachine interprets scalar PE views
// of this store, while the occupancy engines may execute maximal
// same-guard op runs lane-at-a-time through LaneExecutor under a host ISA
// from msc/support/simd_isa.hpp.
//
// Semantics contract: whichever path executes, memories, SimdStats,
// visits, tracer streams and profiles are bit-identical to the scalar
// reference engine (simd_differential_test pins it). The lane plan
// therefore mirrors the scalar order exactly: ops that cannot be proven
// lane-safe fall back to per-PE spans in ascending PE id, partial results
// are materialized onto the real per-PE stacks at every boundary, and
// fault messages/ordering match the scalar interpreter.

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "msc/codegen/program.hpp"
#include "msc/codegen/translate.hpp"
#include "msc/ir/cost.hpp"
#include "msc/ir/exec.hpp"
#include "msc/support/simd_isa.hpp"

namespace msc::simd {

/// Iterate the set bits of a lane mask in ascending PE id (the reference
/// engine's 0..nprocs broadcast order).
template <typename F>
inline void for_each_lane_bit(const std::uint64_t* mask, std::size_t nwords,
                              F&& f) {
  for (std::size_t w = 0; w < nwords; ++w) {
    std::uint64_t m = mask[w];
    while (m != 0) {
      const int bit = __builtin_ctzll(m);
      f(w * 64 + static_cast<std::size_t>(bit));
      m &= m - 1;
    }
  }
}

/// Owns all PE-resident state of a SIMD machine: local memories as
/// lane-major SoA (element (addr, pe) lives at addr * width() + pe in each
/// of the three payload arrays) plus the per-PE operand stacks. width() is
/// nprocs rounded up to a multiple of 64; the pad elements stay zeroed
/// Value{}s and are never enabled by any mask.
///
/// PE memory costs what the program writes (DESIGN.md §14.1). The payload
/// arrays come zeroed from calloc, which for blocks this large maps fresh
/// zero pages instead of clearing them: construction is O(1) and resident
/// memory follows the lanes actually touched. used() is one past the
/// highest address any write has reached (store, fill_int_lane, pe_view
/// puts and the executor's lane stores all raise it), so clear_pe zeroes
/// [0, used()) only — every cell above was never written and is still
/// zero. cells() stays the address bound every fault checks.
class LaneStore {
 public:
  LaneStore(std::int64_t nprocs, std::int64_t cells);

  std::int64_t nprocs() const { return nprocs_; }
  std::int64_t width() const { return width_; }
  std::int64_t cells() const { return cells_; }
  /// One past the highest local address written so far (0 when none).
  std::int64_t used() const { return used_; }
  /// Record a write at `addr` (already bounds-checked against cells()).
  void note_write(std::int64_t addr) {
    if (addr >= used_) used_ = addr + 1;
  }
  std::size_t mask_words() const {
    return static_cast<std::size_t>(width_) / 64;
  }

  Value load(std::int64_t pe, std::int64_t addr) const {
    return pe_view_const(pe).get(addr);
  }
  void store(std::int64_t pe, std::int64_t addr, const Value& v) {
    pe_view(pe).put(addr, v);
  }

  /// Scalar window for exec_instr: base pointers pre-offset by `pe`,
  /// stride = width(). Its puts raise used().
  ir::LocalView pe_view(std::int64_t pe) {
    return {tags_.get() + pe, ints_.get() + pe, floats_.get() + pe,
            static_cast<std::size_t>(width_), cells_, &used_};
  }

  /// Raw lanes. Writers through these pointers call note_write(addr).
  std::uint8_t* tag_lane(std::int64_t addr) {
    return tags_.get() + static_cast<std::size_t>(addr * width_);
  }
  std::int64_t* int_lane(std::int64_t addr) {
    return ints_.get() + static_cast<std::size_t>(addr * width_);
  }
  double* float_lane(std::int64_t addr) {
    return floats_.get() + static_cast<std::size_t>(addr * width_);
  }

  std::vector<Value>& stack(std::int64_t pe) {
    return stacks_[static_cast<std::size_t>(pe)];
  }
  const std::vector<Value>& stack(std::int64_t pe) const {
    return stacks_[static_cast<std::size_t>(pe)];
  }

  /// Spawn reset: zero the PE's local column below used() and clear its
  /// stack.
  void clear_pe(std::int64_t pe);

  /// Seed one address across all PEs from per-PE integers
  /// (vals[0..nprocs)): one memcpy into the int lane, tag/float lanes
  /// zeroed — byte-identical to nprocs scalar of_int stores.
  void fill_int_lane(std::int64_t addr, const std::int64_t* vals,
                     std::int64_t n);

 private:
  ir::LocalView pe_view_const(std::int64_t pe) const {
    return {tags_.get() + pe, ints_.get() + pe, floats_.get() + pe,
            static_cast<std::size_t>(width_), cells_, nullptr};
  }

  struct FreeDeleter {
    void operator()(void* p) const { std::free(p); }
  };
  template <typename T>
  using Lanes = std::unique_ptr<T[], FreeDeleter>;

  std::int64_t nprocs_;
  std::int64_t width_;
  std::int64_t cells_;
  std::int64_t used_ = 0;
  Lanes<std::uint8_t> tags_;
  Lanes<std::int64_t> ints_;
  Lanes<double> floats_;
  std::vector<std::vector<Value>> stacks_;
};

/// One lane-level operation of a lowered same-guard run. The virtual
/// operand stack the ops manipulate holds whole lanes; `Materialize`
/// flushes it onto the real per-PE stacks whenever scalar code (or the
/// end of the run) needs them there.
enum class LOpKind : std::uint8_t {
  PushLane,       ///< broadcast instr.imm
  LoadLane,       ///< push copy of local lane [n] (bounds-checked once)
  StoreLane,      ///< masked scatter of top into local lane [n]; pop
  BroadcastMono,  ///< push broadcast of mono[n]
  StoreMono,      ///< pop; per enabled PE ascending: mono[n] = elem
  LdDynLane,      ///< pop addr lane; push per-PE local[addr] gather
  StDynLane,      ///< pop addr, pop value; per-PE local[addr] scatter
  LdMDynLane,     ///< pop addr lane; push per-PE mono_load gather
  StMDynLane,     ///< pop addr, pop value; per-PE mono_store
  RouteLdLane,    ///< pop proc, pop addr; push per-PE route_load
  RouteStLane,    ///< pop proc, addr, value; per-PE route_store
  BinLane,        ///< pop b; top = eval_binary(instr.op, top, b)
  BinImmLane,     ///< top = eval_binary(instr.op, top, instr.imm)
  UnLane,         ///< top = unary(instr.op, top)
  DupLane,
  SwapLane,
  PopLane,        ///< drop n virtual slots
  ProcIdLane,     ///< push iota
  NProcsLane,     ///< push broadcast nprocs
  SetPcLane,      ///< enabled PEs: next_pc = a
  CondSetPcLane,  ///< pop cond; enabled PEs: next_pc = truthy ? a : b
  HaltPcLane,     ///< enabled PEs: next_pc = none
  Materialize,    ///< push all virtual slots (bottom-up) onto real stacks
  ScalarSpan,     ///< engine executes source ops [src, src_end) per PE
};

struct LOp {
  LOpKind kind;
  ir::Instr instr{ir::Opcode::PushI, {}};
  ir::StateId a = ir::kNoState;
  ir::StateId b = ir::kNoState;
  std::int64_t n = 0;        ///< address / pop count
  std::int32_t src = 0;      ///< ScalarSpan: first source-op index
  std::int32_t src_end = 0;  ///< ScalarSpan: one past the last index
};

/// One maximal same-guard run of a meta state's ops, lowered to lane code.
struct LaneRun {
  std::int32_t first = 0;  ///< source-op range [first, end) in the state
  std::int32_t end = 0;
  std::vector<LOp> code;
  std::int32_t max_depth = 0;  ///< peak virtual-stack depth
  /// Fast-engine charge aggregates over the ORIGINAL ops (codegen groups
  /// keep their own TGroup aggregates): Σ op-cost and the guard-switch
  /// count (always 1 — runs split exactly at new_guard boundaries).
  std::int64_t cost_sum = 0;
};

struct LanePlan {
  std::vector<LaneRun> runs;
  std::int32_t max_depth = 0;
};

/// Lower a meta state's SOp stream (fast engine) into same-guard runs.
LanePlan build_lane_plan(const std::vector<codegen::SOp>& code,
                         const ir::CostModel& cost);
/// Lower a translated state (codegen engine): one run per TGroup, source
/// indices relative to that group's TOp stream.
LanePlan build_lane_plan(const codegen::TransState& ts);

/// Elementwise kernels over whole lanes, dispatched per host ISA. Inputs
/// are fully defined across the padded width; outputs are written fully
/// defined (disabled elements may hold garbage values but never trap
/// representations), and per-element results on enabled lanes are
/// bit-identical to ir::eval_binary / the scalar unary ops. `dst` may
/// alias `a`.
struct LaneKernels {
  using BinFn = void (*)(ir::Opcode op, const std::uint8_t* atag,
                         const std::int64_t* ai, const double* af,
                         const std::uint8_t* btag, const std::int64_t* bi,
                         const double* bf, std::uint8_t* otag,
                         std::int64_t* oi, double* of,
                         const std::uint64_t* mask, std::size_t n);
  using BinImmFn = void (*)(ir::Opcode op, const std::uint8_t* atag,
                            const std::int64_t* ai, const double* af,
                            const Value& b, std::uint8_t* otag,
                            std::int64_t* oi, double* of,
                            const std::uint64_t* mask, std::size_t n);
  using UnFn = void (*)(ir::Opcode op, const std::uint8_t* atag,
                        const std::int64_t* ai, const double* af,
                        std::uint8_t* otag, std::int64_t* oi, double* of,
                        const std::uint64_t* mask, std::size_t n);
  BinFn bin = nullptr;
  BinImmFn bin_imm = nullptr;
  UnFn un = nullptr;
};

/// Kernel table for a resolved ISA (Avx2/Neon when compiled for this
/// host, otherwise portable scalar loops over whole lanes).
const LaneKernels& lane_kernels(SimdIsa isa);

/// Engine services the executor cannot perform itself: per-PE execution
/// of a ScalarSpan (in the engine's own source-op form) and next-pc
/// writes (which must maintain the engine's moved_ bookkeeping).
class LaneHost {
 public:
  virtual void lane_scalar_span(std::int32_t first, std::int32_t end,
                                const std::uint64_t* mask,
                                std::size_t nwords) = 0;
  virtual void lane_set_next_pc(std::int64_t pe, ir::StateId target) = 0;

 protected:
  ~LaneHost() = default;
};

/// Executes lowered lane runs against a LaneStore. One instance per
/// machine; lane buffers are pooled and grown to the deepest plan seen.
class LaneExecutor {
 public:
  LaneExecutor(LaneStore& store, ir::MemoryBus& bus, std::int64_t nprocs,
               SimdIsa isa);

  /// Execute one run under `mask` (mask_words() words; at least one bit
  /// set). Faults propagate as ir::MachineFault with scalar-identical
  /// messages.
  void run(const LaneRun& r, const std::uint64_t* mask, LaneHost& host);

 private:
  struct LaneBuf {
    std::vector<std::uint8_t> tag;
    std::vector<std::int64_t> ival;
    std::vector<double> fval;
  };

  void ensure_depth(std::int32_t depth);
  LaneBuf& slot(std::int32_t d) {
    return bufs_[static_cast<std::size_t>(slot_buf_[static_cast<std::size_t>(d)])];
  }
  LaneBuf& push_slot();
  Value slot_value(const LaneBuf& b, std::size_t k) const {
    Value v;
    v.kind = static_cast<Value::Kind>(b.tag[k]);
    v.i = b.ival[k];
    v.f = b.fval[k];
    return v;
  }
  void materialize(const std::uint64_t* mask);

  LaneStore& store_;
  ir::MemoryBus& bus_;
  std::int64_t nprocs_;
  std::size_t width_;
  std::size_t nwords_;
  const LaneKernels* kernels_;
  std::vector<LaneBuf> bufs_;
  std::vector<std::int32_t> slot_buf_;  ///< slot depth -> buffer index
  std::int32_t depth_ = 0;
};

}  // namespace msc::simd

#endif  // MSC_SIMD_LANES_HPP
