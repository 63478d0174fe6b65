#ifndef MSC_SIMD_LANES_HPP
#define MSC_SIMD_LANES_HPP

// Whole-lane execution backend over the lane-major PE store.
//
// ir::LaneStore (msc/ir/lane_store.hpp) lays every PE's copy of a
// local-memory cell out contiguously (structure-of-arrays per variable:
// one kind-tag lane, one int lane, one float lane per address), padded to
// a 64-PE boundary so enable masks are whole 64-bit words aligned with
// DynBitset's backing words. The engines do not own PE memory:
// ReferenceSimdMachine interprets scalar PE views of the store, while the
// codegen engine may execute a translated same-guard group lane-at-a-time
// through LaneExecutor under a host ISA from msc/support/simd_isa.hpp.
//
// Semantics contract: whichever path executes, memories, SimdStats,
// visits, tracer streams and profiles are bit-identical to the scalar
// reference engine (simd_differential_test pins it). The lane plan
// therefore mirrors the scalar order exactly: ops that cannot be proven
// lane-safe fall back to per-PE spans in ascending PE id, partial results
// are materialized onto the real per-PE stacks at every boundary, and
// fault messages/ordering match the scalar interpreter.

#include <cstdint>
#include <vector>

#include "msc/codegen/program.hpp"
#include "msc/codegen/translate.hpp"
#include "msc/ir/exec.hpp"
#include "msc/ir/lane_store.hpp"
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

/// One translated same-guard group (codegen::TGroup), lowered to lane code.
struct LaneRun {
  std::vector<LOp> code;
  std::int32_t max_depth = 0;  ///< peak virtual-stack depth
};

struct LanePlan {
  std::vector<LaneRun> runs;
};

/// Lower a translated state: one run per TGroup, ScalarSpan source
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

/// Executes lowered lane runs against an ir::LaneStore. One instance per
/// machine; lane buffers are pooled and grown to the deepest plan seen.
class LaneExecutor {
 public:
  LaneExecutor(ir::LaneStore& store, ir::MemoryBus& bus, std::int64_t nprocs,
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

  ir::LaneStore& store_;
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
