#ifndef MSC_CODEGEN_TRANSLATE_HPP
#define MSC_CODEGEN_TRANSLATE_HPP

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "msc/codegen/program.hpp"
#include "msc/ir/cost.hpp"
#include "msc/support/single_flight.hpp"

namespace msc::codegen {

/// Host opcodes of the translated stream executed by the codegen engine
/// (mimd::SimdEngine::Codegen). The reference engine dispatches one SOp
/// per broadcast; translation collapses common shapes the compiler emits —
/// the immediate-operand fusions below are the SOp-level analogue of the
/// fold/copy-propagation pass in qemu's tcg/optimize.c.
enum class TOpKind : std::uint8_t {
  Exec,       ///< generic fallback: ir::exec_instr(instr)
  PushI,      ///< materialized int constant
  PushF,      ///< materialized float constant
  LdLImm,     ///< fused PushI;LdL — push local[imm]
  StLImm,     ///< fused PushI;StL — local[imm] = pop
  LdMImm,     ///< fused PushI;LdM — push mono[imm]
  StMImm,     ///< fused PushI;StM — mono[imm] = pop
  BinImm,     ///< fused PushI/PushF;<binop> — push eval_binary(op, pop, imm)
  SetPc,      ///< enabled PEs: next pc = a
  CondSetPc,  ///< enabled PEs: pop cond; next pc = cond ? a : b
  HaltPc,     ///< enabled PEs: next pc = none
  SpawnPc,    ///< §3.2.5 allocate a free PE at a; original continues at b
};

struct TOp {
  TOpKind kind = TOpKind::Exec;
  /// Exec: the full instruction; *Imm: opcode + immediate operand;
  /// PushI/PushF: the (possibly folded) constant.
  ir::Instr instr{ir::Opcode::PushI, {}};
  ir::StateId a = ir::kNoState;
  ir::StateId b = ir::kNoState;
};

/// One maximal same-guard run of a meta state's SOps. Guard resolution,
/// enable-mask accounting, and the cycle arithmetic all happen once per
/// group instead of once per op: the simulated-cost aggregates below are
/// precomputed from the ORIGINAL ops so SimdStats stay bit-identical to
/// the reference engine no matter how hard the host stream folded.
struct TGroup {
  /// Sorted MIMD states of the shared guard (gather key into occ_[]).
  std::vector<ir::StateId> guard_states;
  /// Folded/fused host stream (may be empty when everything folded away).
  std::vector<TOp> code;
  /// Σ op-cost over the original ops (× alive ⇒ offered, × enabled ⇒ busy).
  std::int64_t cost_sum = 0;
  /// cost.guard_switch + cost_sum: the control-unit charge per visit.
  std::int64_t control_cost = 0;
};

struct TransState {
  std::vector<TGroup> groups;
};

/// The translated form of one SimdProgram under one CostModel: per meta
/// state, its guarded code as fused groups. Everything here is
/// RunConfig-independent (costs are per-PE factors applied at runtime, and
/// memory bounds are checked against the live config), so one entry serves
/// every nprocs/memory-size combination — which is what makes the cache
/// worth keeping.
struct TransProgram {
  std::vector<TransState> states;
  std::int64_t source_ops = 0;  ///< SOps in (Data + pc writes)
  std::int64_t host_ops = 0;    ///< TOps out (after folding/fusing)
};

/// Counters of the process-global translation cache (hits and misses are
/// also published as codegen.trans_cache_* metrics).
using TranslationCacheStats = support::CacheStats;

/// Two independent 64-bit structural hashes over everything
/// execution-relevant in the program body: per-state guards, opcodes,
/// operands and targets (SimdProgram::body_hash).
std::array<std::uint64_t, 2> hash_body(const SimdProgram& prog);

/// Translate `prog` under `cost`, through the process-global single-flight
/// LRU cache keyed by `prog.body_hash` plus the cost model: repeat runs of
/// the same automaton (any RunConfig) skip translation, and concurrent
/// first runs translate once.
std::shared_ptr<const TransProgram> translate(const SimdProgram& prog,
                                              const ir::CostModel& cost);

TranslationCacheStats translation_cache_stats();
/// Drop all cached translations and zero the counters (tests).
void translation_cache_clear();

}  // namespace msc::codegen

#endif  // MSC_CODEGEN_TRANSLATE_HPP
