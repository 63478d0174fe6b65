#ifndef MSC_CODEGEN_PROGRAM_HPP
#define MSC_CODEGEN_PROGRAM_HPP

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "msc/core/automaton.hpp"
#include "msc/csi/csi.hpp"
#include "msc/hash/multiway.hpp"
#include "msc/ir/cost.hpp"
#include "msc/ir/graph.hpp"

namespace msc::codegen {

/// One SIMD control-unit step inside a meta state's code. Every op carries
/// a guard: the set of MIMD states whose PEs are enabled for it (the
/// paper's `if (pc & BIT(...))` blocks in Listing 5).
enum class SOpKind : std::uint8_t {
  Data,       ///< execute `instr` on enabled PEs
  SetPc,      ///< enabled PEs: next pc = a (single exit arc)
  CondSetPc,  ///< enabled PEs: pop cond; next pc = cond ? a : b (JumpF)
  HaltPc,     ///< enabled PEs: next pc = none (process ends, PE freed)
  SpawnPc,    ///< §3.2.5: allocate a free PE per enabled PE with pc=a
              ///  (zeroed memory); the enabled original continues at b
};

struct SOp {
  SOpKind kind = SOpKind::Data;
  DynBitset guard;
  ir::Instr instr{ir::Opcode::PushI, {}};
  ir::StateId a = ir::kNoState;
  ir::StateId b = ir::kNoState;
  /// Sorted members of `guard`, precomputed by generate() so the
  /// occupancy-indexed engine iterates per-state PE lists instead of
  /// testing every PE against the guard bitset.
  std::vector<ir::StateId> guard_states;
  /// True when this op's guard differs from the previous op's in the same
  /// meta state — the enable-mask reprogramming boundaries the machines
  /// charge `cost.guard_switch` for (first op of a state is always true).
  bool new_guard = true;
};

/// How execution leaves a meta state (§3.2.1–3.2.4).
enum class TransKind : std::uint8_t {
  Exit,      ///< no exit arc: return to the "operating system"
  Direct,    ///< single exit arc: plain goto
  Multiway,  ///< global-or the pcs, hash, jump through the table
};

struct MetaCode {
  core::MetaId id = core::kNoMeta;
  DynBitset members;
  std::vector<SOp> code;

  TransKind trans = TransKind::Exit;
  core::MetaId direct_target = core::kNoMeta;
  /// §4.2 straightening: the direct target is laid out immediately after
  /// this state, so the transition is a free fall-through, not a goto.
  bool fallthrough = false;
  /// Multiway: hashed switch over folded aggregate-pc keys.
  hash::HashedSwitch sw;
  std::vector<core::MetaId> case_targets;   ///< case idx → meta state
  std::vector<DynBitset> case_keys;         ///< exact keys (fold verification)
  /// Compressed fallback when no key matches (§2.5 unconditional arc).
  core::MetaId fallback = core::kNoMeta;
  /// Whether the transition needs the aggregate pc (global-or) at all.
  bool needs_apc = false;

  /// CSI bookkeeping for the benches.
  std::int64_t serialized_cost = 0;
  std::int64_t induced_cost = 0;
  std::int64_t csi_lower_bound = 0;
};

/// Executable SIMD coding of a meta-state automaton. Holds everything the
/// SIMD machine needs: per-meta-state guarded code and transition tables,
/// plus the source-graph barrier data for §3.2.4 masking and the member
/// index for PaperPrune rescue transitions.
struct SimdProgram {
  std::vector<MetaCode> states;
  core::MetaId start = core::kNoMeta;
  DynBitset barriers;
  core::BarrierMode barrier_mode = core::BarrierMode::TrackOccupancy;
  bool compressed = false;
  std::size_t mimd_states = 0;  ///< source graph size (guard bit width)

  /// members → meta id (rescue transitions, tests).
  std::unordered_map<DynBitset, core::MetaId, DynBitsetHash> index;

  /// Structural hash of the body (hash_body() in codegen/translate.hpp),
  /// set by generate(). The translation cache keys on it with the cost
  /// model, so building a machine does not rehash the program; code that
  /// edits a generated program must recompute it.
  std::array<std::uint64_t, 2> body_hash{};

  /// §3.2.4 masking applied to a runtime aggregate pc.
  DynBitset transition_key(const DynBitset& apc) const;

  /// Static cycles the control unit charges for leaving `mc` once.
  std::int64_t transition_cost(const MetaCode& mc, const ir::CostModel& cost) const;
};

struct CodegenOptions {
  /// §3.1: run common subexpression induction per meta state. Off = naive
  /// serialization (the ablation baseline).
  bool use_csi = true;
  csi::Algorithm csi_algorithm = csi::Algorithm::Best;
  hash::SearchOptions hash_options;
};

/// Generate the SIMD coding of `automaton` over its (possibly time-split)
/// source graph.
SimdProgram generate(const core::MetaAutomaton& automaton,
                     const ir::StateGraph& graph, const ir::CostModel& cost,
                     const CodegenOptions& options = {});

/// Render the program as MasPar-MPL-style text in the shape of the
/// paper's Listing 5 (ms_* labels, BIT() guards, globalor + hashed switch).
std::string to_mpl(const SimdProgram& program, const ir::StateGraph& graph);

}  // namespace msc::codegen

#endif  // MSC_CODEGEN_PROGRAM_HPP
