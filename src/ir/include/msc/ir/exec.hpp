#ifndef MSC_IR_EXEC_HPP
#define MSC_IR_EXEC_HPP

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "msc/ir/instr.hpp"
#include "msc/support/value.hpp"

namespace msc::ir {

/// Access to memories outside the executing PE. Both machine simulators
/// (the asynchronous MIMD oracle and the SIMD target) implement this, so a
/// single `exec_instr` defines instruction semantics once — divergence
/// between oracle and target is impossible by construction.
class MemoryBus {
 public:
  virtual ~MemoryBus() = default;
  virtual Value mono_load(std::int64_t addr) = 0;
  virtual void mono_store(std::int64_t addr, Value v) = 0;
  virtual Value route_load(std::int64_t proc, std::int64_t addr) = 0;
  virtual void route_store(std::int64_t proc, std::int64_t addr, Value v) = 0;
};

/// Structure-of-arrays window onto one PE's local memory. The backing
/// store (ir::LaneStore, lane_store.hpp) keeps kind tags, integer payloads
/// and float payloads in three separate arrays, each laying all PEs'
/// copies of a variable out as one contiguous lane; `stride` is the
/// element distance between consecutive addresses (the padded lane
/// width). A default view has zero cells, so every access faults like an
/// empty local memory. `used`, when set, is the store's written-address
/// high-water mark: put() raises it to one past `addr`, so the store knows
/// which addresses a spawn reset must clear. Read-only views pass nullptr.
struct LocalView {
  std::uint8_t* tag = nullptr;
  std::int64_t* ival = nullptr;
  double* fval = nullptr;
  std::size_t stride = 1;
  std::int64_t cells = 0;
  std::int64_t* used = nullptr;

  Value get(std::int64_t addr) const {
    Value v;
    v.kind = static_cast<Value::Kind>(tag[static_cast<std::size_t>(addr) * stride]);
    v.i = ival[static_cast<std::size_t>(addr) * stride];
    v.f = fval[static_cast<std::size_t>(addr) * stride];
    return v;
  }
  void put(std::int64_t addr, const Value& v) {
    const std::size_t at = static_cast<std::size_t>(addr) * stride;
    tag[at] = static_cast<std::uint8_t>(v.kind);
    ival[at] = v.i;
    fval[at] = v.f;
    if (used != nullptr && addr >= *used) *used = addr + 1;
  }
};

/// One PE's mutable execution state as seen by exec_instr.
struct PeContext {
  LocalView local;            ///< PE-local memory window
  std::vector<Value>* stack;  ///< persistent operand stack
  std::int64_t proc_id;
  std::int64_t nprocs;
};

/// Thrown on machine-level faults (stack underflow, address out of range).
class MachineFault : public std::runtime_error {
 public:
  explicit MachineFault(const std::string& what) : std::runtime_error(what) {}
};

/// Execute one instruction. Throws MachineFault on underflow/range errors.
void exec_instr(const Instr& in, PeContext& pe, MemoryBus& bus);

/// Semantics of one pure binary opcode (Add…Shr, LAnd, LOr) on two popped
/// operands — the single definition exec_instr routes through, exposed so
/// the translation-cache engine's fused immediate ops and constant folder
/// share it (divergence impossible by construction).
Value eval_binary(Opcode op, const Value& a, const Value& b);

/// Pop helper shared with block-exit condition evaluation.
Value stack_pop(std::vector<Value>& stack);

}  // namespace msc::ir

#endif  // MSC_IR_EXEC_HPP
