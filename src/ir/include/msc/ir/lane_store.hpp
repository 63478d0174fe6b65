#ifndef MSC_IR_LANE_STORE_HPP
#define MSC_IR_LANE_STORE_HPP

// The one PE memory store. The MIMD oracle, the §1.1 interpreter and every
// SIMD engine keep their PEs' local memories and operand stacks here; the
// machines themselves hold only per-PE control state (DESIGN.md §14.1).

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "msc/ir/exec.hpp"

namespace msc::ir {

/// Owns all PE-resident state of a machine: local memories as lane-major
/// SoA (element (addr, pe) lives at addr * width() + pe in each of the
/// three payload arrays) plus the per-PE operand stacks. width() is
/// nprocs rounded up to a multiple of 64; the pad elements stay zeroed
/// Value{}s and are never enabled by any mask.
///
/// PE memory costs what the program writes (DESIGN.md §14.1). The payload
/// arrays come zeroed from calloc, which for blocks this large maps fresh
/// zero pages instead of clearing them: construction is O(1) and resident
/// memory follows the lanes actually touched. used() is one past the
/// highest address any write has reached (store, fill_int_lane, pe_view
/// puts and the SIMD executor's lane stores all raise it), so clear_pe
/// zeroes [0, used()) only — every cell above was never written and is
/// still zero. cells() stays the address bound every fault checks.
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
  LocalView pe_view(std::int64_t pe) {
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
  LocalView pe_view_const(std::int64_t pe) const {
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

}  // namespace msc::ir

#endif  // MSC_IR_LANE_STORE_HPP
