// The lane-major PE store shared by every machine (lane_store.hpp).
#include "msc/ir/lane_store.hpp"

#include <algorithm>
#include <cstring>
#include <new>

namespace msc::ir {

namespace {
std::int64_t round_up64(std::int64_t n) { return (n + 63) & ~std::int64_t{63}; }

/// `n` zeroed elements from calloc. All-zero bytes are Value{} (int 0) in
/// every payload array, and large blocks arrive as untouched zero pages.
template <typename T>
T* zeroed_lanes(std::int64_t n) {
  void* p = std::calloc(static_cast<std::size_t>(n), sizeof(T));
  if (p == nullptr && n != 0) throw std::bad_alloc();
  return static_cast<T*>(p);
}
}  // namespace

LaneStore::LaneStore(std::int64_t nprocs, std::int64_t cells)
    : nprocs_(nprocs),
      width_(round_up64(nprocs < 1 ? 1 : nprocs)),
      cells_(cells),
      tags_(zeroed_lanes<std::uint8_t>(width_ * cells)),
      ints_(zeroed_lanes<std::int64_t>(width_ * cells)),
      floats_(zeroed_lanes<double>(width_ * cells)),
      stacks_(static_cast<std::size_t>(nprocs)) {}

void LaneStore::clear_pe(std::int64_t pe) {
  for (std::int64_t addr = 0; addr < used_; ++addr) {
    const std::size_t at = static_cast<std::size_t>(addr * width_ + pe);
    tags_[at] = 0;
    ints_[at] = 0;
    floats_[at] = 0.0;
  }
  stacks_[static_cast<std::size_t>(pe)].clear();
}

void LaneStore::fill_int_lane(std::int64_t addr, const std::int64_t* vals,
                              std::int64_t n) {
  note_write(addr);
  std::memcpy(int_lane(addr), vals, static_cast<std::size_t>(n) * sizeof(std::int64_t));
  std::memset(tag_lane(addr), 0, static_cast<std::size_t>(n));
  std::fill_n(float_lane(addr), static_cast<std::size_t>(n), 0.0);
}

}  // namespace msc::ir
