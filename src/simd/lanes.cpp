// Same-guard run lowering and the lane executor.
//
// The lowering mirrors the scalar interpreter exactly: every source op
// either becomes a lane op whose per-element effect is eval_binary /
// exec_instr semantics, or joins a ScalarSpan the engine executes per PE
// in ascending id. A virtual stack of whole-lane buffers carries values
// between lane ops; Materialize flushes it (bottom-up, enabled PEs only)
// onto the real per-PE stacks at every lane/scalar boundary and at run
// end, so the observable stack state is identical to scalar execution.
#include "msc/simd/lanes.hpp"

#include <cstring>

#include "msc/support/str.hpp"

namespace msc::simd {

using codegen::TOp;
using codegen::TOpKind;
using ir::Instr;
using ir::MachineFault;
using ir::Opcode;

// ------------------------------------------------------------ plan lowering

namespace {

/// Incremental lowering of one same-guard run. Tracks the virtual stack
/// depth and, per slot, the pushing constant (for PushI;LdL-style fusion
/// of the unfused Exec forms the translator leaves behind).
struct Lowerer {
  std::vector<LOp> code;
  std::vector<const Value*> known;  // parallel to virtual stack; null=opaque
  std::int32_t depth = 0;
  std::int32_t max_depth = 0;

  void push_known(const Value* v) {
    known.push_back(v);
    if (++depth > max_depth) max_depth = depth;
  }
  void pop_known(std::int32_t n) {
    known.resize(known.size() - static_cast<std::size_t>(n));
    depth -= n;
  }
  /// Is the top slot the direct result of the immediately preceding PushLane
  /// with a non-float constant (safe to fold into an address)?
  bool top_is_int_push() const {
    return !code.empty() && code.back().kind == LOpKind::PushLane &&
           known.back() != nullptr && !known.back()->is_float();
  }

  void emit(LOpKind k) { code.push_back(LOp{k}); }

  void scalar(std::int32_t src) {
    if (depth > 0) {
      emit(LOpKind::Materialize);
      pop_known(depth);
    }
    if (!code.empty() && code.back().kind == LOpKind::ScalarSpan &&
        code.back().src_end == src) {
      ++code.back().src_end;
      return;
    }
    LOp op{LOpKind::ScalarSpan};
    op.src = src;
    op.src_end = src + 1;
    code.push_back(op);
  }

  /// Mutate the trailing PushLane (the top slot's producer) into `k` with
  /// address `n` — removing the push and applying the consuming op in one.
  void fuse_push(LOpKind k, std::int64_t n) {
    code.back() = LOp{k};
    code.back().n = n;
  }

  void lower_instr(const Instr& in, std::int32_t src) {
    switch (in.op) {
      case Opcode::PushI:
      case Opcode::PushF: {
        LOp op{LOpKind::PushLane};
        op.instr = in;
        code.push_back(op);
        push_known(&in.imm);
        return;
      }
      case Opcode::Pop: {
        const std::int64_t n = in.imm.i;
        if (n >= 0 && n <= depth) {
          if (n > 0) {
            LOp op{LOpKind::PopLane};
            op.n = n;
            code.push_back(op);
            pop_known(static_cast<std::int32_t>(n));
          }
          return;
        }
        scalar(src);  // pops (or faults) against the real stacks
        return;
      }
      case Opcode::Dup:
        if (depth >= 1) {
          emit(LOpKind::DupLane);
          push_known(known.back());
        } else {
          scalar(src);
        }
        return;
      case Opcode::Swap:
        if (depth >= 2) {
          emit(LOpKind::SwapLane);
          std::swap(known[known.size() - 1], known[known.size() - 2]);
        } else {
          scalar(src);
        }
        return;
      case Opcode::LdL:
        if (top_is_int_push()) {
          fuse_push(LOpKind::LoadLane, known.back()->i);
          known.back() = nullptr;
        } else if (depth >= 1) {
          emit(LOpKind::LdDynLane);
          known.back() = nullptr;
        } else {
          scalar(src);
        }
        return;
      case Opcode::StL:
        if (depth >= 2 && top_is_int_push()) {
          fuse_push(LOpKind::StoreLane, known.back()->i);
          pop_known(2);
        } else if (depth >= 2) {
          emit(LOpKind::StDynLane);
          pop_known(2);
        } else {
          scalar(src);
        }
        return;
      case Opcode::LdM:
        if (top_is_int_push()) {
          fuse_push(LOpKind::BroadcastMono, known.back()->i);
          known.back() = nullptr;
        } else if (depth >= 1) {
          emit(LOpKind::LdMDynLane);
          known.back() = nullptr;
        } else {
          scalar(src);
        }
        return;
      case Opcode::StM:
        if (depth >= 2 && top_is_int_push()) {
          fuse_push(LOpKind::StoreMono, known.back()->i);
          pop_known(2);
        } else if (depth >= 2) {
          emit(LOpKind::StMDynLane);
          pop_known(2);
        } else {
          scalar(src);
        }
        return;
      case Opcode::RouteLd:
        if (depth >= 2) {
          emit(LOpKind::RouteLdLane);
          pop_known(2);
          push_known(nullptr);
        } else {
          scalar(src);
        }
        return;
      case Opcode::RouteSt:
        if (depth >= 3) {
          emit(LOpKind::RouteStLane);
          pop_known(3);
        } else {
          scalar(src);
        }
        return;
      case Opcode::Neg:
      case Opcode::Not:
      case Opcode::BitNot:
      case Opcode::CastI:
      case Opcode::CastF:
        if (depth >= 1) {
          LOp op{LOpKind::UnLane};
          op.instr = in;
          code.push_back(op);
          known.back() = nullptr;
        } else {
          scalar(src);
        }
        return;
      case Opcode::ProcId:
        emit(LOpKind::ProcIdLane);
        push_known(nullptr);
        return;
      case Opcode::NProcs:
        emit(LOpKind::NProcsLane);
        push_known(nullptr);
        return;
      default:  // binary (Add…Shr, LAnd, LOr)
        if (depth >= 2 && !code.empty() &&
            code.back().kind == LOpKind::PushLane && known.back() != nullptr) {
          const Value imm = *known.back();
          code.back() = LOp{LOpKind::BinImmLane};
          code.back().instr.op = in.op;
          code.back().instr.imm = imm;
          pop_known(1);
          known.back() = nullptr;
        } else if (depth >= 2) {
          LOp op{LOpKind::BinLane};
          op.instr = in;
          code.push_back(op);
          pop_known(1);
          known.back() = nullptr;
        } else {
          scalar(src);
        }
        return;
    }
  }

  void lower_pc(LOpKind k, ir::StateId a, ir::StateId b, std::int32_t src) {
    if (k == LOpKind::CondSetPcLane && depth < 1) {
      scalar(src);  // condition sits on the real stacks
      return;
    }
    LOp op{k};
    op.a = a;
    op.b = b;
    code.push_back(op);
    if (k == LOpKind::CondSetPcLane) pop_known(1);
  }

  void lower_top(const TOp& t, std::int32_t src) {
    switch (t.kind) {
      case TOpKind::Exec:
        lower_instr(t.instr, src);
        return;
      case TOpKind::PushI:
      case TOpKind::PushF: {
        LOp op{LOpKind::PushLane};
        op.instr = t.instr;
        code.push_back(op);
        push_known(&t.instr.imm);
        return;
      }
      case TOpKind::LdLImm: {
        LOp op{LOpKind::LoadLane};
        op.n = t.instr.imm.i;
        code.push_back(op);
        push_known(nullptr);
        return;
      }
      case TOpKind::StLImm:
        if (depth >= 1) {
          LOp op{LOpKind::StoreLane};
          op.n = t.instr.imm.i;
          code.push_back(op);
          pop_known(1);
        } else {
          scalar(src);
        }
        return;
      case TOpKind::LdMImm: {
        LOp op{LOpKind::BroadcastMono};
        op.n = t.instr.imm.i;
        code.push_back(op);
        push_known(nullptr);
        return;
      }
      case TOpKind::StMImm:
        if (depth >= 1) {
          LOp op{LOpKind::StoreMono};
          op.n = t.instr.imm.i;
          code.push_back(op);
          pop_known(1);
        } else {
          scalar(src);
        }
        return;
      case TOpKind::BinImm:
        if (depth >= 1) {
          LOp op{LOpKind::BinImmLane};
          op.instr = t.instr;
          code.push_back(op);
          known.back() = nullptr;
        } else {
          scalar(src);
        }
        return;
      case TOpKind::SetPc:
        lower_pc(LOpKind::SetPcLane, t.a, t.b, src);
        return;
      case TOpKind::CondSetPc:
        lower_pc(LOpKind::CondSetPcLane, t.a, t.b, src);
        return;
      case TOpKind::HaltPc:
        lower_pc(LOpKind::HaltPcLane, t.a, t.b, src);
        return;
      case TOpKind::SpawnPc:
        scalar(src);
        return;
    }
  }

  void finish() {
    if (depth > 0) {
      emit(LOpKind::Materialize);
      pop_known(depth);
    }
  }
};

}  // namespace

LanePlan build_lane_plan(const codegen::TransState& ts) {
  LanePlan plan;
  for (const codegen::TGroup& g : ts.groups) {
    LaneRun run;
    Lowerer lo;
    for (std::size_t k = 0; k < g.code.size(); ++k)
      lo.lower_top(g.code[k], static_cast<std::int32_t>(k));
    lo.finish();
    run.code = std::move(lo.code);
    run.max_depth = lo.max_depth;
    plan.runs.push_back(std::move(run));
  }
  return plan;
}

// ------------------------------------------------------------ LaneExecutor

LaneExecutor::LaneExecutor(ir::LaneStore& store, ir::MemoryBus& bus,
                           std::int64_t nprocs, SimdIsa isa)
    : store_(store),
      bus_(bus),
      nprocs_(nprocs),
      width_(static_cast<std::size_t>(store.width())),
      nwords_(store.mask_words()),
      kernels_(&lane_kernels(isa)) {}

void LaneExecutor::ensure_depth(std::int32_t depth) {
  while (static_cast<std::int32_t>(bufs_.size()) < depth) {
    LaneBuf b;
    b.tag.assign(width_, 0);
    b.ival.assign(width_, 0);
    b.fval.assign(width_, 0.0);
    slot_buf_.push_back(static_cast<std::int32_t>(bufs_.size()));
    bufs_.push_back(std::move(b));
  }
}

LaneExecutor::LaneBuf& LaneExecutor::push_slot() {
  ++depth_;
  return slot(depth_ - 1);
}

void LaneExecutor::materialize(const std::uint64_t* mask) {
  for_each_lane_bit(mask, nwords_, [&](std::size_t k) {
    auto& st = store_.stack(static_cast<std::int64_t>(k));
    for (std::int32_t s = 0; s < depth_; ++s)
      st.push_back(slot_value(slot(s), k));
  });
  depth_ = 0;
}

namespace {
inline bool elem_truthy(const LaneExecutor* /*unused*/, const std::uint8_t* tag,
                        const std::int64_t* iv, const double* fv,
                        std::size_t k) {
  return tag[k] != 0 ? fv[k] != 0.0 : iv[k] != 0;
}
}  // namespace

void LaneExecutor::run(const LaneRun& r, const std::uint64_t* mask,
                       LaneHost& host) {
  // +1: the gather ops (LdDynLane/LdMDynLane/RouteLdLane) push their
  // result above the operands before swapping it into place, so they
  // transiently need one slot beyond the plan's net stack depth.
  ensure_depth(r.max_depth + 1);
  depth_ = 0;
  const auto check_local = [&](std::int64_t addr, const char* what) {
    if (addr < 0 || addr >= store_.cells())
      throw MachineFault(cat(what, addr));
  };
  const auto fill_value = [&](LaneBuf& b, const Value& v) {
    std::memset(b.tag.data(), static_cast<int>(v.kind), width_);
    std::fill_n(b.ival.data(), width_, v.i);
    std::fill_n(b.fval.data(), width_, v.f);
  };
  const auto zero_buf = [&](LaneBuf& b) {
    std::memset(b.tag.data(), 0, width_);
    std::memset(b.ival.data(), 0, width_ * sizeof(std::int64_t));
    std::memset(b.fval.data(), 0, width_ * sizeof(double));
  };

  for (const LOp& op : r.code) {
    switch (op.kind) {
      case LOpKind::PushLane:
        fill_value(push_slot(), op.instr.imm);
        break;
      case LOpKind::LoadLane: {
        check_local(op.n, "local load out of range: ");
        LaneBuf& b = push_slot();
        std::memcpy(b.tag.data(), store_.tag_lane(op.n), width_);
        std::memcpy(b.ival.data(), store_.int_lane(op.n),
                    width_ * sizeof(std::int64_t));
        std::memcpy(b.fval.data(), store_.float_lane(op.n),
                    width_ * sizeof(double));
        break;
      }
      case LOpKind::StoreLane: {
        check_local(op.n, "local store out of range: ");
        store_.note_write(op.n);
        LaneBuf& b = slot(depth_ - 1);
        std::uint8_t* tl = store_.tag_lane(op.n);
        std::int64_t* il = store_.int_lane(op.n);
        double* fl = store_.float_lane(op.n);
        for (std::size_t w = 0; w < nwords_; ++w) {
          const std::uint64_t m = mask[w];
          if (m == 0) continue;
          const std::size_t base = w * 64;
          if (m == ~std::uint64_t{0}) {
            std::memcpy(tl + base, b.tag.data() + base, 64);
            std::memcpy(il + base, b.ival.data() + base, 64 * sizeof(std::int64_t));
            std::memcpy(fl + base, b.fval.data() + base, 64 * sizeof(double));
          } else {
            std::uint64_t mm = m;
            while (mm != 0) {
              const std::size_t k = base + static_cast<std::size_t>(__builtin_ctzll(mm));
              tl[k] = b.tag[k];
              il[k] = b.ival[k];
              fl[k] = b.fval[k];
              mm &= mm - 1;
            }
          }
        }
        --depth_;
        break;
      }
      case LOpKind::BroadcastMono:
        fill_value(push_slot(), bus_.mono_load(op.n));
        break;
      case LOpKind::StoreMono: {
        LaneBuf& b = slot(depth_ - 1);
        for_each_lane_bit(mask, nwords_, [&](std::size_t k) {
          bus_.mono_store(op.n, slot_value(b, k));
        });
        --depth_;
        break;
      }
      case LOpKind::LdDynLane: {
        LaneBuf& addr = slot(depth_ - 1);
        LaneBuf& dst = push_slot();
        zero_buf(dst);
        for_each_lane_bit(mask, nwords_, [&](std::size_t k) {
          const std::int64_t a = slot_value(addr, k).as_int();
          check_local(a, "local load out of range: ");
          dst.tag[k] = store_.tag_lane(a)[k];
          dst.ival[k] = store_.int_lane(a)[k];
          dst.fval[k] = store_.float_lane(a)[k];
        });
        std::swap(slot_buf_[static_cast<std::size_t>(depth_ - 1)],
                  slot_buf_[static_cast<std::size_t>(depth_ - 2)]);
        --depth_;
        break;
      }
      case LOpKind::StDynLane: {
        LaneBuf& addr = slot(depth_ - 1);
        LaneBuf& val = slot(depth_ - 2);
        for_each_lane_bit(mask, nwords_, [&](std::size_t k) {
          const std::int64_t a = slot_value(addr, k).as_int();
          check_local(a, "local store out of range: ");
          store_.note_write(a);
          store_.tag_lane(a)[k] = val.tag[k];
          store_.int_lane(a)[k] = val.ival[k];
          store_.float_lane(a)[k] = val.fval[k];
        });
        depth_ -= 2;
        break;
      }
      case LOpKind::LdMDynLane: {
        LaneBuf& addr = slot(depth_ - 1);
        LaneBuf& dst = push_slot();
        zero_buf(dst);
        for_each_lane_bit(mask, nwords_, [&](std::size_t k) {
          const Value v = bus_.mono_load(slot_value(addr, k).as_int());
          dst.tag[k] = static_cast<std::uint8_t>(v.kind);
          dst.ival[k] = v.i;
          dst.fval[k] = v.f;
        });
        std::swap(slot_buf_[static_cast<std::size_t>(depth_ - 1)],
                  slot_buf_[static_cast<std::size_t>(depth_ - 2)]);
        --depth_;
        break;
      }
      case LOpKind::StMDynLane: {
        LaneBuf& addr = slot(depth_ - 1);
        LaneBuf& val = slot(depth_ - 2);
        for_each_lane_bit(mask, nwords_, [&](std::size_t k) {
          bus_.mono_store(slot_value(addr, k).as_int(), slot_value(val, k));
        });
        depth_ -= 2;
        break;
      }
      case LOpKind::RouteLdLane: {
        LaneBuf& proc = slot(depth_ - 1);
        LaneBuf& addr = slot(depth_ - 2);
        LaneBuf& dst = push_slot();
        zero_buf(dst);
        for_each_lane_bit(mask, nwords_, [&](std::size_t k) {
          const Value v = bus_.route_load(slot_value(proc, k).as_int(),
                                          slot_value(addr, k).as_int());
          dst.tag[k] = static_cast<std::uint8_t>(v.kind);
          dst.ival[k] = v.i;
          dst.fval[k] = v.f;
        });
        std::swap(slot_buf_[static_cast<std::size_t>(depth_ - 1)],
                  slot_buf_[static_cast<std::size_t>(depth_ - 3)]);
        depth_ -= 2;
        break;
      }
      case LOpKind::RouteStLane: {
        LaneBuf& proc = slot(depth_ - 1);
        LaneBuf& addr = slot(depth_ - 2);
        LaneBuf& val = slot(depth_ - 3);
        for_each_lane_bit(mask, nwords_, [&](std::size_t k) {
          bus_.route_store(slot_value(proc, k).as_int(),
                           slot_value(addr, k).as_int(), slot_value(val, k));
        });
        depth_ -= 3;
        break;
      }
      case LOpKind::BinLane: {
        LaneBuf& b = slot(depth_ - 1);
        LaneBuf& a = slot(depth_ - 2);
        kernels_->bin(op.instr.op, a.tag.data(), a.ival.data(), a.fval.data(),
                      b.tag.data(), b.ival.data(), b.fval.data(), a.tag.data(),
                      a.ival.data(), a.fval.data(), mask, width_);
        --depth_;
        break;
      }
      case LOpKind::BinImmLane: {
        LaneBuf& a = slot(depth_ - 1);
        kernels_->bin_imm(op.instr.op, a.tag.data(), a.ival.data(),
                          a.fval.data(), op.instr.imm, a.tag.data(),
                          a.ival.data(), a.fval.data(), mask, width_);
        break;
      }
      case LOpKind::UnLane: {
        LaneBuf& a = slot(depth_ - 1);
        kernels_->un(op.instr.op, a.tag.data(), a.ival.data(), a.fval.data(),
                     a.tag.data(), a.ival.data(), a.fval.data(), mask, width_);
        break;
      }
      case LOpKind::DupLane: {
        LaneBuf& dst = push_slot();
        LaneBuf& src = slot(depth_ - 2);
        std::memcpy(dst.tag.data(), src.tag.data(), width_);
        std::memcpy(dst.ival.data(), src.ival.data(), width_ * sizeof(std::int64_t));
        std::memcpy(dst.fval.data(), src.fval.data(), width_ * sizeof(double));
        break;
      }
      case LOpKind::SwapLane:
        std::swap(slot_buf_[static_cast<std::size_t>(depth_ - 1)],
                  slot_buf_[static_cast<std::size_t>(depth_ - 2)]);
        break;
      case LOpKind::PopLane:
        depth_ -= static_cast<std::int32_t>(op.n);
        break;
      case LOpKind::ProcIdLane: {
        LaneBuf& b = push_slot();
        std::memset(b.tag.data(), 0, width_);
        for (std::size_t k = 0; k < width_; ++k)
          b.ival[k] = static_cast<std::int64_t>(k);
        std::memset(b.fval.data(), 0, width_ * sizeof(double));
        break;
      }
      case LOpKind::NProcsLane:
        fill_value(push_slot(), Value::of_int(nprocs_));
        break;
      case LOpKind::SetPcLane:
        for_each_lane_bit(mask, nwords_, [&](std::size_t k) {
          host.lane_set_next_pc(static_cast<std::int64_t>(k), op.a);
        });
        break;
      case LOpKind::CondSetPcLane: {
        LaneBuf& c = slot(depth_ - 1);
        for_each_lane_bit(mask, nwords_, [&](std::size_t k) {
          const bool t =
              elem_truthy(this, c.tag.data(), c.ival.data(), c.fval.data(), k);
          host.lane_set_next_pc(static_cast<std::int64_t>(k), t ? op.a : op.b);
        });
        --depth_;
        break;
      }
      case LOpKind::HaltPcLane:
        for_each_lane_bit(mask, nwords_, [&](std::size_t k) {
          host.lane_set_next_pc(static_cast<std::int64_t>(k), ir::kNoState);
        });
        break;
      case LOpKind::Materialize:
        materialize(mask);
        break;
      case LOpKind::ScalarSpan:
        host.lane_scalar_span(op.src, op.src_end, mask, nwords_);
        break;
    }
  }
}

}  // namespace msc::simd
