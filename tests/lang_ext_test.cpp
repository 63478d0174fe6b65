// Tests for the MIMDC language extensions: compound assignment,
// increment/decrement, and break/continue — end-to-end through the oracle
// and the converted SIMD automaton.
#include <gtest/gtest.h>

#include "msc/driver/pipeline.hpp"
#include "msc/driver/runner.hpp"
#include "msc/frontend/parser.hpp"

#include "user_conversion.hpp"

using namespace msc;
using msc::CompileError;

namespace {

ir::CostModel kCost;

/// Run `src` on 1 PE through the oracle and return main's result.
std::int64_t run1(const std::string& src) {
  auto compiled = driver::compile(src);
  mimd::RunConfig cfg;
  cfg.nprocs = 1;
  auto obs = driver::run_oracle(compiled, cfg, 0);
  return obs.results[0].i;
}

/// Run on 4 PEs through oracle and all SIMD modes; EXPECT equality and
/// return PE0's oracle result.
std::int64_t run_checked(const std::string& src) {
  auto compiled = driver::compile(src);
  mimd::RunConfig cfg;
  cfg.nprocs = 4;
  auto oracle = driver::run_oracle(compiled, cfg, 5);
  for (bool compress : {false, true}) {
    auto conv = test::convert(compiled.graph, kCost,
                              compress ? test::kCompressStages : test::kStages);
    auto simd = driver::run_simd(compiled, conv, cfg, 5, kCost);
    EXPECT_TRUE(oracle == simd) << src << "\noracle: " << oracle.to_string()
                                << "\nsimd:   " << simd.to_string();
  }
  return oracle.results[0].i;
}

}  // namespace

// ------------------------------------------------------- compound assignment

TEST(CompoundAssign, AllOperators) {
  EXPECT_EQ(run1("int main() { int a; a = 10; a += 3; return a; }"), 13);
  EXPECT_EQ(run1("int main() { int a; a = 10; a -= 3; return a; }"), 7);
  EXPECT_EQ(run1("int main() { int a; a = 10; a *= 3; return a; }"), 30);
  EXPECT_EQ(run1("int main() { int a; a = 10; a /= 3; return a; }"), 3);
  EXPECT_EQ(run1("int main() { int a; a = 10; a %= 3; return a; }"), 1);
  EXPECT_EQ(run1("int main() { int a; a = 12; a &= 10; return a; }"), 8);
  EXPECT_EQ(run1("int main() { int a; a = 12; a |= 3; return a; }"), 15);
  EXPECT_EQ(run1("int main() { int a; a = 12; a ^= 10; return a; }"), 6);
  EXPECT_EQ(run1("int main() { int a; a = 3; a <<= 2; return a; }"), 12);
  EXPECT_EQ(run1("int main() { int a; a = 12; a >>= 2; return a; }"), 3);
}

TEST(CompoundAssign, YieldsItsValue) {
  EXPECT_EQ(run1("int main() { int a; int b; a = 5; b = (a += 2); "
                 "return b * 100 + a; }"),
            707);
}

TEST(CompoundAssign, OnArrayElement) {
  EXPECT_EQ(run1("int main() { int a[3]; a[1] = 4; a[1] += 5; return a[1]; }"), 9);
  // Subscript evaluated relative to mutated state consistently.
  EXPECT_EQ(run1("int main() { int a[3]; int i; i = 2; a[2] = 7; "
                 "a[i] *= 2; return a[2]; }"),
            14);
}

TEST(CompoundAssign, FloatTargetTruncationRules) {
  EXPECT_EQ(run1("int main() { float f; f = 2.5; f += 1; return f * 2.0; }"), 7);
  EXPECT_EQ(run1("int main() { int a; a = 7; a /= 2; return a; }"), 3);
  // int target += float: result converts back to int (C semantics).
  EXPECT_EQ(run1("int main() { int a; a = 1; a += 2.9; return a; }"), 3);
}

TEST(CompoundAssign, RhsWithSideEffectsRunsOnce) {
  EXPECT_EQ(run1("int counter;"
                 "int bump() { counter += 1; return counter; }"
                 "int main() { int a; a = 10; a += bump(); "
                 "return a * 10 + counter; }"),
            111);
}

TEST(CompoundAssign, ImpureSubscriptRejected) {
  EXPECT_THROW(run1("int f() { return 1; }"
                    "int main() { int a[3]; a[f()] += 1; return 0; }"),
               CompileError);
  EXPECT_THROW(run1("int main() { int a[3]; int i; i = 0; a[i++] += 1; "
                    "return 0; }"),
               CompileError);
}

TEST(CompoundAssign, TypeRules) {
  EXPECT_THROW(run1("int main() { float f; f %= 2; return 0; }"), CompileError);
  EXPECT_THROW(run1("int main() { float f; f <<= 1; return 0; }"), CompileError);
  EXPECT_THROW(run1("int main() { int a[2]; a += 1; return 0; }"), CompileError);
}

// ------------------------------------------------------------------- inc/dec

TEST(IncDec, PrefixYieldsNewValue) {
  EXPECT_EQ(run1("int main() { int a; a = 5; return ++a * 100 + a; }"), 606);
  EXPECT_EQ(run1("int main() { int a; a = 5; return --a * 100 + a; }"), 404);
}

TEST(IncDec, PostfixYieldsOldValue) {
  EXPECT_EQ(run1("int main() { int a; a = 5; return a++ * 100 + a; }"), 506);
  EXPECT_EQ(run1("int main() { int a; a = 5; return a-- * 100 + a; }"), 504);
}

TEST(IncDec, OnArrayAndFloat) {
  EXPECT_EQ(run1("int main() { int a[2]; a[1] = 9; a[1]++; ++a[1]; "
                 "return a[1]; }"),
            11);
  EXPECT_EQ(run1("int main() { float f; f = 1.5; ++f; return f * 2.0; }"), 5);
}

TEST(IncDec, RequiresLvalue) {
  EXPECT_THROW(run1("int main() { return 3++; }"), CompileError);
  EXPECT_THROW(run1("int main() { return ++procid(); }"), CompileError);
}

// ------------------------------------------------------------ break/continue

TEST(BreakContinue, BreakLeavesLoop) {
  EXPECT_EQ(run1("int main() { int i; int s; s = 0; "
                 "for (i = 0; i < 10; i++) { if (i == 4) { break; } s += i; } "
                 "return s * 100 + i; }"),
            604);  // 0+1+2+3=6, stopped at i=4
}

TEST(BreakContinue, ContinueSkipsRest) {
  EXPECT_EQ(run1("int main() { int i; int s; s = 0; "
                 "for (i = 0; i < 6; i++) { if (i % 2) { continue; } s += i; } "
                 "return s; }"),
            6);  // 0+2+4
}

TEST(BreakContinue, ContinueInForStillRunsStep) {
  // Classic infinite-loop bug if continue skips the step.
  EXPECT_EQ(run1("int main() { int i; int n; n = 0; "
                 "for (i = 0; i < 5; i++) { continue; n = 99; } return i; }"),
            5);
}

TEST(BreakContinue, WhileAndDoWhile) {
  EXPECT_EQ(run1("int main() { int i; i = 0; "
                 "while (1) { i++; if (i >= 7) { break; } } return i; }"),
            7);
  EXPECT_EQ(run1("int main() { int i; int s; i = 0; s = 0; "
                 "do { i++; if (i == 2) { continue; } s += i; } while (i < 4); "
                 "return s; }"),
            8);  // 1+3+4
}

TEST(BreakContinue, NestedLoopsBindInnermost) {
  EXPECT_EQ(run1("int main() { int i; int j; int s; s = 0; "
                 "for (i = 0; i < 3; i++) { "
                 "  for (j = 0; j < 10; j++) { if (j == 2) { break; } s++; } "
                 "} return s; }"),
            6);
}

TEST(BreakContinue, OutsideLoopRejected) {
  EXPECT_THROW(run1("int main() { break; return 0; }"), CompileError);
  EXPECT_THROW(run1("int main() { continue; return 0; }"), CompileError);
  // A spawn body is a fresh process: enclosing loops don't apply.
  EXPECT_THROW(run1("int main() { int i; for (i = 0; i < 2; i++) { "
                    "spawn { break; } } return 0; }"),
               CompileError);
}

// ------------------------------- end-to-end through the meta-state machinery

TEST(LangExt, DivergentBreakMatchesSimd) {
  run_checked(R"(poly int x;
int main() {
  poly int i;
  poly int s;
  s = 0;
  for (i = 0; i < 10; i++) {
    if (i > (x % 5)) { break; }
    s += i * i;
    if ((x & 1) && i == 2) { continue; }
    s++;
  }
  return s * 10 + i;
}
)");
}

TEST(LangExt, CompoundOpsOnRouteTargets) {
  run_checked(R"(int main() {
  poly int v;
  v = procid() * 10;
  wait;
  v[[(procid() + 1) % nprocs()]] += 1000;
  wait;
  return v;
}
)");
}
