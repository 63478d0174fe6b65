// Ground-truth conformance: every verified kernel (src/kernels) must
// produce its host-side expected() answer — not merely agree with another
// engine — on both SIMD engines, across the default / dme / compress+
// subsume pipelines, at several PE counts including a word-boundary 65.
// The MIMD oracle is held to the same ground truth, so a bug shared by
// every engine (or by the converter) cannot hide behind differential
// equality.
#include <gtest/gtest.h>

#include <cstdlib>

#include "msc/driver/pipeline.hpp"
#include "msc/driver/runner.hpp"
#include "msc/kernels/verified.hpp"
#include "msc/support/str.hpp"

using namespace msc;

namespace {

struct Case {
  std::string kernel;
  std::int64_t n;
  mimd::SimdEngine engine;
  const char* pipeline;  // "default", "dme", "compress"
};

std::string case_name(const testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  return msc::cat(c.kernel, "_n", c.n, "_", simd::engine_name(c.engine), "_",
                  c.pipeline);
}

driver::PipelineOptions pipeline_options(const std::string& which) {
  driver::PipelineOptions popts;
  if (which == "dme")
    popts.pipeline = {"simplify", "peephole", "convert",
                      "subsume",  "dme",      "straighten"};
  else if (which == "compress")
    popts.pipeline = {"simplify", "peephole", "compress",
                      "convert",  "subsume",  "straighten"};
  return popts;
}

class KernelConformanceTest : public testing::TestWithParam<Case> {};

TEST_P(KernelConformanceTest, MatchesGroundTruth) {
  const Case& tc = GetParam();
  kernels::VerifiedParams params;
  params.n = tc.n;
  const kernels::VerifiedCase c = kernels::make_case(tc.kernel, params);

  ir::CostModel cost;
  auto converted = driver::convert(c.source, cost, pipeline_options(tc.pipeline));

  mimd::RunConfig config = c.config;
  config.engine = tc.engine;
  auto obs = driver::run_simd(converted.compiled, converted.conversion, config,
                              c.input_seed, cost);
  EXPECT_EQ(kernels::check(c, obs), "");
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const std::string& k : kernels::verified_names())
    for (std::int64_t n : {5, 16, 65})  // non-pow2, pow2, word boundary
      for (auto engine :
           {mimd::SimdEngine::Reference, mimd::SimdEngine::Codegen})
        for (const char* pipeline : {"default", "dme", "compress"})
          cases.push_back({k, n, engine, pipeline});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelConformanceTest,
                         testing::ValuesIn(all_cases()), case_name);

// The asynchronous MIMD oracle meets the same ground truth: expected()
// encodes the program's meaning, not an artifact of lockstep execution.
TEST(KernelGroundTruth, OracleMatches) {
  for (const std::string& k : kernels::verified_names()) {
    for (std::int64_t n : {5, 16, 65}) {
      kernels::VerifiedParams params;
      params.n = n;
      const kernels::VerifiedCase c = kernels::make_case(k, params);
      auto compiled = driver::compile(c.source);
      auto obs = driver::run_oracle(compiled, c.config, c.input_seed);
      EXPECT_EQ(kernels::check(c, obs), "") << k << " n=" << n;
    }
  }
}

// A machine wider than the problem: trailing PEs must never run and the
// participating prefix still meets ground truth (initial_active < nprocs,
// spawn claims keep inside the expected range).
TEST(KernelGroundTruth, WiderMachineThanProblem) {
  for (const std::string& k : kernels::verified_names()) {
    kernels::VerifiedParams params;
    params.n = 13;
    params.nprocs = 16;
    const kernels::VerifiedCase c = kernels::make_case(k, params);
    ir::CostModel cost;
    auto converted = driver::convert(c.source, cost, driver::PipelineOptions{});
    mimd::RunConfig config = c.config;
    auto obs = driver::run_simd(converted.compiled, converted.conversion,
                                config, c.input_seed, cost);
    EXPECT_EQ(kernels::check(c, obs), "") << k;
  }
}

// Ground truth is seed-sensitive where the kernel consumes inputs: two
// different seeds produce different expected vectors (guards against an
// expected() that ignores its inputs).
TEST(KernelGroundTruth, SeedSensitivity) {
  for (const std::string& k : kernels::verified_names()) {
    kernels::VerifiedParams a, b;
    a.n = b.n = 16;
    a.input_seed = 1;
    b.input_seed = 99;
    const auto ca = kernels::make_case(k, a);
    const auto cb = kernels::make_case(k, b);
    if (ca.uses_seed_input)
      EXPECT_NE(ca.expected_results, cb.expected_results) << k;
    else
      EXPECT_EQ(ca.expected_results, cb.expected_results) << k;
  }
}

TEST(KernelGroundTruth, ParseCaseSpecs) {
  const auto c = kernels::parse_case("reduce@65");
  EXPECT_EQ(c.n, 65);
  EXPECT_EQ(c.name, "reduce");
  EXPECT_EQ(kernels::parse_case("scan").n, kernels::VerifiedParams{}.n);
  EXPECT_THROW(kernels::parse_case("reduce@banana"), std::invalid_argument);
  EXPECT_THROW(kernels::parse_case("nosuch"), std::out_of_range);
  EXPECT_THROW(kernels::make_case("reduce", {.n = 0}), std::invalid_argument);
  kernels::VerifiedParams narrow;
  narrow.n = 8;
  narrow.nprocs = 4;
  EXPECT_THROW(kernels::make_case("reduce", narrow), std::invalid_argument);
}

}  // namespace
