// Mutation-tests the fuzzing pipeline end to end: a converter bug is
// deliberately injected through EvalConfig::corrupt_conversion and the
// fuzzer must detect it, shrink the reproducer deterministically to a
// handful of lines, and round-trip its manifest. Also pins the pieces the
// pipeline is built from: the shrinker's fixpoint/determinism contract,
// the manifest codec, the coverage sink, and the option matrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "msc/fuzz/fuzz.hpp"
#include "msc/fuzz/manifest.hpp"

using namespace msc;
using namespace msc::fuzz;

namespace {

int count_lines(const std::string& s) {
  return static_cast<int>(std::count(s.begin(), s.end(), '\n'));
}

// The injected defect: swap the targets of the first meta state holding
// two or more transition arcs — a mis-wired divergent branch, the classic
// conversion bug shape.
void swap_arc_targets(core::ConvertResult& conv) {
  for (auto& st : conv.automaton.states) {
    if (st.arcs.size() >= 2) {
      std::swap(st.arcs[0].second, st.arcs[1].second);
      return;
    }
  }
}

TEST(FuzzSelftest, InjectedConverterBugIsDetectedAndShrunk) {
  FuzzOptions opts;
  opts.seed = 5;
  opts.time_budget_seconds = 240.0;  // iteration-capped long before this
  opts.max_iterations = 200;
  opts.max_findings = 1;
  opts.shrink = true;
  opts.eval.initial_active = 2;
  opts.eval.corrupt_conversion = swap_arc_targets;
  opts.gen.stmts = 4;
  opts.gen.max_depth = 2;
  opts.gen.allow_spawn = true;

  FuzzResult res = run_fuzzer(opts);
  ASSERT_EQ(res.findings.size(), 1u)
      << "fuzzer missed the injected converter bug in " << res.iterations
      << " iterations";
  const Finding& f = res.findings[0];
  EXPECT_NE(f.kind, FindingKind::CompileError) << f.detail;

  // Acceptance: the shrunk reproducer is tiny and still reproduces.
  EXPECT_LE(count_lines(f.source), 15) << f.source;
  EXPECT_TRUE(reproduces(f.source, opts.eval, f.spec, f.kind)) << f.source;

  // Shrinking is a pure function of (source, predicate): two runs over the
  // same input are byte-identical, and the fuzzer's own output is already
  // a fixpoint.
  auto pred = [&](const std::string& s) {
    return reproduces(s, opts.eval, f.spec, f.kind);
  };
  const std::string once = shrink_source(f.source, pred);
  const std::string twice = shrink_source(f.source, pred);
  EXPECT_EQ(once, twice);
  EXPECT_EQ(once, f.source);

  // The finding's manifest round-trips through the JSON codec.
  Manifest m = manifest_for(f, opts.eval, "repro_1.mimdc");
  Manifest back = parse_manifest(to_json(m));
  EXPECT_EQ(back.kind, to_string(f.kind));
  EXPECT_EQ(back.spec().label(), f.spec.label());
  EXPECT_EQ(back.nprocs, opts.eval.nprocs);
  EXPECT_EQ(back.initial_active, opts.eval.initial_active);
}

TEST(FuzzSelftest, CleanPipelineProducesNoFindings) {
  FuzzOptions opts;
  opts.seed = 11;
  opts.time_budget_seconds = 20.0;
  opts.max_iterations = 6;
  opts.eval.initial_active = 2;
  opts.gen.allow_spawn = true;
  FuzzResult res = run_fuzzer(opts);
  EXPECT_TRUE(res.findings.empty())
      << to_string(res.findings[0].kind) << "\n"
      << res.findings[0].detail << "\n"
      << res.findings[0].source;
  EXPECT_GT(res.features, 0u) << "coverage hooks never fired";
  EXPECT_GT(res.corpus_size, 0u);
}

// The kernel-shaped mutation seeds (DESIGN.md §12): one skeleton per
// verified kernel, every one well-formed, spawn-bearing where the kernel
// spawns, and differentially clean across the whole default matrix — a
// bad seed would poison every fuzzing run from iteration one.
TEST(FuzzSelftest, KernelSeedCorpusEvaluatesCleanAcrossTheMatrix) {
  std::vector<workload::GenProgram> seeds = kernel_seed_corpus();
  ASSERT_EQ(seeds.size(), 6u);
  bool any_spawn = false;
  EvalConfig cfg;  // defaults: nprocs=6, all active, seed 1
  for (const workload::GenProgram& p : seeds) {
    const std::string source = p.render();
    EXPECT_GT(p.block_bound(), 0);
    any_spawn = any_spawn || p.uses_spawn();
    EvalResult ev = evaluate(source, cfg, default_matrix());
    EXPECT_FALSE(ev.skipped) << source;
    if (ev.finding)
      ADD_FAILURE() << to_string(ev.finding->kind) << " in seed\n"
                    << source << "\n"
                    << ev.finding->detail;
  }
  EXPECT_TRUE(any_spawn) << "workqueue skeleton lost its spawn";
}

TEST(FuzzSelftest, ShrinkerReachesMinimalFormOnTextPredicates) {
  const std::string source =
      "poly int x;\n"
      "int main() {\n"
      "  poly int v0;\n"
      "  v0 = x + 3;\n"
      "  if (x % 2 == 0) {\n"
      "    v0 = v0 * 3;\n"
      "  } else {\n"
      "    v0 = v0 - 1;\n"
      "  }\n"
      "  wait;\n"
      "  return v0;\n"
      "}\n";
  auto pred = [](const std::string& s) {
    return s.find("v0 = v0 * 3;") != std::string::npos;
  };
  const std::string shrunk = shrink_source(source, pred);
  EXPECT_NE(shrunk.find("v0 = v0 * 3;"), std::string::npos);
  // Everything deletable around the marker is gone: the else branch, the
  // barrier, the unrelated statements, and the if wrapper itself.
  EXPECT_EQ(shrunk.find("else"), std::string::npos);
  EXPECT_EQ(shrunk.find("wait;"), std::string::npos);
  EXPECT_EQ(shrunk.find("v0 = x + 3;"), std::string::npos);
  EXPECT_EQ(shrunk.find("if ("), std::string::npos);
  // Deterministic and idempotent.
  EXPECT_EQ(shrunk, shrink_source(source, pred));
  EXPECT_EQ(shrunk, shrink_source(shrunk, pred));
}

TEST(FuzzSelftest, ShrinkerKeepsNonReproducingInputUnchanged) {
  const std::string source = "int main() {\n  return 0;\n}\n";
  EXPECT_EQ(shrink_source(source, [](const std::string&) { return false; }),
            source);
}

TEST(FuzzSelftest, ManifestRejectsMalformedInput) {
  EXPECT_THROW(parse_manifest("{"), std::runtime_error);
  EXPECT_THROW(parse_manifest("not json at all"), std::runtime_error);
  EXPECT_THROW(parse_manifest(R"({"schema": 2, "source_file": "a.mimdc"})"),
               std::runtime_error);  // unknown schema version
  EXPECT_THROW(parse_manifest(R"({"schema": 1})"),
               std::runtime_error);  // missing source_file
  EXPECT_THROW(parse_manifest(
                   R"({"schema": 1, "source_file": "a.mimdc", "prune": 7})"),
               std::runtime_error);  // non-boolean bool field
  // An engine parse_engine does not know fails the load with its message.
  try {
    parse_manifest(R"({"schema": 1, "source_file": "a.mimdc",
                       "engine": "fast"})");
    ADD_FAILURE() << "a manifest naming engine 'fast' loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "unknown SIMD engine 'fast' (expected reference|codegen)");
  }
  // Unknown keys are ignored (forward compatibility).
  Manifest m = parse_manifest(
      R"({"schema": 1, "source_file": "a.mimdc", "future_field": "ok"})");
  EXPECT_EQ(m.source_file, "a.mimdc");
  EXPECT_EQ(m.kind, "corpus");
}

TEST(FuzzSelftest, CoverageSinkScopingAndBuckets) {
  EXPECT_EQ(coverage_bucket(0), 0u);
  EXPECT_EQ(coverage_bucket(1), 1u);
  EXPECT_EQ(coverage_bucket(3), 2u);
  EXPECT_EQ(coverage_bucket(4), 3u);
  EXPECT_EQ(coverage_bucket(~0ull), 64u);

  FuzzCoverage cov;
  {
    ScopedCoverage installed(&cov);
    EXPECT_EQ(coverage_sink(), &cov);
    cov.begin_candidate();
    coverage_hit(cov::kConvertShape, 42);
    coverage_hit(cov::kConvertShape, 42);  // duplicate within a candidate
    coverage_hit(cov::kSimdRescue, 1);
    EXPECT_EQ(cov.candidate_features(), 2u);
    EXPECT_EQ(cov.merge(), 2u);
    cov.begin_candidate();
    coverage_hit(cov::kConvertShape, 42);  // already global: not novel
    EXPECT_EQ(cov.merge(), 0u);
    EXPECT_EQ(cov.total_features(), 2u);
  }
  EXPECT_EQ(coverage_sink(), nullptr);  // restored on scope exit
  coverage_hit(cov::kConvertShape, 7);  // no sink: must be a no-op
  EXPECT_EQ(cov.total_features(), 2u);
}

TEST(FuzzSelftest, DefaultMatrixCoversEveryMode) {
  const std::vector<RunSpec> matrix = default_matrix();
  std::vector<std::string> labels;
  bool reference = false, codegen = false, prune = false;
  bool compress = false;
  bool nosub = false, split = false, threaded = false, dme = false;
  for (const RunSpec& s : matrix) {
    labels.push_back(s.label());
    reference |= s.engine == mimd::SimdEngine::Reference;
    codegen |= s.engine == mimd::SimdEngine::Codegen;
    prune |= s.barrier_mode == core::BarrierMode::PaperPrune;
    compress |= s.has("compress");
    nosub |= s.has("compress") && !s.has("subsume");
    split |= s.has("time-split");
    dme |= s.has("dme");
    threaded |= s.threads > 1;
    EXPECT_TRUE(s.has("convert")) << s.label();
  }
  EXPECT_TRUE(reference && codegen && prune && compress && nosub &&
              split && threaded && dme);
  std::sort(labels.begin(), labels.end());
  EXPECT_EQ(std::adjacent_find(labels.begin(), labels.end()), labels.end())
      << "duplicate matrix cells";
}

TEST(FuzzSelftest, ManifestPipelineRoundTripAndLegacyFallback) {
  // Schema-1-with-pipeline manifests replay the pass list verbatim.
  Manifest m = parse_manifest(
      R"({"schema": 1, "source_file": "a.mimdc",
          "pipeline": "compress,convert,straighten", "threads": 2})");
  EXPECT_EQ(m.spec().pipeline,
            (std::vector<std::string>{"compress", "convert", "straighten"}));
  EXPECT_EQ(m.spec().threads, 2u);

  // Pre-pipeline manifests carry booleans; the spec they meant must be
  // reconstructed so every checked-in corpus manifest keeps replaying.
  Manifest legacy = parse_manifest(
      R"({"schema": 1, "source_file": "a.mimdc",
          "compress": true, "subsume": false, "time_split": true})");
  EXPECT_EQ(legacy.spec().pipeline,
            (std::vector<std::string>{"compress", "time-split", "convert",
                                      "straighten"}));
  // The booleans are translated at parse time, so writing the manifest
  // back out keeps the stages they stand for.
  Manifest split = parse_manifest(
      R"({"schema": 1, "source_file": "a.mimdc", "time_split": true})");
  const std::string label = "time-split,convert,subsume,straighten-t1/codegen";
  EXPECT_EQ(split.spec().label(), label);
  EXPECT_EQ(parse_manifest(to_json(split)).spec().label(), label);
  Manifest plain = parse_manifest(R"({"schema": 1, "source_file": "a.mimdc"})");
  EXPECT_EQ(plain.spec().pipeline,
            (std::vector<std::string>{"convert", "subsume", "straighten"}));
}

}  // namespace
