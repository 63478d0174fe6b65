// The PassManager contract: pipeline construction errors, per-pass
// telemetry, byte-identity of the pass-based toolchain with the legacy
// direct call chain, adaptive parity across the driver overloads, trace
// emission (and its failure paths), --verify-each pinpointing, and the
// dme cleanup pass.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "msc/core/dme.hpp"
#include "msc/core/straighten.hpp"
#include "msc/core/subsume.hpp"
#include "msc/driver/pipeline.hpp"
#include "msc/pass/pass.hpp"
#include "msc/support/str.hpp"
#include "msc/workload/kernels.hpp"

using namespace msc;
using pass::ManagerOptions;
using pass::PassManager;
using pass::PipelineError;

namespace {

const ir::CostModel kCost;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::string tmp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

ManagerOptions mo(std::vector<std::string> pipeline,
                  std::vector<std::string> disabled = {}) {
  ManagerOptions o;
  o.pipeline = std::move(pipeline);
  o.disabled = std::move(disabled);
  return o;
}

/// The legacy pre-PassManager toolchain, spelled as the explicit primitive
/// chain: engine conversion, then Fig. 5 subsumption (compressed automata
/// only) and §4.2 straightening. The pipeline must reproduce this byte for
/// byte.
core::ConvertResult legacy_convert(const std::string& source,
                                   const core::ConvertOptions& opts,
                                   bool subsume) {
  driver::Compiled compiled = driver::compile(source);
  core::ConvertResult conv =
      core::meta_state_convert(compiled.graph, kCost, opts);
  if (subsume && conv.automaton.compressed) {
    core::subsume_automaton(conv.automaton);
    conv.stats.meta_states = conv.automaton.num_states();
    conv.stats.arcs = conv.automaton.num_arcs();
  }
  core::straighten(conv.automaton);
  return conv;
}

/// The pass lists mscc --compress and --split select.
const std::vector<std::string> kCompressPipeline = {
    "simplify", "peephole", "compress", "convert", "subsume", "straighten"};
const std::vector<std::string> kSplitPipeline = {
    "simplify", "peephole", "time-split", "convert", "subsume", "straighten"};

driver::PipelineOptions with_pipeline(std::vector<std::string> pipeline) {
  driver::PipelineOptions popts;
  popts.pipeline = std::move(pipeline);
  return popts;
}

}  // namespace

// ---------------------------------------------------------- construction

TEST(PassManager, DefaultPipelineIsTheRegisteredDefaults) {
  PassManager pm(ManagerOptions{});
  EXPECT_EQ(pm.names(),
            (std::vector<std::string>{"simplify", "peephole", "convert",
                                      "subsume", "straighten"}));
  EXPECT_TRUE(pm.contains("convert"));
  EXPECT_FALSE(pm.contains("dme"));
}

TEST(PassManager, PrintablePassRegistryCoversEveryStage) {
  bool ir = false, config = false, convert = false, automaton = false,
       codegen = false;
  for (const pass::Pass& p : pass::registered_passes()) {
    EXPECT_FALSE(p.name.empty());
    EXPECT_FALSE(p.description.empty()) << p.name;
    EXPECT_TRUE(p.run != nullptr) << p.name;
    ir |= p.stage == pass::Stage::IR;
    config |= p.stage == pass::Stage::Config;
    convert |= p.stage == pass::Stage::Convert;
    automaton |= p.stage == pass::Stage::Automaton;
    codegen |= p.stage == pass::Stage::Codegen;
  }
  EXPECT_TRUE(ir && config && convert && automaton && codegen);
}

TEST(PassManager, RejectsUnknownDuplicateAndEmptyPipelines) {
  EXPECT_THROW(PassManager(mo({"convert", "frobnicate"})),
               PipelineError);
  EXPECT_THROW(PassManager(mo({"convert", "subsume", "subsume"})),
               PipelineError);
  EXPECT_THROW(PassManager(mo({"simplify"}, {"simplify"})),
               PipelineError);  // empty after disabling
  EXPECT_THROW(PassManager(mo({}, {"frobnicate"})), PipelineError);
  try {
    PassManager(mo({"nope"}));
    FAIL() << "unknown pass accepted";
  } catch (const PipelineError& e) {
    // The error lists the registry so the typo is self-diagnosing.
    EXPECT_NE(std::string(e.what()).find("unknown pass 'nope'"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("straighten"), std::string::npos);
  }
}

TEST(PassManager, RejectsInvariantViolatingOrders) {
  // Automaton/codegen passes need a conversion to exist.
  EXPECT_THROW(PassManager(mo({"subsume", "convert"})), PipelineError);
  EXPECT_THROW(PassManager(mo({"straighten"})), PipelineError);
  EXPECT_THROW(PassManager(mo({"codegen", "convert"})), PipelineError);
  // IR and config passes cannot run after conversion.
  EXPECT_THROW(PassManager(mo({"convert", "simplify"})),
               PipelineError);
  EXPECT_THROW(PassManager(mo({"convert", "compress"})),
               PipelineError);
  // A config pass with nothing to configure is meaningless.
  EXPECT_THROW(PassManager(mo({"compress", "simplify"})),
               PipelineError);
  // At most one conversion.
  EXPECT_THROW(PassManager(mo({"convert", "convert"})),
               PipelineError);
  // Valid reorderings construct fine.
  EXPECT_NO_THROW(PassManager(mo({"peephole", "simplify", "convert", "straighten", "dme"})));
}

TEST(PassManager, RegisterPassRejectsDuplicatesAndBrokenPasses) {
  EXPECT_FALSE(pass::register_pass(
      {"convert", "dup", pass::Stage::Convert, false,
       [](pass::PipelineState&, pass::Counters&) {}}));
  EXPECT_FALSE(pass::register_pass({"", "anonymous", pass::Stage::IR, false,
                                    [](pass::PipelineState&, pass::Counters&) {}}));
  EXPECT_FALSE(pass::register_pass({"no-run", "missing fn", pass::Stage::IR,
                                    false, nullptr}));
}

// ------------------------------------------------------- byte identity

TEST(Pipeline, DefaultPipelineMatchesLegacyCallChainByteForByte) {
  // Every conversion mode, over every checked-in kernel shape: the pass
  // pipeline must reproduce the legacy direct call chain exactly.
  struct Mode {
    const char* name;
    core::ConvertOptions opts;  ///< the legacy chain's engine options
    bool subsume;
    std::vector<std::string> pipeline;
  };
  std::vector<Mode> modes;
  modes.push_back({"base", {}, true, pass::default_pipeline()});
  {
    core::ConvertOptions o;
    o.compress = true;
    modes.push_back({"compress", o, true, kCompressPipeline});
    modes.push_back({"compress-nosub", o, false,
                     {"simplify", "peephole", "compress", "convert",
                      "straighten"}});
  }
  {
    core::ConvertOptions o;
    o.barrier_mode = core::BarrierMode::PaperPrune;
    modes.push_back({"prune", o, true, pass::default_pipeline()});
  }
  {
    core::ConvertOptions o;
    o.time_split = true;
    modes.push_back({"split", o, true, kSplitPipeline});
  }
  const std::vector<std::string> sources = {
      workload::listing1().source, workload::listing3().source,
      workload::listing4().source, workload::branchy_source(4),
      workload::loopy_barrier_source(3)};
  for (const Mode& mode : modes) {
    for (std::size_t i = 0; i < sources.size(); ++i) {
      driver::PipelineOptions popts = with_pipeline(mode.pipeline);
      popts.convert.barrier_mode = mode.opts.barrier_mode;
      core::ConvertResult legacy;
      try {
        legacy = legacy_convert(sources[i], mode.opts, mode.subsume);
      } catch (const CompileError&) {
        // PaperPrune rejections (multi-barrier loopy_barrier_source) must
        // be byte-identical too: the pipeline throws the same error.
        EXPECT_THROW(driver::convert(sources[i], kCost, popts), CompileError)
            << mode.name << " kernel " << i;
        continue;
      }
      driver::Converted now = driver::convert(sources[i], kCost, popts);
      EXPECT_EQ(legacy.automaton.dump(), now.conversion.automaton.dump())
          << mode.name << " kernel " << i;
      EXPECT_EQ(legacy.stats.meta_states, now.conversion.stats.meta_states)
          << mode.name << " kernel " << i;
      EXPECT_EQ(legacy.stats.arcs, now.conversion.stats.arcs)
          << mode.name << " kernel " << i;
    }
  }
}

TEST(Pipeline, ShorthandsTranslateIntoTheDefaultPipeline) {
  // The stage shorthands are pass-list edits of the default pipeline.
  EXPECT_EQ(pass::shorthand_pipeline(false, false, true),
            pass::default_pipeline());
  EXPECT_EQ(pass::shorthand_pipeline(true, true, true),
            (std::vector<std::string>{"simplify", "peephole", "compress",
                                      "time-split", "convert", "subsume",
                                      "straighten"}));
  EXPECT_EQ(pass::shorthand_pipeline(false, true, false),
            (std::vector<std::string>{"simplify", "peephole", "time-split",
                                      "convert", "straighten"}));
  EXPECT_EQ(pass::shorthand_pipeline(true, false, true), kCompressPipeline);
  EXPECT_EQ(pass::shorthand_pipeline(false, true, true), kSplitPipeline);
  // The driver resolves an empty pass list to the default pipeline and
  // reads no ConvertOptions field to do it.
  driver::PipelineOptions popts;
  popts.convert.compress = true;
  EXPECT_EQ(driver::resolve_pipeline(popts), pass::default_pipeline());
  // Only the config passes select the modes: a caller-set engine flag is
  // an error rather than a silently ignored setting.
  for (bool compress : {false, true}) {
    driver::PipelineOptions set;
    set.convert.compress = compress;
    set.convert.time_split = !compress;
    EXPECT_THROW(driver::convert(workload::listing4().source, kCost, set),
                 PipelineError);
    driver::Compiled compiled = driver::compile(workload::listing4().source);
    EXPECT_THROW(pass::run_conversion_pipeline(compiled.graph, kCost,
                                               {"convert"}, set.convert),
                 PipelineError);
  }
}

// ------------------------------------------------------ adaptive parity

TEST(Pipeline, AdaptiveMatchesNonAdaptiveWhenNothingExplodes) {
  driver::PipelineOptions plain, adaptive;
  adaptive.adaptive = true;
  driver::Converted a =
      driver::convert(workload::listing1().source, kCost, plain);
  driver::Converted b =
      driver::convert(workload::listing1().source, kCost, adaptive);
  EXPECT_EQ(a.conversion.automaton.dump(), b.conversion.automaton.dump());
  EXPECT_FALSE(b.conversion.automaton.compressed);
}

TEST(Pipeline, AdaptiveFallsBackToCompressionOnExplosion) {
  driver::PipelineOptions popts;
  popts.convert.max_meta_states = 200;
  popts.adaptive = true;
  const std::string big = workload::loopy_source(8);
  driver::Converted conv = driver::convert(big, kCost, popts);
  EXPECT_TRUE(conv.conversion.automaton.compressed);
  // Identical to asking for compression up front.
  driver::PipelineOptions direct = with_pipeline(kCompressPipeline);
  direct.convert.max_meta_states = 200;
  driver::Converted want = driver::convert(big, kCost, direct);
  EXPECT_EQ(conv.conversion.automaton.dump(),
            want.conversion.automaton.dump());
  // Without the adaptive policy the same request must throw.
  driver::PipelineOptions no_fallback;
  no_fallback.convert.max_meta_states = 200;
  EXPECT_THROW(driver::convert(big, kCost, no_fallback), core::ExplosionError);
}

// ----------------------------------------------------------- telemetry

TEST(Pipeline, TraceRecordsEveryPassBoundary) {
  driver::PipelineOptions popts = with_pipeline(kCompressPipeline);
  // listing3 keeps conditional arcs even after compression, so the
  // post-convert arc metric is observable.
  driver::Converted conv =
      driver::convert(workload::listing3().source, kCost, popts);
  const telemetry::PipelineTrace& trace = conv.trace;
  ASSERT_EQ(trace.passes.size(), 6u);  // simplify peephole compress convert
                                       // subsume straighten
  // Metrics are n/a before conversion and populated after it.
  const telemetry::PassRecord& convert = trace.passes[3];
  EXPECT_EQ(convert.name, "convert");
  EXPECT_EQ(convert.before.meta_states, -1);
  EXPECT_GT(convert.after.meta_states, 0);
  EXPECT_GT(convert.after.meta_arcs, 0);
  // The convert pass surfaces its cache counters.
  bool has_cache_counter = false;
  for (const auto& [k, v] : convert.counters)
    has_cache_counter |= k == "cache_misses" && v > 0;
  EXPECT_TRUE(has_cache_counter);
  EXPECT_GE(trace.total_seconds, 0.0);
  // The spliced raw ConvertStats section rides along in the JSON.
  const std::string json = trace.to_json();
  EXPECT_NE(json.find("\"schema\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"convert\": {"), std::string::npos) << json;
  EXPECT_NE(json.find("\"phase_seconds\""), std::string::npos) << json;
}

TEST(Pipeline, PassTimingsFileEmissionAndWriteFailure) {
  const std::string path = tmp_path("pipeline_timings.json");
  driver::PipelineOptions popts;
  popts.pass_timings_path = path;
  driver::convert(workload::listing1().source, kCost, popts);
  const std::string json = read_file(path);
  EXPECT_NE(json.find("\"pipeline\": [\"simplify\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"total_seconds\""), std::string::npos);
  std::remove(path.c_str());

  driver::PipelineOptions bad;
  bad.pass_timings_path = tmp_path("no/such/dir/timings.json");
  EXPECT_THROW(driver::convert(workload::listing1().source, kCost, bad),
               std::runtime_error);
  // The legacy trace-convert path fails the same way.
  driver::PipelineOptions badtrace;
  badtrace.trace_convert_path = tmp_path("no/such/dir/trace.json");
  EXPECT_THROW(driver::convert(workload::listing1().source, kCost, badtrace),
               std::runtime_error);
}

// ---------------------------------------------------------- verify-each

TEST(Pipeline, VerifyEachPinpointsTheCorruptingPass) {
  // Register (once) a pass that mis-wires the automaton, then demand
  // --verify-each name it. This is the whole point of boundary checking:
  // the failure is attributed to the pass that caused it, not discovered
  // three stages later.
  static bool registered = pass::register_pass(
      {"corrupt-for-test", "test-only: point the first arc at a bogus state",
       pass::Stage::Automaton, /*default_on=*/false,
       [](pass::PipelineState& st, pass::Counters&) {
         auto& aut = st.conversion->automaton;
         for (auto& ms : aut.states)
           if (!ms.arcs.empty()) {
             ms.arcs[0].second = static_cast<core::MetaId>(aut.states.size() + 7);
             return;
           }
       }});
  ASSERT_TRUE(registered);

  driver::PipelineOptions popts;
  popts.pipeline = {"simplify", "peephole", "convert", "corrupt-for-test",
                    "straighten"};
  popts.verify_each = true;
  try {
    driver::convert(workload::listing1().source, kCost, popts);
    FAIL() << "verify-each missed the corruption";
  } catch (const PipelineError& e) {
    EXPECT_NE(std::string(e.what()).find("after pass 'corrupt-for-test'"),
              std::string::npos)
        << e.what();
  }
  // Without verification the corruption sails through undetected (that's
  // the bug class --verify-each exists for). End the pipeline at the
  // corrupting pass: downstream passes would index the bogus state id.
  popts.verify_each = false;
  popts.pipeline = {"simplify", "peephole", "convert", "corrupt-for-test"};
  driver::Converted sailed;
  EXPECT_NO_THROW(sailed =
                      driver::convert(workload::listing1().source, kCost, popts));
  EXPECT_FALSE(
      sailed.conversion.automaton.validate(sailed.conversion.graph).empty());
}

TEST(Pipeline, VerifyEachAcceptsEveryDefaultMode) {
  for (const auto& pipeline : {kCompressPipeline, kSplitPipeline}) {
    driver::PipelineOptions popts = with_pipeline(pipeline);
    popts.verify_each = true;
    EXPECT_NO_THROW(driver::convert(workload::listing4().source, kCost, popts))
        << join(pipeline, ",");
  }
}

// ------------------------------------------------------------- the dme pass

TEST(Pipeline, DmeIsANoOpOnFreshConverterOutput) {
  // The converter only creates reachable states and never duplicates an
  // (APC, target) arc, so dme must find nothing to do — and therefore
  // cannot perturb the default pipeline.
  for (const auto& pipeline : {pass::default_pipeline(), kCompressPipeline}) {
    driver::PipelineOptions with = with_pipeline(pipeline);
    driver::PipelineOptions without = with_pipeline(pipeline);
    with.pipeline.push_back("dme");
    driver::Converted a =
        driver::convert(workload::listing4().source, kCost, with);
    driver::Converted b =
        driver::convert(workload::listing4().source, kCost, without);
    EXPECT_EQ(a.conversion.automaton.dump(), b.conversion.automaton.dump());
    const telemetry::PassRecord& dme = a.trace.passes.back();
    ASSERT_EQ(dme.name, "dme");
    for (const auto& [k, v] : dme.counters) EXPECT_EQ(v, 0) << k;
  }
}

TEST(Pipeline, DmeRemovesUnreachableStatesAndDuplicateArcs) {
  driver::Converted conv = driver::convert(
      workload::listing1().source, kCost, driver::PipelineOptions{});
  core::MetaAutomaton aut = conv.conversion.automaton;
  const std::size_t before = aut.num_states();
  // Graft an unreachable state and a duplicate arc.
  core::MetaState orphan = aut.states[1];
  orphan.arcs.clear();
  aut.states.push_back(orphan);
  ASSERT_FALSE(aut.states[0].arcs.empty());
  aut.states[0].arcs.push_back(aut.states[0].arcs[0]);
  core::DmeResult r = core::eliminate_dead_states(aut);
  EXPECT_EQ(r.states_removed, 1u);
  EXPECT_EQ(r.arcs_removed, 1u);
  EXPECT_EQ(aut.num_states(), before);
  EXPECT_EQ(aut.dump(), conv.conversion.automaton.dump());
}

// ----------------------------------------------------- pipeline shaping

TEST(Pipeline, DisablingSubsumeKeepsSubsetStates) {
  driver::PipelineOptions with = with_pipeline(kCompressPipeline);
  driver::PipelineOptions without = with_pipeline(kCompressPipeline);
  without.disabled = {"subsume"};
  driver::Converted a =
      driver::convert(workload::listing4().source, kCost, with);
  driver::Converted b =
      driver::convert(workload::listing4().source, kCost, without);
  EXPECT_LT(a.conversion.automaton.num_states(),
            b.conversion.automaton.num_states());
}

TEST(Pipeline, CodegenPassProducesTheProgram) {
  driver::PipelineOptions popts;
  popts.pipeline = {"simplify", "peephole", "convert", "subsume", "straighten",
                    "codegen"};
  driver::Converted conv =
      driver::convert(workload::listing4().source, kCost, popts);
  ASSERT_TRUE(conv.prog.has_value());
  EXPECT_EQ(conv.prog->states.size(), conv.conversion.automaton.num_states());
  // Without the codegen pass no program materializes.
  driver::Converted bare = driver::convert(workload::listing4().source, kCost,
                                           driver::PipelineOptions{});
  EXPECT_FALSE(bare.prog.has_value());
}

TEST(Pipeline, RunConversionPipelineRequiresAConvertPass) {
  driver::Compiled compiled = driver::compile(workload::listing1().source);
  EXPECT_THROW(pass::run_conversion_pipeline(compiled.graph, kCost,
                                             {"simplify"}, {}),
               PipelineError);
  core::ConvertResult conv = pass::run_conversion_pipeline(
      compiled.graph, kCost, {"convert", "subsume", "straighten"}, {});
  EXPECT_EQ(conv.automaton.num_states(), 8u);
}
