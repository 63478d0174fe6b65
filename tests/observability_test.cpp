// The observability layer's own contracts (DESIGN.md §10): the metrics
// registry's typed-name discipline and stable references, Chrome-trace
// JSON validity, the in-repo JSON parser the tooling reads it back with,
// and — the load-bearing one — that per-meta-state profiles sum bit-
// exactly to the run's SimdStats totals and are identical across engines
// for every corpus reproducer.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "msc/driver/pipeline.hpp"
#include "msc/driver/runner.hpp"
#include "msc/support/json.hpp"
#include "msc/support/metrics.hpp"
#include "msc/support/str.hpp"
#include "msc/support/trace.hpp"
#include "msc/workload/kernels.hpp"

#include "user_conversion.hpp"

using namespace msc;
namespace fs = std::filesystem;

namespace {

ir::CostModel kCost;

// ------------------------------------------------------------------ metrics

TEST(Metrics, CounterGaugeBasics) {
  telemetry::MetricsRegistry reg;
  telemetry::Counter& c = reg.counter("c");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  EXPECT_EQ(&reg.counter("c"), &c) << "same name must yield the same metric";
  telemetry::Gauge& g = reg.gauge("g");
  g.set(7);
  g.set(-3);
  EXPECT_EQ(g.value(), -3);
}

TEST(Metrics, HistogramBucketsInclusiveUpperEdges) {
  telemetry::MetricsRegistry reg;
  telemetry::Histogram& h = reg.histogram("h", {10, 100});
  for (std::int64_t v : {0, 10, 11, 100, 101, 5000}) h.record(v);
  EXPECT_EQ(h.count(), 6);
  EXPECT_EQ(h.sum(), 0 + 10 + 11 + 100 + 101 + 5000);
  // counts() has one extra overflow bucket past the last edge.
  EXPECT_EQ(h.counts(), (std::vector<std::int64_t>{2, 2, 2}));
}

TEST(Metrics, Pow2Bounds) {
  EXPECT_EQ(telemetry::Histogram::pow2_bounds(4),
            (std::vector<std::int64_t>{1, 2, 4, 8}));
}

TEST(Metrics, TypedNameConflictsThrow) {
  telemetry::MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::logic_error);
  EXPECT_THROW(reg.histogram("x", {1}), std::logic_error);
  reg.histogram("h", {1, 2});
  // Same bounds: fine (same object). Different bounds: the bucket layout
  // is part of the metric's identity.
  EXPECT_NO_THROW(reg.histogram("h", {1, 2}));
  EXPECT_THROW(reg.histogram("h", {1, 2, 4}), std::logic_error);
}

TEST(Metrics, ResetZeroesButKeepsReferencesValid) {
  telemetry::MetricsRegistry reg;
  telemetry::Counter& c = reg.counter("c");
  telemetry::Histogram& h = reg.histogram("h", {1});
  c.add(9);
  h.record(5);
  reg.reset();
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum(), 0);
  // The hot-path pattern: cached references survive reset().
  c.add(3);
  h.record(1);
  EXPECT_EQ(c.value(), 3);
  EXPECT_EQ(h.counts(), (std::vector<std::int64_t>{1, 0}));
}

TEST(Metrics, ToJsonIsValidAndEscaped) {
  telemetry::MetricsRegistry reg;
  reg.counter("convert.runs").add(2);
  reg.gauge("weird\n\"name\"").set(1);
  reg.histogram("h", {1, 2}).record(2);
  const std::string out = reg.to_json();
  json::Value doc;
  ASSERT_NO_THROW(doc = json::parse(out)) << out;
  EXPECT_EQ(doc.at("schema").as_int(), 1);
  EXPECT_EQ(doc.at("counters").at("convert.runs").as_int(), 2);
  EXPECT_EQ(doc.at("gauges").at("weird\n\"name\"").as_int(), 1);
  const json::Value& h = doc.at("histograms").at("h");
  EXPECT_EQ(h.at("count").as_int(), 1);
  EXPECT_EQ(h.at("bounds").elems.size(), 2u);
  EXPECT_EQ(h.at("counts").elems.size(), 3u);
}

TEST(Metrics, GlobalRegistryCarriesToolchainMetrics) {
  // One end-to-end pipeline run must land the convert.* and simd.* series
  // that mscc --metrics exposes (exact values depend on prior tests having
  // shared the process-global registry, so assert presence + lower bound).
  telemetry::MetricsRegistry& reg = telemetry::MetricsRegistry::global();
  auto compiled = driver::compile(workload::kernel("listing1").source);
  auto conv = test::convert(compiled.graph, kCost);
  mimd::RunConfig rc;
  rc.nprocs = 4;
  driver::run_simd(compiled, conv, rc, 1, kCost, {});
  json::Value doc = json::parse(reg.to_json());
  EXPECT_GE(doc.at("counters").at("convert.runs").as_int(), 1);
  EXPECT_GE(doc.at("counters").at("simd.runs").as_int(), 1);
  EXPECT_GE(doc.at("counters").at("simd.control_cycles").as_int(), 1);
  EXPECT_GE(doc.at("histograms").at("convert.meta_states").at("count")
                .as_int(), 1);
}

TEST(Metrics, PeCellsUsedIsTheSameOnEveryEngine) {
  // simd.pe_cells_used records each run's PE-memory high water: one past
  // the highest local address any write reached. It depends only on the
  // program and its inputs, so both engines record the same value.
  telemetry::MetricsRegistry& reg = telemetry::MetricsRegistry::global();
  telemetry::Histogram& h = reg.histogram(
      "simd.pe_cells_used", telemetry::Histogram::pow2_bounds(13));
  auto compiled = driver::compile(workload::kernel("listing1").source);
  auto conv = test::convert(compiled.graph, kCost);
  std::vector<std::int64_t> used;
  for (auto engine : {mimd::SimdEngine::Reference, mimd::SimdEngine::Codegen}) {
    mimd::RunConfig rc;
    rc.nprocs = 64;
    rc.engine = engine;
    const std::int64_t count = h.count(), sum = h.sum();
    driver::run_simd(compiled, conv, rc, 1, kCost, {});
    EXPECT_EQ(h.count() - count, 1);
    used.push_back(h.sum() - sum);
  }
  EXPECT_GT(used[0], 0);
  EXPECT_LE(used[0], mimd::RunConfig{}.local_mem_cells);
  EXPECT_EQ(used[1], used[0]);
  json::Value doc = json::parse(reg.to_json());
  EXPECT_GE(doc.at("histograms").at("simd.pe_cells_used").at("count").as_int(),
            2);
}

// --------------------------------------------------------- labeled metrics

TEST(LabeledMetrics, SeriesAreKeyedByTenantAndOp) {
  telemetry::LabeledRegistry reg;
  reg.counter("requests", "alice", "run").add(3);
  reg.counter("requests", "alice", "compile").add();
  reg.counter("requests", "bob", "run").add(2);
  EXPECT_EQ(&reg.counter("requests", "alice", "run"),
            &reg.counter("requests", "alice", "run"))
      << "same key must yield the same series";
  EXPECT_EQ(reg.counter("requests", "alice", "run").value(), 3);
  EXPECT_EQ(reg.counter("requests", "bob", "run").value(), 2);
  EXPECT_EQ(reg.folded_samples(), 0);
}

TEST(LabeledMetrics, CardinalityOverflowFoldsIntoOther) {
  // Bound 4: the first four tenants get their own series, every later
  // tenant folds into the shared "other" tenant (per op), and each fold
  // is counted — the daemon survives a tenant-id cardinality attack with
  // bounded memory and an explicit signal that folding happened.
  telemetry::LabeledRegistry reg(4);
  for (int t = 0; t < 10; ++t)
    reg.counter("requests", cat("tenant", t), "run").add();
  EXPECT_EQ(reg.folded_samples(), 6);
  EXPECT_EQ(reg.counter("requests",
                        telemetry::LabeledRegistry::kOverflowTenant, "run")
                .value(),
            6);
  // Existing keys keep resolving to their own series past the bound.
  reg.counter("requests", "tenant0", "run").add();
  EXPECT_EQ(reg.counter("requests", "tenant0", "run").value(), 2);

  // The fold is per family: a fresh family starts with fresh capacity.
  reg.counter("errors.internal", "tenant9", "run").add();
  EXPECT_EQ(reg.counter("errors.internal", "tenant9", "run").value(), 1);

  json::Value doc = json::parse(reg.to_json());
  EXPECT_EQ(doc.at("schema").as_int(), 2);
  EXPECT_EQ(doc.at("folded_samples").as_int(), 6);
  const json::Value& series = doc.at("families").at("requests").at("series");
  // 4 real tenants + "other"; series are sorted by (tenant, op).
  ASSERT_EQ(series.elems.size(), 5u);
  std::string prev;
  bool other_seen = false;
  for (const json::Value& s : series.elems) {
    const std::string key =
        cat(s.at("tenant").as_string(), "\x1f", s.at("op").as_string());
    EXPECT_GT(key, prev) << "series must be sorted for deterministic JSON";
    prev = key;
    if (s.at("tenant").as_string() ==
        telemetry::LabeledRegistry::kOverflowTenant) {
      other_seen = true;
      EXPECT_EQ(s.at("value").as_int(), 6);
    }
  }
  EXPECT_TRUE(other_seen);
}

TEST(LabeledMetrics, HistogramFamiliesCarryBoundsAndFoldToo) {
  telemetry::LabeledRegistry reg(2);
  const std::vector<std::int64_t> bounds{10, 100};
  reg.histogram("latency_us", bounds, "a", "run").record(5);
  reg.histogram("latency_us", bounds, "b", "run").record(50);
  reg.histogram("latency_us", bounds, "c", "run").record(5000);  // folds
  EXPECT_EQ(reg.folded_samples(), 1);

  json::Value doc = json::parse(reg.to_json());
  const json::Value& fam = doc.at("families").at("latency_us");
  EXPECT_EQ(fam.at("kind").as_string(), "histogram");
  ASSERT_EQ(fam.at("bounds").elems.size(), 2u);
  std::int64_t count = 0;
  for (const json::Value& s : fam.at("series").elems) {
    count += s.at("count").as_int();
    EXPECT_EQ(s.at("counts").elems.size(), 3u);  // + overflow bucket
  }
  EXPECT_EQ(count, 3);
}

TEST(LabeledMetrics, KindAndBoundsConflictsThrow) {
  telemetry::LabeledRegistry reg;
  reg.counter("f", "a", "run");
  EXPECT_THROW(reg.gauge("f", "a", "run"), std::logic_error);
  EXPECT_THROW(reg.histogram("f", {1}, "a", "run"), std::logic_error);
  reg.histogram("h", {1, 2}, "a", "run");
  EXPECT_NO_THROW(reg.histogram("h", {1, 2}, "b", "run"));
  EXPECT_THROW(reg.histogram("h", {1, 2, 4}, "b", "run"), std::logic_error);
}

TEST(LabeledMetrics, ResetZeroesButKeepsReferencesValid) {
  telemetry::LabeledRegistry reg(2);
  telemetry::Counter& c = reg.counter("requests", "a", "run");
  c.add(5);
  reg.counter("requests", "b", "run").add();
  reg.counter("requests", "z", "run").add();  // folds
  EXPECT_EQ(reg.folded_samples(), 1);
  reg.reset();
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(reg.folded_samples(), 0);
  c.add(2);
  EXPECT_EQ(reg.counter("requests", "a", "run").value(), 2);
}

TEST(LabeledMetrics, ExtraMembersLandAtTheTop) {
  telemetry::LabeledRegistry reg;
  reg.counter("requests", "a", "run").add();
  json::Value doc =
      json::parse(reg.to_json("\"uptime_micros\": 42, \"x\": {\"y\": 1}"));
  EXPECT_EQ(doc.at("uptime_micros").as_int(), 42);
  EXPECT_EQ(doc.at("x").at("y").as_int(), 1);
  EXPECT_EQ(doc.at("schema").as_int(), 2);
}

// -------------------------------------------------------------------- trace

TEST(Trace, ToJsonIsValidChromeTraceJson) {
  telemetry::TraceSink sink;
  sink.name_process(telemetry::TraceSink::kSimdPid, "simd machine");
  sink.complete("ms3", "meta-state", telemetry::TraceSink::kSimdPid, 0, 10, 5,
                {{"enabled_pes", 8}}, {{"engine", "codegen"}});
  sink.instant("note \"quoted\"\n", "cat", telemetry::TraceSink::kToolchainPid,
               0, 1);
  {
    telemetry::ScopedSpan span(&sink, "pass", "toolchain");
    span.arg("meta_states_after", 12);
  }
  EXPECT_EQ(sink.size(), 4u);

  json::Value doc;
  ASSERT_NO_THROW(doc = json::parse(sink.to_json())) << sink.to_json();
  const json::Value& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.elems.size(), 4u);
  EXPECT_EQ(events.elems[0].at("ph").as_string(), "M");
  const json::Value& x = events.elems[1];
  EXPECT_EQ(x.at("ph").as_string(), "X");
  EXPECT_EQ(x.at("pid").as_int(), telemetry::TraceSink::kSimdPid);
  EXPECT_EQ(x.at("ts").as_int(), 10);
  EXPECT_EQ(x.at("dur").as_int(), 5);
  EXPECT_EQ(x.at("args").at("enabled_pes").as_int(), 8);
  EXPECT_EQ(x.at("args").at("engine").as_string(), "codegen");
  EXPECT_EQ(events.elems[2].at("name").as_string(), "note \"quoted\"\n");
  EXPECT_EQ(events.elems[3].at("args").at("meta_states_after").as_int(), 12);
}

TEST(Trace, NullSinkSpanIsANoop) {
  telemetry::ScopedSpan span(nullptr, "n", "c");
  span.arg("k", 1);  // must not crash
}

// -------------------------------------------------------------- json parser

TEST(Json, ParsesScalarsAndNesting) {
  json::Value v = json::parse(
      " {\"a\": [1, -2.5, true, false, null], \"b\": {\"c\": \"s\"}} ");
  ASSERT_TRUE(v.is_object());
  const json::Value& a = v.at("a");
  ASSERT_EQ(a.elems.size(), 5u);
  EXPECT_EQ(a.elems[0].as_int(), 1);
  EXPECT_TRUE(a.elems[0].is_exact_int);
  EXPECT_DOUBLE_EQ(a.elems[1].as_double(), -2.5);
  EXPECT_FALSE(a.elems[1].is_exact_int);
  EXPECT_TRUE(a.elems[2].b);
  EXPECT_TRUE(a.elems[4].is_null());
  EXPECT_EQ(v.at("b").at("c").as_string(), "s");
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), json::ParseError);
}

TEST(Json, Int64RoundTripsBitExactly) {
  json::Value v = json::parse("[9223372036854775807, -9223372036854775808]");
  ASSERT_TRUE(v.elems[0].is_exact_int);
  EXPECT_EQ(v.elems[0].as_int(), INT64_MAX);
  ASSERT_TRUE(v.elems[1].is_exact_int);
  EXPECT_EQ(v.elems[1].as_int(), INT64_MIN);
}

TEST(Json, StringEscapesAndSurrogates) {
  json::Value v = json::parse(
      "\"a\\\"b\\\\c\\/\\n\\t\\u0041\\u00e9\\ud83d\\ude00\"");
  EXPECT_EQ(v.as_string(),
            "a\"b\\c/\n\tA\xc3\xa9\xf0\x9f\x98\x80");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(json::parse(""), json::ParseError);
  EXPECT_THROW(json::parse("{\"a\": 1,}"), json::ParseError);
  EXPECT_THROW(json::parse("[1] trailing"), json::ParseError);
  EXPECT_THROW(json::parse("\"unterminated"), json::ParseError);
  EXPECT_THROW(json::parse("\"bad \\q escape\""), json::ParseError);
  EXPECT_THROW(json::parse("{\"a\" 1}"), json::ParseError);
  EXPECT_THROW(json::parse("[1 2]"), json::ParseError);
}

TEST(Json, SizeLimitIsAnExactBoundary) {
  // A hostile client must not be able to make the daemon buffer-parse an
  // arbitrarily large document (mscd passes its frame limit here).
  const std::string doc = "[1, 2, 3]";
  json::ParseLimits limits;
  limits.max_bytes = doc.size();
  EXPECT_NO_THROW(json::parse(doc, limits));  // exactly at the limit
  limits.max_bytes = doc.size() - 1;
  EXPECT_THROW(json::parse(doc, limits), json::ParseError);
  limits.max_bytes = 0;  // 0 = unlimited (the default-overload behavior)
  EXPECT_NO_THROW(json::parse(doc, limits));
}

TEST(Json, DepthLimitIsAnExactBoundary) {
  auto nested = [](int depth) {
    std::string s;
    for (int i = 0; i < depth; ++i) s += "[";
    s += "1";
    for (int i = 0; i < depth; ++i) s += "]";
    return s;
  };
  json::ParseLimits limits;
  limits.max_depth = 8;
  EXPECT_NO_THROW(json::parse(nested(8), limits));  // exactly at the limit
  EXPECT_THROW(json::parse(nested(9), limits), json::ParseError);
  // Mixed nesting counts objects too.
  EXPECT_THROW(json::parse("{\"a\": [[[[[[[[1]]]]]]]]}", limits),
               json::ParseError);
  EXPECT_NO_THROW(json::parse("{\"a\": [[[[[[[1]]]]]]]}", limits));

  // The default limit still accepts every document the toolchain emits,
  // but a pathological 10k-deep bomb dies instead of overflowing the
  // parser's recursion.
  EXPECT_THROW(json::parse(nested(10'000)), json::ParseError);
}

// --------------------------------------------------- corpus profile sweep

std::vector<std::string> corpus_sources() {
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(MSC_CORPUS_DIR))
    if (entry.path().extension() == ".mimdc")
      paths.push_back(entry.path().string());
  std::sort(paths.begin(), paths.end());
  return paths;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(ObservabilityCorpus, ProfileSumsMatchRunTotalsOnBothEngines) {
  // For every corpus reproducer that converts and runs cleanly, enable
  // profiling on both engines and demand (a) the per-state sums equal the
  // run totals field-for-field — the invariant mscprof's tables rest on —
  // and (b) the two engines' profiles are bit-identical. Sources that
  // fault or explode under the default conversion are skipped (their
  // differential coverage lives in corpus_regression_test).
  int checked = 0;
  for (const std::string& path : corpus_sources()) {
    SCOPED_TRACE(path);
    const std::string source = slurp(path);
    ASSERT_FALSE(source.empty()) << path;

    driver::Compiled compiled;
    core::ConvertResult conv;
    codegen::SimdProgram prog;
    try {
      compiled = driver::compile(source);
      conv = test::convert(compiled.graph, kCost);
      prog = codegen::generate(conv.automaton, conv.graph, kCost, {});
    } catch (const std::exception&) {
      continue;  // explosion/compile limits: not this test's concern
    }
    mimd::RunConfig config;
    config.nprocs = 8;
    config.initial_active = 2;  // spawn corpus entries need free PEs

    std::vector<simd::StateProfile> profiles[2];
    bool ran_both = true;
    for (int e = 0; e < 2; ++e) {
      config.engine =
          e == 0 ? mimd::SimdEngine::Codegen : mimd::SimdEngine::Reference;
      auto m = simd::make_machine(prog, kCost, config);
      driver::seed_machine(*m, compiled, config, 1);
      m->enable_profiling();
      try {
        m->run();
      } catch (const ir::MachineFault&) {
        ran_both = false;  // expect-fault reproducers (spawn exhaustion)
        break;
      }

      const simd::SimdStats& s = m->stats();
      simd::StateProfile sum;
      std::int64_t visits = 0, enabled_sum_hist = 0;
      for (const simd::StateProfile& p : m->profile()) {
        visits += p.visits;
        sum.control_cycles += p.control_cycles;
        sum.busy_pe_cycles += p.busy_pe_cycles;
        sum.offered_pe_cycles += p.offered_pe_cycles;
        sum.global_ors += p.global_ors;
        sum.guard_switches += p.guard_switches;
        sum.router_ops += p.router_ops;
        sum.spawns += p.spawns;
        std::int64_t hist_visits = 0;
        for (std::int64_t b : p.enabled_hist) hist_visits += b;
        EXPECT_EQ(hist_visits, p.visits) << "enabled_hist loses visits";
        enabled_sum_hist += hist_visits;
      }
      EXPECT_EQ(visits, s.meta_transitions);
      EXPECT_EQ(enabled_sum_hist, s.meta_transitions);
      EXPECT_EQ(sum.control_cycles, s.control_cycles);
      EXPECT_EQ(sum.busy_pe_cycles, s.busy_pe_cycles);
      EXPECT_EQ(sum.offered_pe_cycles, s.offered_pe_cycles);
      EXPECT_EQ(sum.global_ors, s.global_ors);
      EXPECT_EQ(sum.guard_switches, s.guard_switches);
      EXPECT_EQ(sum.router_ops, s.router_ops);
      EXPECT_EQ(sum.spawns, s.spawns);
      profiles[e] = m->profile();

      // The JSON view of the same machine parses and its totals agree.
      json::Value doc = json::parse(simd::to_json(*m));
      EXPECT_EQ(doc.at("control_cycles").as_int(), s.control_cycles);
      EXPECT_EQ(doc.at("router_ops").as_int(), s.router_ops);
      const json::Value& prof = doc.at("profile");
      ASSERT_TRUE(prof.is_array());
      std::int64_t json_cycles = 0;
      for (const json::Value& row : prof.elems)
        json_cycles += row.at("control_cycles").as_int();
      EXPECT_EQ(json_cycles, s.control_cycles);
    }
    if (!ran_both) continue;
    EXPECT_TRUE(profiles[0] == profiles[1])
        << "profiles differ between engines";
    ++checked;
  }
  EXPECT_GE(checked, 6) << "corpus sweep silently skipped almost everything";
}

}  // namespace
