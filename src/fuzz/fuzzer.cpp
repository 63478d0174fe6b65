// Differential evaluation and the coverage-guided fuzzing loop.
#include "msc/fuzz/fuzz.hpp"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <utility>

#include "msc/driver/pipeline.hpp"
#include "msc/driver/runner.hpp"
#include "msc/fuzz/manifest.hpp"
#include "msc/pass/pass.hpp"
#include "msc/support/diag.hpp"
#include "msc/support/rng.hpp"
#include "msc/support/str.hpp"

namespace msc::fuzz {
namespace {

struct SimdOutcome {
  enum class Kind : std::uint8_t { Ok, Fault, Timeout } kind = Kind::Ok;
  driver::Observed obs;
  simd::SimdStats stats;
  std::vector<std::int64_t> visits;
  std::string fault;
};

Finding make_finding(FindingKind kind, const RunSpec& spec,
                     const std::string& source, std::string detail) {
  Finding f;
  f.kind = kind;
  f.spec = spec;
  f.source = source;
  f.detail = std::move(detail);
  return f;
}

core::ConvertOptions convert_options(const RunSpec& spec,
                                     const EvalConfig& cfg) {
  // Stage selection (compress/time-split/subsume/straighten) lives in
  // spec.pipeline; only the engine-level knobs are set here.
  core::ConvertOptions copts;
  copts.barrier_mode = spec.barrier_mode;
  copts.threads = spec.threads;
  copts.max_meta_states = cfg.max_meta_states;
  return copts;
}

}  // namespace

EvalResult evaluate(const std::string& source, const EvalConfig& cfg,
                    const std::vector<RunSpec>& matrix) {
  EvalResult res;
  auto fail = [&](FindingKind kind, const RunSpec& spec, std::string detail) {
    res.finding = make_finding(kind, spec, source, std::move(detail));
    return res;
  };

  driver::Compiled compiled;
  try {
    compiled = driver::compile(source);
  } catch (const CompileError& e) {
    return fail(FindingKind::CompileError, RunSpec{}, e.what());
  } catch (const std::exception& e) {
    return fail(FindingKind::Crash, RunSpec{},
                cat("compile crashed: ", e.what()));
  }

  mimd::RunConfig base_config;
  base_config.nprocs = cfg.nprocs;
  base_config.initial_active = cfg.initial_active;
  base_config.reuse_halted_pes = cfg.reuse_halted_pes;

  bool oracle_fault = false;
  std::string oracle_fault_msg;
  driver::Observed oracle;
  mimd::MimdStats ostats;
  try {
    oracle = driver::run_oracle(compiled, base_config, cfg.input_seed, &ostats);
  } catch (const mimd::Timeout&) {
    // Generated programs halt by construction, but a replayed external
    // source may not: not a converter bug, just unusable as an oracle.
    res.skipped = true;
    return res;
  } catch (const ir::MachineFault& e) {
    oracle_fault = true;
    oracle_fault_msg = e.what();
  } catch (const std::exception& e) {
    return fail(FindingKind::Crash, RunSpec{},
                cat("oracle crashed: ", e.what()));
  }

  // The SIMD machine counts meta transitions against max_blocks; a sound
  // automaton finishes within a small multiple of the oracle's block
  // count, so a corrupted one that livelocks trips this budget quickly
  // instead of grinding toward the 4M default.
  const std::int64_t simd_block_budget =
      oracle_fault ? 1'000'000 : ostats.blocks_executed * 8 + 4096;
  const bool unordered = compiled.graph.has_spawn();
  const bool single_barrier = compiled.graph.barrier_states().count() <= 1;
  const ir::CostModel cost;

  // One conversion per distinct convert_key; nullopt records an explosion.
  std::map<std::string, std::optional<core::ConvertResult>> conversions;
  // Thread-width determinism: key-without-threads → (first key, dump).
  std::map<std::string, std::pair<std::string, std::string>> dumps;
  // Engine agreement: convert_key → (spec, outcome) of the first engine.
  std::map<std::string, std::pair<RunSpec, SimdOutcome>> engine_runs;

  for (const RunSpec& spec : matrix) {
    // PaperPrune is only sound with at most one barrier state and a
    // static process population; the converter must refuse everything
    // else with a CompileError (promoted from a fuzzer skip — an accept
    // here is itself a finding).
    if (spec.barrier_mode == core::BarrierMode::PaperPrune &&
        (spec.has("compress") || !single_barrier || unordered)) {
      try {
        core::ConvertResult conv = pass::run_conversion_pipeline(
            compiled.graph, cost, spec.pipeline, convert_options(spec, cfg));
        return fail(FindingKind::UnsoundAccept, spec,
                    cat("converter accepted an unsound PaperPrune "
                        "combination (", conv.automaton.num_states(),
                        " states); expected a CompileError"));
      } catch (const CompileError&) {
        // expected: rejected at compile time
      } catch (const core::ExplosionError&) {
        // exploded before reaching the guard is impossible (the guard runs
        // first), but a pipeline variant may bound states differently.
      } catch (const std::exception& e) {
        return fail(FindingKind::Crash, spec,
                    cat("conversion crashed: ", e.what()));
      }
      continue;
    }

    const std::string key = spec.convert_key();
    auto it = conversions.find(key);
    if (it == conversions.end()) {
      try {
        core::ConvertResult conv = pass::run_conversion_pipeline(
            compiled.graph, cost, spec.pipeline, convert_options(spec, cfg));
        if (cfg.corrupt_conversion) cfg.corrupt_conversion(conv);
        it = conversions.emplace(key, std::move(conv)).first;
      } catch (const core::ExplosionError&) {
        it = conversions.emplace(key, std::nullopt).first;
      } catch (const std::exception& e) {
        return fail(FindingKind::Crash, spec,
                    cat("conversion crashed: ", e.what()));
      }
      if (it->second) {
        // Any thread width must produce a bit-identical automaton.
        RunSpec serial = spec;
        serial.threads = 1;
        const std::string width_key = serial.convert_key();
        const std::string dump = it->second->automaton.dump();
        auto [dit, fresh] = dumps.emplace(width_key, std::make_pair(key, dump));
        if (!fresh && dit->second.second != dump)
          return fail(FindingKind::StatsMismatch, spec,
                      cat("automaton differs between conversions ",
                          dit->second.first, " and ", key,
                          " (thread-width nondeterminism)"));
      }
    }
    if (!it->second) continue;  // exploded under this mode: nothing to run

    mimd::RunConfig rc = base_config;
    rc.engine = spec.engine;
    rc.max_blocks = simd_block_budget;
    SimdOutcome out;
    try {
      out.obs = driver::run_simd(compiled, *it->second, rc, cfg.input_seed,
                                 cost, {}, &out.stats, &out.visits);
    } catch (const mimd::Timeout&) {
      out.kind = SimdOutcome::Kind::Timeout;
    } catch (const ir::MachineFault& e) {
      out.kind = SimdOutcome::Kind::Fault;
      out.fault = e.what();
    } catch (const std::exception& e) {
      return fail(FindingKind::Crash, spec, cat("simd crashed: ", e.what()));
    }

    if (oracle_fault) {
      // The oracle faulted (e.g. spawn exhaustion); SIMD must fault too.
      if (out.kind != SimdOutcome::Kind::Fault)
        return fail(FindingKind::Divergence, spec,
                    cat("oracle faulted (", oracle_fault_msg, ") but ",
                        spec.label(), " ",
                        out.kind == SimdOutcome::Kind::Timeout
                            ? "timed out"
                            : "completed normally"));
    } else {
      switch (out.kind) {
        case SimdOutcome::Kind::Fault:
          return fail(FindingKind::Divergence, spec,
                      cat(spec.label(), " faulted: ", out.fault));
        case SimdOutcome::Kind::Timeout:
          return fail(FindingKind::Divergence, spec,
                      cat(spec.label(), " exceeded ", simd_block_budget,
                          " meta transitions (oracle ran ",
                          ostats.blocks_executed, " blocks)"));
        case SimdOutcome::Kind::Ok: {
          const bool match = unordered ? oracle.equivalent_unordered(out.obs)
                                       : oracle == out.obs;
          if (!match)
            return fail(FindingKind::Divergence, spec,
                        cat(spec.label(), " diverged from the oracle\n",
                            "--- oracle ---\n", oracle.to_string(),
                            "--- simd ---\n", out.obs.to_string()));
          break;
        }
      }
    }

    // Both engines over one conversion must agree bit-for-bit on stats
    // and per-meta-state visits (the PR2 contract).
    auto [eit, first] = engine_runs.emplace(key, std::make_pair(spec, out));
    if (!first && eit->second.first.engine != spec.engine) {
      const SimdOutcome& other = eit->second.second;
      if (other.kind != out.kind || other.fault != out.fault ||
          !(other.stats == out.stats) || other.visits != out.visits)
        return fail(FindingKind::StatsMismatch, spec,
                    cat(eit->second.first.label(), " and ", spec.label(),
                        " disagree on stats/visits over one conversion"));
    }
  }
  return res;
}

bool reproduces(const std::string& source, const EvalConfig& cfg,
                const RunSpec& spec, FindingKind kind) {
  std::vector<RunSpec> mini{spec};
  if (kind == FindingKind::StatsMismatch) {
    // Pair checks need a partner cell: the other engine, and (for
    // thread-width nondeterminism) the serial conversion.
    RunSpec other = spec;
    other.engine = spec.engine == mimd::SimdEngine::Reference
                       ? mimd::SimdEngine::Codegen
                       : mimd::SimdEngine::Reference;
    if (spec.threads != 1) {
      RunSpec serial = spec;
      serial.threads = 1;
      mini.insert(mini.begin(), serial);
    }
    mini.push_back(other);
  }
  EvalResult ev = evaluate(source, cfg, mini);
  return !ev.skipped && ev.finding && ev.finding->kind == kind;
}

std::vector<workload::GenProgram> kernel_seed_corpus() {
  using workload::GenStmt;
  const auto stmt = [](GenStmt::Kind kind, int var, std::string op,
                       std::string expr) {
    GenStmt s;
    s.kind = kind;
    s.var = var;
    s.op = std::move(op);
    s.expr = std::move(expr);
    return s;
  };
  const auto assign = [&](int var, std::string expr) {
    return stmt(GenStmt::Kind::Assign, var, "", std::move(expr));
  };
  const auto add = [&](int var, std::string expr) {
    return stmt(GenStmt::Kind::Compound, var, "+=", std::move(expr));
  };
  const auto wait = [&] { return stmt(GenStmt::Kind::Wait, 0, "", ""); };
  const auto iff = [&](std::string cond, std::vector<GenStmt> then_body,
                       std::vector<GenStmt> else_body = {}) {
    GenStmt s;
    s.kind = GenStmt::Kind::If;
    s.expr = std::move(cond);
    s.body = std::move(then_body);
    s.else_body = std::move(else_body);
    return s;
  };
  const auto loop = [&](int trips, std::vector<GenStmt> body) {
    GenStmt s;
    s.kind = GenStmt::Kind::Loop;
    s.trips = trips;
    // Counter renders as ((expr) % trips) + 1: a constant trips-1 seed
    // yields exactly `trips` uniform iterations on every PE, so barriers
    // inside the body stay aligned (kernel phase loops are uniform).
    s.expr = cat(trips - 1);
    s.body = std::move(body);
    return s;
  };
  const auto shell = [](bool spawn) {
    workload::GenProgram p;
    p.opts.stmts = 6;
    p.opts.num_vars = 4;
    p.opts.allow_float = false;
    p.opts.allow_mono = false;
    p.opts.allow_spawn = spawn;
    p.ret_expr = "v0";
    return p;
  };

  std::vector<workload::GenProgram> out;

  // reduce: barrier-phased halving tree — alternating roles per level.
  workload::GenProgram reduce = shell(false);
  reduce.body = {loop(3, {iff("(procid() % 2) == 0", {add(0, "v1")},
                             {assign(1, "v0")}),
                          wait()})};
  out.push_back(std::move(reduce));

  // scan: Hillis-Steele double-barrier read/accumulate phases.
  workload::GenProgram scan = shell(false);
  scan.body = {loop(4, {assign(1, "v0 + procid()"), wait(),
                        add(0, "v1 / 2"), wait()})};
  out.push_back(std::move(scan));

  // oddeven: phase-parity compare-exchange with a phase counter.
  workload::GenProgram oddeven = shell(false);
  oddeven.body = {loop(4, {iff("(procid() + v3) % 2 == 0",
                               {assign(2, "v0 % 13")}, {assign(2, "v1 % 7")}),
                           wait(), add(3, "1"), wait()})};
  out.push_back(std::move(oddeven));

  // stencil: Jacobi-style relax into a scratch cell, publish, barrier.
  workload::GenProgram stencil = shell(false);
  stencil.body = {loop(4, {assign(3, "(v0 + 2 * v1 + v2) / 4"), wait(),
                           assign(1, "v3"), wait()})};
  out.push_back(std::move(stencil));

  // bfs: rounds of guarded frontier relaxation toward a fixpoint.
  workload::GenProgram bfs = shell(false);
  bfs.body = {loop(5, {iff("v0 > v1 + 1", {assign(0, "v1 + 1")}), wait()})};
  out.push_back(std::move(bfs));

  // workqueue: sparse parents spawn weighted children, then a join.
  workload::GenProgram workqueue = shell(true);
  GenStmt spawn;
  spawn.kind = GenStmt::Kind::Spawn;
  spawn.body = {add(0, "procid() * 17 % 23 + 1")};
  workqueue.body = {iff("procid() % 4 == 0", {std::move(spawn)}), wait(),
                    assign(1, "v0")};
  out.push_back(std::move(workqueue));

  return out;
}

FuzzResult run_fuzzer(const FuzzOptions& opts) {
  FuzzResult res;
  const std::vector<RunSpec> matrix =
      opts.matrix.empty() ? default_matrix() : opts.matrix;

  FuzzCoverage coverage;
  ScopedCoverage installed(&coverage);
  Rng rng(opts.seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<workload::GenProgram> corpus;
  if (opts.seed_kernels)
    for (workload::GenProgram& k : kernel_seed_corpus())
      corpus.push_back(std::move(k));

  const auto start = std::chrono::steady_clock::now();
  auto out_of_time = [&] {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count() >= opts.time_budget_seconds;
  };

  while (!out_of_time()) {
    if (opts.max_iterations >= 0 && res.iterations >= opts.max_iterations)
      break;
    if (opts.max_findings > 0 &&
        static_cast<int>(res.findings.size()) >= opts.max_findings)
      break;
    ++res.iterations;

    workload::GenProgram cand;
    if (corpus.empty() || rng.chance(1, 4)) {
      cand = workload::generate_ast(
          opts.seed * 1000003 + static_cast<std::uint64_t>(res.iterations),
          opts.gen);
    } else {
      cand = corpus[rng.next_below(corpus.size())];
      const int rounds = 1 + static_cast<int>(rng.next_below(3));
      for (int i = 0; i < rounds; ++i) workload::mutate_program(cand, rng);
    }
    const std::string source = cand.render();
    if (source.size() > 16384) {  // keep mutation growth bounded
      ++res.skipped;
      continue;
    }

    coverage.begin_candidate();
    EvalResult ev = evaluate(source, opts.eval, matrix);
    if (ev.skipped) {
      ++res.skipped;
      continue;
    }
    if (ev.finding) {
      Finding f = *ev.finding;
      if (opts.log)
        *opts.log << "[mscfuzz] iteration " << res.iterations << ": "
                  << to_string(f.kind) << " in " << f.spec.label()
                  << (opts.shrink ? ", shrinking..." : "") << "\n";
      if (opts.shrink) {
        const RunSpec spec = f.spec;
        const FindingKind kind = f.kind;
        f.source = shrink_source(source, [&](const std::string& s) {
          return reproduces(s, opts.eval, spec, kind);
        });
      }
      if (!opts.out_dir.empty()) {
        namespace fs = std::filesystem;
        fs::create_directories(opts.out_dir);
        const std::string stem =
            cat("repro_", static_cast<std::int64_t>(res.findings.size()) + 1);
        const fs::path src_path = fs::path(opts.out_dir) / (stem + ".mimdc");
        const fs::path man_path = fs::path(opts.out_dir) / (stem + ".json");
        std::ofstream(src_path) << f.source;
        std::ofstream(man_path)
            << to_json(manifest_for(f, opts.eval, stem + ".mimdc"));
        res.written.push_back(src_path.string());
        res.written.push_back(man_path.string());
      }
      res.findings.push_back(std::move(f));
      continue;
    }
    if (coverage.merge() > 0) {
      corpus.push_back(std::move(cand));
      if (opts.log)
        *opts.log << "[mscfuzz] iteration " << res.iterations
                  << ": new coverage (" << coverage.total_features()
                  << " features, corpus " << corpus.size() << ")\n";
    }
  }

  res.corpus_size = corpus.size();
  res.features = coverage.total_features();
  return res;
}

}  // namespace msc::fuzz
