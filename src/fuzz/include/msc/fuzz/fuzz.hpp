#ifndef MSC_FUZZ_FUZZ_HPP
#define MSC_FUZZ_FUZZ_HPP

#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <unordered_set>
#include <vector>

#include "msc/core/convert.hpp"
#include "msc/mimd/machine.hpp"
#include "msc/support/coverage.hpp"
#include "msc/workload/generator.hpp"

namespace msc::fuzz {

// --------------------------------------------------------------- coverage

/// Coverage accumulator the fuzzer installs as the process-global
/// CoverageSink. Features are (signal, key) pairs reported by the
/// converter and the SIMD engines (see msc/support/coverage.hpp);
/// a candidate that produces a feature never seen before earns a place
/// in the corpus.
class FuzzCoverage final : public CoverageSink {
 public:
  void hit(std::uint32_t signal, std::uint64_t key) override {
    current_.insert((static_cast<std::uint64_t>(signal) << 48) ^ (key & kKeyMask));
  }

  /// Start collecting for a new candidate.
  void begin_candidate() { current_.clear(); }
  /// Fold the candidate's features into the global set; returns how many
  /// were novel.
  std::size_t merge();

  std::size_t total_features() const { return global_.size(); }
  std::size_t candidate_features() const { return current_.size(); }

 private:
  static constexpr std::uint64_t kKeyMask = (std::uint64_t{1} << 48) - 1;
  std::unordered_set<std::uint64_t> current_;
  std::unordered_set<std::uint64_t> global_;
};

/// RAII: install a sink, restore the previous one on scope exit.
class ScopedCoverage {
 public:
  explicit ScopedCoverage(CoverageSink* sink) : prev_(coverage_sink()) {
    set_coverage_sink(sink);
  }
  ~ScopedCoverage() { set_coverage_sink(prev_); }
  ScopedCoverage(const ScopedCoverage&) = delete;
  ScopedCoverage& operator=(const ScopedCoverage&) = delete;

 private:
  CoverageSink* prev_;
};

// ------------------------------------------------------- option matrix

/// One cell of the differential option matrix: the conversion-stage pass
/// pipeline to run over the compiled graph, the engine-level conversion
/// knobs that are not passes (barrier mode, thread width), and which SIMD
/// engine executes the result.
struct RunSpec {
  /// Pass names (pass registry) executed over the already-compiled state
  /// graph — config passes, the convert pass, and automaton passes; the
  /// IR passes run once during compilation, outside the matrix.
  std::vector<std::string> pipeline = {"convert", "subsume", "straighten"};
  core::BarrierMode barrier_mode = core::BarrierMode::TrackOccupancy;
  unsigned threads = 1;
  mimd::SimdEngine engine = mimd::RunConfig{}.engine;

  bool has(const std::string& pass) const;
  /// Conversion-relevant part (engines sharing it reuse one conversion).
  std::string convert_key() const;
  std::string label() const;
};

/// The full matrix a candidate runs through: pass pipelines (base,
/// compressed, compressed-without-subsume, time-split) × barrier_mode ×
/// threads × engine, minus combinations that are redundant or unsound
/// (PaperPrune cells where the converter must reject the program —
/// compress, spawn, or >1 barrier state — instead assert the rejection
/// inside evaluate()).
std::vector<RunSpec> default_matrix();

// ------------------------------------------------------------- findings

enum class FindingKind : std::uint8_t {
  Divergence,     ///< SIMD result/fault disagrees with the MIMD oracle
  StatsMismatch,  ///< engines or thread widths disagree on stats/automata
  Crash,          ///< unexpected exception anywhere in the pipeline
  CompileError,   ///< generator/mutator produced an uncompilable program
  UnsoundAccept,  ///< converter accepted a PaperPrune combination it must reject
};
const char* to_string(FindingKind kind);

struct Finding {
  FindingKind kind = FindingKind::Divergence;
  RunSpec spec;          ///< the matrix cell that exposed it
  std::string source;    ///< the failing program (shrunk when enabled)
  std::string detail;    ///< human-readable evidence
};

// ------------------------------------------------------------ evaluation

/// Per-candidate run configuration shared by fuzzing, replay, and the
/// corpus regression suite.
struct EvalConfig {
  std::int64_t nprocs = 6;
  std::int64_t initial_active = -1;  ///< -1 = all (spawn needs headroom)
  std::uint64_t input_seed = 1;      ///< per-PE seed for the poly input x
  bool reuse_halted_pes = false;
  std::size_t max_meta_states = 20000;  ///< per-conversion explosion guard
  /// Test-only conversion corruptor (fuzz_selftest injects converter bugs
  /// here to mutation-test the whole detect→shrink pipeline).
  std::function<void(core::ConvertResult&)> corrupt_conversion;
};

struct EvalResult {
  bool skipped = false;  ///< oracle timeout / every mode exploded
  std::optional<Finding> finding;
};

/// Differentially evaluate one program across the matrix: MIMD oracle
/// first, then each conversion+engine cell; compares results (multiset
/// comparison when the program spawns), fault behaviour, engine-pair
/// stats, and thread-width automaton determinism.
EvalResult evaluate(const std::string& source, const EvalConfig& cfg,
                    const std::vector<RunSpec>& matrix);

/// Does `source` still produce a finding of `kind` in matrix cell `spec`?
/// (The shrinker's predicate; also used by --replay.)
bool reproduces(const std::string& source, const EvalConfig& cfg,
                const RunSpec& spec, FindingKind kind);

// ---------------------------------------------------------------- fuzzer

struct FuzzOptions {
  std::uint64_t seed = 1;
  double time_budget_seconds = 10.0;
  std::int64_t max_iterations = -1;  ///< <0 = until the time budget ends
  int max_findings = 4;              ///< stop after this many findings
  bool shrink = true;
  /// Pre-seed the mutation corpus with kernel_seed_corpus() so mutations
  /// start from real barrier/reduction/spawn control shapes instead of
  /// only random trees.
  bool seed_kernels = true;
  EvalConfig eval;
  workload::GenOptions gen;
  std::vector<RunSpec> matrix;  ///< empty = default_matrix()
  std::string out_dir;          ///< write repro pairs here ("" = don't)
  std::ostream* log = nullptr;  ///< progress lines ("" = silent)
};

struct FuzzResult {
  std::int64_t iterations = 0;
  std::int64_t skipped = 0;
  std::size_t corpus_size = 0;
  std::size_t features = 0;
  std::vector<Finding> findings;
  std::vector<std::string> written;  ///< paths of emitted repro files
};

/// The coverage-guided loop: generate/mutate → differential evaluate →
/// corpus on novel coverage; findings are shrunk and written as
/// repro_<n>.mimdc + repro_<n>.json pairs under out_dir.
FuzzResult run_fuzzer(const FuzzOptions& opts);

/// Kernel-shaped mutation seeds (DESIGN.md §12): one GenProgram skeleton
/// per verified kernel (reduce, scan, oddeven, stencil, bfs, workqueue)
/// mirroring its control shape — barrier-phased loops, divergent
/// compare-exchange, frontier relaxation, spawn fan-out. Router-free by
/// construction so every skeleton keeps the generator's race-freedom and
/// termination invariants under mutate_program.
std::vector<workload::GenProgram> kernel_seed_corpus();

// --------------------------------------------------------------- shrink

/// Deterministic delta-debugging on source text: statement and block
/// removal, block unwrapping, and expression simplification, iterated to
/// a fixpoint. Every accepted rewrite strictly shrinks the source, and
/// candidate rewrites are tried in a fixed order, so shrinking is a pure
/// function of (source, predicate) — re-shrinking its own output returns
/// it unchanged (corpus reproducers are stable by construction).
/// `still_fails` must return true when the candidate still exhibits the
/// original failure; `max_checks` caps predicate calls.
std::string shrink_source(const std::string& source,
                          const std::function<bool(const std::string&)>& still_fails,
                          int max_checks = 4000);

}  // namespace msc::fuzz

#endif  // MSC_FUZZ_FUZZ_HPP
