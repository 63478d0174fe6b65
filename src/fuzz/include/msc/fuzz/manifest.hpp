#ifndef MSC_FUZZ_MANIFEST_HPP
#define MSC_FUZZ_MANIFEST_HPP

#include <string>

#include "msc/fuzz/fuzz.hpp"

namespace msc::fuzz {

/// JSON repro manifest: everything needed to replay one reproducer —
/// the source file it points at, the machine configuration, and the
/// matrix cell that exposed the failure. Checked-in corpus manifests are
/// replayed by corpus_regression_test and by `mscfuzz --replay`.
struct Manifest {
  int schema = 1;
  /// Finding kind this reproducer was minimized against ("divergence",
  /// "stats-mismatch", "crash", "compile-error") or "corpus" for a
  /// checked-in known-tricky shape that must keep matching.
  std::string kind = "corpus";
  /// Source path, relative to the manifest's own directory.
  std::string source_file;
  /// "match" = every matrix cell must agree with the oracle;
  /// "fault" = the program faults, and SIMD must fault exactly when the
  /// oracle does (spawn-exhaustion shapes).
  std::string expect = "match";
  std::int64_t nprocs = 6;
  std::int64_t initial_active = -1;
  std::uint64_t input_seed = 1;
  bool reuse_halted_pes = false;
  // The matrix cell (for kind != "corpus" replays).
  /// Comma-separated conversion-stage pass pipeline (schema 1 with passes,
  /// e.g. "compress,convert,subsume,straighten"). parse_manifest() fills it
  /// from a pre-pipeline manifest's compress/time_split/subsume booleans.
  std::string pipeline;
  bool prune = false;
  unsigned threads = 1;
  mimd::SimdEngine engine = mimd::RunConfig{}.engine;
  std::string note;

  RunSpec spec() const;
  EvalConfig eval_config() const;
  FindingKind finding_kind() const;  ///< throws for kind == "corpus"
};

std::string to_json(const Manifest& m);

/// Parse a manifest from its JSON text (flat object; throws
/// std::runtime_error with a position on malformed input or wrong schema).
Manifest parse_manifest(const std::string& json);

/// Read `path`, parse it, and (when `source_out` is non-null) also read
/// the referenced source file relative to the manifest's directory.
Manifest load_manifest(const std::string& path, std::string* source_out);

/// Build the manifest for a finding produced by run_fuzzer.
Manifest manifest_for(const Finding& finding, const EvalConfig& cfg,
                      const std::string& source_file);

}  // namespace msc::fuzz

#endif  // MSC_FUZZ_MANIFEST_HPP
