// Repro manifests: a tiny flat-JSON schema shared by the fuzzer's output,
// `mscfuzz --replay`, and corpus_regression_test. Hand-rolled reader and
// writer because the schema is one flat object and the toolchain carries
// no JSON dependency.
#include "msc/fuzz/manifest.hpp"

#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "msc/pass/pass.hpp"
#include "msc/simd/machine.hpp"
#include "msc/support/str.hpp"

namespace msc::fuzz {
namespace {

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

/// Minimal parser for one flat JSON object with string / integer /
/// boolean values. Unknown keys are ignored (forward compatibility).
class FlatParser {
 public:
  explicit FlatParser(const std::string& text) : text_(text) {}

  std::map<std::string, std::string> parse() {
    std::map<std::string, std::string> fields;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return fields;
    }
    while (true) {
      const std::string key = parse_string();
      expect(':');
      fields[key] = parse_value();
      skip_ws();
      const char c = next();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}'");
    }
    return fields;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error(
        cat("manifest parse error at offset ", static_cast<std::int64_t>(pos_),
            ": ", what));
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }
  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }
  char next() {
    const char c = peek();
    ++pos_;
    return c;
  }
  void expect(char c) {
    if (next() != c) fail(cat("expected '", std::string(1, c), "'"));
  }
  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("dangling escape");
        const char e = text_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          default: fail("unsupported escape");
        }
      }
      out += c;
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    ++pos_;  // closing quote
    return out;
  }
  std::string parse_value() {
    const char c = peek();
    if (c == '"') return parse_string();
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != ',' && text_[pos_] != '}' &&
           !std::isspace(static_cast<unsigned char>(text_[pos_])))
      out += text_[pos_++];
    if (out.empty()) fail("expected a value");
    return out;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

std::int64_t to_int(const std::map<std::string, std::string>& fields,
                    const std::string& key, std::int64_t fallback) {
  auto it = fields.find(key);
  if (it == fields.end()) return fallback;
  return std::stoll(it->second);
}

bool to_bool(const std::map<std::string, std::string>& fields,
             const std::string& key, bool fallback) {
  auto it = fields.find(key);
  if (it == fields.end()) return fallback;
  if (it->second == "true") return true;
  if (it->second == "false") return false;
  throw std::runtime_error(cat("manifest field '", key, "' is not a bool"));
}

std::string to_str(const std::map<std::string, std::string>& fields,
                   const std::string& key, const std::string& fallback) {
  auto it = fields.find(key);
  return it == fields.end() ? fallback : it->second;
}

/// A pre-pipeline manifest's stage booleans as the conversion-stage pass
/// list they stand for (a matrix cell runs over the compiled graph).
std::string shorthand_stages(const std::map<std::string, std::string>& fields) {
  return join(pass::conversion_stages(pass::shorthand_pipeline(
                  to_bool(fields, "compress", false),
                  to_bool(fields, "time_split", false),
                  to_bool(fields, "subsume", true))),
              ",");
}

}  // namespace

RunSpec Manifest::spec() const {
  RunSpec s;
  if (!pipeline.empty()) {
    s.pipeline.clear();
    for (const std::string& name : split(pipeline, ','))
      if (!name.empty()) s.pipeline.push_back(name);
  }
  s.barrier_mode = prune ? core::BarrierMode::PaperPrune
                         : core::BarrierMode::TrackOccupancy;
  s.threads = threads;
  s.engine = engine;
  return s;
}

EvalConfig Manifest::eval_config() const {
  EvalConfig cfg;
  cfg.nprocs = nprocs;
  cfg.initial_active = initial_active;
  cfg.input_seed = input_seed;
  cfg.reuse_halted_pes = reuse_halted_pes;
  return cfg;
}

FindingKind Manifest::finding_kind() const {
  if (kind == "divergence") return FindingKind::Divergence;
  if (kind == "stats-mismatch") return FindingKind::StatsMismatch;
  if (kind == "crash") return FindingKind::Crash;
  if (kind == "compile-error") return FindingKind::CompileError;
  if (kind == "unsound-accept") return FindingKind::UnsoundAccept;
  throw std::runtime_error(
      cat("manifest kind '", kind, "' is not a finding kind"));
}

std::string to_json(const Manifest& m) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": " << m.schema << ",\n";
  os << "  \"kind\": \"" << escape(m.kind) << "\",\n";
  os << "  \"source_file\": \"" << escape(m.source_file) << "\",\n";
  os << "  \"expect\": \"" << escape(m.expect) << "\",\n";
  os << "  \"nprocs\": " << m.nprocs << ",\n";
  os << "  \"initial_active\": " << m.initial_active << ",\n";
  os << "  \"input_seed\": " << m.input_seed << ",\n";
  os << "  \"reuse_halted_pes\": " << (m.reuse_halted_pes ? "true" : "false")
     << ",\n";
  os << "  \"pipeline\": \"" << escape(m.pipeline) << "\",\n";
  os << "  \"prune\": " << (m.prune ? "true" : "false") << ",\n";
  os << "  \"threads\": " << m.threads << ",\n";
  os << "  \"engine\": \"" << simd::engine_name(m.engine) << "\",\n";
  os << "  \"note\": \"" << escape(m.note) << "\"\n";
  os << "}\n";
  return os.str();
}

Manifest parse_manifest(const std::string& json) {
  const auto fields = FlatParser(json).parse();
  Manifest m;
  m.schema = static_cast<int>(to_int(fields, "schema", 1));
  if (m.schema != 1)
    throw std::runtime_error(
        cat("unsupported manifest schema ", std::int64_t{m.schema}));
  m.kind = to_str(fields, "kind", m.kind);
  m.source_file = to_str(fields, "source_file", m.source_file);
  m.expect = to_str(fields, "expect", m.expect);
  m.nprocs = to_int(fields, "nprocs", m.nprocs);
  m.initial_active = to_int(fields, "initial_active", m.initial_active);
  m.input_seed =
      static_cast<std::uint64_t>(to_int(fields, "input_seed",
                                        static_cast<std::int64_t>(m.input_seed)));
  m.reuse_halted_pes = to_bool(fields, "reuse_halted_pes", m.reuse_halted_pes);
  m.pipeline = to_str(fields, "pipeline", m.pipeline);
  if (m.pipeline.empty()) m.pipeline = shorthand_stages(fields);
  m.prune = to_bool(fields, "prune", m.prune);
  m.threads = static_cast<unsigned>(to_int(fields, "threads", m.threads));
  try {
    m.engine = simd::parse_engine(
        to_str(fields, "engine", simd::engine_name(m.engine)));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(e.what());
  }
  m.note = to_str(fields, "note", m.note);
  if (m.source_file.empty())
    throw std::runtime_error("manifest is missing source_file");
  return m;
}

Manifest load_manifest(const std::string& path, std::string* source_out) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error(cat("cannot open manifest: ", path));
  std::ostringstream buf;
  buf << in.rdbuf();
  Manifest m = parse_manifest(buf.str());
  if (source_out) {
    const std::filesystem::path src =
        std::filesystem::path(path).parent_path() / m.source_file;
    std::ifstream sin(src);
    if (!sin)
      throw std::runtime_error(cat("cannot open source: ", src.string()));
    std::ostringstream sbuf;
    sbuf << sin.rdbuf();
    *source_out = sbuf.str();
  }
  return m;
}

Manifest manifest_for(const Finding& finding, const EvalConfig& cfg,
                      const std::string& source_file) {
  Manifest m;
  m.kind = to_string(finding.kind);
  m.source_file = source_file;
  m.expect = "match";
  m.nprocs = cfg.nprocs;
  m.initial_active = cfg.initial_active;
  m.input_seed = cfg.input_seed;
  m.reuse_halted_pes = cfg.reuse_halted_pes;
  const RunSpec& s = finding.spec;
  m.pipeline = join(s.pipeline, ",");
  m.prune = s.barrier_mode == core::BarrierMode::PaperPrune;
  m.threads = s.threads;
  m.engine = s.engine;
  // First line of the detail is enough context for a human reader.
  const std::size_t nl = finding.detail.find('\n');
  m.note = nl == std::string::npos ? finding.detail
                                   : finding.detail.substr(0, nl);
  return m;
}

}  // namespace msc::fuzz
