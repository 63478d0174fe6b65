// Wire-format mutator for the mscd protocol (mscfuzz --target service).
// Coverage-guided like the differential fuzzer: frames whose handling
// lights up novel converter/engine features join the mutation pool, so
// the fuzzer walks from the seed requests toward the protocol's edges
// instead of spinning on parse errors.
#include "msc/fuzz/service_fuzz.hpp"

#include <chrono>
#include <fstream>

#include "msc/fuzz/fuzz.hpp"
#include "msc/service/protocol.hpp"
#include "msc/service/service.hpp"
#include "msc/support/json.hpp"
#include "msc/support/rng.hpp"
#include "msc/support/str.hpp"

namespace msc::fuzz {

namespace {

/// Seed frames: one well-formed request per op, plus near-misses that
/// sit on validation boundaries. Mutations start from these.
const char* kSeedFrames[] = {
    "{\"op\": \"stats\"}",
    "{\"op\": \"stats\", \"metrics\": true}",
    "{\"op\": \"compile\", \"id\": 1, \"source\": \"poly int x;\\nint "
    "main() { return x + procid(); }\\n\"}",
    "{\"op\": \"compile\", \"tenant\": \"t0\", \"source\": \"poly int "
    "x;\\nint main() { int i; i = 0; while (i < x) { i = i + 1; wait; } "
    "return i; }\\n\", \"max_meta_states\": 4}",
    "{\"op\": \"run\", \"source\": \"poly int x;\\nint main() { return x * "
    "2; }\\n\", \"nprocs\": 4, \"seed\": 2, \"profile\": true}",
    "{\"op\": \"run\", \"source\": \"int main() { return 1; }\", \"engine\": "
    "\"reference\", \"max_blocks\": 100}",
    "{\"op\": \"coschedule\", \"programs\": [\"reduce@8\", \"scan@8\"], "
    "\"policy\": \"rr\", \"quantum\": 2}",
    "{\"op\": \"metrics\"}",
    "{\"op\": \"metrics\", \"tenant\": \"t1\", \"trace\": true}",
    "{\"op\": \"slowlog\", \"id\": 9}",
    "{\"op\": \"run\", \"source\": \"poly int x;\\nint main() { return x * "
    "2; }\\n\", \"nprocs\": 4, \"trace\": true}",
    "{\"op\": \"stats\", \"trace\": false}",
    // Stage shorthands; beside an explicit "pipeline" they are ignored; an
    // unknown pass name is a typed pipeline-error.
    "{\"op\": \"compile\", \"source\": \"poly int x;\\nint main() { if (x) "
    "{ x = 1; } return x; }\\n\", \"compress\": true, \"time_split\": true, "
    "\"subsume\": false}",
    "{\"op\": \"run\", \"source\": \"poly int x;\\nint main() { return x; "
    "}\\n\", \"pipeline\": \"convert,straighten\", \"compress\": true}",
    "{\"op\": \"compile\", \"source\": \"int main() { return 0; }\", "
    "\"pipeline\": \"convert,frobnicate\"}",
    "{\"op\": \"shutdown\", \"id\": \"bye\"}",
};

std::string mutate_frame(const std::string& base, Rng& rng) {
  std::string s = base;
  const int kind = static_cast<int>(rng.next_below(9));
  switch (kind) {
    case 8: {  // toggle the trace flag (observability surface, §15)
      const std::size_t at = s.find("\"trace\": true");
      const std::size_t af = s.find("\"trace\": false");
      if (at != std::string::npos)
        s.replace(at, 13, "\"trace\": false");
      else if (af != std::string::npos)
        s.replace(af, 14, "\"trace\": true");
      else if (!s.empty() && s.back() == '}')
        s.insert(s.size() - 1, ", \"trace\": true");
      break;
    }
    case 0: {  // flip a byte
      if (s.empty()) return "{";
      s[rng.next_below(s.size())] =
          static_cast<char>(rng.next_range(32, 126));
      break;
    }
    case 1: {  // truncate
      if (!s.empty()) s.resize(rng.next_below(s.size()));
      break;
    }
    case 2: {  // delete a span
      if (s.size() > 2) {
        const std::size_t at = rng.next_below(s.size() - 1);
        const std::size_t len = 1 + rng.next_below(s.size() - at);
        s.erase(at, len);
      }
      break;
    }
    case 3: {  // insert structural noise
      static const char* kNoise[] = {"{", "}", "[", "]", "\"", ",", ":",
                                     "\\u0000", "null", "1e309", "-0"};
      s.insert(rng.next_below(s.size() + 1),
               kNoise[rng.next_below(sizeof(kNoise) / sizeof(kNoise[0]))]);
      break;
    }
    case 4: {  // splice two frames at random cut points
      const std::string& other =
          kSeedFrames[rng.next_below(sizeof(kSeedFrames) /
                                     sizeof(kSeedFrames[0]))];
      s = s.substr(0, rng.next_below(s.size() + 1)) +
          other.substr(rng.next_below(other.size() + 1));
      break;
    }
    case 5: {  // wrap in nesting (probes the depth limit)
      const int depth = static_cast<int>(rng.next_range(1, 96));
      std::string bomb = "{\"op\": ";
      for (int i = 0; i < depth; ++i) bomb += "[";
      bomb += "1";
      for (int i = 0; i < depth; ++i) bomb += "]";
      bomb += "}";
      s = bomb;
      break;
    }
    case 6: {  // inflate (probes the frame limit)
      s.insert(rng.next_below(s.size() + 1),
               std::string(rng.next_below(4096) + 1,
                           static_cast<char>(rng.next_range(32, 126))));
      break;
    }
    default: {  // duplicate a span
      if (!s.empty()) {
        const std::size_t at = rng.next_below(s.size());
        const std::size_t len = 1 + rng.next_below(s.size() - at);
        s.insert(at, s.substr(at, len));
      }
      break;
    }
  }
  // The reqlog format is one frame per line; a mutated newline would
  // silently split into two frames on replay.
  for (char& c : s)
    if (c == '\n' || c == '\r') c = ' ';
  return s;
}

/// Check one response against the protocol contract. Returns "" when it
/// holds, else the violation.
std::string check_response(const std::string& frame,
                           const std::string& response,
                           std::size_t max_frame_bytes) {
  if (response.find('\n') != std::string::npos)
    return "response contains an embedded newline";
  json::Value doc;
  try {
    doc = json::parse(response);
  } catch (const json::ParseError& e) {
    return cat("response is not valid JSON: ", e.what());
  }
  if (!doc.is_object()) return "response is not a JSON object";
  const json::Value* schema = doc.find("schema");
  if (!schema || !schema->is_number() || schema->as_int() != 1)
    return "response lacks \"schema\": 1";
  const json::Value* ok = doc.find("ok");
  if (!ok || ok->kind != json::Value::Kind::Bool)
    return "response lacks a boolean \"ok\"";
  if (!ok->b) {
    const json::Value* err = doc.find("error");
    if (!err || !err->is_object()) return "error response lacks \"error\"";
    const json::Value* errkind = err->find("kind");
    if (!errkind || !errkind->is_string())
      return "error response lacks a \"kind\"";
    try {
      service::parse_error_kind(errkind->str);
    } catch (const std::invalid_argument&) {
      return cat("unknown error kind '", errkind->str, "'");
    }
    if (frame.size() > max_frame_bytes &&
        errkind->str != "frame-too-large")
      return cat("oversized frame answered '", errkind->str,
                 "' instead of 'frame-too-large'");
  } else if (frame.size() > max_frame_bytes) {
    return "oversized frame was accepted";
  }
  // A "trace" member, when attached, is a JSON-escaped string carrying a
  // RequestTrace document — it must round-trip and name its request.
  if (const json::Value* trace = doc.find("trace")) {
    if (!trace->is_string()) return "\"trace\" member is not a string";
    json::Value rt;
    try {
      rt = json::parse(trace->as_string());
    } catch (const json::ParseError& e) {
      return cat("\"trace\" member is not embedded JSON: ", e.what());
    }
    if (!rt.is_object() || !rt.find("request_id") ||
        !rt.find("phase_micros"))
      return "\"trace\" document lacks request_id/phase_micros";
  }
  return "";
}

/// Run a frame sequence against a fresh service; returns the violation
/// ("" = clean). The service is rebuilt per call so results are a pure
/// function of the sequence — exactly what a reqlog replay needs.
std::string run_sequence(const std::vector<std::string>& frames,
                         std::size_t max_frame_bytes) {
  service::ServiceOptions opts;
  opts.limits.max_frame_bytes = max_frame_bytes;
  service::Service svc(opts);
  for (const std::string& frame : frames) {
    std::string response;
    try {
      response = svc.handle_line(frame);
    } catch (const std::exception& e) {
      return cat("handle_line threw: ", e.what());
    } catch (...) {
      return "handle_line threw a non-std exception";
    }
    const std::string violation =
        check_response(frame, response, max_frame_bytes);
    if (!violation.empty()) return violation;
  }
  return "";
}

/// Greedy shrink: drop frames (a finding usually needs one), then carve
/// chunks out of the surviving frames while the violation reproduces.
std::vector<std::string> shrink_sequence(std::vector<std::string> frames,
                                         std::size_t max_frame_bytes) {
  // Phase 1: minimal sub-sequence.
  for (std::size_t i = frames.size(); i-- > 0;) {
    std::vector<std::string> without = frames;
    without.erase(without.begin() + static_cast<std::ptrdiff_t>(i));
    if (!run_sequence(without, max_frame_bytes).empty()) frames = without;
  }
  // Phase 2: per-frame chunk deletion, halving chunk size like the
  // source shrinker.
  for (std::size_t fi = 0; fi < frames.size(); ++fi) {
    std::size_t chunk = frames[fi].size() / 2;
    if (chunk == 0) chunk = 1;
    for (;; chunk /= 2) {
      bool progress = true;
      while (progress && frames[fi].size() > chunk) {
        progress = false;
        for (std::size_t at = 0; at + chunk <= frames[fi].size();
             at += chunk) {
          std::vector<std::string> trial = frames;
          trial[fi].erase(at, chunk);
          if (!run_sequence(trial, max_frame_bytes).empty()) {
            frames = std::move(trial);
            progress = true;
            break;
          }
        }
      }
      if (chunk <= 1) break;
    }
  }
  return frames;
}

}  // namespace

bool replay_request_log(const std::vector<std::string>& frames,
                        std::size_t max_frame_bytes, std::string* detail) {
  const std::string violation = run_sequence(frames, max_frame_bytes);
  if (detail) *detail = violation;
  return violation.empty();
}

ServiceFuzzResult fuzz_service(const ServiceFuzzOptions& options) {
  ServiceFuzzResult result;
  Rng rng(options.seed == 0 ? 1 : options.seed);
  FuzzCoverage coverage;
  ScopedCoverage scope(&coverage);

  std::vector<std::string> pool(
      kSeedFrames, kSeedFrames + sizeof(kSeedFrames) / sizeof(kSeedFrames[0]));

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(options.time_budget_seconds));

  while (static_cast<int>(result.findings.size()) < options.max_findings) {
    if (options.max_iterations > 0 &&
        result.iterations >= options.max_iterations)
      break;
    if (options.max_iterations <= 0 &&
        std::chrono::steady_clock::now() >= deadline)
      break;
    ++result.iterations;

    // Build a candidate sequence: mostly mutants, sometimes originals so
    // stateful interactions (cache hits, quota strikes, shutdown) occur.
    std::vector<std::string> frames;
    for (int i = 0; i < options.frames_per_candidate; ++i) {
      const std::string& base = pool[rng.next_below(pool.size())];
      frames.push_back(rng.chance(1, 4) ? base : mutate_frame(base, rng));
    }

    coverage.begin_candidate();
    const std::string violation =
        run_sequence(frames, options.max_frame_bytes);
    if (coverage.merge() > 0 && pool.size() < 512)
      for (const std::string& f : frames) pool.push_back(f);

    if (!violation.empty()) {
      ServiceFinding finding;
      finding.frames = options.shrink
                           ? shrink_sequence(frames, options.max_frame_bytes)
                           : frames;
      finding.detail = run_sequence(finding.frames, options.max_frame_bytes);
      if (finding.detail.empty()) finding.detail = violation;
      if (!options.out_dir.empty()) {
        const std::string path =
            cat(options.out_dir, "/finding_", result.findings.size(),
                ".reqlog");
        std::ofstream out(path, std::ios::binary);
        for (const std::string& f : finding.frames) out << f << "\n";
      }
      result.findings.push_back(std::move(finding));
    }
  }

  result.corpus_size = pool.size();
  result.total_features = coverage.total_features();
  return result;
}

}  // namespace msc::fuzz
