#ifndef MSC_SERVICE_PROTOCOL_HPP
#define MSC_SERVICE_PROTOCOL_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "msc/mimd/machine.hpp"
#include "msc/simd/coschedule.hpp"
#include "msc/support/json.hpp"

namespace msc::service {

/// The mscd wire format (DESIGN.md §13): newline-delimited JSON frames
/// over a Unix-domain socket. One request object per line in, one
/// response object per line out, the request's "id" echoed back so
/// clients may pipeline. Every response is a single JSON object with
/// "ok": true plus an op-specific payload, or "ok": false plus a typed
/// {"kind", "message"} error — a malformed, hostile, or over-quota frame
/// produces an error response (or, past the frame limit, a terse error
/// and a closed connection), never a crash or a hang.

/// Typed error taxonomy. The wire strings are stable API (mscli maps them
/// to exit codes; tests and the fuzzer assert on them).
enum class ErrorKind : std::uint8_t {
  ParseError,     ///< frame is not valid JSON within the parse limits
  Protocol,       ///< valid JSON, invalid request (unknown op/field, types)
  FrameTooLarge,  ///< frame exceeds ServiceLimits::max_frame_bytes
  Compile,        ///< CompileError in the submitted MIMDC source
  Explosion,      ///< conversion exceeded max_meta_states
  Fault,          ///< machine fault while executing
  Pipeline,       ///< pass-pipeline construction error
  Quota,          ///< tenant admission rejected the request
  ShuttingDown,   ///< daemon is stopping; request not accepted
  Internal,       ///< anything unexpected
};

const char* to_string(ErrorKind kind);
/// Inverse of to_string; throws std::invalid_argument on unknown names.
ErrorKind parse_error_kind(const std::string& name);

/// Request kinds accepted by the daemon.
enum class Op : std::uint8_t {
  Compile,
  Run,
  Coschedule,
  Stats,
  Metrics,   ///< labeled per-tenant/per-op telemetry (schema-2 payload)
  Slowlog,   ///< ring-buffered worst-request traces
  Shutdown,
};
const char* to_string(Op op);

/// A validated request. parse_request() is the only way to build one from
/// wire bytes; it enforces the field whitelist per op, so by the time a
/// worker sees a Request every field is typed and range-checked.
struct Request {
  Op op = Op::Stats;
  /// Echo token: requests may carry "id" as an integer or a string; the
  /// response repeats it verbatim. Empty = absent.
  std::string id_json;
  std::string tenant = "anon";

  // compile / run
  std::string source;
  /// Pass list: the "pipeline" field, else pass::shorthand_pipeline of the
  /// "compress"/"time_split"/"subsume" fields. Empty = the default.
  std::vector<std::string> pipeline;
  bool adaptive = false;
  bool prune = false;
  std::size_t max_meta_states = 250'000;

  // run
  std::int64_t nprocs = 8;
  std::int64_t initial_active = -1;
  std::uint64_t seed = 1;
  mimd::SimdEngine engine = mimd::RunConfig{}.engine;
  SimdIsa simd_isa = SimdIsa::Auto;
  bool reuse_halted_pes = false;
  /// Accumulate per-meta-state StateProfiles: the response's "simd"
  /// payload becomes the --profile-simd document instead of --trace-simd.
  bool profile = false;
  std::int64_t max_blocks = 4'000'000;

  // coschedule
  std::vector<std::string> programs;  ///< verified kernel specs "name@n"
  simd::CoPolicy policy = simd::CoPolicy::RoundRobin;
  std::int64_t quantum = 1;

  // stats
  bool metrics = false;  ///< include the process metrics registry JSON

  // any op
  /// Attach the request's RequestTrace to the response as a JSON-escaped
  /// "trace" string member (DESIGN.md §15). The trace holds wall-clock
  /// timings, so byte-identity comparisons exclude it.
  bool trace = false;
};

/// Thrown by parse_request() on a structurally valid JSON object that is
/// not a valid request (unknown op, unknown field, bad type or range).
/// Carries the typed kind so the caller renders the right error.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& message,
                         ErrorKind kind = ErrorKind::Protocol)
      : std::runtime_error(message), kind_(kind) {}
  ErrorKind kind() const { return kind_; }

 private:
  ErrorKind kind_;
};

/// Parse one wire frame into a Request. Throws json::ParseError on
/// malformed JSON (within `limits`) and ProtocolError on anything that
/// parses but does not validate.
Request parse_request(const std::string& line, const json::ParseLimits& limits);

/// Best-effort tenant/op attribution for a frame that failed validation,
/// so its error still lands on the right labeled series (DESIGN.md §15).
/// Writes only what a structurally valid object carries with the right
/// type: `tenant` bounded like the validated path, `op` only when it is
/// one of the known op names (never attacker-chosen label values). Never
/// throws; leaves the outputs untouched when nothing qualifies.
void attribute_frame(const std::string& line, const json::ParseLimits& limits,
                     std::string* tenant, std::string* op);

/// Render the standard response envelope. `payload` is a pre-rendered
/// sequence of `"key": value` members spliced after "ok" (may be empty);
/// the result is exactly one line, newline not included.
std::string ok_response(const Request& request, const std::string& payload);
std::string error_response(const std::string& id_json, std::optional<Op> op,
                           ErrorKind kind, const std::string& message);

}  // namespace msc::service

#endif  // MSC_SERVICE_PROTOCOL_HPP
