// Wire-format parsing and rendering for mscd (DESIGN.md §13). Validation
// is whitelist-based: every member of the request object must be a known
// field of the request's op, with the right JSON type and a sane range —
// anything else is a typed protocol error, so the fuzzer's mutated frames
// land in exactly two buckets (parse-error / protocol-error) instead of
// leaking half-validated requests into the workers.
#include "msc/service/protocol.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "msc/pass/pass.hpp"
#include "msc/simd/machine.hpp"
#include "msc/support/str.hpp"

namespace msc::service {

namespace {

struct KindName {
  ErrorKind kind;
  const char* name;
};

constexpr KindName kKindNames[] = {
    {ErrorKind::ParseError, "parse-error"},
    {ErrorKind::Protocol, "protocol-error"},
    {ErrorKind::FrameTooLarge, "frame-too-large"},
    {ErrorKind::Compile, "compile-error"},
    {ErrorKind::Explosion, "explosion"},
    {ErrorKind::Fault, "machine-fault"},
    {ErrorKind::Pipeline, "pipeline-error"},
    {ErrorKind::Quota, "quota-exceeded"},
    {ErrorKind::ShuttingDown, "shutting-down"},
    {ErrorKind::Internal, "internal-error"},
};

[[noreturn]] void bad(const std::string& message) {
  throw ProtocolError(message);
}

std::int64_t int_field(const json::Value& v, const std::string& key,
                       std::int64_t lo, std::int64_t hi) {
  if (!v.is_number() || !v.is_exact_int)
    bad(cat("field '", key, "' must be an integer"));
  const std::int64_t n = v.inum;
  if (n < lo || n > hi)
    bad(cat("field '", key, "' = ", n, " out of range [", lo, ", ", hi, "]"));
  return n;
}

bool bool_field(const json::Value& v, const std::string& key) {
  if (v.kind != json::Value::Kind::Bool)
    bad(cat("field '", key, "' must be a boolean"));
  return v.b;
}

const std::string& string_field(const json::Value& v, const std::string& key) {
  if (!v.is_string()) bad(cat("field '", key, "' must be a string"));
  return v.str;
}

}  // namespace

const char* to_string(ErrorKind kind) {
  for (const KindName& k : kKindNames)
    if (k.kind == kind) return k.name;
  return "internal-error";
}

ErrorKind parse_error_kind(const std::string& name) {
  for (const KindName& k : kKindNames)
    if (name == k.name) return k.kind;
  throw std::invalid_argument(cat("unknown error kind '", name, "'"));
}

const char* to_string(Op op) {
  switch (op) {
    case Op::Compile: return "compile";
    case Op::Run: return "run";
    case Op::Coschedule: return "coschedule";
    case Op::Stats: return "stats";
    case Op::Metrics: return "metrics";
    case Op::Slowlog: return "slowlog";
    case Op::Shutdown: return "shutdown";
  }
  return "stats";
}

void attribute_frame(const std::string& line, const json::ParseLimits& limits,
                     std::string* tenant, std::string* op) {
  json::Value doc;
  try {
    doc = json::parse(line, limits);
  } catch (const json::ParseError&) {
    return;  // malformed JSON carries no trustworthy labels
  }
  if (!doc.is_object()) return;
  if (const json::Value* t = doc.find("tenant"))
    if (t->is_string() && !t->str.empty() && t->str.size() <= 64)
      *tenant = t->str;
  if (const json::Value* o = doc.find("op"))
    if (o->is_string()) {
      static const char* kOps[] = {"compile", "run",     "coschedule",
                                   "stats",   "metrics", "slowlog",
                                   "shutdown"};
      for (const char* known : kOps)
        if (o->str == known) {
          *op = o->str;
          break;
        }
    }
}

Request parse_request(const std::string& line,
                      const json::ParseLimits& limits) {
  const json::Value doc = json::parse(line, limits);
  if (!doc.is_object()) bad("request must be a JSON object");

  const json::Value* opv = doc.find("op");
  if (!opv) bad("request is missing 'op'");
  const std::string& opname = string_field(*opv, "op");

  Request req;
  if (opname == "compile") req.op = Op::Compile;
  else if (opname == "run") req.op = Op::Run;
  else if (opname == "coschedule") req.op = Op::Coschedule;
  else if (opname == "stats") req.op = Op::Stats;
  else if (opname == "metrics") req.op = Op::Metrics;
  else if (opname == "slowlog") req.op = Op::Slowlog;
  else if (opname == "shutdown") req.op = Op::Shutdown;
  else bad(cat("unknown op '", opname, "'"));

  const bool compile_like = req.op == Op::Compile || req.op == Op::Run;
  bool have_source = false;
  bool compress = false, time_split = false, subsume = true;  // shorthands

  for (const auto& [key, value] : doc.members) {
    if (key == "op") continue;
    if (key == "id") {
      if (value.is_string())
        req.id_json = cat("\"", json_escape(value.str), "\"");
      else if (value.is_number() && value.is_exact_int)
        req.id_json = std::to_string(value.inum);
      else
        bad("field 'id' must be an integer or a string");
      continue;
    }
    if (key == "tenant") {
      req.tenant = string_field(value, key);
      if (req.tenant.empty() || req.tenant.size() > 64)
        bad("field 'tenant' must be 1..64 characters");
      continue;
    }
    if (key == "trace") {
      req.trace = bool_field(value, key);
      continue;
    }

    if (compile_like && key == "source") {
      req.source = string_field(value, key);
      have_source = true;
      continue;
    }
    if (compile_like && key == "pipeline") {
      for (const std::string& name : split(string_field(value, key), ','))
        if (!name.empty()) req.pipeline.push_back(name);
      continue;
    }
    if (compile_like && key == "compress") {
      compress = bool_field(value, key);
      continue;
    }
    if (compile_like && key == "time_split") {
      time_split = bool_field(value, key);
      continue;
    }
    if (compile_like && key == "adaptive") {
      req.adaptive = bool_field(value, key);
      continue;
    }
    if (compile_like && key == "subsume") {
      subsume = bool_field(value, key);
      continue;
    }
    if (compile_like && key == "prune") {
      req.prune = bool_field(value, key);
      continue;
    }
    if (compile_like && key == "max_meta_states") {
      req.max_meta_states = static_cast<std::size_t>(
          int_field(value, key, 1, 10'000'000));
      continue;
    }

    if (req.op == Op::Run && key == "nprocs") {
      req.nprocs = int_field(value, key, 1, 65'536);
      continue;
    }
    if (req.op == Op::Run && key == "active") {
      req.initial_active = int_field(value, key, -1, 65'536);
      continue;
    }
    if ((req.op == Op::Run || req.op == Op::Coschedule) && key == "seed") {
      req.seed = static_cast<std::uint64_t>(
          int_field(value, key, 0, std::numeric_limits<std::int64_t>::max()));
      continue;
    }
    if ((req.op == Op::Run || req.op == Op::Coschedule) && key == "engine") {
      try {
        req.engine = simd::parse_engine(string_field(value, key));
      } catch (const std::invalid_argument& e) {
        bad(e.what());
      }
      continue;
    }
    if ((req.op == Op::Run || req.op == Op::Coschedule) && key == "simd_isa") {
      try {
        req.simd_isa = parse_simd_isa(string_field(value, key));
      } catch (const std::invalid_argument& e) {
        bad(e.what());
      }
      continue;
    }
    if (req.op == Op::Run && key == "reuse_halted_pes") {
      req.reuse_halted_pes = bool_field(value, key);
      continue;
    }
    if ((req.op == Op::Run || req.op == Op::Coschedule) && key == "profile") {
      req.profile = bool_field(value, key);
      continue;
    }
    if (req.op == Op::Run && key == "max_blocks") {
      req.max_blocks = int_field(value, key, 1, 1'000'000'000);
      continue;
    }

    if (req.op == Op::Coschedule && key == "programs") {
      if (!value.is_array()) bad("field 'programs' must be an array");
      if (value.elems.empty() || value.elems.size() > 16)
        bad("field 'programs' must hold 1..16 kernel specs");
      for (const json::Value& e : value.elems)
        req.programs.push_back(string_field(e, key));
      continue;
    }
    if (req.op == Op::Coschedule && key == "policy") {
      try {
        req.policy = simd::parse_copolicy(string_field(value, key));
      } catch (const std::invalid_argument& e) {
        bad(e.what());
      }
      continue;
    }
    if (req.op == Op::Coschedule && key == "quantum") {
      req.quantum = int_field(value, key, 1, 1'000'000);
      continue;
    }

    if (req.op == Op::Stats && key == "metrics") {
      req.metrics = bool_field(value, key);
      continue;
    }

    bad(cat("unknown field '", key, "' for op '", opname, "'"));
  }

  if (compile_like && !have_source)
    bad(cat("op '", opname, "' requires a 'source' field"));
  if (compile_like && req.pipeline.empty())
    req.pipeline = pass::shorthand_pipeline(compress, time_split, subsume);
  if (req.op == Op::Coschedule && req.programs.empty())
    bad("op 'coschedule' requires a 'programs' field");
  if (req.op == Op::Run && req.initial_active > req.nprocs)
    bad("field 'active' exceeds 'nprocs'");
  return req;
}

std::string ok_response(const Request& request, const std::string& payload) {
  std::string out = cat("{\"schema\": 1, \"op\": \"", to_string(request.op),
                        "\"");
  if (!request.id_json.empty()) out += cat(", \"id\": ", request.id_json);
  out += ", \"ok\": true";
  if (!payload.empty()) out += cat(", ", payload);
  out += "}";
  return out;
}

std::string error_response(const std::string& id_json, std::optional<Op> op,
                           ErrorKind kind, const std::string& message) {
  std::string out = "{\"schema\": 1";
  if (op) out += cat(", \"op\": \"", to_string(*op), "\"");
  if (!id_json.empty()) out += cat(", \"id\": ", id_json);
  out += cat(", \"ok\": false, \"error\": {\"kind\": \"", to_string(kind),
             "\", \"message\": \"", json_escape(message), "\"}}");
  return out;
}

}  // namespace msc::service
