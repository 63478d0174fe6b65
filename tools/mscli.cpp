// mscli — command-line client for mscd (DESIGN.md §13). Builds one wire
// request per invocation, prints the daemon's response, and maps typed
// protocol errors onto mscc-compatible exit codes so scripts treat a
// daemon compile exactly like a local one.
//
// Usage:
//   mscli --socket S compile file.mimdc [compile options]
//   mscli --socket S run file.mimdc [compile/run options]
//   mscli --socket S coschedule spec... [--policy P] [--quantum N]
//   mscli --socket S stats [--metrics]
//   mscli --socket S metrics        # labeled per-tenant/per-op telemetry
//   mscli --socket S slowlog        # worst-request traces
//   mscli --socket S shutdown
//   mscli --socket S raw            # frames from stdin, one per line
//
// Exit codes:
//   0 ok, 1 internal/I-O, 2 usage / parse / protocol / frame errors,
//   3 compile error, 4 explosion, 5 machine fault, 6 quota rejection.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "msc/service/client.hpp"
#include "msc/service/protocol.hpp"
#include "msc/support/json.hpp"
#include "msc/support/str.hpp"

#include "int_arg.hpp"

using namespace msc;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: mscli --socket PATH <op> [args] [options]\n"
      "\n"
      "ops:\n"
      "  compile FILE         convert FILE; response carries the automaton\n"
      "  run FILE             convert + execute on the simulated machine\n"
      "  coschedule SPEC...   time-multiplex verified kernels (name@n)\n"
      "  stats                daemon counters (cache, tenants, quota)\n"
      "  metrics              labeled {tenant, op} telemetry (schema 2)\n"
      "  slowlog              ring-buffered worst-request traces\n"
      "  shutdown             stop the daemon\n"
      "  raw                  relay stdin lines as frames (testing)\n"
      "\n"
      "request options:\n"
      "  --tenant T           tenant id for admission (default anon)\n"
      "  --id N               request id echoed in the response\n"
      "  --pipeline P         explicit pass pipeline (comma-separated)\n"
      "  --compress --adaptive --time-split --prune --no-subsume\n"
      "  --max-meta-states N  explosion guard\n"
      "  --nprocs N --active N --seed N --simd-isa I\n"
      "  --engine E           codegen (default) | reference\n"
      "  --max-blocks N\n"
      "  --reuse-halted-pes   (run)\n"
      "  --policy P --quantum N   (coschedule)\n"
      "  --profile            accumulate per-meta-state profiles\n"
      "  --metrics            (stats) include the metrics registry\n"
      "  --trace              attach the request's lifecycle trace to the\n"
      "                       response (any op; render with mscprof)\n"
      "\n"
      "output options:\n"
      "  --emit M             print one payload member instead of the raw\n"
      "                       response: automaton | observed | simd |\n"
      "                       cosched | stats | metrics | trace | slowlog\n"
      "                       (strings are decoded)\n"
      "  --out FILE           write the --emit payload to FILE (e.g. a\n"
      "                       simd/cosched profile document for mscprof)\n");
  return 2;
}

int exit_code_for(service::ErrorKind kind) {
  switch (kind) {
    case service::ErrorKind::Compile: return 3;
    case service::ErrorKind::Explosion: return 4;
    case service::ErrorKind::Fault: return 5;
    case service::ErrorKind::Quota: return 6;
    case service::ErrorKind::ParseError:
    case service::ErrorKind::Protocol:
    case service::ErrorKind::FrameTooLarge:
    case service::ErrorKind::Pipeline: return 2;
    case service::ErrorKind::ShuttingDown:
    case service::ErrorKind::Internal: return 1;
  }
  return 1;
}

std::string read_file(const std::string& path) {
  if (path == "-") {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    return ss.str();
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error(cat("cannot open '", path, "'"));
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Render the response (or one payload member) and derive the exit code.
int handle_response(const std::string& response, const std::string& emit,
                    const std::string& out_path) {
  json::Value doc;
  try {
    doc = json::parse(response);
  } catch (const json::ParseError& e) {
    std::fprintf(stderr, "mscli: unparseable response: %s\n", e.what());
    return 1;
  }
  const json::Value* ok = doc.find("ok");
  if (!ok || ok->kind != json::Value::Kind::Bool) {
    std::fprintf(stderr, "mscli: malformed response envelope\n");
    return 1;
  }
  if (!ok->b) {
    const json::Value* err = doc.find("error");
    std::string kind = "internal-error", message = "(no message)";
    if (err && err->is_object()) {
      if (const json::Value* k = err->find("kind"); k && k->is_string())
        kind = k->str;
      if (const json::Value* m = err->find("message"); m && m->is_string())
        message = m->str;
    }
    std::fprintf(stderr, "mscli: %s: %s\n", kind.c_str(), message.c_str());
    try {
      return exit_code_for(service::parse_error_kind(kind));
    } catch (const std::invalid_argument&) {
      return 1;
    }
  }

  std::string text;
  if (emit.empty()) {
    text = response + "\n";
  } else {
    const json::Value* member = doc.find(emit);
    if (!member) {
      std::fprintf(stderr, "mscli: response has no '%s' member\n",
                   emit.c_str());
      return 1;
    }
    // Strings (automaton, observed) decode to the exact toolchain bytes;
    // objects (simd, cosched, stats) re-render via the original response
    // slice would require offsets, so splice from the wire line instead.
    if (member->is_string()) {
      text = member->str;
    } else {
      // The payload members are verbatim splices of toolchain JSON; cut
      // the member's balanced object out of the raw response line.
      const std::string needle = cat("\"", emit, "\": ");
      const std::size_t at = response.find(needle);
      if (at == std::string::npos) {
        std::fprintf(stderr, "mscli: cannot locate '%s' payload\n",
                     emit.c_str());
        return 1;
      }
      std::size_t i = at + needle.size(), depth = 0;
      bool in_string = false;
      const std::size_t start = i;
      for (; i < response.size(); ++i) {
        const char c = response[i];
        if (in_string) {
          if (c == '\\') ++i;
          else if (c == '"') in_string = false;
        } else if (c == '"') {
          in_string = true;
        } else if (c == '{' || c == '[') {
          ++depth;
        } else if (c == '}' || c == ']') {
          if (--depth == 0) { ++i; break; }
        }
      }
      text = response.substr(start, i - start) + "\n";
    }
  }

  if (out_path.empty() || out_path == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
  } else {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "mscli: cannot write '%s'\n", out_path.c_str());
      return 1;
    }
    out << text;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path, op, file, tenant, id, pipeline, engine, policy;
  std::string simd_isa;
  std::string emit, out_path;
  std::vector<std::string> specs;
  bool compress = false, adaptive = false, time_split = false, prune = false;
  bool no_subsume = false, reuse = false, profile = false, metrics = false;
  bool trace = false;
  std::int64_t max_meta_states = -1, nprocs = -1, active = -2, seed = -1;
  std::int64_t max_blocks = -1, quantum = -1;

  auto next = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "mscli: %s needs a value\n", argv[i]);
      std::exit(2);
    }
    return argv[++i];
  };
  auto int_flag = [&](int& i, std::int64_t lo) {
    const std::string flag = argv[i];
    return tools::int_arg("mscli", usage, flag, next(i), lo);
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket") socket_path = next(i);
    else if (arg == "--tenant") tenant = next(i);
    else if (arg == "--id") id = next(i);
    else if (arg == "--pipeline") pipeline = next(i);
    else if (arg == "--compress") compress = true;
    else if (arg == "--adaptive") adaptive = true;
    else if (arg == "--time-split") time_split = true;
    else if (arg == "--prune") prune = true;
    else if (arg == "--no-subsume") no_subsume = true;
    else if (arg == "--reuse-halted-pes") reuse = true;
    else if (arg == "--profile") profile = true;
    else if (arg == "--metrics") metrics = true;
    else if (arg == "--trace") trace = true;
    else if (arg == "--max-meta-states") max_meta_states = int_flag(i, 1);
    else if (arg == "--nprocs") nprocs = int_flag(i, 1);
    else if (arg == "--active") active = int_flag(i, -1);
    else if (arg == "--seed") seed = int_flag(i, 0);
    else if (arg == "--max-blocks") max_blocks = int_flag(i, 1);
    else if (arg == "--quantum") quantum = int_flag(i, 1);
    else if (arg == "--engine") engine = next(i);
    else if (arg == "--simd-isa") simd_isa = next(i);
    else if (arg == "--policy") policy = next(i);
    else if (arg == "--emit") emit = next(i);
    else if (arg == "--out") out_path = next(i);
    else if (arg == "--help" || arg == "-h") return usage();
    else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "mscli: unknown option '%s'\n", arg.c_str());
      return usage();
    } else if (op.empty()) {
      op = arg;
    } else if ((op == "compile" || op == "run") && file.empty()) {
      file = arg;
    } else if (op == "coschedule") {
      specs.push_back(arg);
    } else {
      std::fprintf(stderr, "mscli: unexpected argument '%s'\n", arg.c_str());
      return usage();
    }
  }

  if (socket_path.empty() || op.empty()) return usage();

  try {
    service::Client client;
    client.connect(socket_path);

    if (op == "raw") {
      std::string line;
      int rc = 0;
      while (std::getline(std::cin, line)) {
        const std::string response = client.request(line, 30'000);
        const int code = handle_response(response, emit, out_path);
        if (code != 0) rc = code;
      }
      return rc;
    }

    std::string frame = cat("{\"op\": \"", op, "\"");
    if (!id.empty()) {
      const bool numeric =
          id.find_first_not_of("0123456789") == std::string::npos;
      frame += cat(", \"id\": ",
                   numeric ? id : cat("\"", json_escape(id), "\""));
    }
    if (!tenant.empty())
      frame += cat(", \"tenant\": \"", json_escape(tenant), "\"");

    if (op == "compile" || op == "run") {
      if (file.empty()) {
        std::fprintf(stderr, "mscli: %s needs a source file\n", op.c_str());
        return usage();
      }
      frame += cat(", \"source\": \"", json_escape(read_file(file)), "\"");
      if (!pipeline.empty())
        frame += cat(", \"pipeline\": \"", json_escape(pipeline), "\"");
      if (compress) frame += ", \"compress\": true";
      if (adaptive) frame += ", \"adaptive\": true";
      if (time_split) frame += ", \"time_split\": true";
      if (prune) frame += ", \"prune\": true";
      if (no_subsume) frame += ", \"subsume\": false";
      if (max_meta_states >= 0)
        frame += cat(", \"max_meta_states\": ", max_meta_states);
    }
    if (op == "run") {
      if (nprocs >= 0) frame += cat(", \"nprocs\": ", nprocs);
      if (active >= -1) frame += cat(", \"active\": ", active);
      if (max_blocks >= 0) frame += cat(", \"max_blocks\": ", max_blocks);
      if (reuse) frame += ", \"reuse_halted_pes\": true";
    }
    if (op == "run" || op == "coschedule") {
      if (seed >= 0) frame += cat(", \"seed\": ", seed);
      if (!engine.empty())
        frame += cat(", \"engine\": \"", json_escape(engine), "\"");
      if (!simd_isa.empty())
        frame += cat(", \"simd_isa\": \"", json_escape(simd_isa), "\"");
      if (profile) frame += ", \"profile\": true";
    }
    if (op == "coschedule") {
      if (specs.empty()) {
        std::fprintf(stderr, "mscli: coschedule needs kernel specs\n");
        return usage();
      }
      frame += ", \"programs\": [";
      for (std::size_t i = 0; i < specs.size(); ++i)
        frame += cat(i ? ", " : "", "\"", json_escape(specs[i]), "\"");
      frame += "]";
      if (!policy.empty())
        frame += cat(", \"policy\": \"", json_escape(policy), "\"");
      if (quantum >= 0) frame += cat(", \"quantum\": ", quantum);
    }
    if (op == "stats" && metrics) frame += ", \"metrics\": true";
    if (trace) frame += ", \"trace\": true";
    frame += "}";

    const std::string response = client.request(frame, 120'000);
    return handle_response(response, emit, out_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mscli: %s\n", e.what());
    return 1;
  }
}
