// mscprof — report tool for the observability outputs (DESIGN.md §10).
// Reads either a per-meta-state profile (mscc --profile-simd, or a plain
// --trace-simd stats dump) or a Chrome trace-event file (mscc
// --trace-chrome) and renders:
//
//   - a run summary (engine, cycles, overall PE utilization),
//   - a per-meta-state utilization table ranked by control-cycle share,
//   - the paper-style "PE utilization vs. meta-state count" curve
//     (cumulative utilization as hottest states are added, §4's lens),
//   - with --diff, a side-by-side comparison of two runs.
//
// Usage:
//   mscprof [options] run.json
//   mscprof --diff before.json after.json
//
// Exit codes: 0 ok, 1 I/O or parse error, 2 bad usage.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "msc/support/json.hpp"
#include "msc/support/str.hpp"

using namespace msc;

namespace {

enum ExitCode { kOk = 0, kInternal = 1, kUsage = 2 };

int usage() {
  std::fprintf(
      stderr,
      "usage: mscprof [options] run.json\n"
      "       mscprof --diff before.json after.json\n"
      "\n"
      "Reads mscc observability JSON and renders utilization reports.\n"
      "Accepted inputs (auto-detected):\n"
      "  - mscc --profile-simd output (per-meta-state profiles)\n"
      "  - mscc --trace-simd output (run stats; summary only)\n"
      "  - mscc --trace-chrome output (Chrome trace events; meta-state\n"
      "    events are aggregated into a profile, pass spans tabulated)\n"
      "  - mscc --coschedule profile output (machine-level header plus\n"
      "    one per-program section per co-scheduled automaton)\n"
      "  - mscd request traces (a single RequestTrace document, e.g. the\n"
      "    \"trace\" member of a trace-armed response, or a slowlog op\n"
      "    payload: per-phase microsecond tables per request)\n"
      "\n"
      "options:\n"
      "  --top N      rows in the per-meta-state table (default 10, 0 = all)\n"
      "  --diff B     compare run.json (before) against B (after): per-state\n"
      "               visit/cycle/utilization deltas and summary drift\n"
      "\n"
      "exit codes: 0 ok, 1 I/O or parse error, 2 bad usage\n");
  return kUsage;
}

/// One meta state's aggregated execution record, whichever input it came
/// from. Cycle fields are exact int64s (the bit-exactness tests compare
/// them against SimdStats totals).
struct StateRow {
  std::int64_t state = 0;
  std::int64_t visits = 0;
  std::int64_t enabled_min = 0, enabled_max = 0, enabled_sum = 0;
  std::int64_t control_cycles = 0;
  std::int64_t busy_pe_cycles = 0, offered_pe_cycles = 0;
  std::int64_t global_ors = 0, guard_switches = 0, router_ops = 0, spawns = 0;

  double utilization() const {
    return offered_pe_cycles == 0 ? 1.0
                                  : static_cast<double>(busy_pe_cycles) /
                                        static_cast<double>(offered_pe_cycles);
  }
  double enabled_mean() const {
    return visits == 0 ? 0.0
                       : static_cast<double>(enabled_sum) /
                             static_cast<double>(visits);
  }
};

struct Run {
  std::string source;           ///< input path (headers)
  std::string engine = "?";     ///< "codegen"/"reference" when known
  std::string isa;              ///< resolved SIMD ISA ("scalar"/"avx2"/...)
  std::int64_t isa_lane_width = 0;
  std::string kind;             ///< "profile" | "stats" | "chrome-trace"
  std::int64_t meta_states = 0;
  std::int64_t meta_transitions = 0;
  std::int64_t control_cycles = 0;
  std::int64_t busy_pe_cycles = 0, offered_pe_cycles = 0;
  std::int64_t global_ors = 0, guard_switches = 0, router_ops = 0, spawns = 0;
  bool has_totals = false;
  std::vector<StateRow> states;  ///< empty for stats-only inputs
  /// Pass spans from a chrome trace (name, wall µs), execution order.
  std::vector<std::pair<std::string, std::int64_t>> passes;

  double utilization() const {
    return offered_pe_cycles == 0 ? 1.0
                                  : static_cast<double>(busy_pe_cycles) /
                                        static_cast<double>(offered_pe_cycles);
  }
};

std::int64_t get_int(const json::Value& obj, const char* key,
                     std::int64_t fallback = 0) {
  const json::Value* v = obj.find(key);
  return v && v->kind == json::Value::Kind::Number ? v->as_int() : fallback;
}

/// mscc --profile-simd / --trace-simd documents.
Run load_profile(const json::Value& doc, const std::string& path) {
  Run run;
  run.source = path;
  run.kind = doc.find("profile") ? "profile" : "stats";
  if (const json::Value* e = doc.find("engine")) run.engine = e->as_string();
  if (const json::Value* i = doc.find("isa")) run.isa = i->as_string();
  run.isa_lane_width = get_int(doc, "isa_lane_width");
  run.meta_states = get_int(doc, "meta_states");
  run.meta_transitions = get_int(doc, "meta_transitions");
  run.control_cycles = get_int(doc, "control_cycles");
  run.busy_pe_cycles = get_int(doc, "busy_pe_cycles");
  run.offered_pe_cycles = get_int(doc, "offered_pe_cycles");
  run.global_ors = get_int(doc, "global_ors");
  run.guard_switches = get_int(doc, "guard_switches");
  run.router_ops = get_int(doc, "router_ops");
  run.spawns = get_int(doc, "spawns");
  run.has_totals = true;
  if (const json::Value* prof = doc.find("profile")) {
    for (const json::Value& s : prof->elems) {
      StateRow row;
      row.state = get_int(s, "state");
      row.visits = get_int(s, "visits");
      row.enabled_min = get_int(s, "enabled_min");
      row.enabled_max = get_int(s, "enabled_max");
      row.enabled_sum = get_int(s, "enabled_sum");
      row.control_cycles = get_int(s, "control_cycles");
      row.busy_pe_cycles = get_int(s, "busy_pe_cycles");
      row.offered_pe_cycles = get_int(s, "offered_pe_cycles");
      row.global_ors = get_int(s, "global_ors");
      row.guard_switches = get_int(s, "guard_switches");
      row.router_ops = get_int(s, "router_ops");
      row.spawns = get_int(s, "spawns");
      run.states.push_back(row);
    }
  }
  return run;
}

/// mscc --trace-chrome documents: aggregate pid-2 "meta-state" complete
/// events into StateRows; collect pid-1 pass spans.
Run load_chrome(const json::Value& doc, const std::string& path) {
  Run run;
  run.source = path;
  run.kind = "chrome-trace";
  const json::Value& events = doc.at("traceEvents");
  for (const json::Value& e : events.elems) {
    const json::Value* ph = e.find("ph");
    if (!ph || ph->as_string() != "X") continue;
    const std::int64_t pid = get_int(e, "pid");
    if (pid == 2) {
      const json::Value* args = e.find("args");
      if (!args) continue;
      const std::int64_t id = get_int(*args, "state");
      if (run.states.size() <= static_cast<std::size_t>(id))
        run.states.resize(static_cast<std::size_t>(id) + 1);
      StateRow& row = run.states[static_cast<std::size_t>(id)];
      row.state = id;
      const std::int64_t enabled = get_int(*args, "enabled_pes");
      if (row.visits == 0 || enabled < row.enabled_min)
        row.enabled_min = enabled;
      row.enabled_max = std::max(row.enabled_max, enabled);
      row.enabled_sum += enabled;
      ++row.visits;
      row.control_cycles += get_int(e, "dur");
      row.busy_pe_cycles += get_int(*args, "busy_pe_cycles");
      row.offered_pe_cycles += get_int(*args, "offered_pe_cycles");
      row.global_ors += get_int(*args, "global_ors");
      row.guard_switches += get_int(*args, "guard_switches");
      row.router_ops += get_int(*args, "router_ops");
      row.spawns += get_int(*args, "spawns");
    } else if (pid == 1) {
      const json::Value* cat = e.find("cat");
      if (cat && cat->as_string() == "pass")
        run.passes.emplace_back(e.at("name").as_string(), get_int(e, "dur"));
    }
  }
  run.meta_states = static_cast<std::int64_t>(run.states.size());
  for (const StateRow& row : run.states) {
    run.meta_transitions += row.visits;
    run.control_cycles += row.control_cycles;
    run.busy_pe_cycles += row.busy_pe_cycles;
    run.offered_pe_cycles += row.offered_pe_cycles;
    run.global_ors += row.global_ors;
    run.guard_switches += row.guard_switches;
    run.router_ops += row.router_ops;
    run.spawns += row.spawns;
  }
  run.has_totals = true;
  return run;
}

json::Value read_doc(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error(cat("cannot open '", path, "'"));
  std::ostringstream ss;
  ss << in.rdbuf();
  return json::parse(ss.str());
}

Run load_doc(const json::Value& doc, const std::string& path) {
  if (doc.find("traceEvents")) return load_chrome(doc, path);
  if (doc.find("engine")) return load_profile(doc, path);
  throw std::runtime_error(
      cat("'", path,
          "': not a recognized mscc output (expected a --profile-simd/"
          "--trace-simd stats object, a --coschedule profile, or a "
          "--trace-chrome event file)"));
}

Run load(const std::string& path) { return load_doc(read_doc(path), path); }

/// States ranked hottest-first (control-cycle share, then visits, then id
/// for a total, deterministic order).
std::vector<const StateRow*> ranked(const Run& run) {
  std::vector<const StateRow*> rows;
  for (const StateRow& r : run.states)
    if (r.visits > 0) rows.push_back(&r);
  std::sort(rows.begin(), rows.end(),
            [](const StateRow* a, const StateRow* b) {
              if (a->control_cycles != b->control_cycles)
                return a->control_cycles > b->control_cycles;
              if (a->visits != b->visits) return a->visits > b->visits;
              return a->state < b->state;
            });
  return rows;
}

void print_summary(const Run& run) {
  std::printf("== run summary: %s ==\n", run.source.c_str());
  std::printf("  input kind        %s\n", run.kind.c_str());
  if (run.engine != "?") std::printf("  engine            %s\n",
                                     run.engine.c_str());
  if (!run.isa.empty())
    std::printf("  simd isa          %s (lane width %" PRId64 ")\n",
                run.isa.c_str(), run.isa_lane_width);
  std::int64_t visited = 0;
  for (const StateRow& r : run.states)
    if (r.visits > 0) ++visited;
  if (run.states.empty())
    std::printf("  meta states       %" PRId64 "\n", run.meta_states);
  else
    std::printf("  meta states       %" PRId64 " (%" PRId64 " visited)\n",
                run.meta_states, visited);
  std::printf("  meta transitions  %" PRId64 "\n", run.meta_transitions);
  std::printf("  control cycles    %" PRId64 "\n", run.control_cycles);
  std::printf("  PE utilization    %.1f%%  (busy %" PRId64 " / offered %" PRId64
              ")\n",
              100.0 * run.utilization(), run.busy_pe_cycles,
              run.offered_pe_cycles);
  std::printf("  global-ors %" PRId64 "  router ops %" PRId64
              "  guard switches %" PRId64 "  spawns %" PRId64 "\n",
              run.global_ors, run.router_ops, run.guard_switches, run.spawns);
}

void print_table(const Run& run, std::size_t top) {
  std::vector<const StateRow*> rows = ranked(run);
  if (rows.empty()) return;
  if (top > 0 && rows.size() > top) rows.resize(top);
  std::printf(
      "\n== per-meta-state utilization (hottest first%s) ==\n",
      top > 0 && ranked(run).size() > top
          ? cat(", top ", top, " of ", ranked(run).size()).c_str()
          : "");
  std::printf("  %-6s %7s %7s %6s %7s  %-14s %6s %7s %7s\n", "state", "visits",
              "cycles", "share", "util", "enabled min/avg/max", "gors",
              "router", "guards");
  for (const StateRow* r : rows) {
    const double share =
        run.control_cycles == 0
            ? 0.0
            : 100.0 * static_cast<double>(r->control_cycles) /
                  static_cast<double>(run.control_cycles);
    std::printf("  ms%-4" PRId64 " %7" PRId64 " %7" PRId64
                " %5.1f%% %6.1f%%  %5" PRId64 "/%5.1f/%-5" PRId64 " %6" PRId64
                " %7" PRId64 " %7" PRId64 "\n",
                r->state, r->visits, r->control_cycles, share,
                100.0 * r->utilization(), r->enabled_min, r->enabled_mean(),
                r->enabled_max, r->global_ors, r->router_ops,
                r->guard_switches);
  }
}

/// §4's lens: overall PE utilization as a function of how many (hottest)
/// meta states are counted — shows how concentrated the run's work is.
void print_curve(const Run& run) {
  std::vector<const StateRow*> rows = ranked(run);
  if (rows.empty()) return;
  std::printf("\n== PE utilization vs. meta-state count ==\n");
  std::printf("  %-11s %9s %9s %7s %7s\n", "states", "busy", "offered", "util",
              "cycles%");
  std::int64_t busy = 0, offered = 0, cycles = 0;
  for (std::size_t n = 0; n < rows.size(); ++n) {
    busy += rows[n]->busy_pe_cycles;
    offered += rows[n]->offered_pe_cycles;
    cycles += rows[n]->control_cycles;
    // Log-spaced sampling keeps big automata readable.
    const bool emit = n + 1 == rows.size() || n < 4 || ((n + 1) & n) == 0;
    if (!emit) continue;
    std::printf("  top %-7zu %9" PRId64 " %9" PRId64 " %6.1f%% %6.1f%%\n",
                n + 1, busy, offered,
                offered == 0 ? 100.0
                             : 100.0 * static_cast<double>(busy) /
                                   static_cast<double>(offered),
                run.control_cycles == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(cycles) /
                          static_cast<double>(run.control_cycles));
  }
}

void print_passes(const Run& run) {
  if (run.passes.empty()) return;
  std::int64_t total = 0;
  for (const auto& [name, us] : run.passes) total += us;
  std::printf("\n== pass wall time ==\n");
  for (const auto& [name, us] : run.passes)
    std::printf("  %-12s %8" PRId64 " us  %5.1f%%\n", name.c_str(), us,
                total == 0 ? 0.0
                           : 100.0 * static_cast<double>(us) /
                                 static_cast<double>(total));
  std::printf("  %-12s %8" PRId64 " us\n", "total", total);
}

void print_diff(const Run& before, const Run& after, std::size_t top) {
  std::printf("== diff: %s -> %s ==\n", before.source.c_str(),
              after.source.c_str());
  const auto line = [](const char* name, std::int64_t b, std::int64_t a) {
    std::printf("  %-18s %10" PRId64 " -> %10" PRId64 "  (%+" PRId64 ")\n",
                name, b, a, a - b);
  };
  line("meta states", before.meta_states, after.meta_states);
  line("meta transitions", before.meta_transitions, after.meta_transitions);
  line("control cycles", before.control_cycles, after.control_cycles);
  line("busy PE cycles", before.busy_pe_cycles, after.busy_pe_cycles);
  line("offered PE cycles", before.offered_pe_cycles,
       after.offered_pe_cycles);
  line("global-ors", before.global_ors, after.global_ors);
  line("router ops", before.router_ops, after.router_ops);
  line("guard switches", before.guard_switches, after.guard_switches);
  std::printf("  %-18s %9.1f%% -> %9.1f%%  (%+.1f pts)\n", "PE utilization",
              100.0 * before.utilization(), 100.0 * after.utilization(),
              100.0 * (after.utilization() - before.utilization()));

  if (before.states.empty() || after.states.empty()) return;
  // Per-state deltas over the union of visited states, ranked by absolute
  // control-cycle movement.
  struct Delta {
    std::int64_t state, d_visits, d_cycles;
    double d_util;
  };
  std::vector<Delta> deltas;
  const std::size_t n = std::max(before.states.size(), after.states.size());
  for (std::size_t i = 0; i < n; ++i) {
    const StateRow none{static_cast<std::int64_t>(i)};
    const StateRow& b = i < before.states.size() ? before.states[i] : none;
    const StateRow& a = i < after.states.size() ? after.states[i] : none;
    if (b.visits == 0 && a.visits == 0) continue;
    deltas.push_back({static_cast<std::int64_t>(i), a.visits - b.visits,
                      a.control_cycles - b.control_cycles,
                      a.utilization() - b.utilization()});
  }
  std::sort(deltas.begin(), deltas.end(), [](const Delta& x, const Delta& y) {
    const std::int64_t ax = x.d_cycles < 0 ? -x.d_cycles : x.d_cycles;
    const std::int64_t ay = y.d_cycles < 0 ? -y.d_cycles : y.d_cycles;
    if (ax != ay) return ax > ay;
    return x.state < y.state;
  });
  if (top > 0 && deltas.size() > top) deltas.resize(top);
  std::printf("\n== per-meta-state movement (largest cycle delta first) ==\n");
  std::printf("  %-6s %9s %9s %9s\n", "state", "dvisits", "dcycles", "dutil");
  for (const Delta& d : deltas)
    std::printf("  ms%-4" PRId64 " %+9" PRId64 " %+9" PRId64 " %+8.1f%%\n",
                d.state, d.d_visits, d.d_cycles, 100.0 * d.d_util);
}

/// mscc --coschedule documents (DESIGN.md §12): a machine-level header —
/// policy, clock, held/idle PE-cycle split, array utilization — followed
/// by one full per-program section per entry. Each program's "run"
/// sub-object is exactly the single-run schema, so the standard summary/
/// table/curve renderers apply unchanged.
void print_coschedule(const json::Value& doc, const std::string& path,
                      std::size_t top) {
  std::printf("== co-scheduled run: %s ==\n", path.c_str());
  if (const json::Value* p = doc.find("policy"))
    std::printf("  policy            %s\n", p->as_string().c_str());
  std::printf("  seed              %" PRId64 "\n", get_int(doc, "seed"));
  std::printf("  quantum           %" PRId64 "\n", get_int(doc, "quantum"));
  const json::Value& programs = doc.at("programs");
  std::printf("  programs          %zu\n", programs.elems.size());
  std::printf("  machine PEs       %" PRId64 "\n", get_int(doc, "machine_pes"));
  std::printf("  elapsed cycles    %" PRId64 "\n",
              get_int(doc, "elapsed_control_cycles"));
  const std::int64_t held = get_int(doc, "held_pe_cycles");
  const std::int64_t idle = get_int(doc, "idle_pe_cycles");
  const std::int64_t busy = get_int(doc.at("machine"), "busy_pe_cycles");
  std::printf("  held/idle PE-cyc  %" PRId64 " / %" PRId64 "\n", held, idle);
  std::printf("  array utilization %.1f%%  (busy %" PRId64 " / resident %"
              PRId64 ")\n",
              held + idle == 0 ? 100.0
                               : 100.0 * static_cast<double>(busy) /
                                     static_cast<double>(held + idle),
              busy, held + idle);

  for (const json::Value& p : programs.elems) {
    const std::string name =
        p.find("name") ? p.at("name").as_string() : "?";
    std::printf("\n-- program %s: %" PRId64 " PEs, %" PRId64
                " steps, done @%" PRId64 " (held %" PRId64 ", idle %" PRId64
                " PE-cycles) --\n",
                name.c_str(), get_int(p, "pes"), get_int(p, "steps"),
                get_int(p, "completion_cycle"), get_int(p, "held_pe_cycles"),
                get_int(p, "idle_pe_cycles"));
    const Run run = load_profile(p.at("run"), cat(path, "#", name));
    print_summary(run);
    print_table(run, top);
    print_curve(run);
  }
}

/// mscd request traces (DESIGN.md §15): the serving tier's RequestTrace
/// as emitted on the access log, by the slowlog op, and as the "trace"
/// member of a trace-armed response. One per-phase table per request;
/// the phase order matches the request lifecycle.
void print_reqtrace(const json::Value& doc) {
  std::printf("-- request #%" PRId64 " (conn %" PRId64 ") --\n",
              get_int(doc, "request_id"), get_int(doc, "conn"));
  const auto field = [&](const char* key) {
    const json::Value* v = doc.find(key);
    return v && v->is_string() && !v->as_string().empty() ? v->as_string()
                                                          : std::string("-");
  };
  std::printf("  tenant %s  op %s  outcome %s  cache %s\n",
              field("tenant").c_str(), field("op").c_str(),
              field("outcome").c_str(), field("cache").c_str());
  if (field("error_kind") != "-")
    std::printf("  error kind        %s\n", field("error_kind").c_str());
  std::printf("  bytes in/out      %" PRId64 " / %" PRId64 "\n",
              get_int(doc, "bytes_in"), get_int(doc, "bytes_out"));
  const std::int64_t total = get_int(doc, "total_us");
  std::printf("  total             %" PRId64 " us\n", total);
  if (const json::Value* phases = doc.find("phase_micros")) {
    std::printf("  %-12s %8s %7s\n", "phase", "us", "share");
    for (const auto& [name, v] : phases->members) {
      const std::int64_t us = v.is_number() ? v.as_int() : 0;
      std::printf("  %-12s %8" PRId64 " %6.1f%%\n", name.c_str(), us,
                  total == 0 ? 0.0
                             : 100.0 * static_cast<double>(us) /
                                   static_cast<double>(total));
    }
  }
}

/// mscd slowlog op payloads — either the full response payload
/// (`{"threshold_micros": …, "slowlog": […]}`) or the bare trace array
/// that `mscli --emit slowlog` extracts. Traces arrive slowest-first.
void print_slowlog(const json::Value& doc, const std::string& path,
                   std::size_t top) {
  const json::Value& entries = doc.is_array() ? doc : doc.at("slowlog");
  if (doc.is_array())
    std::printf("== slowlog: %s (%zu captured) ==\n", path.c_str(),
                entries.elems.size());
  else
    std::printf("== slowlog: %s (threshold %" PRId64 " us, %zu captured) ==\n",
                path.c_str(), get_int(doc, "threshold_micros"),
                entries.elems.size());
  std::size_t shown = 0;
  for (const json::Value& e : entries.elems) {
    if (top > 0 && ++shown > top) {
      std::printf("\n  (… %zu more; raise --top to see them)\n",
                  entries.elems.size() - top);
      break;
    }
    std::printf("\n");
    print_reqtrace(e);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> inputs;
  std::string diff_path;
  std::size_t top = 10;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string inline_value;
    bool has_inline = false;
    if (starts_with(arg, "--")) {
      const std::size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        arg = arg.substr(0, eq);
        has_inline = true;
      }
    }
    auto next = [&]() -> std::string {
      if (has_inline) return inline_value;
      if (i + 1 >= argc) std::exit(usage());
      return argv[++i];
    };
    if (arg == "--top") top = static_cast<std::size_t>(std::atoll(next().c_str()));
    else if (arg == "--diff") diff_path = next();
    else if (arg == "--help" || arg == "-h") return usage();
    else if (!arg.empty() && arg[0] == '-') return usage();
    else inputs.push_back(arg);
  }
  if (inputs.size() != 1) return usage();

  try {
    const json::Value doc = read_doc(inputs[0]);
    if (doc.find("slowlog") ||
        (doc.is_array() && !doc.elems.empty() &&
         doc.elems.front().find("request_id"))) {
      print_slowlog(doc, inputs[0], top);
      return kOk;
    }
    if (doc.find("request_id") && doc.find("phase_micros")) {
      print_reqtrace(doc);
      return kOk;
    }
    if (doc.find("coschedule")) {
      if (!diff_path.empty())
        throw std::runtime_error(
            "--diff does not support co-scheduled profiles; diff the "
            "per-program sections individually");
      print_coschedule(doc, inputs[0], top);
      return kOk;
    }
    const Run run = load_doc(doc, inputs[0]);
    if (!diff_path.empty()) {
      print_diff(run, load(diff_path), top);
      return kOk;
    }
    print_summary(run);
    print_table(run, top);
    print_curve(run);
    print_passes(run);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mscprof: %s\n", e.what());
    return kInternal;
  }
  return kOk;
}
