#ifndef MSC_BENCH_UTIL_HPP
#define MSC_BENCH_UTIL_HPP

// Shared plumbing for the experiment benches. Each bench binary prints the
// paper-reproduction table(s) first (captured into bench_output.txt /
// EXPERIMENTS.md) and then runs its google-benchmark timings. Every bench
// additionally accepts `--json <path>` ('-' = stdout): the tables, any
// named metrics, and the pass/fail gates are written as one
// machine-readable document (schema below; consumed by CI's perf-smoke
// step and the committed BENCH_baseline.json).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "msc/pass/pass.hpp"
#include "msc/support/str.hpp"

namespace msc::bench {

/// Conversion-stage pass lists for graphs compile() already simplified:
/// the default pipeline's, and the ones mscc --compress and --split run.
inline const std::vector<std::string> kStages = {"convert", "subsume",
                                                 "straighten"};
inline const std::vector<std::string> kCompressStages = {
    "compress", "convert", "subsume", "straighten"};
inline const std::vector<std::string> kSplitStages = {
    "time-split", "convert", "subsume", "straighten"};

/// The conversion users get for a compiled graph: `stages` run by the
/// pass manager. `base` carries the engine options.
inline core::ConvertResult convert(const ir::StateGraph& graph,
                                   const ir::CostModel& cost,
                                   const std::vector<std::string>& stages =
                                       kStages,
                                   const core::ConvertOptions& base = {}) {
  return pass::run_conversion_pipeline(graph, cost, stages, base);
}

/// Collects everything a bench run wants to persist: each printed table,
/// free-form scalar metrics, and gate outcomes. Written as JSON by
/// MSC_BENCH_MAIN when --json was given; otherwise it only tracks gate
/// failures for the exit code.
///
/// Schema (version 1):
///   {"schema": 1, "bench": "<name>",
///    "tables": [{"title", "headers": [...], "rows": [[cell, ...], ...]}],
///    "metrics": {"name": value, ...},
///    "gates": [{"name", "passed", "detail"}]}
class JsonReport {
 public:
  static JsonReport& instance() {
    static JsonReport r;
    return r;
  }

  void set_bench(std::string name) { bench_ = std::move(name); }

  void add_table(const std::string& title,
                 const std::vector<std::string>& headers,
                 const std::vector<std::vector<std::string>>& rows) {
    tables_.push_back({title, headers, rows});
  }

  /// A named scalar (ns/op, ratios, counts). `value` is rendered verbatim,
  /// so pass the decimal rendering you want in the file.
  void metric(const std::string& name, double value) {
    metrics_.emplace_back(name, fmt_double(value, 6));
  }
  void metric(const std::string& name, std::int64_t value) {
    metrics_.emplace_back(name, std::to_string(value));
  }

  /// Record a gate outcome. Failed gates turn the process exit code
  /// non-zero (MSC_BENCH_MAIN) so CI fails even when --json is unused.
  bool gate(const std::string& name, bool passed, const std::string& detail) {
    gates_.push_back({name, passed, detail});
    if (!passed) {
      ++failures_;
      std::fprintf(stderr, "GATE FAILED [%s]: %s\n", name.c_str(),
                   detail.c_str());
    } else {
      std::printf("gate [%s] ok: %s\n", name.c_str(), detail.c_str());
    }
    return passed;
  }

  int failures() const { return failures_; }

  std::string to_json() const {
    std::string out = cat("{\n  \"schema\": 1,\n  \"bench\": \"",
                          json_escape(bench_), "\",\n  \"tables\": [");
    for (std::size_t t = 0; t < tables_.size(); ++t) {
      const TableData& tab = tables_[t];
      out += cat(t ? "," : "", "\n    {\"title\": \"",
                 json_escape(tab.title), "\", \"headers\": [");
      for (std::size_t i = 0; i < tab.headers.size(); ++i)
        out += cat(i ? ", " : "", "\"", json_escape(tab.headers[i]), "\"");
      out += "], \"rows\": [";
      for (std::size_t r = 0; r < tab.rows.size(); ++r) {
        out += cat(r ? ", " : "", "[");
        for (std::size_t c = 0; c < tab.rows[r].size(); ++c)
          out += cat(c ? ", " : "", "\"", json_escape(tab.rows[r][c]), "\"");
        out += "]";
      }
      out += "]}";
    }
    out += cat(tables_.empty() ? "" : "\n  ", "],\n  \"metrics\": {");
    for (std::size_t i = 0; i < metrics_.size(); ++i)
      out += cat(i ? ", " : "", "\"", json_escape(metrics_[i].first),
                 "\": ", metrics_[i].second);
    out += "},\n  \"gates\": [";
    for (std::size_t i = 0; i < gates_.size(); ++i)
      out += cat(i ? ", " : "", "{\"name\": \"", json_escape(gates_[i].name),
                 "\", \"passed\": ", gates_[i].passed ? "true" : "false",
                 ", \"detail\": \"", json_escape(gates_[i].detail), "\"}");
    out += "]\n}\n";
    return out;
  }

  /// Write to `path` ('-' = stdout). Returns false (and prints to stderr)
  /// when the file cannot be written.
  bool write(const std::string& path) const {
    const std::string json = to_json();
    if (path == "-") {
      std::fputs(json.c_str(), stdout);
      return true;
    }
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "bench: cannot write JSON report to '%s'\n",
                   path.c_str());
      return false;
    }
    out << json;
    return static_cast<bool>(out.flush());
  }

 private:
  struct TableData {
    std::string title;
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
  };
  struct Gate {
    std::string name;
    bool passed;
    std::string detail;
  };

  std::string bench_ = "bench";
  std::vector<TableData> tables_;
  std::vector<std::pair<std::string, std::string>> metrics_;
  std::vector<Gate> gates_;
  int failures_ = 0;
};

/// Fixed-width table printer for paper-style result tables. Every printed
/// table is also registered with JsonReport, so --json captures exactly
/// what the text report showed.
class Table {
 public:
  explicit Table(std::vector<std::string> headers,
                 std::vector<int> widths = {})
      : headers_(std::move(headers)), widths_(std::move(widths)) {
    if (widths_.empty())
      for (const std::string& h : headers_)
        widths_.push_back(static_cast<int>(h.size()) + 4);
  }

  void row(const std::vector<std::string>& cells) { rows_.push_back(cells); }

  void print(const std::string& title) const {
    std::printf("\n### %s\n", title.c_str());
    print_cells(headers_);
    std::string rule;
    for (int w : widths_) rule += std::string(static_cast<std::size_t>(w), '-');
    std::printf("%s\n", rule.c_str());
    for (const auto& r : rows_) print_cells(r);
    std::fflush(stdout);
    JsonReport::instance().add_table(title, headers_, rows_);
  }

 private:
  void print_cells(const std::vector<std::string>& cells) const {
    std::string line;
    for (std::size_t i = 0; i < cells.size(); ++i)
      line += pad_right(cells[i],
                        static_cast<std::size_t>(
                            i < widths_.size() ? widths_[i] : 12));
    std::printf("%s\n", line.c_str());
  }

  std::vector<std::string> headers_;
  std::vector<int> widths_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string num(std::int64_t v) { return std::to_string(v); }
inline std::string num(std::size_t v) { return std::to_string(v); }
inline std::string pct(double f) { return fmt_double(100.0 * f, 1) + "%"; }
inline std::string ratio(double f) { return fmt_double(f, 2) + "x"; }

inline std::string bench_name(const char* argv0) {
  const std::string s = argv0;
  const std::size_t slash = s.find_last_of('/');
  return slash == std::string::npos ? s : s.substr(slash + 1);
}

/// Consume a leading `--json <path>` / `--json=<path>` (anywhere in argv)
/// before google-benchmark sees the argument list. Returns the path, empty
/// when absent.
inline std::string consume_json_flag(int& argc, char** argv) {
  std::string path;
  int w = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      path = argv[++i];
      continue;
    }
    if (starts_with(arg, "--json=")) {
      path = arg.substr(7);
      continue;
    }
    argv[w++] = argv[i];
  }
  argc = w;
  return path;
}

/// Standard main: print the reproduction report, run timings, then write
/// the JSON report when --json was given. Exit code is non-zero when any
/// gate failed or the report could not be written.
#define MSC_BENCH_MAIN(report_fn)                                       \
  int main(int argc, char** argv) {                                     \
    ::msc::bench::JsonReport& msc_bench_report =                        \
        ::msc::bench::JsonReport::instance();                           \
    msc_bench_report.set_bench(::msc::bench::bench_name(argv[0]));      \
    const std::string msc_bench_json_path =                             \
        ::msc::bench::consume_json_flag(argc, argv);                    \
    report_fn();                                                        \
    ::benchmark::Initialize(&argc, argv);                               \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::benchmark::RunSpecifiedBenchmarks();                              \
    ::benchmark::Shutdown();                                            \
    if (!msc_bench_json_path.empty() &&                                 \
        !msc_bench_report.write(msc_bench_json_path))                   \
      return 1;                                                         \
    return msc_bench_report.failures() == 0 ? 0 : 1;                    \
  }

}  // namespace msc::bench

#endif  // MSC_BENCH_UTIL_HPP
