// The mscd protocol engine (DESIGN.md §13, §15). One frame in, one line
// out, no per-connection state: parse → admit → execute → render, with
// every toolchain exception folded into the typed error taxonomy. The
// payload documents are the exact strings the standalone toolchain emits —
// automaton.dump() (--emit meta), core::to_json (--trace-convert),
// simd::to_json (--trace-simd / --profile-simd, and the co-scheduled
// document) — so mscprof renders daemon responses unchanged and
// service_test can diff them against mscc byte for byte.
//
// Every request carries a RequestTrace through the handler; finish() is
// the single commit point for the global outcome counters, the labeled
// {tenant, op} families, the access log, and the slowlog, which is what
// makes the per-tenant-sums-equal-globals invariant hold under any worker
// interleaving.
#include "msc/service/service.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "msc/core/convert.hpp"
#include "msc/driver/pipeline.hpp"
#include "msc/driver/runner.hpp"
#include "msc/ir/exec.hpp"
#include "msc/kernels/verified.hpp"
#include "msc/pass/pass.hpp"
#include "msc/simd/coschedule.hpp"
#include "msc/simd/machine.hpp"
#include "msc/support/diag.hpp"
#include "msc/support/str.hpp"

namespace msc::service {

namespace {

/// RAII pairing for AdmissionControl::try_admit's block charge.
struct BlockCharge {
  AdmissionControl& admission;
  std::string tenant;
  std::int64_t blocks;
  ~BlockCharge() { admission.release(tenant, blocks); }
};

driver::PipelineOptions pipeline_options(const Request& request) {
  driver::PipelineOptions popts;
  popts.convert.max_meta_states = request.max_meta_states;
  popts.adaptive = request.adaptive;
  popts.pipeline = request.pipeline;
  if (request.prune)
    popts.convert.barrier_mode = core::BarrierMode::PaperPrune;
  return popts;
}

mimd::RunConfig run_config(const Request& request) {
  mimd::RunConfig config;
  config.nprocs = request.nprocs;
  config.initial_active = request.initial_active;
  config.reuse_halted_pes = request.reuse_halted_pes;
  config.engine = request.engine;
  config.simd_isa = request.simd_isa;
  config.max_blocks = request.max_blocks;
  return config;
}

std::string quoted(const std::string& s) {
  return cat("\"", json_escape(s), "\"");
}

std::string string_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ", ";
    out += quoted(items[i]);
  }
  return out + "]";
}

const char* cache_state_name(ConversionCache::Outcome outcome) {
  switch (outcome) {
    case ConversionCache::Outcome::Hit: return "hit";
    case ConversionCache::Outcome::Miss: return "miss";
    case ConversionCache::Outcome::InflightWait: return "inflight-wait";
  }
  return "none";
}

/// cache_state severity order for multi-conversion (coschedule) requests:
/// a single miss marks the whole request a miss.
int cache_state_rank(const std::string& state) {
  if (state == "miss") return 3;
  if (state == "inflight-wait") return 2;
  if (state == "hit") return 1;
  return 0;
}

void merge_cache_state(RequestTrace& rt, const std::string& state) {
  if (cache_state_rank(state) > cache_state_rank(rt.cache_state))
    rt.cache_state = state;
}

/// Latency histogram edges (µs): fixed so p50/p95/p99 are derivable from
/// bucket counts by any scraper without configuration.
const std::vector<std::int64_t>& latency_bounds() {
  static const std::vector<std::int64_t> bounds{
      50,     100,    200,    500,     1000,    2000,    5000,
      10'000, 20'000, 50'000, 100'000, 200'000, 500'000, 1'000'000};
  return bounds;
}

}  // namespace

Service::Service(const ServiceOptions& options)
    : options_(options), cache_(options.cache_capacity),
      admission_(options.quota),
      labeled_(options.observability.max_label_series),
      epoch_(std::chrono::steady_clock::now()) {
  const ObservabilityOptions& obs = options_.observability;
  if (!obs.access_log_path.empty() && !access_log_.open(obs.access_log_path))
    throw std::runtime_error(
        cat("cannot open access log '", obs.access_log_path, "'"));
  if (obs.slow_micros > 0)
    slowlog_.configure(obs.slow_micros, obs.slowlog_capacity);
}

std::int64_t Service::now_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::string Service::handle_line(const std::string& line) {
  RequestTrace rt;
  std::string response = handle_line(line, rt);
  rt.bytes_out = static_cast<std::int64_t>(response.size());
  finish(rt);
  return response;
}

std::string Service::handle_line(const std::string& line, RequestTrace& rt) {
  if (rt.request_id == 0) rt.request_id = next_request_id();
  rt.start_us = now_us();
  rt.bytes_in = static_cast<std::int64_t>(line.size());
  if (rt.accepted_us > 0)
    rt.phases.accept = std::max<std::int64_t>(0, rt.start_us - rt.accepted_us);

  std::string response;
  bool parsed = false;
  Request request;
  if (line.size() > options_.limits.max_frame_bytes) {
    response = fail(rt, "", std::nullopt, ErrorKind::FrameTooLarge,
                    cat("request frame of ", line.size(), " bytes exceeds the ",
                        options_.limits.max_frame_bytes, "-byte limit"));
  } else {
    json::ParseLimits limits;
    limits.max_bytes = options_.limits.max_frame_bytes;
    limits.max_depth = options_.limits.max_json_depth;
    try {
      request = parse_request(line, limits);
      parsed = true;
    } catch (const ProtocolError& e) {
      // The frame is valid JSON that failed validation: attribute its
      // error to the tenant/op it names where that is safe, so one
      // misbehaving client doesn't pollute the "unknown" series.
      attribute_frame(line, limits, &rt.tenant, &rt.op);
      response = fail(rt, "", std::nullopt, e.kind(), e.what());
    } catch (const json::ParseError& e) {
      response = fail(rt, "", std::nullopt, ErrorKind::ParseError, e.what());
    }
    rt.phases.parse = now_us() - rt.start_us;
  }

  if (parsed) {
    rt.tenant = request.tenant;
    rt.op = to_string(request.op);
    rt.wanted = request.trace;
    // Observability ops stay serviceable during shutdown — operators must
    // be able to inspect a daemon that is draining.
    const bool observability_op = request.op == Op::Stats ||
                                  request.op == Op::Metrics ||
                                  request.op == Op::Slowlog;
    if (shutdown_requested() && !observability_op)
      response = fail(rt, request.id_json, request.op,
                      ErrorKind::ShuttingDown, "daemon is shutting down");
    else
      response = dispatch(request, rt);
  }

  // serialize is the handler remainder: total in-handler time minus every
  // attributed phase, so the phase durations sum to the handler time.
  const std::int64_t in_handler = now_us() - rt.start_us;
  const std::int64_t attributed = rt.phases.parse + rt.phases.admission +
                                  rt.phases.cache + rt.phases.convert +
                                  rt.phases.run;
  rt.phases.serialize = std::max<std::int64_t>(0, in_handler - attributed);

  if (rt.wanted) {
    // Attach the trace as the response's last member. It is rendered
    // before the socket write, so the embedded view carries no write
    // phase and bytes_out counts the payload before this member; the
    // committed access-log line has the final numbers.
    rt.bytes_out = static_cast<std::int64_t>(response.size());
    rt.total_us = rt.phases.accept + in_handler;
    response.insert(response.size() - 1,
                    cat(", \"trace\": ", quoted(rt.to_json())));
  }
  return response;
}

void Service::finish(RequestTrace& rt) {
  const std::int64_t base = rt.accepted_us > 0 ? rt.accepted_us : rt.start_us;
  rt.total_us = std::max<std::int64_t>(0, now_us() - base);

  const bool ok = rt.outcome == "ok";
  if (ok)
    ++requests_ok_;
  else
    ++requests_error_;
  labeled_.counter("requests", rt.tenant, rt.op).add();
  if (!ok)
    labeled_.counter(cat("errors.", rt.error_kind), rt.tenant, rt.op).add();
  if (rt.error_kind == to_string(ErrorKind::Quota))
    labeled_.counter("admission_rejections", rt.tenant, rt.op).add();
  if (rt.cache_state != "none")
    labeled_.counter(cat("cache.", rt.cache_state), rt.tenant, rt.op).add();
  labeled_.counter("bytes_in", rt.tenant, rt.op).add(rt.bytes_in);
  labeled_.counter("bytes_out", rt.tenant, rt.op).add(rt.bytes_out);
  labeled_.histogram("latency_us", latency_bounds(), rt.tenant, rt.op)
      .record(rt.total_us);

  access_log_.append(rt);
  slowlog_.offer(rt);
}

std::string Service::fail(RequestTrace& rt, const std::string& id_json,
                          std::optional<Op> op, ErrorKind kind,
                          const std::string& message) {
  rt.outcome = "error";
  rt.error_kind = to_string(kind);
  return error_response(id_json, op, kind, message);
}

std::string Service::dispatch(const Request& request, RequestTrace& rt) {
  // Admission: run requests charge their declared block budget; every
  // compile-like and coschedule request is screened against the tenant's
  // explosion quota. Stats, metrics, slowlog and shutdown are never
  // rejected — operators must be able to observe and stop an overloaded
  // daemon.
  std::int64_t charged = 0;
  if (request.op == Op::Run) charged = request.max_blocks;
  if (request.op == Op::Compile || request.op == Op::Run ||
      request.op == Op::Coschedule) {
    const std::int64_t t0 = now_us();
    AdmissionControl::Decision d = admission_.try_admit(request.tenant,
                                                        charged);
    rt.phases.admission = now_us() - t0;
    if (!d.ok)
      return fail(rt, request.id_json, request.op, ErrorKind::Quota,
                  d.reason);
  }
  BlockCharge charge{admission_, request.tenant, charged};

  try {
    std::string payload;
    switch (request.op) {
      case Op::Compile: payload = do_compile(request, rt); break;
      case Op::Run: payload = do_run(request, rt); break;
      case Op::Coschedule: payload = do_coschedule(request, rt); break;
      case Op::Stats: payload = do_stats(request); break;
      case Op::Metrics: payload = do_metrics(request); break;
      case Op::Slowlog: payload = do_slowlog(request); break;
      case Op::Shutdown:
        shutdown_.store(true, std::memory_order_release);
        payload = "\"stopping\": true";
        break;
    }
    return ok_response(request, payload);
  } catch (const CompileError& e) {
    return fail(rt, request.id_json, request.op, ErrorKind::Compile,
                e.what());
  } catch (const core::ExplosionError& e) {
    // Strikes count whether the conversion ran here or the error was
    // replayed from the cache: the quota meters tenant behavior, not CPU.
    admission_.record_explosion(request.tenant);
    return fail(rt, request.id_json, request.op, ErrorKind::Explosion,
                e.what());
  } catch (const ir::MachineFault& e) {
    return fail(rt, request.id_json, request.op, ErrorKind::Fault, e.what());
  } catch (const pass::PipelineError& e) {
    return fail(rt, request.id_json, request.op, ErrorKind::Pipeline,
                e.what());
  } catch (const std::exception& e) {
    return fail(rt, request.id_json, request.op, ErrorKind::Internal,
                e.what());
  }
}

std::shared_ptr<const CachedConversion> Service::convert_cached(
    const Request& request, const std::string& source, RequestTrace& rt) {
  driver::PipelineOptions popts = pipeline_options(request);
  // Canonicalize exactly as mscc does for --run: resolve the pass list,
  // then append codegen so run requests can share the compile's entry.
  popts.pipeline = driver::resolve_pipeline(popts);
  if (std::find(popts.pipeline.begin(), popts.pipeline.end(), "codegen") ==
      popts.pipeline.end())
    popts.pipeline.push_back("codegen");

  const std::string key = conversion_cache_key(
      source, popts.pipeline, request.adaptive, request.prune,
      request.max_meta_states);
  const std::int64_t t0 = now_us();
  std::int64_t convert_us = 0;
  ConversionCache::Outcome outcome = ConversionCache::Outcome::Hit;
  // Phase accounting must survive the throw paths (compile errors and
  // explosions are part of the taxonomy, not exceptional flows).
  auto note = [&] {
    rt.phases.convert += convert_us;
    rt.phases.cache +=
        std::max<std::int64_t>(0, (now_us() - t0) - convert_us);
    merge_cache_state(rt, cache_state_name(outcome));
  };
  auto compute = [&]() -> std::shared_ptr<const CachedConversion> {
    const std::int64_t c0 = now_us();
    try {
      ir::CostModel cost;
      auto value = std::make_shared<CachedConversion>();
      value->converted = driver::convert(source, cost, popts);
      value->pipeline = popts.pipeline;
      convert_us = now_us() - c0;
      return std::shared_ptr<const CachedConversion>(std::move(value));
    } catch (...) {
      convert_us = now_us() - c0;
      throw;
    }
  };
  try {
    auto cached = cache_.get_or_compute(key, compute, &outcome);
    note();
    return cached;
  } catch (...) {
    note();
    throw;
  }
}

std::string Service::do_compile(const Request& request, RequestTrace& rt) {
  auto cached = convert_cached(request, request.source, rt);
  const core::ConvertResult& conv = cached->converted.conversion;
  return cat("\"pipeline\": ", string_array(cached->pipeline),
             ", \"cache\": ", quoted(rt.cache_state),
             ", \"meta_states\": ", conv.automaton.num_states(),
             ", \"automaton\": ", quoted(conv.automaton.dump()),
             ", \"stats\": ", quoted(core::to_json(conv.stats)));
}

std::string Service::do_run(const Request& request, RequestTrace& rt) {
  auto cached = convert_cached(request, request.source, rt);
  const driver::Converted& converted = cached->converted;

  const std::int64_t r0 = now_us();
  const mimd::RunConfig config = run_config(request);
  ir::CostModel cost;
  // The cached SimdProgram is immutable; each run builds its own machine
  // over it, so concurrent runs of one program never share mutable state.
  auto machine = simd::make_machine(*converted.prog, cost, config);
  driver::seed_machine(*machine, converted.compiled, config, request.seed);
  if (request.profile) machine->enable_profiling();
  machine->run();

  const driver::Observed observed =
      driver::observe_simd(*machine, converted.compiled, config);
  rt.phases.run += now_us() - r0;
  std::string payload =
      cat("\"pipeline\": ", string_array(cached->pipeline),
          ", \"cache\": ", quoted(rt.cache_state),
          ", \"engine\": ", quoted(simd::engine_name(config.engine)),
          ", \"observed\": ", quoted(observed.to_string()),
          ", \"simd\": ", quoted(simd::to_json(*machine)));
  // Tearing the machine down is part of the run, not of serialization.
  const std::int64_t t0 = now_us();
  machine.reset();
  rt.phases.run += now_us() - t0;
  return payload;
}

std::string Service::do_coschedule(const Request& request, RequestTrace& rt) {
  // Mirrors mscc's run_coschedule: each kernel's conversion goes through
  // the shared cache (identical kernel mixes across tenants compile
  // once), then fresh machines time-share one simulated array.
  std::vector<std::shared_ptr<const CachedConversion>> converted;
  std::vector<kernels::VerifiedCase> cases;
  std::vector<mimd::RunConfig> configs;
  simd::CoScheduler cs;
  ir::CostModel cost;
  for (const std::string& spec : request.programs) {
    kernels::VerifiedParams params;
    params.input_seed = request.seed;
    kernels::VerifiedCase c = kernels::parse_case(spec, params);
    auto cached = convert_cached(request, c.source, rt);

    mimd::RunConfig config = run_config(request);
    config.nprocs = c.config.nprocs;
    config.initial_active = c.config.initial_active;
    config.reuse_halted_pes = c.config.reuse_halted_pes;
    const std::int64_t c0 = now_us();
    auto machine = simd::make_machine(*cached->converted.prog, cost, config);
    driver::seed_machine(*machine, cached->converted.compiled, config,
                         request.seed);
    if (request.profile) machine->enable_profiling();
    cs.add_program(spec, std::move(machine));
    rt.phases.run += now_us() - c0;
    converted.push_back(std::move(cached));
    cases.push_back(std::move(c));
    configs.push_back(config);
  }

  const std::int64_t r0 = now_us();
  simd::CoOptions co;
  co.policy = request.policy;
  co.quantum = request.quantum;
  co.seed = request.seed;
  const simd::CoResult r = cs.run(co);

  std::vector<std::string> verdicts;
  for (std::size_t i = 0; i < r.programs.size(); ++i) {
    const driver::Observed obs = driver::observe_simd(
        cs.machine(i), converted[i]->converted.compiled, configs[i]);
    const std::string verdict = kernels::check(cases[i], obs);
    verdicts.push_back(verdict.empty() ? "ok" : verdict);
  }
  rt.phases.run += now_us() - r0;
  std::string payload =
      cat("\"policy\": ", quoted(simd::copolicy_name(r.policy)),
          ", \"quantum\": ", r.quantum,
          ", \"machine_pes\": ", r.machine_pes,
          ", \"verdicts\": ", string_array(verdicts),
          ", \"cosched\": ", quoted(simd::to_json(r)));
  const std::int64_t t0 = now_us();
  cs = simd::CoScheduler();  // machine teardown belongs to the run
  rt.phases.run += now_us() - t0;
  return payload;
}

std::string Service::do_stats(const Request& request) {
  const ConversionCache::Stats cs = cache_.stats();
  std::string out = cat(
      "\"uptime_micros\": ", now_us(),
      ", \"service\": {\"requests\": {\"ok\": ", requests_ok_.load(),
      ", \"error\": ", requests_error_.load(),
      "}, \"cache\": {\"hits\": ", cs.hits, ", \"misses\": ", cs.misses,
      ", \"inflight_waits\": ", cs.inflight_waits,
      ", \"evictions\": ", cs.evictions, ", \"entries\": ", cs.entries,
      "}, \"quota\": {\"block_budget\": ", admission_.quota().block_budget,
      ", \"explosion_quota\": ", admission_.quota().explosion_quota,
      "}, \"tenants\": [");
  const std::vector<TenantStats> tenants = admission_.stats();
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const TenantStats& t = tenants[i];
    if (i) out += ", ";
    out += cat("{\"tenant\": ", quoted(t.tenant),
               ", \"inflight_blocks\": ", t.inflight_blocks,
               ", \"explosions\": ", t.explosions,
               ", \"admitted\": ", t.admitted,
               ", \"rejected\": ", t.rejected, "}");
  }
  out += "]";
  if (daemon_info_) {
    const DaemonInfo d = daemon_info_();
    out += cat(", \"daemon\": {\"workers\": ", d.workers,
               ", \"queue_depth\": ", d.queue_depth,
               ", \"connections_accepted\": ", d.connections_accepted,
               ", \"connections_active\": ", d.connections_active, "}");
  }
  out += "}";
  if (request.metrics)
    out += cat(", \"metrics\": ",
               quoted(telemetry::MetricsRegistry::global().to_json()));
  return out;
}

std::string Service::metrics_json() const {
  return labeled_.to_json(
      cat("\"uptime_micros\": ", now_us(),
          ", \"requests\": {\"ok\": ", requests_ok_.load(),
          ", \"error\": ", requests_error_.load(), "}"));
}

std::string Service::do_metrics(const Request&) {
  // Embedded as a JSON-escaped string like every other payload document,
  // so the response stays one line and mscli --emit metrics recovers the
  // pretty schema-2 document.
  return cat("\"metrics\": ", quoted(metrics_json()));
}

std::string Service::do_slowlog(const Request&) {
  const std::vector<RequestTrace> entries = slowlog_.snapshot();
  std::string arr = "[";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i) arr += ", ";
    arr += entries[i].to_json();
  }
  arr += "]";
  return cat("\"threshold_micros\": ", slowlog_.threshold_us(),
             ", \"count\": ", entries.size(), ", \"slowlog\": ", arr);
}

}  // namespace msc::service
