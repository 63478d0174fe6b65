#include "msc/core/convert.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "msc/core/time_split.hpp"
#include "msc/support/coverage.hpp"
#include "msc/support/metrics.hpp"
#include "msc/support/str.hpp"

namespace msc::core {

using ir::Block;
using ir::ExitKind;
using ir::StateGraph;
using ir::StateId;

ExplosionError::ExplosionError(std::size_t limit)
    : std::runtime_error(cat("meta-state space exceeded the configured limit of ",
                             limit,
                             " states (§1.2 warns of up to S!/(S-N)! states; "
                             "try compression or barriers)")) {}

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Internal signal: a meta state triggered §2.4 time splitting, the graph
/// changed, and "the construction of the meta-state automaton is restarted
/// to ensure that the final meta-state automaton is consistent."
struct RestartRequest {
  int splits;
  std::vector<StateId> split_ids;
};

/// Successor-set memo: member bitset → the raw (pre-mask) successor sets
/// reach() enumerates for it. Owned by meta_state_convert() so it survives
/// §2.4 restarts; a restart invalidates only the entries whose member sets
/// include a split state (splitting rewrites exactly those blocks' exits —
/// every other member's block, and therefore every other entry, is
/// untouched). Barrier membership never changes across restarts
/// (split_block refuses barrier-wait blocks), so the all-barrier flag and
/// the §2.6 mask derived from an entry's key stay valid too.
struct SuccessorMemo {
  std::unordered_map<DynBitset, std::vector<DynBitset>, DynBitsetHash> map;
  /// Member sets already cost-scanned by time_split_state() and found not
  /// worth splitting. Split decisions depend only on the members' block
  /// costs, so they survive restarts under the same invalidation rule as
  /// the successor map.
  std::unordered_set<DynBitset, DynBitsetHash> no_split;

  std::size_t invalidate(const std::vector<StateId>& split_ids) {
    DynBitset split;
    for (StateId s : split_ids) split.set(s);
    std::size_t dropped = 0;
    for (auto it = map.begin(); it != map.end();) {
      if (it->first.intersects(split)) {
        it = map.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    for (auto it = no_split.begin(); it != no_split.end();) {
      if (it->intersects(split))
        it = no_split.erase(it);
      else
        ++it;
    }
    return dropped;
  }
};

class Converter {
 public:
  Converter(StateGraph& graph, const ir::CostModel& cost,
            const ConvertOptions& opts, bool allow_split, ConvertStats& stats,
            SuccessorMemo* memo)
      : g_(graph), cost_(cost), opts_(opts), allow_split_(allow_split),
        stats_(stats), memo_(memo) {}

  MetaAutomaton run() {
    // meta_state_convert() already rejected the unsound PaperPrune
    // combinations (compress / spawn / multiple barriers), so the mode is
    // taken verbatim.
    aut_ = MetaAutomaton{};
    aut_.barrier_mode = opts_.barrier_mode;
    aut_.barriers = g_.barrier_states();
    aut_.compressed = opts_.compress;

    const unsigned hw = std::thread::hardware_concurrency();
    threads_ = opts_.threads != 0 ? opts_.threads : (hw != 0 ? hw : 1);
    stats_.threads_used = threads_;

    // A restart round rebuilds roughly the memoized prefix: pre-size the
    // state table and index to skip their reallocation/rehash churn.
    if (memo_ && !memo_->map.empty()) {
      aut_.states.reserve(memo_->map.size() + 64);
      aut_.index.reserve(memo_->map.size() + 64);
    }

    DynBitset start(g_.size());
    start.set(g_.start);
    aut_.start = get_or_create(start);

    // meta_state_convert() main loop (§2.3), batched: take every unmarked
    // meta state (one BFS layer of the discovery frontier), enumerate all
    // their successor sets — in parallel, against the memo — then merge in
    // discovery order so state numbering is identical to a serial run.
    for (std::size_t begin = 0; begin < aut_.states.size();) {
      const std::size_t end = aut_.states.size();
      ++stats_.batches;

      std::vector<Job> jobs = make_jobs(begin, end);
      Clock::time_point t0 = Clock::now();
      expand(jobs);
      stats_.expand_seconds += since(t0);

      Clock::time_point t1 = Clock::now();
      merge(jobs);
      stats_.merge_seconds += since(t1);

      begin = end;
    }

    stats_.meta_states = aut_.num_states();
    stats_.arcs = aut_.num_arcs();
    return std::move(aut_);
  }

 private:
  /// One frontier meta state awaiting successor enumeration. `cached`
  /// points into the memo (unordered_map references are insert-stable);
  /// a miss fills `computed` instead. Member sets are read through the
  /// automaton by id — stable across the reallocation merge() causes —
  /// so hits carry no per-job copies at all.
  struct Job {
    MetaId id = kNoMeta;
    bool all_barrier = false;
    const std::vector<DynBitset>* cached = nullptr;
    std::vector<DynBitset> computed;

    const std::vector<DynBitset>& raw() const {
      return cached ? *cached : computed;
    }
  };

  const DynBitset& members_of(const Job& job) const {
    return aut_.states[job.id].members;
  }

  MetaId get_or_create(const DynBitset& members) {
    bool created = false;
    MetaId id = aut_.find_or_add(members, created);
    if (!created) return id;
    // Enforced at insertion: exactly max_meta_states may be created. The
    // rollback keeps the single-hash fast path out of the cold limit check.
    if (aut_.states.size() > opts_.max_meta_states) {
      aut_.states.pop_back();
      aut_.index.erase(members);
      throw ExplosionError(opts_.max_meta_states);
    }
    if (allow_split_ && !(memo_ && memo_->no_split.contains(members))) {
      std::vector<StateId> split_ids;
      int splits = time_split_state(g_, members, cost_, opts_.split_delta,
                                    opts_.split_percent, &split_ids);
      if (splits > 0) throw RestartRequest{splits, std::move(split_ids)};
      if (memo_) memo_->no_split.insert(members);
    }
    return id;
  }

  std::vector<Job> make_jobs(std::size_t begin, std::size_t end) {
    std::vector<Job> jobs(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      Job& job = jobs[i - begin];
      job.id = static_cast<MetaId>(i);
      const DynBitset& members = aut_.states[i].members;
      job.all_barrier =
          !aut_.barriers.empty() && members.is_subset_of(aut_.barriers);
      if (memo_) {
        auto it = memo_->map.find(members);
        if (it != memo_->map.end()) {
          job.cached = &it->second;
          ++stats_.cache_hits;
        } else {
          ++stats_.cache_misses;
        }
      } else {
        ++stats_.cache_misses;
      }
    }
    return jobs;
  }

  /// Enumerate successor sets for every miss in the batch. Workers only
  /// read the graph and write disjoint Job slots; the memo is frozen for
  /// the duration (inserts happen in merge()), so hits stay valid.
  void expand(std::vector<Job>& jobs) {
    std::vector<Job*> misses;
    for (Job& job : jobs)
      if (!job.cached) misses.push_back(&job);
    if (misses.empty()) return;

    if (threads_ <= 1 || misses.size() < 2) {
      std::size_t calls = 0;
      for (Job* job : misses) expand_one(*job, calls);
      stats_.reach_calls += calls;
      return;
    }

    const std::size_t nworkers = std::min<std::size_t>(threads_, misses.size());
    const std::size_t chunk = (misses.size() + nworkers - 1) / nworkers;
    std::vector<std::size_t> calls(nworkers, 0);
    std::vector<std::exception_ptr> errors(nworkers);
    std::vector<std::thread> pool;
    pool.reserve(nworkers);
    for (std::size_t w = 0; w < nworkers; ++w) {
      pool.emplace_back([&, w] {
        try {
          const std::size_t lo = w * chunk;
          const std::size_t hi = std::min(misses.size(), lo + chunk);
          for (std::size_t i = lo; i < hi; ++i) expand_one(*misses[i], calls[w]);
        } catch (...) {
          errors[w] = std::current_exception();
        }
      });
    }
    for (std::thread& t : pool) t.join();
    for (std::size_t w = 0; w < nworkers; ++w) {
      stats_.reach_calls += calls[w];
      if (errors[w]) std::rethrow_exception(errors[w]);
    }
  }

  void expand_one(Job& job, std::size_t& calls) const {
    std::vector<StateId> mem;
    for (std::size_t s : members_of(job).bits())
      mem.push_back(static_cast<StateId>(s));
    std::set<DynBitset> out;
    DynBitset t(g_.size());
    reach(mem, 0, t, job.all_barrier, out, calls);
    job.computed.assign(out.begin(), out.end());
  }

  /// Discovery-order merge: publish this batch's enumerations to the memo
  /// (before any state creation, so a §2.4 restart keeps them), then walk
  /// the batch in id order creating successors and arcs — the exact order
  /// a serial converter would, hence identical state numbering.
  void merge(std::vector<Job>& jobs) {
    if (memo_) {
      for (Job& job : jobs)
        if (!job.cached) {
          auto [it, inserted] =
              memo_->map.emplace(members_of(job), std::move(job.computed));
          job.cached = &it->second;
          (void)inserted;  // member sets are unique within a round
        }
    }
    for (Job& job : jobs) {
      if (opts_.compress)
        attach_compressed(job);
      else
        attach(job);
    }
  }

  void attach(Job& job) {
    std::vector<DynBitset> keys;
    keys.reserve(job.raw().size());
    for (const DynBitset& raw : job.raw()) {
      if (raw.empty()) continue;  // every process ended: terminal (§3.2.1)
      keys.push_back(mask(raw));
    }
    // Sorted + deduplicated: the same (ordered) key sequence a std::set
    // would yield, without per-key node allocations.
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    for (DynBitset& key : keys) {
      MetaId target = get_or_create(key);
      aut_.at(job.id).arcs.emplace_back(std::move(key), target);
    }
  }

  void attach_compressed(Job& job) {
    // §2.5: every member takes all paths, so reach() produced exactly one
    // union — the unconditional successor (§3.2.2).
    if (job.raw().size() != 1)
      throw std::logic_error("compressed reach must yield one successor");
    const DynBitset& succ = job.raw().front();
    if (!succ.empty()) {
      MetaId target = get_or_create(succ);
      aut_.at(job.id).unconditional = target;
    }
    // Barrier release: when every live PE is waiting, occupancy is some
    // nonempty subset of this state's barrier members; key each such
    // occupancy to its dedicated all-barrier meta state so the compressed
    // automaton cannot livelock on a barrier.
    DynBitset b = members_of(job) & aut_.barriers;
    if (b.empty() || job.all_barrier) return;
    std::vector<std::size_t> bits = b.to_vector();
    if (bits.size() > 16)
      throw std::runtime_error(
          "more than 16 distinct barrier states in one compressed meta state");
    std::set<DynBitset> keys;
    for (std::uint32_t m = 1; m < (1u << bits.size()); ++m) {
      DynBitset s(g_.size());
      for (std::size_t i = 0; i < bits.size(); ++i)
        if (m & (1u << i)) s.set(bits[i]);
      if (s != succ) keys.insert(s);
    }
    for (const DynBitset& key : keys) {
      MetaId target = get_or_create(key);
      aut_.at(job.id).arcs.emplace_back(key, target);
    }
  }

  /// §2.6 barrier_sync(): under the paper's rule, remove barrier states
  /// from the meta state unless everyone has reached a barrier.
  DynBitset mask(const DynBitset& raw) const {
    if (aut_.barrier_mode == BarrierMode::TrackOccupancy || aut_.barriers.empty())
      return raw;
    if (raw.is_subset_of(aut_.barriers)) return raw;
    return raw - aut_.barriers;
  }

  /// §2.3 reach(): enumerate every achievable union of per-member choices.
  /// Each member contributes TRUE / FALSE / both for a two-exit state
  /// (just both under §2.5 compression), its single successor for a jump,
  /// both arcs for a spawn (§3.2.5), nothing when the process ends, and
  /// itself when stalled at a barrier. Pure with respect to the automaton
  /// and graph, so expansion workers may run it concurrently.
  void reach(const std::vector<StateId>& mem, std::size_t i, const DynBitset& t,
             bool all_barrier, std::set<DynBitset>& out,
             std::size_t& calls) const {
    ++calls;
    if (i == mem.size()) {
      out.insert(t);
      return;
    }
    const Block& b = g_.at(mem[i]);
    auto with = [&](std::initializer_list<StateId> add) {
      DynBitset next = t;
      for (StateId s : add) next.set(s);
      return next;
    };
    if (b.barrier_wait && !all_barrier) {
      // Waiting: this member cannot advance until everyone reaches a
      // barrier; it keeps occupying its own state. (Under PaperPrune
      // such members only appear in all-barrier states, so this path is
      // TrackOccupancy/compressed-specific.)
      reach(mem, i + 1, with({b.id}), all_barrier, out, calls);
      return;
    }
    switch (b.exit) {
      case ExitKind::Halt:
        reach(mem, i + 1, t, all_barrier, out, calls);
        return;
      case ExitKind::Jump:
        reach(mem, i + 1, with({b.target}), all_barrier, out, calls);
        return;
      case ExitKind::Spawn:
        reach(mem, i + 1, with({b.target, b.alt}), all_barrier, out, calls);
        return;
      case ExitKind::Branch:
        if (opts_.compress) {
          reach(mem, i + 1, with({b.target, b.alt}), all_barrier, out, calls);
        } else {
          reach(mem, i + 1, with({b.target}), all_barrier, out, calls);
          if (b.alt != b.target) {
            reach(mem, i + 1, with({b.alt}), all_barrier, out, calls);
            reach(mem, i + 1, with({b.target, b.alt}), all_barrier, out, calls);
          }
        }
        return;
    }
  }

  StateGraph& g_;
  const ir::CostModel& cost_;
  const ConvertOptions& opts_;
  const bool allow_split_;
  ConvertStats& stats_;
  SuccessorMemo* memo_;
  unsigned threads_ = 1;
  MetaAutomaton aut_;
};

/// §2.6 masking is only sound when the aggregate pc can never mix barrier
/// and non-barrier occupancy that conversion did not enumerate. Three
/// combinations break that — they used to be patched over at runtime (the
/// executor's rescue path, a fuzzer skip, a silent mode override); each is
/// now a compile error pointing at the offending construct.
void check_paper_prune(const StateGraph& graph, const ConvertOptions& options) {
  if (options.barrier_mode != BarrierMode::PaperPrune) return;
  if (options.compress)
    throw CompileError(
        SourceLoc{},
        "barrier mode 'prune' cannot be combined with meta-state "
        "compression: compressed transitions are unconditional, so the "
        "§3.2.4 aggregate-pc masking has nothing to key on (use barrier "
        "mode 'track')");
  for (const Block& b : graph.blocks)
    if (b.exit == ExitKind::Spawn)
      throw CompileError(
          b.loc,
          "barrier mode 'prune' is unsound with 'spawn': §3.2.5 children "
          "can leave only themselves waiting at a barrier, an occupancy "
          "the pruned automaton has no arc for (use barrier mode 'track')");
  const DynBitset waits = graph.barrier_states();
  if (waits.count() > 1) {
    const std::size_t second = waits.next(waits.first());
    throw CompileError(
        graph.at(static_cast<StateId>(second)).loc,
        "barrier mode 'prune' is unsound with more than one distinct "
        "barrier-wait state: §2.6 masks earlier waiters out of the "
        "transition keys, so conversion never enumerates the mixed-barrier "
        "aggregates the program can reach (use barrier mode 'track')");
  }
}

}  // namespace

std::string to_json(const ConvertStats& stats) {
  std::ostringstream os;
  os << "{\n"
     << "  \"meta_states\": " << stats.meta_states << ",\n"
     << "  \"arcs\": " << stats.arcs << ",\n"
     << "  \"reach_calls\": " << stats.reach_calls << ",\n"
     << "  \"splits_performed\": " << stats.splits_performed << ",\n"
     << "  \"restarts\": " << stats.restarts << ",\n"
     << "  \"cache\": {\n"
     << "    \"hits\": " << stats.cache_hits << ",\n"
     << "    \"misses\": " << stats.cache_misses << ",\n"
     << "    \"invalidated\": " << stats.cache_invalidated << "\n"
     << "  },\n"
     << "  \"threads\": " << stats.threads_used << ",\n"
     << "  \"batches\": " << stats.batches << ",\n"
     << "  \"phase_seconds\": {\n"
     << "    \"expand\": " << fmt_double(stats.expand_seconds, 6) << ",\n"
     << "    \"merge\": " << fmt_double(stats.merge_seconds, 6) << ",\n"
     << "    \"subsume\": " << fmt_double(stats.subsume_seconds, 6) << ",\n"
     << "    \"straighten\": " << fmt_double(stats.straighten_seconds, 6) << ",\n"
     << "    \"total\": " << fmt_double(stats.total_seconds, 6) << "\n"
     << "  }\n"
     << "}\n";
  return os.str();
}

ConvertResult meta_state_convert(const StateGraph& graph, const ir::CostModel& cost,
                                 const ConvertOptions& options) {
  ConvertResult res;
  check_paper_prune(graph, options);
  res.graph = graph;

  // The memo outlives each restarted Converter: that is what makes §2.4
  // restarts cheap. Scoped to this call — reach() semantics depend on the
  // compress mode, so the convert pass's adaptive retry builds its own memo.
  SuccessorMemo memo;
  SuccessorMemo* memo_ptr = options.memoize ? &memo : nullptr;

  const Clock::time_point t_total = Clock::now();
  int rounds = 0;
  bool allow_split = options.time_split;
  for (;;) {
    try {
      Converter conv(res.graph, cost, options, allow_split, res.stats, memo_ptr);
      res.automaton = conv.run();
      res.stats.total_seconds = since(t_total);
      // Fuzzer feature coverage (no-op without an installed sink): the
      // automaton's coarse shape and how much §2.4 splitting it needed.
      if (coverage_sink()) {
        coverage_hit(cov::kConvertShape,
                     (std::uint64_t{coverage_bucket(res.stats.meta_states)} << 16) |
                         (std::uint64_t{coverage_bucket(res.stats.arcs)} << 8) |
                         coverage_bucket(res.stats.reach_calls));
        coverage_hit(cov::kConvertRestarts,
                     (std::uint64_t{std::min(res.stats.restarts, 15)} << 8) |
                         coverage_bucket(
                             static_cast<std::uint64_t>(res.stats.splits_performed)));
      }
      // Publish conversion aggregates into the process-global metrics
      // registry (mscc --metrics). References resolve once; the adds are
      // relaxed atomics, well off any hot path.
      {
        using telemetry::Counter;
        using telemetry::Histogram;
        telemetry::MetricsRegistry& reg = telemetry::MetricsRegistry::global();
        static Counter& conversions = reg.counter("convert.runs");
        static Counter& reach_calls = reg.counter("convert.reach_calls");
        static Counter& restarts = reg.counter("convert.restarts");
        static Counter& splits = reg.counter("convert.splits_performed");
        static Counter& cache_hits = reg.counter("convert.cache_hits");
        static Counter& cache_misses = reg.counter("convert.cache_misses");
        static Histogram& meta_states = reg.histogram(
            "convert.meta_states", Histogram::pow2_bounds(20));
        static Histogram& arcs =
            reg.histogram("convert.arcs", Histogram::pow2_bounds(20));
        conversions.add();
        reach_calls.add(static_cast<std::int64_t>(res.stats.reach_calls));
        restarts.add(res.stats.restarts);
        splits.add(res.stats.splits_performed);
        cache_hits.add(static_cast<std::int64_t>(res.stats.cache_hits));
        cache_misses.add(static_cast<std::int64_t>(res.stats.cache_misses));
        meta_states.record(static_cast<std::int64_t>(res.stats.meta_states));
        arcs.record(static_cast<std::int64_t>(res.stats.arcs));
      }
      return res;
    } catch (const ExplosionError&) {
      coverage_hit(cov::kConvertExplosion, 1);
      throw;
    } catch (const RestartRequest& restart) {
      res.stats.splits_performed += restart.splits;
      ++res.stats.restarts;
      if (memo_ptr)
        res.stats.cache_invalidated += memo.invalidate(restart.split_ids);
      if (++rounds >= options.max_split_rounds) {
        // Too much churn: finish with splitting disabled so the automaton
        // is still consistent with the (already split) graph.
        allow_split = false;
      }
    }
  }
}

}  // namespace msc::core
