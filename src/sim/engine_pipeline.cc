// The engine's request loop (DESIGN.md §12).
//
// The paper answers one request at a time (Section VII's online setting),
// which is the one-request case of a batched formulation: the stream is cut
// into waves, every (request, matcher slot) pair of a wave is matched
// concurrently against the registry and fleet as the round found them, and
// the results are committed serially in request-id order with
// conflict-aware arbitration. ProcessRequest is a one-request wave through
// the same code.
//
//   admission -> advance -> refresh -> rebuild aggregates -> parallel match
//            -> id-ordered commit -> (losers re-match, bounded) -> next wave
//
// Phase rule: nothing writes the registry or the fleet while a round
// matches. Workers read both in place, without a lock; every write (commit,
// advance, refresh) runs between rounds, and only the calling thread writes
// the registry (advance walks idle vehicles on the pool, each chunk writing
// only its own vehicles). Slot 0's
// worker exports its rows' values at every vertex a commit of one of its
// options can read (the options' vehicles' locations and stops, and d);
// they ride on the request to its commit, which reads them on the
// maintenance oracle instead of filling rows serially (DESIGN.md §7).
//
// Slot 0 commits. Shadow slots (Table III's extra matchers) run on round 0
// at the full ladder level only, on the same world, and are scored against
// slot 0's round-0 result in the commit pass.
//
// Determinism contract: for a fixed wave_size, committed assignments,
// RunStats, and the lifecycle log are identical at every engine_threads
// value. Matcher workers read only the world as the round found it and
// their own per-(worker, slot) oracle/budget/matcher, the arbiter is
// id-ordered, the rider policy's rng and overload-ladder draws happen
// serially in id order on the calling thread, and each idle walk draws from
// its vehicle's own stream. The only documented exception is a
// configured wall-clock deadline (overload.deadline_ms), which is
// nondeterministic by design.
// `--serial_check` re-runs the workload at engine_threads=1 and compares
// CommitRecords to enforce this.

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "obs/trace.h"
#include "rideshare/work_budget.h"
#include "sim/engine.h"

namespace ptar {

namespace {

/// Option-set overlap with a small numeric tolerance (Table III's precision
/// / recall against the committing slot's result set).
bool ContainsOption(std::span<const Option> set, const Option& o) {
  for (const Option& x : set) {
    if (x.vehicle == o.vehicle &&
        std::abs(x.pickup_dist - o.pickup_dist) < 1e-6 &&
        std::abs(x.price - o.price) < 1e-6) {
      return true;
    }
  }
  return false;
}

/// Share of `of` that `in` also holds (1 when `of` is empty).
double Coverage(std::span<const Option> of, std::span<const Option> in) {
  if (of.empty()) return 1.0;
  std::size_t hit = 0;
  for (const Option& o : of) {
    if (ContainsOption(in, o)) ++hit;
  }
  return static_cast<double>(hit) / of.size();
}

/// One admitted request travelling through a wave.
struct InFlight {
  const Request* request = nullptr;
  /// Per-slot results and final disposition. `out.degrade_level` is the
  /// ladder level captured at admission; it fixes this request's budget and
  /// matcher even if the ladder moves before its worker runs.
  Engine::RequestOutcome out;
  /// The request's one record, filled where each fact arises: admission,
  /// slot 0's latest match (its worker-side measurements included),
  /// arbitration, and the disposition.
  obs::LifecycleEvent event;
  bool deadline_hit = false;  ///< Worker budget's latched wall deadline.
  /// Slot 0's latest match's row values for the commit.
  RequestLegs legs;
};

/// One unit of parallel work: slot `slot` of pending request `index`.
struct Unit {
  std::size_t index;
  std::size_t slot;
};

}  // namespace

int Engine::ResolvedWaveSize() const {
  if (options_.wave_size > 0) return options_.wave_size;
  // A single worker gains nothing from batching; its one-request waves are
  // the paper's online setting.
  return options_.engine_threads == 1 ? 1 : 2 * options_.engine_threads;
}

Engine::RequestOutcome Engine::ProcessRequest(
    const Request& request, std::span<Matcher* const> matchers) {
  PTAR_CHECK(!matchers.empty());
  // Every worker borrows the caller's matchers: a one-request wave runs
  // each slot at most once, so no matcher object is used concurrently.
  const std::vector<std::vector<Matcher*>> slots(
      static_cast<std::size_t>(options_.engine_threads),
      std::vector<Matcher*>(matchers.begin(), matchers.end()));
  std::vector<RequestOutcome> outcomes;
  RunWaves({&request, 1}, slots, nullptr, &outcomes);
  return std::move(outcomes.front());
}

RunStats Engine::RunPipelined(
    std::span<const Request> requests, const MatcherFactory& make_matcher,
    std::vector<CommitRecord>* commit_log,
    const std::vector<MatcherFactory>& shadow_matchers) {
  PTAR_CHECK(make_matcher != nullptr);
  // One instance per (worker, slot), built per call, serially, before any
  // matching: the factories may capture caller configuration, and
  // per-call construction keeps the engine free of matcher-type state.
  std::vector<std::unique_ptr<Matcher>> owned;
  std::vector<std::vector<Matcher*>> slots(
      static_cast<std::size_t>(options_.engine_threads));
  const auto add_slot = [&](const MatcherFactory& factory) {
    for (std::vector<Matcher*>& worker : slots) {
      owned.push_back(factory());
      PTAR_CHECK(owned.back() != nullptr);
      worker.push_back(owned.back().get());
    }
  };
  add_slot(make_matcher);
  for (const MatcherFactory& factory : shadow_matchers) add_slot(factory);
  return RunWaves(requests, slots, commit_log, nullptr);
}

RunStats Engine::RunWaves(std::span<const Request> requests,
                          const std::vector<std::vector<Matcher*>>& matchers,
                          std::vector<CommitRecord>* commit_log,
                          std::vector<RequestOutcome>* outcomes) {
  const std::size_t workers = matchers.size();
  const std::size_t num_slots = matchers[0].size();
  const std::size_t wave_size = static_cast<std::size_t>(ResolvedWaveSize());
  ThreadPool* pool = Pool();

  // Per-(worker, slot) state, kept across calls. This call's matchers and
  // fault hooks are installed afresh: oracle (w, s) takes hook slot s, or
  // none when no factory is set.
  if (worker_ctxs_.size() < workers) worker_ctxs_.resize(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    std::vector<SlotCtx>& slots = worker_ctxs_[w].slots;
    if (slots.size() < num_slots) slots.resize(num_slots);
    for (std::size_t s = 0; s < num_slots; ++s) {
      SlotCtx& slot = slots[s];
      slot.matcher = matchers[w][s];
      if (slot.oracle == nullptr) {
        slot.oracle =
            std::make_unique<DistanceOracle>(graph_, ch_graph_.get());
      }
      slot.oracle->SetFaultHook(
          fault_hook_factory_ ? fault_hook_factory_(s) : nullptr);
    }
  }

  RunStats stats;
  stats.matchers.resize(num_slots);

  // Histogram slots are resolved under the quiesce lock: metrics_ is part
  // of the quiesced state a concurrent AuditFleet may touch.
  struct SlotHists {
    obs::LatencyHistogram* compdists;
    obs::LatencyHistogram* options;
  };
  std::vector<SlotHists> slot_hists;
  // "matcher/<name>" per slot; the k-th slot of one name is "<name>#k", so
  // same-named slots (SSA(1.0) beside SSA(0.16)) keep separate metrics.
  std::vector<std::string> slot_keys;
  obs::LatencyHistogram* queue_depth;
  obs::LatencyHistogram* wave_advance_us;
  obs::LatencyHistogram* wave_match_us;
  obs::LatencyHistogram* wave_commit_us;
  obs::LatencyHistogram* aggregates_us;
  obs::LatencyHistogram* request_latency_us;
  {
    std::lock_guard<std::mutex> setup_guard(quiesce_mu_);
    for (std::size_t s = 0; s < num_slots; ++s) {
      stats.matchers[s].name = matchers[0][s]->name();
      const std::string& name = stats.matchers[s].name;
      const auto repeats = std::count_if(
          stats.matchers.begin(), stats.matchers.begin() + s,
          [&](const MatcherAggregate& m) { return m.name == name; });
      slot_keys.push_back("matcher/" + name +
                          (repeats > 0 ? "#" + std::to_string(repeats + 1)
                                       : ""));
      const std::string& base = slot_keys.back();
      slot_hists.push_back({&metrics_.Histogram(base + "/compdists"),
                            &metrics_.Histogram(base + "/options")});
    }
    queue_depth = &metrics_.Histogram("pipeline/queue_depth");
    wave_advance_us = &metrics_.Histogram("pipeline/wave_advance_us");
    wave_match_us = &metrics_.Histogram("pipeline/wave_match_us");
    wave_commit_us = &metrics_.Histogram("pipeline/wave_commit_us");
    aggregates_us = &metrics_.Histogram("pipeline/aggregates_us");
    request_latency_us = &metrics_.Histogram("pipeline/request_latency_us");
  }

  // Runs `fn(w)` for every worker index owning at least one of `count`
  // units (round-robin: unit u belongs to worker u % workers), on the pool
  // when present, inline otherwise. One task per worker, not per unit:
  // coarse tasks keep queue traffic negligible.
  const auto parallel_match = [&](std::size_t count, auto&& fn) {
    const std::size_t active = std::min(count, workers);
    if (pool == nullptr || active <= 1) {
      for (std::size_t w = 0; w < active; ++w) fn(w);
      return;
    }
    std::vector<std::future<void>> pending;
    pending.reserve(active);
    for (std::size_t w = 0; w < active; ++w) {
      pending.push_back(pool->Submit([&fn, w] { fn(w); }));
    }
    for (std::future<void>& f : pending) f.get();
  };

  // Matches slot `s` of `inf` on worker `wctx`'s private state. Called
  // concurrently, one invocation per unit, after the aggregates' rebuild;
  // the units of one request write disjoint entries of `inf`.
  const auto match_unit = [&](InFlight& inf, std::size_t s, WorkerCtx& wctx) {
    // Request and wave ids ride on the span so a Perfetto track can be
    // correlated with the lifecycle log's records.
    obs::TraceSpan span("pipeline_match");
    span.AddArg("request", static_cast<std::int64_t>(inf.request->id));
    span.AddArg("wave", static_cast<std::int64_t>(inf.event.wave));
    span.AddArg("slot", static_cast<std::int64_t>(s));
    SlotCtx& slot = wctx.slots[s];
    MatchContext ctx;
    ctx.grid = grid_;
    ctx.fleet = &fleet_;
    ctx.oracle = slot.oracle.get();
    ctx.price_model = PriceModel{};
    ctx.registry = &registry_;
    ctx.prune = prune_filter_.get();
    // Shadow slots only run at the full level.
    const DegradeLevel level =
        s == 0 ? inf.out.degrade_level : DegradeLevel::kFull;
    if (overload_.enabled()) {
      slot.budget = WorkBudget(overload_.BudgetForLevel(level),
                               overload_.DeadlineMicros());
      // Armed on the worker so a wall deadline starts when the matcher
      // does, not while the unit waits for its worker's earlier slice.
      slot.budget.Arm();
      ctx.budget = &slot.budget;
    }
    Matcher* matcher = slot.matcher;
    if (level == DegradeLevel::kSsa) matcher = &wctx.ssa;
    if (level == DegradeLevel::kGridScan) matcher = &wctx.grid_scan;
    Timer timer;
    inf.out.results[s] = matcher->Match(*inf.request, ctx);
    if (s > 0) return;
    obs::LifecycleEvent& event = inf.event;
    event.match_us = timer.ElapsedMicros();
    event.epoch = registry_.epoch();
    event.matcher = matcher->name();
    event.partial = !inf.out.results[0].complete;
    event.options = inf.out.results[0].options.size();
    if (overload_.enabled()) {
      // Latched per request: the slot reuses its budget object for its
      // next unit, so the committing values must be captured here.
      event.budget_exhausted = slot.budget.Exhausted();
      inf.deadline_hit = slot.budget.deadline_hit();
      event.budget_limit = slot.budget.max_units();
      event.budget_spent = slot.budget.used();
    }
    if (overload_.DeadlineMicros() > 0.0) {
      event.deadline_slack_us =
          std::max(0.0, overload_.DeadlineMicros() - event.match_us);
    }
    // Every vertex KineticTree::Commit can pair with s or d for an option's
    // vehicle: its location and its requests' stops, plus d for dist(s, d).
    std::vector<VertexId> at = {inf.request->destination};
    for (const Option& option : inf.out.results[0].options) {
      const KineticTree& tree = fleet_[option.vehicle];
      at.push_back(tree.location());
      for (const AssignedRequest& a : tree.assigned()) {
        at.push_back(a.request.start);
        at.push_back(a.request.destination);
      }
    }
    inf.legs = slot.oracle->ExportLegs(std::move(at));
  };

  // Round-0 bookkeeping, once per request in id order: ladder signals from
  // slot 0's own worker-side measurements, GeoPrune attribution of the
  // committing path (ladder fallbacks included), and the per-slot
  // aggregates. Those describe the configured matchers, so degraded
  // requests (fallback matchers) are excluded.
  const auto account_first_match = [&](const InFlight& inf) {
    ObserveOverload(inf.event.match_us, inf.event.budget_exhausted,
                    inf.deadline_hit);
    const MatchResult& first = inf.out.results[0];
    if (inf.event.partial) ++stats.partial_skylines;
    if (prune_filter_ != nullptr) {
      const MatchStats& st = first.stats;
      metrics_.AddCounter("prune/ellipse_checked", st.ellipse_checked);
      metrics_.AddCounter("prune/ellipse_pruned", st.ellipse_pruned);
      metrics_.AddCounter("prune/verified_vehicles", st.verified_vehicles);
      const std::uint64_t denom = st.ellipse_pruned + st.verified_vehicles;
      if (denom > 0) {
        metrics_.Histogram("prune/pruned_share_pct")
            .Add(100.0 * static_cast<double>(st.ellipse_pruned) /
                 static_cast<double>(denom));
      }
    }
    if (inf.out.degrade_level != DegradeLevel::kFull) return;
    for (std::size_t s = 0; s < num_slots; ++s) {
      const MatchResult& result = inf.out.results[s];
      MatcherAggregate& agg = stats.matchers[s];
      agg.totals.Accumulate(result.stats);
      agg.latency_ms.Add(result.stats.elapsed_micros / 1e3);
      ++agg.requests;
      agg.options_sum += result.options.size();
      agg.precision_sum += Coverage(result.options, first.options);
      agg.recall_sum += Coverage(first.options, result.options);
      slot_hists[s].compdists->Add(
          static_cast<double>(result.stats.compdists));
      slot_hists[s].options->Add(static_cast<double>(result.options.size()));
    }
  };

  std::vector<CommitRecord> records;
  records.reserve(requests.size());

  // Writes `inf`'s final disposition — shed (its admission level), served
  // (`chosen` is committed) or unserved (`chosen` is null) — to the commit
  // log, RunStats, the telemetry window, the lifecycle log and the outcome.
  // Called only from the serial admission and commit passes and the serial
  // tail, in request-id order, so record order — and therefore the
  // lifecycle file — is identical at every engine_threads value. The commit
  // latency is the admission-to-commit wall time of the wave timer; shed
  // requests take no latency sample.
  const auto dispose = [&](InFlight& inf, const Option* chosen,
                           const Timer& wave_timer) {
    obs::LifecycleEvent& event = inf.event;
    const DegradeLevel level = inf.out.degrade_level;
    const bool shed = level == DegradeLevel::kShed;
    CommitRecord record{.request = inf.request->id, .shed = shed};
    if (chosen == nullptr) {
      ++stats.unserved;
      if (shed) ++stats.shed_requests;
    } else {
      ++stats.served;
      CommitChoice(*inf.request, *chosen, inf.legs);
      record = {.request = inf.request->id,
                .served = true,
                .vehicle = chosen->vehicle,
                .pickup_dist = chosen->pickup_dist,
                .price = chosen->price};
      inf.out.served = true;
      inf.out.chosen = *chosen;
      event.vehicle = chosen->vehicle;
      event.pickup_dist = chosen->pickup_dist;
      event.price = chosen->price;
      if (options_.audit_after_commit) AuditAfterCommit(chosen->vehicle);
    }
    records.push_back(record);
    event.disposition =
        shed ? "shed" : (chosen != nullptr ? "served" : "unserved");
    const double latency_micros = shed ? 0.0 : wave_timer.ElapsedMicros();
    if (!shed) request_latency_us->Add(latency_micros);
    if (obs::WindowExport* w = TelemetryWindowFor(event.submit_time)) {
      ++w->requests;
      ++w->ladder[static_cast<int>(level)];
      if (shed) {
        ++w->shed;
      } else {
        ++(chosen != nullptr ? w->served : w->unserved);
        if (event.partial) ++w->partial;
        w->conflicts += event.conflicts;
        w->rematches += event.rematch_rounds;
        w->commit_latency_us.Add(latency_micros);
      }
    }
    if (lifecycle_ != nullptr) lifecycle_->Record(event);
    if (outcomes != nullptr) outcomes->push_back(std::move(inf.out));
  };

  std::size_t next = 0;
  std::vector<Unit> units;
  while (next < requests.size()) {
    // One wave per lock hold: outside threads (AuditFleet) observe the
    // world only at wave boundaries — the quiesced epoch.
    std::lock_guard<std::mutex> wave_guard(quiesce_mu_);
    obs::TraceSpan wave_span("pipeline_wave");
    const std::span<const Request> wave =
        requests.subspan(next, std::min(wave_size, requests.size() - next));
    next += wave.size();
    ++stats.waves;
    wave_span.AddArg("wave", static_cast<std::int64_t>(stats.waves));
    Timer wave_timer;

    // --- Admission (id order): shed or capture the ladder level. ---
    std::vector<InFlight> admitted;
    admitted.reserve(wave.size());
    for (const Request& request : wave) {
      const DegradeLevel level = overload_.level();
      stats.ladder_requests[static_cast<int>(level)] += 1;
      InFlight inf;
      inf.request = &request;
      inf.event.request = request.id;
      inf.event.submit_time = request.submit_time;
      inf.event.wave = stats.waves;
      inf.event.level = DegradeLevelName(level);
      inf.out.results.resize(num_slots);
      inf.out.degrade_level = level;
      if (level != DegradeLevel::kShed) {
        admitted.push_back(std::move(inf));
        continue;
      }
      // Shedding is (nearly) free, so it counts as a good signal; the
      // ladder can recover mid-admission and later requests of the same
      // wave then match again.
      ObserveOverload(0.0, /*budget_exhausted=*/false);
      dispose(inf, nullptr, wave_timer);
    }
    queue_depth->Add(static_cast<double>(admitted.size()));

    // --- Advance the world to the wave's horizon, once per wave. ---
    {
      PTAR_TRACE_SPAN("pipeline_advance");
      Timer timer;
      AdvanceTo(wave.back().submit_time);
      {
        PTAR_TRACE_SPAN("pipeline_refresh");
        RefreshStaleTrees();
      }
      wave_advance_us->Add(timer.ElapsedMicros());
    }

    // --- Match / commit rounds. ---
    std::vector<InFlight> pending = std::move(admitted);
    std::unordered_set<VehicleId> touched;
    for (int round = 0; !pending.empty(); ++round) {
      {
        Timer timer;
        registry_.RebuildDirtyAggregates();
        aggregates_us->Add(timer.ElapsedMicros());
      }
      // Units in request-id order, slots in order within a request; with
      // one slot, unit i is request i.
      units.clear();
      for (std::size_t i = 0; i < pending.size(); ++i) {
        units.push_back({i, 0});
        if (round > 0 || pending[i].out.degrade_level != DegradeLevel::kFull) {
          continue;
        }
        for (std::size_t s = 1; s < num_slots; ++s) units.push_back({i, s});
      }
      {
        PTAR_TRACE_SPAN("pipeline_match_round");
        Timer timer;
        parallel_match(units.size(), [&](std::size_t w) {
          for (std::size_t u = w; u < units.size(); u += workers) {
            match_unit(pending[units[u].index], units[u].slot,
                       worker_ctxs_[w]);
          }
        });
        wave_match_us->Add(timer.ElapsedMicros());
      }

      PTAR_TRACE_SPAN("pipeline_commit");
      Timer commit_timer;
      touched.clear();
      std::vector<InFlight> losers;
      for (InFlight& inf : pending) {
        if (round == 0) account_first_match(inf);
        const Option* chosen = ChooseOption(inf.out.results[0].options);
        if (chosen != nullptr && touched.contains(chosen->vehicle)) {
          // Conflict: a lower-id request of this round already took the
          // vehicle, so this result is stale. Re-match against the
          // committed world next round. The first loser of the next round faces
          // an empty touched set, so every round commits >= 1 request.
          ++stats.conflicts;
          ++inf.event.conflicts;
          losers.push_back(std::move(inf));
          continue;
        }
        if (chosen != nullptr) touched.insert(chosen->vehicle);
        dispose(inf, chosen, wave_timer);
      }
      wave_commit_us->Add(commit_timer.ElapsedMicros());

      if (losers.empty()) break;
      if (round >= options_.max_rematch_rounds) {
        // Re-match bound exhausted: the stragglers match serially against
        // live state, which cannot conflict.
        for (InFlight& inf : losers) {
          ++stats.serial_rematches;
          inf.event.serial_tail = true;
          registry_.RebuildDirtyAggregates();
          match_unit(inf, 0, worker_ctxs_[0]);
          dispose(inf, ChooseOption(inf.out.results[0].options), wave_timer);
        }
        break;
      }
      stats.rematches += losers.size();
      for (InFlight& inf : losers) ++inf.event.rematch_rounds;
      pending = std::move(losers);
    }
  }

  stats.shared = shared_total_ - shared_reported_;
  shared_reported_ = shared_total_;
  std::lock_guard<std::mutex> harvest_guard(quiesce_mu_);
  // Oracle batching stats: the committing slot's workers merge into ONE
  // key (the sum over requests is identical at every thread count: each
  // request's match work is deterministic and worker assignment only
  // partitions it), each shadow slot's into its slot key. The oracles
  // outlive the call, so each harvest resets what it took.
  for (std::size_t w = 0; w < workers; ++w) {
    for (std::size_t s = 0; s < num_slots; ++s) {
      DistanceOracle& oracle = *worker_ctxs_[w].slots[s].oracle;
      metrics_.MergeBatchStats(
          s == 0 ? std::string("pipeline/match/batch")
                 : slot_keys[s] + "/batch",
          oracle.batch_stats());
      oracle.ResetBatchStats();
    }
  }
  // The pool's and the trees' counters are lifetime-cumulative, and so
  // are the engine's metrics: each call sets the sources' current totals.
  if (pool_ != nullptr) {
    metrics_.SetCounter("pool/tasks_run", pool_->tasks_run());
    metrics_.SetCounter("pool/queue_wait_micros", pool_->total_wait_micros());
  }
  if (options_.tree_max_branches != KineticTree::kUnlimitedBranches) {
    // Attribute capped-enumeration option loss.
    std::uint64_t dropped = 0;
    std::uint64_t cap_hits = 0;
    for (const KineticTree& tree : fleet_) {
      dropped += tree.branches_dropped();
      cap_hits += tree.cap_hits();
    }
    metrics_.SetCounter("tree/branches_dropped", dropped);
    metrics_.SetCounter("tree/cap_hits", cap_hits);
  }

  if (commit_log != nullptr) {
    // Id order, not commit order: the serial_check contract compares each
    // request's final disposition, independent of the internal schedule.
    std::sort(records.begin(), records.end(),
              [](const CommitRecord& a, const CommitRecord& b) {
                return a.request < b.request;
              });
    *commit_log = std::move(records);
  }
  return stats;
}

}  // namespace ptar
