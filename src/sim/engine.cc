#include "sim/engine.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <limits>

#include "common/timer.h"
#include "graph/ch_preprocessor.h"
#include "obs/trace.h"

namespace ptar {

namespace {

constexpr double kTimeEps = 1e-9;
constexpr Distance kDistEps = 1e-9;
/// Simulation step: vehicles advance kDefaultSpeedMetersPerSec * kTickSeconds
/// meters per step.
constexpr double kTickSeconds = 1.0;

/// Spends the whole budget inside an edge of length `len` and returns true
/// when it falls short of the edge's end. Returns false and changes nothing
/// when it reaches the end or no edge is taken (a NaN length fails the
/// compare).
bool SettleMidEdge(double& budget, double& progress, Distance len) {
  if (!(budget + kDistEps < len - progress)) return false;
  progress += budget;
  budget = 0.0;
  return true;
}

}  // namespace

std::unique_ptr<CHGraph> Engine::MaybeBuildCH(const RoadNetwork* graph,
                                              const EngineOptions& options,
                                              double* out_micros) {
  *out_micros = 0.0;
  if (options.distance_backend != DistanceBackend::kCH) return nullptr;
  PTAR_CHECK(graph != nullptr);
  Timer timer;
  auto ch = std::make_unique<CHGraph>(
      CHPreprocessor(CHPreprocessorOptions{}).Build(*graph));
  *out_micros = timer.ElapsedMicros();
  return ch;
}

bool ParsePruneMode(const std::string& text, PruneMode* out) {
  if (text == "none") {
    *out = PruneMode::kNone;
    return true;
  }
  if (text == "ellipse") {
    *out = PruneMode::kEllipse;
    return true;
  }
  return false;
}

Engine::Engine(const RoadNetwork* graph, const GridIndex* grid,
               const EngineOptions& options)
    : graph_(graph),
      grid_(grid),
      options_(options),
      rng_(options.seed),
      registry_(grid),
      ch_graph_(MaybeBuildCH(graph, options, &ch_preprocess_micros_)),
      maintenance_oracle_(graph, ch_graph_.get()),
      overload_(options.overload),
      telemetry_(options.telemetry) {
  PTAR_CHECK(graph != nullptr && grid != nullptr);
  if (!options_.start_vertices.empty()) {
    options_.num_vehicles =
        static_cast<int>(options_.start_vertices.size());
    for (const VertexId v : options_.start_vertices) {
      PTAR_CHECK(v < static_cast<VertexId>(graph->num_vertices()));
    }
  }
  PTAR_CHECK(options_.num_vehicles >= 1);
  PTAR_CHECK(options.vehicle_capacity >= 1);
  PTAR_CHECK(options.engine_threads >= 1);
  PTAR_CHECK(options.wave_size >= 0);
  PTAR_CHECK(options.max_rematch_rounds >= 0);
  if (ch_graph_ != nullptr) {
    metrics_.AddCounter("ch/shortcuts", ch_graph_->num_shortcuts());
    metrics_.Histogram("ch/preprocess_us").Add(ch_preprocess_micros_);
  }
  if (options_.prune == PruneMode::kEllipse) {
    prune_filter_ = std::make_unique<prune::EllipsePrefilter>(
        prune::EllipsePrefilter::Build(*graph));
    // The calibrated factor, scaled for counter precision: alpha == 1 maps
    // to 1e6. Zero means the graph had no usable edge (filter inert).
    metrics_.AddCounter(
        "prune/alpha_ppm",
        static_cast<std::uint64_t>(prune_filter_->alpha() * 1e6));
  }
  // Only registered when a deadline exists, so default runs keep their
  // metric name set unchanged.
  deadline_slack_us_ = options.overload.deadline_ms > 0.0
                           ? &metrics_.Histogram("engine/deadline_slack_us")
                           : nullptr;
  fleet_.reserve(options_.num_vehicles);
  runtimes_.resize(options_.num_vehicles);
  for (int i = 0; i < options_.num_vehicles; ++i) {
    const auto start =
        options_.start_vertices.empty()
            ? static_cast<VertexId>(rng_.UniformIndex(graph->num_vertices()))
            : options_.start_vertices[i];
    fleet_.emplace_back(static_cast<VehicleId>(i), start,
                        options.vehicle_capacity, options.tree_max_branches);
    runtimes_[i].route.assign(1, start);
    runtimes_[i].walk = SplitMix64(DeriveSeed(options_.seed, i));
    registry_.AddEmptyVehicle(static_cast<VehicleId>(i), start);
  }
}

void Engine::ObserveOverload(double match_elapsed_micros,
                             bool budget_exhausted,
                             bool worker_deadline_hit) {
  if (!overload_.enabled()) return;
  const OverloadController::Observation obs = overload_.Observe(
      match_elapsed_micros, budget_exhausted, worker_deadline_hit);
  if (obs.deadline_missed) metrics_.AddCounter("degrade/deadline_missed", 1);
  if (obs.level_delta > 0) metrics_.AddCounter("degrade/level_up", 1);
  if (obs.level_delta < 0) metrics_.AddCounter("degrade/level_down", 1);
  if (deadline_slack_us_ != nullptr) {
    deadline_slack_us_->Add(
        std::max(0.0, overload_.DeadlineMicros() - match_elapsed_micros));
  }
}

obs::WindowExport* Engine::TelemetryWindowFor(double t) {
  if (!telemetry_.enabled()) return nullptr;
  const obs::WindowExport* closed = telemetry_.Newest();
  if (options_.overload.slo_p99_us > 0.0 && closed != nullptr &&
      telemetry_.WouldOpenNew(t)) {
    const double shed_rate =
        closed->requests == 0 ? 0.0
                              : static_cast<double>(closed->shed) /
                                    static_cast<double>(closed->requests);
    const OverloadController::Observation obs = overload_.ObserveWindow(
        closed->commit_latency_us.Percentile(99.0), shed_rate,
        closed->requests);
    if (obs.bad) metrics_.AddCounter("degrade/slo_violations", 1);
    if (obs.level_delta > 0) metrics_.AddCounter("degrade/slo_level_up", 1);
    if (obs.level_delta < 0) {
      metrics_.AddCounter("degrade/slo_level_down", 1);
    }
  }
  return telemetry_.At(t);
}

AuditReport Engine::AuditFleet() {
  // Quiesce: waits for the in-flight wave (if any) to finish its commit
  // pass, so the audit never sees a torn tree or a half-applied commit.
  // Uncontended when no wave is running.
  std::lock_guard<std::mutex> quiesced(quiesce_mu_);
  // Clean aggregates first so the audit covers every cell (the auditor
  // legitimately skips dirty ones).
  registry_.RebuildDirtyAggregates();
  KineticTreeAuditor auditor(MaintenanceDistFn());
  AuditReport report = auditor.AuditFleet(fleet_, &registry_);
  metrics_.AddCounter("audit/trees_checked", report.trees_checked);
  metrics_.AddCounter("audit/branches_checked", report.branches_checked);
  metrics_.AddCounter("audit/aggregate_cells_checked",
                      report.aggregate_cells_checked);
  if (!report.ok()) {
    metrics_.AddCounter("audit/findings", report.findings.size());
  }
  return report;
}

void Engine::AuditAfterCommit(VehicleId v) {
  KineticTreeAuditor auditor(MaintenanceDistFn());
  const AuditReport report = auditor.AuditTree(fleet_[v]);
  metrics_.AddCounter("audit/trees_checked", report.trees_checked);
  metrics_.AddCounter("audit/branches_checked", report.branches_checked);
  if (report.ok()) return;
  metrics_.AddCounter("audit/findings", report.findings.size());
  if (auditor.RepairTree(fleet_[v]).ok()) {
    metrics_.AddCounter("audit/repairs", 1);
    // The repair may have changed the active branch; re-sync route,
    // registration, and served stops.
    SyncAfterTreeChange(v);
  }
}

std::size_t Engine::KineticTreeMemoryBytes() const {
  std::size_t bytes = 0;
  for (const KineticTree& tree : fleet_) bytes += tree.MemoryBytes();
  return bytes;
}

KineticTree::DistFn Engine::MaintenanceDistFn() {
  DistanceOracle* oracle = &maintenance_oracle_;
  return [oracle](VertexId a, VertexId b) { return oracle->Dist(a, b); };
}

Distance Engine::ArcWeight(VertexId u, VertexId v) const {
  Distance best = kInfDistance;
  for (const Arc& arc : graph_->OutArcs(u)) {
    if (arc.head == v) best = std::min(best, arc.weight);
  }
  PTAR_CHECK(best != kInfDistance)
      << "no edge between " << u << " and " << v;
  return best;
}

void Engine::ReRegister(VehicleId v) {
  KineticTree& tree = fleet_[v];
  auto entries = tree.BuildRegistration(*grid_);
  // Paper Section IV.B registers an edge <o_x, o_y> in every cell its
  // shortest path intersects. BuildRegistration only knows endpoints; the
  // engine knows the driven route for the first leg, so augment the
  // first-leg entries with the route's cells (purely additive: extra
  // registrations can only surface the vehicle earlier, never unsoundly
  // prune it).
  const VehicleRuntime& rt = runtimes_[v];
  if (!tree.IsEmpty() && rt.route.size() > 2) {
    std::vector<CellId> route_cells;
    grid_->CollectCells(rt.route, &route_cells);
    const std::size_t base_count = entries.size();
    for (std::size_t i = 0; i < base_count; ++i) {
      const KineticEdgeEntry entry = entries[i].second;
      if (entry.ox != tree.location() || entry.tail) continue;
      for (const CellId cell : route_cells) {
        if (cell != entries[i].first) entries.emplace_back(cell, entry);
      }
      break;  // one copy of the first-leg entry per route cell suffices
    }
  }
  registry_.SetVehicleEdges(v, entries);
}

void Engine::SyncAfterTreeChange(VehicleId v) {
  KineticTree& tree = fleet_[v];
  PTAR_CHECK(!tree.IsEmpty()) << "vehicle " << v << " has no stop to sync";
  VehicleRuntime& rt = runtimes_[v];

  // Serve every stop co-located with the vehicle.
  while (!tree.IsEmpty() &&
         tree.NextStopLocation() == tree.location()) {
    auto event = tree.ArriveAtNextStop();
    PTAR_CHECK(event.ok()) << event.status();
    if (event->type == StopType::kDropoff) {
      shared_onboard_.erase(event->request);
      continue;
    }
    // The new rider shares with everyone already aboard; each request
    // counts once, when it first shares.
    bool shares = false;
    for (const AssignedRequest& a : tree.assigned()) {
      if (!a.picked_up || a.request.id == event->request) continue;
      shares = true;
      if (shared_onboard_.insert(a.request.id).second) ++shared_total_;
    }
    if (shares && shared_onboard_.insert(event->request).second) {
      ++shared_total_;
    }
  }

  if (tree.IsEmpty()) {
    registry_.ClearVehicleEdges(v);
    registry_.AddEmptyVehicle(v, tree.location());
    rt.route.assign(1, tree.location());
    rt.pos = 0;
    rt.edge_len = VehicleRuntime::kNoEdge;
    rt.edge_progress = 0.0;
    return;
  }

  ReRegister(v);
  const VertexId target = tree.NextStopLocation();
  PTAR_DCHECK(target != tree.location());
  rt.route = maintenance_oracle_.Path(tree.location(), target);
  PTAR_CHECK(rt.route.size() >= 2)
      << "scheduled stop unreachable from vehicle location";
  rt.pos = 0;
  rt.edge_len = VehicleRuntime::kNoEdge;
  rt.edge_progress = 0.0;
}

void Engine::TickVehicle(VehicleId v) {
  VehicleRuntime& rt = runtimes_[v];
  KineticTree& tree = fleet_[v];
  while (true) {
    if (!std::isnan(rt.edge_len)) {
      // The budget reaches the edge's end: cross to its head.
      PTAR_DCHECK(rt.edge_len ==
                  ArcWeight(rt.route[rt.pos], rt.route[rt.pos + 1]));
      const Distance edge_len = rt.edge_len;
      rt.budget -= edge_len - rt.edge_progress;
      rt.edge_len = VehicleRuntime::kNoEdge;
      rt.edge_progress = 0.0;
      const VertexId to = rt.route[++rt.pos];

      const bool was_empty = tree.IsEmpty();
      tree.MoveTo(to, edge_len);
      if (!was_empty) {
        registry_.AdjustVehicleDistTr(v, edge_len);
        if (rt.pos + 1 == rt.route.size()) {
          // Reached the scheduled stop: serve it and replan.
          SyncAfterTreeChange(v);
        }
      }
    }

    if (rt.pos + 1 >= rt.route.size() && !tree.IsEmpty()) {
      // Route exhausted but stops remain: replan (can happen right after
      // external tree changes).
      SyncAfterTreeChange(v);
      if (rt.pos + 1 >= rt.route.size()) return;  // became idle
    }
    if (rt.pos + 1 < rt.route.size()) {
      rt.edge_len = ArcWeight(rt.route[rt.pos], rt.route[rt.pos + 1]);
    } else {
      // Idle vehicle: wander onto a random incident road segment. Its
      // length is ArcWeight's (the shortest arc to `next`), read off the
      // span already in hand.
      const std::span<const Arc> arcs = graph_->OutArcs(tree.location());
      if (arcs.empty()) return;  // stranded on an isolated vertex
      const VertexId next = arcs[rt.walk.UniformIndex(arcs.size())].head;
      rt.route.assign({tree.location(), next});
      rt.pos = 0;
      rt.edge_len = kInfDistance;
      for (const Arc& arc : arcs) {
        if (arc.head == next) rt.edge_len = std::min(rt.edge_len, arc.weight);
      }
    }
    if (SettleMidEdge(rt.budget, rt.edge_progress, rt.edge_len)) return;
  }
}

void Engine::AdvanceVehicle(VehicleId v, std::span<const double> ticks) {
  VehicleRuntime& rt = runtimes_[v];
  // Locals, not rt's fields, which the compiler must assume alias `ticks`.
  double budget = rt.budget;
  double progress = rt.edge_progress;
  Distance len = rt.edge_len;
  for (const double tick : ticks) {
    budget += tick;
    if (SettleMidEdge(budget, progress, len)) continue;
    rt.budget = budget;
    rt.edge_progress = progress;
    TickVehicle(v);
    budget = rt.budget;
    progress = rt.edge_progress;
    len = rt.edge_len;
  }
  rt.budget = budget;
  rt.edge_progress = progress;
}

ThreadPool* Engine::Pool() {
  if (options_.engine_threads > 1 && pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(options_.engine_threads);
    // Queue-wait intervals land on the worker's own trace track; the
    // recorder drops them (one branch) when tracing is off.
    pool_->SetTaskWaitObserver([](double wait_micros) {
      obs::TraceRecorder::Global().RecordEndingNow("pool_queue_wait",
                                                   wait_micros);
    });
  }
  return pool_.get();
}

void Engine::AdvanceTo(double time) {
  // The call's tick budgets, summed into now_ exactly as one tick at a
  // time would.
  std::vector<double> ticks;
  while (now_ + kTimeEps < time) {
    const double dt = std::min(kTickSeconds, time - now_);
    ticks.push_back(kDefaultSpeedMetersPerSec * dt);
    now_ += dt;
  }
  if (ticks.empty()) return;

  std::vector<VehicleId> idle;
  std::vector<VehicleId> busy;
  for (VehicleId v = 0; v < fleet_.size(); ++v) {
    (fleet_[v].IsEmpty() ? idle : busy).push_back(v);
  }

  // An idle vehicle stays idle for the whole call (only commits assign
  // riders), and its walk touches its own tree, runtime and stream and
  // the read-only graph, so idle vehicles advance on the pool in one
  // contiguous chunk per worker. Each chunk lists, in id order, its
  // vehicles that ended the call in another cell.
  ThreadPool* pool = Pool();
  const std::size_t chunks = std::min<std::size_t>(
      idle.size(), static_cast<std::size_t>(options_.engine_threads));
  std::vector<std::vector<VehicleId>> moved(chunks);
  const auto walk_chunk = [&](std::size_t c) {
    PTAR_TRACE_SPAN("advance_idle");
    const std::size_t end = idle.size() * (c + 1) / chunks;
    for (std::size_t i = idle.size() * c / chunks; i < end; ++i) {
      const VehicleId v = idle[i];
      const CellId from = grid_->CellOfVertex(fleet_[v].location());
      AdvanceVehicle(v, ticks);
      if (grid_->CellOfVertex(fleet_[v].location()) != from) {
        moved[c].push_back(v);
      }
    }
  };
  std::vector<std::future<void>> pending;
  for (std::size_t c = 0; c < chunks; ++c) {
    if (pool == nullptr) {
      walk_chunk(c);
    } else {
      pending.push_back(pool->Submit([&walk_chunk, c] { walk_chunk(c); }));
    }
  }
  // Meanwhile busy vehicles, which serve stops, replan and write the
  // registry, advance here.
  {
    PTAR_TRACE_SPAN("advance_busy");
    for (const VehicleId v : busy) AdvanceVehicle(v, ticks);
  }
  for (std::future<void>& f : pending) f.get();

  // Empty vehicles' crossings wrote no registry cell: move each one whose
  // cell may have changed, in id order, whatever the thread count. A busy
  // vehicle that emptied registered where its last rider left.
  std::vector<VehicleId> relocate;
  for (const std::vector<VehicleId>& chunk : moved) {
    relocate.insert(relocate.end(), chunk.begin(), chunk.end());
  }
  for (const VehicleId v : busy) {
    if (fleet_[v].IsEmpty()) relocate.push_back(v);
  }
  std::sort(relocate.begin(), relocate.end());
  for (const VehicleId v : relocate) {
    registry_.MoveEmptyVehicle(v, fleet_[v].location());
  }
}

void Engine::RefreshStaleTrees() {
  const KineticTree::DistFn dist = MaintenanceDistFn();
  for (VehicleId v = 0; v < fleet_.size(); ++v) {
    if (fleet_[v].stale()) {
      fleet_[v].Refresh(dist);
      SyncAfterTreeChange(v);
    }
  }
}

const Option* Engine::ChooseOption(std::span<const Option> options) {
  if (options.empty()) return nullptr;
  switch (options_.policy) {
    case ChoicePolicy::kMinPrice: {
      const Option* best = &options[0];
      for (const Option& o : options) {
        if (o.price < best->price ||
            (o.price == best->price && o.pickup_dist < best->pickup_dist)) {
          best = &o;
        }
      }
      return best;
    }
    case ChoicePolicy::kMinTime: {
      const Option* best = &options[0];
      for (const Option& o : options) {
        if (o.pickup_dist < best->pickup_dist ||
            (o.pickup_dist == best->pickup_dist && o.price < best->price)) {
          best = &o;
        }
      }
      return best;
    }
    case ChoicePolicy::kBalanced: {
      double max_pickup = 0.0;
      double max_price = 0.0;
      for (const Option& o : options) {
        max_pickup = std::max(max_pickup, o.pickup_dist);
        max_price = std::max(max_price, o.price);
      }
      const Option* best = &options[0];
      double best_score = std::numeric_limits<double>::infinity();
      for (const Option& o : options) {
        const double score =
            (max_pickup > 0 ? o.pickup_dist / max_pickup : 0.0) +
            (max_price > 0 ? o.price / max_price : 0.0);
        if (score < best_score) {
          best_score = score;
          best = &o;
        }
      }
      return best;
    }
    case ChoicePolicy::kRandom:
      return &options[rng_.UniformIndex(options.size())];
  }
  return nullptr;
}

void Engine::CommitChoice(const Request& request, const Option& option,
                          const RequestLegs& legs) {
  const VehicleId v = option.vehicle;
  PTAR_CHECK(v < fleet_.size());
  KineticTree& tree = fleet_[v];
  const bool was_empty = tree.IsEmpty();
  // Every leg the commit enumerates has s or d as an endpoint, and the
  // match's legs hold both rows at the chosen vehicle's location and
  // stops, so the commit reads the bits the option was priced from with no
  // search.
  maintenance_oracle_.BeginRequest(request.start, request.destination, legs);
  const Distance direct =
      maintenance_oracle_.Dist(request.start, request.destination);
  {
    PTAR_TRACE_SPAN("commit_enumerate");
    PTAR_CHECK_OK(
        tree.Commit(request, direct, option.pickup_dist, MaintenanceDistFn()));
  }
  if (was_empty) registry_.RemoveEmptyVehicle(v);
  PTAR_TRACE_SPAN("commit_register");
  SyncAfterTreeChange(v);
}

}  // namespace ptar
