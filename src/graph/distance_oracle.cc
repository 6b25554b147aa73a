#include "graph/distance_oracle.h"

#include <algorithm>

#include "common/logging.h"
#include "graph/generators.h"
#include "obs/trace.h"

namespace ptar {

const char* DistanceBackendName(DistanceBackend backend) {
  switch (backend) {
    case DistanceBackend::kDijkstra:
      return "dijkstra";
    case DistanceBackend::kCH:
      return "ch";
  }
  return "unknown";
}

StatusOr<DistanceBackend> ParseDistanceBackend(const std::string& name) {
  if (name == "dijkstra") return DistanceBackend::kDijkstra;
  if (name == "ch") return DistanceBackend::kCH;
  return Status::InvalidArgument("unknown distance backend '" + name +
                                 "' (expected dijkstra or ch)");
}

DistanceOracle::DistanceOracle(const RoadNetwork* graph, const CHGraph* ch)
    : graph_(graph), ch_(ch), engine_(graph) {
  if (ch_ != nullptr) {
    PTAR_CHECK(&ch_->graph() == graph);
    ch_query_ = std::make_unique<CHQuery>(ch_);
  }
  component_ = ConnectedComponents(*graph).label;
  cache_.reserve(kDefaultCacheReserve);
}

void DistanceOracle::BeginRequest(VertexId s, VertexId d,
                                  const RequestLegs& legs) {
  PTAR_CHECK(legs.at.empty() || (legs.s == s && legs.d == d))
      << "legs exported for another request";
  cache_.clear();
  rows_[0].anchor = s;
  rows_[1].anchor = d;
  for (std::size_t r = 0; r < 2; ++r) {
    Row& row = rows_[r];
    row.filled = false;
    row.legs.clear();
    for (std::size_t i = 0; i < legs.dist[r].size(); ++i) {
      row.legs.push_back({legs.at[i], legs.dist[r][i], 0});
    }
  }
}

RequestLegs DistanceOracle::ExportLegs(std::vector<VertexId> at) const {
  RequestLegs legs;
  legs.s = rows_[0].anchor;
  legs.d = rows_[1].anchor;
  if (fault_hook_ || (!rows_[0].filled && !rows_[1].filled)) return legs;
  std::sort(at.begin(), at.end());
  at.erase(std::unique(at.begin(), at.end()), at.end());
  for (std::size_t r = 0; r < 2; ++r) {
    if (!rows_[r].filled) continue;
    legs.dist[r].reserve(at.size());
    for (const VertexId v : at) legs.dist[r].push_back(rows_[r].dist[v]);
  }
  legs.at = std::move(at);
  return legs;
}

DistanceOracle::Row* DistanceOracle::RowFor(VertexId a, VertexId b,
                                            VertexId* other) {
  for (Row& row : rows_) {
    if (row.anchor == a) {
      *other = b;
      return &row;
    }
    if (row.anchor == b) {
      *other = a;
      return &row;
    }
  }
  return nullptr;
}

Distance DistanceOracle::ReadRow(Row& row, VertexId v) {
  Distance* d = nullptr;
  char* read = nullptr;
  const auto leg = std::lower_bound(
      row.legs.begin(), row.legs.end(), v,
      [](const Row::Leg& l, VertexId x) { return l.v < x; });
  if (leg != row.legs.end() && leg->v == v) {
    d = &leg->dist;
    read = &leg->read;
  } else {
    if (!row.filled) FillRow(row);
    d = &row.dist[v];
    read = &row.read[v];
  }
  if (!*read) {
    *read = 1;
    ++compdists_;
    ++batch_stats_.warm_hits;
    if (*d != kInfDistance && fault_hook_ && fault_hook_(row.anchor, v)) {
      ++faults_;
      *d = kInfDistance;
    }
  }
  return *d;
}

void DistanceOracle::FillRow(Row& row) {
  obs::TraceSpan span("oracle_row");
  span.AddArg("anchor", row.anchor);
  const std::size_t n = graph_->num_vertices();
  row.dist.resize(n);
  row.read.assign(n, 0);
  std::size_t settled = 0;
  if (ch_query_ != nullptr) {
    ch_query_->OneToAll(row.anchor, row.dist);
    settled = ch_query_->last_settled_count();
  } else {
    engine_.SingleSource(row.anchor);
    for (VertexId v = 0; v < n; ++v) row.dist[v] = engine_.Dist(v);
    settled = engine_.last_settled_count();
  }
  span.AddArg("settled", static_cast<std::int64_t>(settled));
  ++batch_stats_.sweeps;
  row.filled = true;
}

Distance DistanceOracle::ComputePointToPoint(VertexId a, VertexId b) {
  if (fault_hook_ && fault_hook_(a, b)) {
    ++faults_;
    return kInfDistance;
  }
  if (ch_query_ != nullptr) return ch_query_->PointToPoint(a, b);
  return engine_.PointToPoint(a, b);
}

void DistanceOracle::ApplyFaultHookToSweep(VertexId source) {
  if (!fault_hook_) return;
  for (std::size_t i = 0; i < sweep_targets_.size(); ++i) {
    if (fault_hook_(source, sweep_targets_[i])) {
      sweep_dists_[i] = kInfDistance;
      ++faults_;
    }
  }
}

void DistanceOracle::ComputeSweep(VertexId source) {
  sweep_dists_.assign(sweep_targets_.size(), kInfDistance);
  if (ch_query_ != nullptr) {
    ch_query_->OneToMany(source, sweep_targets_,
                         std::span<Distance>(sweep_dists_));
    ApplyFaultHookToSweep(source);
    return;
  }
  engine_.SingleSourceToTargets(source, sweep_targets_);
  for (std::size_t i = 0; i < sweep_targets_.size(); ++i) {
    sweep_dists_[i] = engine_.Dist(sweep_targets_[i]);
  }
  ApplyFaultHookToSweep(source);
}

Distance DistanceOracle::Dist(VertexId a, VertexId b) {
  if (a == b) return 0.0;
  VertexId other = kInvalidVertex;
  if (Row* row = RowFor(a, b, &other)) return ReadRow(*row, other);
  const std::uint64_t key = Key(a, b);
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  if (!SameComponent(a, b)) {
    // Unreachable: counted and cached like any computation, no search.
    ++compdists_;
    cache_.emplace(key, kInfDistance);
    return kInfDistance;
  }
  // Only the real search gets a span: row reads and cache hits are
  // nanosecond paths and are accounted by BatchStats counters instead.
  PTAR_TRACE_SPAN("oracle_p2p");
  const Distance d = ComputePointToPoint(a, b);
  ++compdists_;
  cache_.emplace(key, d);
  return d;
}

void DistanceOracle::BatchDist(VertexId source,
                               std::span<const VertexId> targets,
                               std::vector<Distance>* out) {
  ++batch_stats_.batch_calls;
  batch_stats_.pairs_requested += targets.size();
  out->clear();
  out->resize(targets.size(), kInfDistance);

  // Pass 1: serve what the rows or the cache already have and collect the
  // distinct pairs that genuinely need a search.
  sweep_targets_.clear();
  std::size_t pending = 0;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const VertexId t = targets[i];
    if (t == source) {
      (*out)[i] = 0.0;
      continue;
    }
    VertexId other = kInvalidVertex;
    if (Row* row = RowFor(source, t, &other)) {
      (*out)[i] = ReadRow(*row, other);
      continue;
    }
    const std::uint64_t key = Key(source, t);
    if (auto it = cache_.find(key); it != cache_.end()) {
      (*out)[i] = it->second;
      ++batch_stats_.pairs_from_cache;
      continue;
    }
    // Mark as pending so a duplicate later in `targets` is not swept (or
    // counted) twice; resolved in pass 2. For a different-component target
    // the pending marker kInfDistance *is* the answer, so it never joins
    // the sweep.
    if (cache_.emplace(key, kInfDistance).second) {
      ++pending;
      if (SameComponent(source, t)) sweep_targets_.push_back(t);
    }
  }

  if (pending > 0) {
    // Every distinct pending pair counts as one computation whether it was
    // resolved by the sweep or by the component labels — identical to the
    // pre-label accounting, where unreachable targets rode the sweep.
    ++batch_stats_.sweeps;
    batch_stats_.pairs_swept += pending;
    compdists_ += pending;
    if (!sweep_targets_.empty()) {
      // On Dijkstra one sweep settles every pending target with values
      // bit-identical to per-target PointToPoint(source, t) runs: the heap
      // evolution up to each settlement is independent of the stopping
      // rule.
      obs::TraceSpan span("oracle_sweep");
      span.AddArg("targets",
                  static_cast<std::int64_t>(sweep_targets_.size()));
      ComputeSweep(source);
      for (std::size_t i = 0; i < sweep_targets_.size(); ++i) {
        cache_[Key(source, sweep_targets_[i])] = sweep_dists_[i];
      }
    }
  }

  // Pass 2: fill the slots that were pending (including duplicates).
  VertexId other = kInvalidVertex;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const VertexId t = targets[i];
    if (t == source || (*out)[i] != kInfDistance ||
        RowFor(source, t, &other) != nullptr) {
      continue;
    }
    const auto it = cache_.find(Key(source, t));
    PTAR_DCHECK(it != cache_.end());
    (*out)[i] = it->second;
  }
}

std::vector<VertexId> DistanceOracle::Path(VertexId a, VertexId b) {
  if (a == b) return {a};
  if (!SameComponent(a, b)) {
    ++compdists_;
    cache_[Key(a, b)] = kInfDistance;
    return {};
  }
  PTAR_TRACE_SPAN("oracle_path");
  ++compdists_;
  if (fault_hook_ && fault_hook_(a, b)) {
    ++faults_;
    cache_[Key(a, b)] = kInfDistance;
    return {};
  }
  if (ch_query_ != nullptr) {
    Distance d = kInfDistance;
    std::vector<VertexId> path = ch_query_->Path(a, b, &d);
    cache_[Key(a, b)] = d;
    return path;
  }
  const Distance d = engine_.PointToPoint(a, b);
  cache_[Key(a, b)] = d;
  return engine_.PathTo(b);
}

}  // namespace ptar
