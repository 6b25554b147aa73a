#include "graph/dijkstra.h"

#include <algorithm>

namespace ptar {

DijkstraEngine::DijkstraEngine(const RoadNetwork* graph) : graph_(graph) {
  PTAR_CHECK(graph != nullptr);
  const std::size_t n = graph->num_vertices();
  dist_.assign(n, kInfDistance);
  parent_.assign(n, kInvalidVertex);
  label_.assign(n, 0);
  settled_.assign(n, 0);
  is_target_.assign(n, 0);
  stamp_.assign(n, 0);
  target_stamp_.assign(n, 0);
}

void DijkstraEngine::BeginRun() {
  ++run_stamp_;
  if (run_stamp_ == 0) {
    // Stamp wrapped around: hard-reset so stale entries cannot alias.
    std::fill(stamp_.begin(), stamp_.end(), 0);
    std::fill(target_stamp_.begin(), target_stamp_.end(), 0);
    run_stamp_ = 1;
  }
  heap_.clear();
  targets_remaining_ = 0;
  last_settled_count_ = 0;
}

void DijkstraEngine::Seed(VertexId v, Distance dist, std::uint32_t label) {
  PTAR_DCHECK(graph_->IsValidVertex(v));
  if (stamp_[v] == run_stamp_ && dist_[v] <= dist) return;
  stamp_[v] = run_stamp_;
  dist_[v] = dist;
  parent_[v] = kInvalidVertex;
  label_[v] = label;
  settled_[v] = 0;
  heap_.push_back(QueueEntry{dist, v});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
}

void DijkstraEngine::Run(VertexId stop_vertex) {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const QueueEntry top = heap_.back();
    heap_.pop_back();
    const VertexId u = top.vertex;
    if (settled_[u] && stamp_[u] == run_stamp_) continue;  // stale entry
    if (top.dist > dist_[u]) continue;                     // stale entry
    settled_[u] = 1;
    ++last_settled_count_;
    if (target_stamp_[u] == run_stamp_ && is_target_[u]) {
      is_target_[u] = 0;
      if (--targets_remaining_ == 0 && stop_vertex == kInvalidVertex) return;
    }
    if (u == stop_vertex) return;
    for (const Arc& arc : graph_->OutArcs(u)) {
      const VertexId v = arc.head;
      const Distance nd = top.dist + arc.weight;
      if (stamp_[v] != run_stamp_ || nd < dist_[v]) {
        if (stamp_[v] != run_stamp_) {
          stamp_[v] = run_stamp_;
          settled_[v] = 0;
        }
        dist_[v] = nd;
        parent_[v] = u;
        label_[v] = label_[u];
        heap_.push_back(QueueEntry{nd, v});
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
      }
    }
  }
}

Distance DijkstraEngine::PointToPoint(VertexId s, VertexId t) {
  PTAR_DCHECK(graph_->IsValidVertex(s) && graph_->IsValidVertex(t));
  if (s == t) {
    BeginRun();
    Seed(s, 0.0, 0);
    settled_[s] = 1;
    last_settled_count_ = 1;
    return 0.0;
  }
  BeginRun();
  Seed(s, 0.0, 0);
  Run(t);
  return Dist(t);
}

void DijkstraEngine::SingleSource(VertexId s) {
  BeginRun();
  Seed(s, 0.0, 0);
  Run(kInvalidVertex);
}

void DijkstraEngine::SingleSourceToTargets(VertexId s,
                                           std::span<const VertexId> targets) {
  BeginRun();
  for (VertexId t : targets) {
    PTAR_DCHECK(graph_->IsValidVertex(t));
    if (target_stamp_[t] != run_stamp_ || !is_target_[t]) {
      target_stamp_[t] = run_stamp_;
      is_target_[t] = 1;
      ++targets_remaining_;
    }
  }
  Seed(s, 0.0, 0);
  if (targets_remaining_ > 0) {
    Run(kInvalidVertex);
  }
}

void DijkstraEngine::MultiSource(std::span<const DijkstraSource> sources) {
  BeginRun();
  for (const DijkstraSource& src : sources) {
    Seed(src.vertex, src.offset, src.label);
  }
  Run(kInvalidVertex);
}

std::vector<VertexId> DijkstraEngine::PathTo(VertexId t) const {
  std::vector<VertexId> path;
  if (stamp_[t] != run_stamp_ || dist_[t] == kInfDistance) return path;
  for (VertexId v = t; v != kInvalidVertex; v = Parent(v)) {
    path.push_back(v);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace ptar
