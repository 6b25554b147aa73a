#include "graph/ch_query.h"

#include <algorithm>

#include "common/logging.h"

namespace ptar {

CHQuery::CHQuery(const CHGraph* ch) : ch_(ch) { PTAR_CHECK(ch != nullptr); }

void CHQuery::Side::Begin(std::size_t n) {
  if (dist.size() != n) {
    dist.assign(n, kInfDistance);
    parent_arc.assign(n, CHGraph::kNoChild);
    parent.assign(n, kInvalidVertex);
    stamp.assign(n, 0);
    run = 0;
  }
  ++run;
  if (run == 0) {
    std::fill(stamp.begin(), stamp.end(), 0);
    run = 1;
  }
  heap.clear();
}

bool CHQuery::SettleNext(Side& side, VertexId* settled_vertex,
                         Distance* settled_dist) {
  while (!side.heap.empty()) {
    std::pop_heap(side.heap.begin(), side.heap.end(), std::greater<>());
    const QueueEntry top = side.heap.back();
    side.heap.pop_back();
    const VertexId u = top.vertex;
    if (top.dist > side.dist[u]) continue;  // stale entry
    ++last_settled_count_;
    // Stall-on-demand: a reached higher-ranked neighbor proving a shorter
    // path to u means no shortest up-down path peaks above u through here,
    // so skip the expansion. u's label stays valid (it is a real path
    // length), so callers may still use it for meets and the sweep.
    bool stalled = false;
    for (const CHGraph::UpArc& arc : ch_->UpArcs(u)) {
      if (side.Reached(arc.head) &&
          side.dist[arc.head] + arc.weight < top.dist) {
        stalled = true;
        break;
      }
    }
    if (!stalled) {
      for (const CHGraph::UpArc& arc : ch_->UpArcs(u)) {
        const VertexId v = arc.head;
        const Distance nd = top.dist + arc.weight;
        if (!side.Reached(v) || nd < side.dist[v]) {
          side.stamp[v] = side.run;
          side.dist[v] = nd;
          side.parent[v] = u;
          side.parent_arc[v] = arc.pool;
          side.heap.push_back({nd, v});
          std::push_heap(side.heap.begin(), side.heap.end(),
                         std::greater<>());
        }
      }
    }
    *settled_vertex = u;
    *settled_dist = top.dist;
    return true;
  }
  return false;
}

VertexId CHQuery::RunBidirectional(VertexId s, VertexId t, Distance* best) {
  const std::size_t n = ch_->num_vertices();
  fwd_.Begin(n);
  bwd_.Begin(n);
  fwd_.stamp[s] = fwd_.run;
  fwd_.dist[s] = 0.0;
  fwd_.parent[s] = kInvalidVertex;
  fwd_.parent_arc[s] = CHGraph::kNoChild;
  fwd_.heap.push_back({0.0, s});
  bwd_.stamp[t] = bwd_.run;
  bwd_.dist[t] = 0.0;
  bwd_.parent[t] = kInvalidVertex;
  bwd_.parent_arc[t] = CHGraph::kNoChild;
  bwd_.heap.push_back({0.0, t});

  *best = kInfDistance;
  VertexId meet = kInvalidVertex;
  while (!fwd_.heap.empty() || !bwd_.heap.empty()) {
    const Distance fmin =
        fwd_.heap.empty() ? kInfDistance : fwd_.heap.front().dist;
    const Distance bmin =
        bwd_.heap.empty() ? kInfDistance : bwd_.heap.front().dist;
    if (std::min(fmin, bmin) >= *best) break;
    Side& side = fmin <= bmin ? fwd_ : bwd_;
    Side& other = fmin <= bmin ? bwd_ : fwd_;
    VertexId v = kInvalidVertex;
    Distance d = 0.0;
    if (!SettleNext(side, &v, &d)) continue;
    if (other.Reached(v)) {
      const Distance candidate = d + other.dist[v];
      if (candidate < *best) {
        *best = candidate;
        meet = v;
      }
    }
  }
  return meet;
}

Distance CHQuery::PointToPoint(VertexId s, VertexId t) {
  last_settled_count_ = 0;
  if (s == t) return 0.0;
  Distance best = kInfDistance;
  RunBidirectional(s, t, &best);
  return best;
}

std::vector<VertexId> CHQuery::Path(VertexId s, VertexId t, Distance* dist) {
  last_settled_count_ = 0;
  if (s == t) {
    if (dist != nullptr) *dist = 0.0;
    return {s};
  }
  Distance best = kInfDistance;
  const VertexId meet = RunBidirectional(s, t, &best);
  if (dist != nullptr) *dist = best;
  if (meet == kInvalidVertex) return {};

  // Hierarchy arcs s..meet, recovered backwards from the forward tree.
  std::vector<std::uint32_t> up_chain;
  for (VertexId v = meet; v != s; v = fwd_.parent[v]) {
    up_chain.push_back(fwd_.parent_arc[v]);
  }
  std::reverse(up_chain.begin(), up_chain.end());

  std::vector<VertexId> path{s};
  for (const std::uint32_t arc : up_chain) {
    ch_->UnpackArc(arc, path.back(), &path);
  }
  PTAR_DCHECK(path.back() == meet);
  // meet..t follows the backward tree toward its seed t.
  for (VertexId v = meet; v != t; v = bwd_.parent[v]) {
    ch_->UnpackArc(bwd_.parent_arc[v], path.back(), &path);
  }
  PTAR_DCHECK(path.back() == t);
  return path;
}

void CHQuery::RunUpwardFrom(VertexId source) {
  fwd_.Begin(ch_->num_vertices());
  fwd_.stamp[source] = fwd_.run;
  fwd_.dist[source] = 0.0;
  fwd_.heap.push_back({0.0, source});
  VertexId v = kInvalidVertex;
  Distance d = 0.0;
  while (SettleNext(fwd_, &v, &d)) {
  }
}

void CHQuery::OneToMany(VertexId source, std::span<const VertexId> targets,
                        std::span<Distance> out) {
  PTAR_CHECK(out.size() == targets.size());
  DownwardSweep(source);
  for (std::size_t j = 0; j < targets.size(); ++j) {
    out[j] = sweep_dist_[ch_->SweepPos(targets[j])];
  }
}

void CHQuery::OneToAll(VertexId source, std::span<Distance> out) {
  PTAR_CHECK(out.size() == ch_->num_vertices());
  DownwardSweep(source);
  const std::span<const VertexId> by_rank = ch_->VerticesByRankDescending();
  for (std::size_t pos = 0; pos < by_rank.size(); ++pos) {
    out[by_rank[pos]] = sweep_dist_[pos];
  }
}

void CHQuery::DownwardSweep(VertexId source) {
  last_settled_count_ = 0;
  RunUpwardFrom(source);
  // Downward sweep: visiting vertices in descending rank order, every
  // upward neighbor is already final, so one pass computes
  // min(up-label, min over up-arcs (final[head] + weight)) for all n
  // vertices without a heap. The sweep CSR indexes arcs and distances by
  // rank position, so offsets, arcs, and the writes all stream forward;
  // the only scattered reads are the (position-local) head slots.
  const std::size_t n = ch_->num_vertices();
  if (sweep_dist_.size() != n) sweep_dist_.resize(n);
  const std::span<const VertexId> by_rank = ch_->VerticesByRankDescending();
  for (std::uint32_t pos = 0; pos < n; ++pos) {
    const VertexId v = by_rank[pos];
    Distance best = fwd_.Reached(v) ? fwd_.dist[v] : kInfDistance;
    for (const CHGraph::SweepArc& arc : ch_->SweepArcs(pos)) {
      const Distance candidate = sweep_dist_[arc.head_pos] + arc.weight;
      if (candidate < best) best = candidate;
    }
    sweep_dist_[pos] = best;
  }
}

}  // namespace ptar
