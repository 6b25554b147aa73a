#include "kinetic/branch_store.h"

#include <algorithm>

namespace ptar {

void BranchStore::Clear() {
  type_.clear();
  request_.clear();
  location_.clear();
  leg_.clear();
  parent_.clear();
  first_child_.clear();
  next_sibling_.clear();
  free_.clear();
  leaves_.clear();
  root_child_head_ = kNilNode;
  live_nodes_ = 0;
}

BranchStore::NodeId BranchStore::FindChild(NodeId parent, const Stop& stop,
                                           Distance leg) const {
  for (NodeId c = ChildHead(parent); c != kNilNode; c = next_sibling_[Idx(c)]) {
    const std::size_t i = Idx(c);
    if (request_[i] == stop.request &&
        static_cast<StopType>(type_[i]) == stop.type &&
        location_[i] == stop.location && leg_[i] == leg) {
      return c;
    }
  }
  return kNilNode;
}

BranchStore::NodeId BranchStore::AddBranch(const Schedule& schedule) {
  PTAR_DCHECK(schedule.stops.size() == schedule.legs.size());
  NodeId cur = kRootNode;
  std::size_t m = 0;
  // Walk the shared prefix.
  for (; m < schedule.stops.size(); ++m) {
    const NodeId child = FindChild(cur, schedule.stops[m], schedule.legs[m]);
    if (child == kNilNode) break;
    cur = child;
  }
  // Append the unshared suffix.
  for (; m < schedule.stops.size(); ++m) {
    cur = NewNode(cur, schedule.stops[m], schedule.legs[m]);
  }
  PTAR_DCHECK(cur != kRootNode) << "empty branches are implicit";
  leaves_.push_back(cur);
  return cur;
}

BranchStore::NodeId BranchStore::NewNode(NodeId parent, const Stop& stop,
                                         Distance leg) {
  NodeId n;
  if (!free_.empty()) {
    n = free_.back();
    free_.pop_back();
  } else {
    n = static_cast<NodeId>(type_.size());
    type_.push_back(0);
    request_.push_back(kInvalidRequest);
    location_.push_back(kInvalidVertex);
    leg_.push_back(0.0);
    parent_.push_back(kNilNode);
    first_child_.push_back(kNilNode);
    next_sibling_.push_back(kNilNode);
  }
  const std::size_t i = Idx(n);
  type_[i] = static_cast<std::uint8_t>(stop.type);
  request_[i] = stop.request;
  location_[i] = stop.location;
  leg_[i] = leg;
  parent_[i] = parent;
  first_child_[i] = kNilNode;
  // Prepend to the parent's child list (O(1); child order is immaterial —
  // branch order lives in leaves_).
  next_sibling_[i] = ChildHead(parent);
  SetChildHead(parent, n);
  ++live_nodes_;
  return n;
}

BranchStore::NodeId BranchStore::FirstOnPath(NodeId leaf) const {
  NodeId n = leaf;
  while (parent_[Idx(n)] != kRootNode) n = parent_[Idx(n)];
  return n;
}

std::size_t BranchStore::Depth(NodeId leaf) const {
  std::size_t depth = 0;
  for (NodeId n = leaf; n != kRootNode; n = parent_[Idx(n)]) ++depth;
  return depth;
}

void BranchStore::Materialize(NodeId leaf, Schedule* out) const {
  const std::size_t depth = Depth(leaf);
  out->stops.resize(depth);
  out->legs.resize(depth);
  std::size_t m = depth;
  for (NodeId n = leaf; n != kRootNode; n = parent_[Idx(n)]) {
    --m;
    const std::size_t i = Idx(n);
    out->stops[m] =
        Stop{static_cast<StopType>(type_[i]), request_[i], location_[i]};
    out->legs[m] = leg_[i];
  }
  PTAR_DCHECK(m == 0);
}

void BranchStore::MaterializePath(NodeId leaf,
                                  std::vector<NodeId>* out) const {
  const std::size_t depth = Depth(leaf);
  out->resize(depth);
  std::size_t m = depth;
  for (NodeId n = leaf; n != kRootNode; n = parent_[Idx(n)]) {
    (*out)[--m] = n;
  }
}

Distance BranchStore::PathTotal(NodeId leaf) const {
  // Two passes to keep the summation in root-to-leaf order without scratch:
  // find the path head depth, then accumulate by re-walking from each
  // depth... a reverse walk would change the float association, so instead
  // collect into a fixed-size window on the stack for typical depths and
  // fall back to a heap walk for deep paths.
  constexpr std::size_t kInlineDepth = 64;
  Distance window[kInlineDepth];
  std::size_t depth = 0;
  bool inline_ok = true;
  for (NodeId n = leaf; n != kRootNode; n = parent_[Idx(n)]) {
    if (depth < kInlineDepth) {
      window[depth] = leg_[Idx(n)];
    } else {
      inline_ok = false;
    }
    ++depth;
  }
  if (inline_ok) {
    Distance total = 0.0;
    for (std::size_t m = depth; m > 0; --m) total += window[m - 1];
    return total;
  }
  std::vector<Distance> legs(depth);
  std::size_t m = depth;
  for (NodeId n = leaf; n != kRootNode; n = parent_[Idx(n)]) {
    legs[--m] = leg_[Idx(n)];
  }
  Distance total = 0.0;
  for (const Distance leg : legs) total += leg;
  return total;
}

void BranchStore::UnlinkFromParent(NodeId n) {
  const NodeId p = parent_[Idx(n)];
  NodeId c = ChildHead(p);
  if (c == n) {
    SetChildHead(p, next_sibling_[Idx(n)]);
    return;
  }
  while (c != kNilNode) {
    const NodeId next = next_sibling_[Idx(c)];
    if (next == n) {
      next_sibling_[Idx(c)] = next_sibling_[Idx(n)];
      return;
    }
    c = next;
  }
  PTAR_CHECK(false) << "node missing from its parent's child list";
}

void BranchStore::FreeNode(NodeId n) {
  const std::size_t i = Idx(n);
  parent_[i] = kNilNode;
  first_child_[i] = kNilNode;
  next_sibling_[i] = kNilNode;
  request_[i] = kInvalidRequest;
  free_.push_back(n);
  PTAR_DCHECK(live_nodes_ > 0);
  --live_nodes_;
}

void BranchStore::FreeSubtree(NodeId n) {
  scratch_stack_.clear();
  scratch_stack_.push_back(n);
  while (!scratch_stack_.empty()) {
    const NodeId cur = scratch_stack_.back();
    scratch_stack_.pop_back();
    for (NodeId c = first_child_[Idx(cur)]; c != kNilNode;
         c = next_sibling_[Idx(c)]) {
      scratch_stack_.push_back(c);
    }
    FreeNode(cur);
  }
}

void BranchStore::RemoveLeavesNotUnder(NodeId first) {
  std::size_t kept = 0;
  for (std::size_t b = 0; b < leaves_.size(); ++b) {
    if (FirstOnPath(leaves_[b]) == first) leaves_[kept++] = leaves_[b];
  }
  leaves_.resize(kept);
}

void BranchStore::AdvanceRoot(NodeId first) {
  PTAR_DCHECK(parent_[Idx(first)] == kRootNode);
  // Free every sibling subtree of the served node.
  NodeId c = root_child_head_;
  while (c != kNilNode) {
    const NodeId next = next_sibling_[Idx(c)];
    if (c != first) FreeSubtree(c);
    c = next;
  }
  // Promote the served node's children and retire the node itself.
  const NodeId promoted = first_child_[Idx(first)];
  for (NodeId p = promoted; p != kNilNode; p = next_sibling_[Idx(p)]) {
    parent_[Idx(p)] = kRootNode;
  }
  root_child_head_ = promoted;
  first_child_[Idx(first)] = kNilNode;
  FreeNode(first);
  if (promoted == kNilNode) {
    PTAR_DCHECK(live_nodes_ == 0);
    leaves_.clear();
  }
}

void BranchStore::RemoveLeaf(std::size_t branch_index) {
  PTAR_DCHECK(branch_index < leaves_.size());
  NodeId n = leaves_[branch_index];
  leaves_.erase(leaves_.begin() + static_cast<std::ptrdiff_t>(branch_index));
  // Free the unshared suffix: walk up while the node has no children (no
  // other branch runs through it; branches share depth, so no leaf is an
  // inner node of another branch).
  while (n != kRootNode && first_child_[Idx(n)] == kNilNode) {
    const NodeId p = parent_[Idx(n)];
    UnlinkFromParent(n);
    FreeNode(n);
    n = p;
  }
}

std::size_t BranchStore::HeapBytes() const {
  return type_.capacity() * sizeof(std::uint8_t) +
         request_.capacity() * sizeof(RequestId) +
         location_.capacity() * sizeof(VertexId) +
         leg_.capacity() * sizeof(Distance) +
         parent_.capacity() * sizeof(NodeId) +
         first_child_.capacity() * sizeof(NodeId) +
         next_sibling_.capacity() * sizeof(NodeId) +
         free_.capacity() * sizeof(NodeId) +
         leaves_.capacity() * sizeof(NodeId) +
         scratch_stack_.capacity() * sizeof(NodeId);
}

}  // namespace ptar
