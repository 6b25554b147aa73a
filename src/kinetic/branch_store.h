// Arena-backed structure-of-arrays branch store for the kinetic tree.
//
// The paper's kinetic tree [17] is a node-sharing prefix tree: branches that
// agree on a stop prefix share those nodes. This store is that tree laid out
// as flat pooled arrays (DESIGN.md §14): every per-stop field — stop
// identity, leg distance, parent/child/sibling links — lives in its own
// vector indexed by NodeId, so a tree with B branches of depth k holds the
// shared prefix nodes exactly once instead of B full `std::vector<Stop>`
// copies, and the whole branch set costs a handful of heap blocks instead
// of 2B+1. The paper's per-node annotations are not stored here: the tree
// derives them per branch from its assigned requests (kinetic_tree.h).
//
// The root (the vehicle's current location) is implicit: depth-1 nodes form
// a sibling list headed by `root_child_head_` and carry `kRootNode` as their
// parent. A branch is the root-to-leaf path of one entry of `leaves_`
// (branch order = insertion order, mirroring the old flat vector). An empty
// store represents the idle vehicle and owns zero heap.
//
// Root advancement (`AdvanceRoot`) is copy-free: serving the first stop of
// the driven branch frees the other root subtrees into the slot free list
// and promotes the served node's children to root children — no branch is
// re-materialized. First-leg updates (`set_leg` on a root child) are shared:
// one write refreshes every branch driving through that stop.
//
// Not thread-safe for mutation; const traversals are safe concurrently
// (matcher workers enumerate insertions against a frozen fleet).

#ifndef PTAR_KINETIC_BRANCH_STORE_H_
#define PTAR_KINETIC_BRANCH_STORE_H_

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "graph/types.h"
#include "kinetic/schedule.h"

namespace ptar {

class BranchStore {
 public:
  using NodeId = std::int32_t;
  static constexpr NodeId kNilNode = -1;
  /// Parent sentinel of depth-1 nodes (the implicit root).
  static constexpr NodeId kRootNode = -2;

  // --- Shape. ---

  /// True iff the store holds no branch (the idle vehicle).
  bool empty() const { return leaves_.empty(); }
  std::size_t num_leaves() const { return leaves_.size(); }
  NodeId leaf(std::size_t branch) const {
    PTAR_DCHECK(branch < leaves_.size());
    return leaves_[branch];
  }
  NodeId root_child_head() const { return root_child_head_; }

  // --- Per-node fields (SoA). ---

  StopType type(NodeId n) const { return static_cast<StopType>(type_[Idx(n)]); }
  RequestId request(NodeId n) const { return request_[Idx(n)]; }
  VertexId location(NodeId n) const { return location_[Idx(n)]; }
  Distance leg(NodeId n) const { return leg_[Idx(n)]; }
  void set_leg(NodeId n, Distance d) { leg_[Idx(n)] = d; }
  NodeId next_sibling(NodeId n) const { return next_sibling_[Idx(n)]; }
  Stop StopOf(NodeId n) const {
    return Stop{type(n), request(n), location(n)};
  }

  // --- Building. ---

  /// Drops every node and leaf; keeps array capacity for reuse.
  void Clear();

  /// Appends `schedule` as a new branch, sharing the longest existing
  /// prefix whose stops and leg values match exactly (bit-equal legs, so a
  /// materialized branch reproduces its input). Returns the new leaf. The
  /// schedule must be distinct from every existing branch (every producer
  /// keeps its branches distinct).
  NodeId AddBranch(const Schedule& schedule);

  // --- Traversal. ---

  /// Depth-1 ancestor of `leaf` (the branch's first stop).
  NodeId FirstOnPath(NodeId leaf) const;
  std::size_t Depth(NodeId leaf) const;
  /// Fills `out` with the branch's stops and legs in root-to-leaf order
  /// (reuses out's capacity; no allocation once warmed up).
  void Materialize(NodeId leaf, Schedule* out) const;
  /// Fills `out` with the path's NodeIds in root-to-leaf order.
  void MaterializePath(NodeId leaf, std::vector<NodeId>* out) const;
  /// Total branch distance, summed in root-to-leaf order (the same float
  /// association as Schedule::total(), so totals are bit-stable across the
  /// flat-vector and arena representations).
  Distance PathTotal(NodeId leaf) const;

  // --- Surgery. ---

  /// Serves root child `first`: frees every other root subtree, promotes
  /// first's children to root children, and frees `first` itself. Callers
  /// must first drop (RemoveLeavesNotUnder) the leaves of the doomed
  /// subtrees. If `first` was a leaf the store ends empty.
  void AdvanceRoot(NodeId first);
  /// Removes every leaf whose branch does not pass through root child
  /// `first`, preserving branch order. Node freeing is left to AdvanceRoot.
  void RemoveLeavesNotUnder(NodeId first);
  /// Removes branch `branch_index` and frees its unshared suffix.
  void RemoveLeaf(std::size_t branch_index);

  // --- Memory accounting (KineticTree::MemoryBytes). ---

  /// Exact heap footprint of the arenas: sum over every internal vector of
  /// capacity() * element size. Matches what a malloc-counting allocator
  /// observes for a freshly copied store (vector copies allocate exactly
  /// size() elements).
  std::size_t HeapBytes() const;
  /// Nodes currently reachable (excludes free-listed slots).
  std::size_t live_nodes() const { return live_nodes_; }
  /// Node slots ever allocated (live + free-listed): the arena's high-water
  /// mark. live_nodes()/slots() is the utilization table04 reports.
  std::size_t slots() const { return type_.size(); }

 private:
  static std::size_t Idx(NodeId n) {
    PTAR_DCHECK(n >= 0);
    return static_cast<std::size_t>(n);
  }

  NodeId ChildHead(NodeId parent) const {
    return parent == kRootNode ? root_child_head_ : first_child_[Idx(parent)];
  }
  void SetChildHead(NodeId parent, NodeId head) {
    if (parent == kRootNode) {
      root_child_head_ = head;
    } else {
      first_child_[Idx(parent)] = head;
    }
  }

  /// Child of `parent` with the same stop identity and a bit-equal leg, or
  /// kNilNode. Bit-equality keeps materialization lossless; legs of a
  /// shared prefix come from the same distance computation, so sharing is
  /// the common case and a mismatch just costs an unshared node.
  NodeId FindChild(NodeId parent, const Stop& stop, Distance leg) const;
  NodeId NewNode(NodeId parent, const Stop& stop, Distance leg);
  void UnlinkFromParent(NodeId n);
  void FreeNode(NodeId n);
  /// Frees `n` and its whole subtree (iterative; reuses scratch_stack_).
  void FreeSubtree(NodeId n);

  std::vector<std::uint8_t> type_;
  std::vector<RequestId> request_;
  std::vector<VertexId> location_;
  std::vector<Distance> leg_;
  std::vector<NodeId> parent_;
  std::vector<NodeId> first_child_;
  std::vector<NodeId> next_sibling_;
  std::vector<NodeId> free_;    ///< Recycled slots (LIFO).
  std::vector<NodeId> leaves_;  ///< Branch order.
  std::vector<NodeId> scratch_stack_;  ///< FreeSubtree working set.
  NodeId root_child_head_ = kNilNode;
  std::size_t live_nodes_ = 0;
};

}  // namespace ptar

#endif  // PTAR_KINETIC_BRANCH_STORE_H_
