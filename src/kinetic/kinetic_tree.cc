#include "kinetic/kinetic_tree.h"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>

namespace ptar {

namespace {

/// Numeric slack for floating-point distance comparisons.
constexpr Distance kDistTolerance = 1e-6;

/// Deterministic branch order: shorter total first, ties by stop sequence.
bool BranchLess(const Schedule& a, const Schedule& b) {
  const Distance ta = a.total();
  const Distance tb = b.total();
  if (ta != tb) return ta < tb;
  const std::size_t n = std::min(a.stops.size(), b.stops.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Stop& x = a.stops[i];
    const Stop& y = b.stops[i];
    if (x.request != y.request) return x.request < y.request;
    if (x.type != y.type) return x.type < y.type;
    if (x.location != y.location) return x.location < y.location;
  }
  return a.stops.size() < b.stops.size();
}

}  // namespace

KineticTree::KineticTree(VehicleId vehicle, VertexId location, int capacity,
                         std::size_t max_branches)
    : vehicle_(vehicle),
      location_(location),
      capacity_(capacity),
      max_branches_(max_branches) {
  PTAR_CHECK(capacity >= 1);
  PTAR_CHECK(max_branches >= 1);
  // The idle (empty) schedule is implicit: the store stays empty, so an
  // idle vehicle owns zero heap.
}

Schedule KineticTree::BranchSchedule(std::size_t b) const {
  Schedule out;
  if (store_.empty()) {
    PTAR_DCHECK(b == 0);
    return out;  // the idle branch
  }
  PTAR_CHECK(b < store_.num_leaves());
  store_.Materialize(store_.leaf(b), &out);
  return out;
}

std::vector<Schedule> KineticTree::Schedules() const {
  std::vector<Schedule> out(num_branches());
  if (store_.empty()) return out;  // one empty schedule
  for (std::size_t b = 0; b < out.size(); ++b) {
    store_.Materialize(store_.leaf(b), &out[b]);
  }
  return out;
}

Distance KineticTree::CurrentTotal() const {
  return store_.empty() ? 0.0 : store_.PathTotal(store_.leaf(active_index_));
}

VertexId KineticTree::NextStopLocation() const {
  if (store_.empty()) return kInvalidVertex;
  return store_.location(store_.FirstOnPath(store_.leaf(active_index_)));
}

void KineticTree::RecomputeActive() {
  if (store_.empty()) {
    active_index_ = 0;
    return;
  }
  active_index_ = 0;
  Distance best = store_.PathTotal(store_.leaf(0));
  for (std::size_t i = 1; i < store_.num_leaves(); ++i) {
    const Distance t = store_.PathTotal(store_.leaf(i));
    if (t < best) {
      best = t;
      active_index_ = i;
    }
  }
}

const AssignedRequest* KineticTree::FindAssigned(RequestId id) const {
  for (const AssignedRequest& a : assigned_) {
    if (a.request.id == id) return &a;
  }
  return nullptr;
}

void KineticTree::LoadBranches(const std::vector<Schedule>& schedules) {
  store_.Clear();
  for (const Schedule& schedule : schedules) {
    if (schedule.stops.empty()) continue;  // the idle branch is implicit
    store_.AddBranch(schedule);
  }
}

bool KineticTree::IsValidSchedule(const Schedule& schedule,
                                  const AssignedRequest* extra) const {
  PTAR_DCHECK(schedule.stops.size() == schedule.legs.size());
  const std::size_t k = schedule.stops.size();
  const std::size_t num_requests = assigned_.size() + (extra != nullptr);

  // Scratch is thread-local, not a member: this runs per candidate on the
  // enumeration hot path, concurrently on the same (frozen) tree from
  // matcher workers.
  thread_local std::vector<Distance> prefix;
  thread_local std::vector<int> pickup_pos;
  thread_local std::vector<int> dropoff_pos;
  thread_local std::vector<int> stop_slot;
  prefix.resize(k);
  stop_slot.resize(k);
  pickup_pos.assign(num_requests, -1);
  dropoff_pos.assign(num_requests, -1);

  // Requests are addressed by slot: position in assigned_, extra last.
  auto slot_of = [&](RequestId id) -> int {
    for (std::size_t i = 0; i < assigned_.size(); ++i) {
      if (assigned_[i].request.id == id) return static_cast<int>(i);
    }
    if (extra != nullptr && extra->request.id == id) {
      return static_cast<int>(assigned_.size());
    }
    return -1;
  };
  auto request_at = [&](std::size_t slot) -> const AssignedRequest& {
    return slot < assigned_.size() ? assigned_[slot] : *extra;
  };

  // One pass: prefix distances, each request's stop positions, and slot of
  // every stop. Strays (stops of unknown requests) and duplicate stops
  // reject immediately.
  {
    Distance acc = 0;
    for (std::size_t i = 0; i < k; ++i) {
      acc += schedule.legs[i];
      prefix[i] = acc;
      const Stop& stop = schedule.stops[i];
      const int slot = slot_of(stop.request);
      if (slot < 0) return false;  // stray
      stop_slot[i] = slot;
      if (stop.type == StopType::kPickup) {
        if (pickup_pos[slot] != -1) return false;  // duplicate pickup
        pickup_pos[slot] = static_cast<int>(i);
      } else {
        if (dropoff_pos[slot] != -1) return false;  // duplicate dropoff
        dropoff_pos[slot] = static_cast<int>(i);
      }
    }
  }

  std::size_t expected_stops = 0;
  for (std::size_t slot = 0; slot < num_requests; ++slot) {
    const AssignedRequest& a = request_at(slot);
    const int mp = pickup_pos[slot];
    const int mq = dropoff_pos[slot];
    if (mq == -1) return false;  // dropoff missing
    if (a.picked_up) {
      // Riders on board: only a dropoff may appear.
      if (mp != -1) return false;
      // Service constraint from the actual pickup point.
      const Distance travelled = odometer_ - a.pickup_odometer;
      if (travelled + prefix[mq] >
          (1.0 + a.request.epsilon) * a.direct_dist + kDistTolerance) {
        return false;
      }
      expected_stops += 1;
    } else {
      // Point order: pickup exists and precedes the dropoff.
      if (mp == -1 || mp > mq) return false;
      // Waiting-time constraint (odometer form).
      if (odometer_ + prefix[mp] > a.deadline_odometer + kDistTolerance) {
        return false;
      }
      // Service constraint.
      if (prefix[mq] - prefix[mp] >
          (1.0 + a.request.epsilon) * a.direct_dist + kDistTolerance) {
        return false;
      }
      expected_stops += 2;
    }
  }
  if (k != expected_stops) return false;  // strays

  // Capacity along the whole schedule.
  int onboard = onboard_;
  for (std::size_t i = 0; i < k; ++i) {
    const AssignedRequest& a = request_at(stop_slot[i]);
    if (schedule.stops[i].type == StopType::kPickup) {
      onboard += a.request.riders;
      if (onboard > capacity_) return false;
    } else {
      onboard -= a.request.riders;
      if (onboard < 0) return false;
    }
  }
  return true;
}

std::vector<Distance> KineticTree::GapSlacks(const Schedule& schedule) const {
  const std::size_t k = schedule.stops.size();
  std::vector<Distance> prefix(k);
  {
    Distance acc = 0;
    for (std::size_t m = 0; m < k; ++m) {
      acc += schedule.legs[m];
      prefix[m] = acc;
    }
  }
  std::vector<Distance> slack(k + 1, kInfDistance);

  for (const AssignedRequest& a : assigned_) {
    int mp = -1;
    int mq = -1;
    for (std::size_t m = 0; m < k; ++m) {
      if (schedule.stops[m].request == a.request.id) {
        if (schedule.stops[m].type == StopType::kPickup) {
          mp = static_cast<int>(m);
        } else {
          mq = static_cast<int>(m);
        }
      }
    }
    if (mq == -1) continue;  // not in this schedule (shouldn't happen)
    if (!a.picked_up && mp != -1) {
      // Waiting slack constrains every gap up to and including the pickup.
      const Distance sw = a.deadline_odometer - odometer_ - prefix[mp];
      for (int j = 0; j <= mp; ++j) slack[j] = std::min(slack[j], sw);
      // Service slack constrains gaps strictly after the pickup, up to the
      // dropoff.
      const Distance ss = (1.0 + a.request.epsilon) * a.direct_dist -
                          (prefix[mq] - prefix[mp]);
      for (int j = mp + 1; j <= mq; ++j) slack[j] = std::min(slack[j], ss);
    } else if (a.picked_up) {
      const Distance travelled = odometer_ - a.pickup_odometer;
      const Distance ss = (1.0 + a.request.epsilon) * a.direct_dist -
                          travelled - prefix[mq];
      for (int j = 0; j <= mq; ++j) slack[j] = std::min(slack[j], ss);
    }
  }
  return slack;
}

std::vector<int> KineticTree::GapFreeSeats(const Schedule& schedule) const {
  const std::size_t k = schedule.stops.size();
  std::vector<int> free(k + 1, 0);
  int onboard = onboard_;
  free[0] = capacity_ - onboard;
  for (std::size_t m = 0; m < k; ++m) {
    const Stop& stop = schedule.stops[m];
    const AssignedRequest* a = FindAssigned(stop.request);
    const int riders = (a != nullptr) ? a->request.riders : 0;
    onboard += (stop.type == StopType::kPickup) ? riders : -riders;
    free[m + 1] = capacity_ - onboard;
  }
  return free;
}

void KineticTree::EnumerateIntoBranch(
    const Schedule& branch, const Request& request, Distance direct_dist,
    const DistFn& dist, const InsertionHooks& hooks,
    std::vector<InsertionCandidate>* out) const {
  const std::size_t k = branch.stops.size();
  const std::vector<Distance> slacks = GapSlacks(branch);
  const std::vector<int> seats = GapFreeSeats(branch);

  // prefix_point[j]: trip distance from the current location to point j
  // (point 0 = location, point m = stops[m-1]).
  std::vector<Distance> prefix_point(k + 1, 0.0);
  for (std::size_t m = 0; m < k; ++m) {
    prefix_point[m + 1] = prefix_point[m] + branch.legs[m];
  }
  auto point = [&](std::size_t j) -> VertexId {
    return j == 0 ? location_ : branch.stops[j - 1].location;
  };

  const VertexId s = request.start;
  const VertexId d = request.destination;

  // Hypothetical assignment used for exact validation of candidates. The
  // new request's waiting constraint is trivially satisfied at creation
  // (planned == actual), hence the unbounded deadline.
  AssignedRequest extra;
  extra.request = request;
  extra.direct_dist = direct_dist;
  extra.deadline_odometer = kInfDistance;

  for (std::size_t i = 0; i <= k; ++i) {
    const bool s_tail = (i == k);
    if (seats[i] < request.riders) continue;  // capacity at the s-gap

    if (hooks.prune_s) {
      SPositionContext ctx;
      ctx.ox = point(i);
      ctx.oy = s_tail ? kInvalidVertex : branch.stops[i].location;
      ctx.tail = s_tail;
      ctx.dist_tr_ox = prefix_point[i];
      ctx.leg_dist = s_tail ? 0.0 : branch.legs[i];
      ctx.detour_slack = slacks[i];
      ctx.free_seats = seats[i];
      if (hooks.prune_s(ctx)) continue;
    }

    const Distance a = dist(point(i), s);
    const Distance b = s_tail ? 0.0 : dist(s, branch.stops[i].location);
    const Distance delta_s =
        s_tail ? a : a + b - branch.legs[i];
    if (delta_s > slacks[i] + kDistTolerance) continue;  // exact feasibility
    const Distance pickup_dist = prefix_point[i] + a;

    for (std::size_t j = i; j <= k; ++j) {
      const bool d_tail = (j == k);
      // The new riders occupy every gap from i through j; stop extending
      // once a gap cannot carry them.
      if (j > i && seats[j] < request.riders) break;

      if (hooks.prune_d) {
        DPositionContext ctx;
        ctx.ox = point(j);
        ctx.oy = d_tail ? kInvalidVertex : branch.stops[j].location;
        ctx.tail = d_tail;
        ctx.dist_tr_ox = (j == i) ? pickup_dist : prefix_point[j] + delta_s;
        ctx.leg_dist = d_tail ? 0.0 : branch.legs[j];
        ctx.detour_slack = slacks[j];
        ctx.pickup_dist = pickup_dist;
        ctx.delta_s = delta_s;
        ctx.same_gap = (j == i);
        ctx.dist_ox_s = a;
        if (hooks.prune_d(ctx)) continue;
      }

      // Assemble the candidate schedule by splicing the branch's exact leg
      // values with the handful of newly computed distances, so no already-
      // known pair is recomputed.
      Schedule candidate;
      candidate.stops.reserve(k + 2);
      candidate.legs.reserve(k + 2);
      const Stop s_stop{StopType::kPickup, request.id, s};
      const Stop d_stop{StopType::kDropoff, request.id, d};

      if (j == i) {
        const Distance c1 = dist(s, d);
        const Distance c2 =
            d_tail ? 0.0 : dist(d, branch.stops[i].location);
        candidate.stops.assign(branch.stops.begin(),
                               branch.stops.begin() + i);
        candidate.legs.assign(branch.legs.begin(), branch.legs.begin() + i);
        candidate.stops.push_back(s_stop);
        candidate.legs.push_back(a);
        candidate.stops.push_back(d_stop);
        candidate.legs.push_back(c1);
        if (!d_tail) {
          candidate.stops.insert(candidate.stops.end(),
                                 branch.stops.begin() + i,
                                 branch.stops.end());
          candidate.legs.push_back(c2);
          candidate.legs.insert(candidate.legs.end(),
                                branch.legs.begin() + i + 1,
                                branch.legs.end());
        }
      } else {
        const Distance e1 = dist(branch.stops[j - 1].location, d);
        const Distance e2 =
            d_tail ? 0.0 : dist(d, branch.stops[j].location);
        candidate.stops.assign(branch.stops.begin(),
                               branch.stops.begin() + i);
        candidate.legs.assign(branch.legs.begin(), branch.legs.begin() + i);
        candidate.stops.push_back(s_stop);
        candidate.legs.push_back(a);
        candidate.stops.insert(candidate.stops.end(),
                               branch.stops.begin() + i,
                               branch.stops.begin() + j);
        candidate.legs.push_back(b);
        candidate.legs.insert(candidate.legs.end(),
                              branch.legs.begin() + i + 1,
                              branch.legs.begin() + j);
        candidate.stops.push_back(d_stop);
        candidate.legs.push_back(e1);
        if (!d_tail) {
          candidate.stops.insert(candidate.stops.end(),
                                 branch.stops.begin() + j,
                                 branch.stops.end());
          candidate.legs.push_back(e2);
          candidate.legs.insert(candidate.legs.end(),
                                branch.legs.begin() + j + 1,
                                branch.legs.end());
        }
      }
      PTAR_DCHECK(candidate.stops.size() == k + 2);
      PTAR_DCHECK(candidate.legs.size() == k + 2);

      if (!IsValidSchedule(candidate, &extra)) continue;

      InsertionCandidate result;
      result.pickup_dist = pickup_dist;
      result.total_dist = candidate.total();
      result.schedule = std::move(candidate);
      out->push_back(std::move(result));
    }
  }
}

std::vector<InsertionCandidate> KineticTree::EnumerateInsertions(
    const Request& request, Distance direct_dist, const DistFn& dist,
    const InsertionHooks& hooks) const {
  PTAR_CHECK(!stale_) << "Refresh() the tree before enumerating insertions";
  std::vector<InsertionCandidate> out;
  if (store_.empty()) {
    EnumerateIntoBranch(Schedule{}, request, direct_dist, dist, hooks, &out);
  } else {
    thread_local Schedule branch;
    for (std::size_t b = 0; b < store_.num_leaves(); ++b) {
      store_.Materialize(store_.leaf(b), &branch);
      EnumerateIntoBranch(branch, request, direct_dist, dist, hooks, &out);
    }
  }
  return out;
}

Status KineticTree::Commit(const Request& request, Distance direct_dist,
                           Distance planned_pickup_dist, const DistFn& dist) {
  PTAR_CHECK(!stale_) << "Refresh() the tree before committing";
  // Per the paper's definition of c.S_tr, the tree keeps *all* valid
  // schedules, so the commit enumeration runs without pruning hooks.
  std::vector<InsertionCandidate> candidates =
      EnumerateInsertions(request, direct_dist, /*dist=*/dist,
                          InsertionHooks{});
  // Enforce the new request's own waiting constraint against the planned
  // pickup the rider was quoted.
  const Distance deadline = planned_pickup_dist + request.max_wait_dist;
  std::erase_if(candidates, [&](const InsertionCandidate& c) {
    return c.pickup_dist > deadline + 1e-6;
  });
  if (candidates.empty()) {
    return Status::FailedPrecondition(
        "no valid schedule can serve the request within its constraints");
  }
  AssignedRequest assigned;
  assigned.request = request;
  assigned.direct_dist = direct_dist;
  assigned.deadline_odometer = odometer_ + deadline;
  assigned_.push_back(assigned);

  std::vector<Schedule> branches;
  branches.reserve(candidates.size());
  for (auto& c : candidates) {
    branches.push_back(std::move(c.schedule));
  }
  if (branches.size() > max_branches_) {
    // Bounded enumeration with best-branch retention (DESIGN.md §14): keep
    // every skyline-supporting branch under (total, first-leg) — any
    // branch some rider-facing tradeoff could prefer — then fill with the
    // shortest remaining schedules in deterministic order. The active
    // (shortest) branch sorts first and is always on the skyline.
    ++cap_hits_;
    branches_dropped_ += branches.size() - max_branches_;
    std::sort(branches.begin(), branches.end(), BranchLess);
    std::vector<char> skyline(branches.size(), 0);
    std::size_t num_skyline = 0;
    Distance best_first_leg = kInfDistance;
    for (std::size_t i = 0; i < branches.size(); ++i) {
      const Distance first_leg =
          branches[i].legs.empty() ? 0.0 : branches[i].legs[0];
      if (first_leg < best_first_leg) {
        skyline[i] = 1;
        best_first_leg = first_leg;
        ++num_skyline;
      }
    }
    std::vector<Schedule> kept;
    kept.reserve(max_branches_);
    std::size_t fill =
        max_branches_ > num_skyline ? max_branches_ - num_skyline : 0;
    for (std::size_t i = 0;
         i < branches.size() && kept.size() < max_branches_; ++i) {
      if (skyline[i]) {
        kept.push_back(std::move(branches[i]));
      } else if (fill > 0) {
        kept.push_back(std::move(branches[i]));
        --fill;
      }
    }
    branches = std::move(kept);
  }
  LoadBranches(branches);
  RecomputeActive();
  return Status::OK();
}

void KineticTree::MoveTo(VertexId new_location, Distance driven) {
  PTAR_DCHECK(driven >= 0.0);
  odometer_ += driven;
  location_ = new_location;
  if (!store_.empty()) {
    // One in-place write updates the shared first-leg node: every branch
    // driving through the same first stop sees the new distance. Branches
    // through a *different* first stop still measure from the old
    // location and go stale until Refresh().
    const BranchStore::NodeId first =
        store_.FirstOnPath(store_.leaf(active_index_));
    store_.set_leg(first,
                   std::max<Distance>(0.0, store_.leg(first) - driven));
    if (store_.num_leaves() > 1) stale_ = true;
  }
}

StatusOr<KineticTree::StopEvent> KineticTree::ArriveAtNextStop() {
  using NodeId = BranchStore::NodeId;
  if (store_.empty()) {
    return Status::FailedPrecondition("vehicle has no scheduled stop");
  }
  const NodeId active_first = store_.FirstOnPath(store_.leaf(active_index_));
  const Stop served = store_.StopOf(active_first);
  if (served.location != location_) {
    return Status::FailedPrecondition(
        "vehicle is not at the next scheduled stop");
  }

  StopEvent event;
  event.request = served.request;
  event.type = served.type;

  // Update rider bookkeeping.
  bool found = false;
  for (std::size_t idx = 0; idx < assigned_.size(); ++idx) {
    AssignedRequest& a = assigned_[idx];
    if (a.request.id != served.request) continue;
    found = true;
    event.riders = a.request.riders;
    if (served.type == StopType::kPickup) {
      PTAR_CHECK(!a.picked_up);
      a.picked_up = true;
      a.pickup_odometer = odometer_;
      onboard_ += a.request.riders;
      PTAR_CHECK(onboard_ <= capacity_);
    } else {
      PTAR_CHECK(a.picked_up);
      onboard_ -= a.request.riders;
      PTAR_CHECK(onboard_ >= 0);
      assigned_.erase(assigned_.begin() + idx);
    }
    break;
  }
  PTAR_CHECK(found) << "served stop references an unknown request";

  // Branch surgery. The served stop maps to exactly one root child, so
  // advancing is copy-free: drop the leaves of the other subtrees, recycle
  // those subtrees into the arena, and promote the served node's children
  // to root children in place.
  bool unique_match = true;
  for (NodeId c = store_.root_child_head(); c != BranchStore::kNilNode;
       c = store_.next_sibling(c)) {
    if (c != active_first && store_.StopOf(c) == served) {
      unique_match = false;
      break;
    }
  }
  PTAR_CHECK(unique_match)
      << "two root children carry the served stop: prefix sharing keys on "
         "(stop, leg), every branch producer keeps branches distinct, and "
         "MoveTo/Refresh/RebuildBranches write one first leg per first stop";
  store_.RemoveLeavesNotUnder(active_first);
  PTAR_CHECK(store_.num_leaves() > 0)
      << "active branch must survive its own stop";
  store_.AdvanceRoot(active_first);

  // Re-validate (non-active branches may have drifted out of budget while
  // the vehicle drove).
  thread_local Schedule branch;
  for (std::size_t b = store_.num_leaves(); b-- > 0;) {
    store_.Materialize(store_.leaf(b), &branch);
    if (!IsValidSchedule(branch, nullptr)) store_.RemoveLeaf(b);
  }
  if (assigned_.empty()) {
    // Canonical idle shape: nothing left to drive, zero heap branches.
    PTAR_CHECK(store_.empty());
  } else {
    PTAR_CHECK(!store_.empty()) << "no valid schedule after serving a stop";
  }
  stale_ = false;
  RecomputeActive();
  return event;
}

void KineticTree::Refresh(const DistFn& dist) {
  using NodeId = BranchStore::NodeId;
  if (!stale_) return;
  if (store_.empty()) {
    stale_ = false;
    return;
  }
  // Repair shared first legs in place: one distance per distinct non-active
  // root child, not one per branch. The active root child's leg is already
  // exact (MoveTo shrinks it along the driven path).
  const NodeId active_first = store_.FirstOnPath(store_.leaf(active_index_));
  for (NodeId c = store_.root_child_head(); c != BranchStore::kNilNode;
       c = store_.next_sibling(c)) {
    if (c == active_first) continue;
    store_.set_leg(c, dist(location_, store_.location(c)));
  }
  // Drop branches that drifted out of budget; the driven branch must stay.
  const NodeId active_leaf = store_.leaf(active_index_);
  thread_local Schedule branch;
  for (std::size_t b = store_.num_leaves(); b-- > 0;) {
    store_.Materialize(store_.leaf(b), &branch);
    if (IsValidSchedule(branch, nullptr)) continue;
    PTAR_CHECK(store_.leaf(b) != active_leaf)
        << "active branch became invalid";
    store_.RemoveLeaf(b);
  }
  PTAR_CHECK(!store_.empty());
  stale_ = false;
  RecomputeActive();
}

Status KineticTree::RebuildBranches(const DistFn& dist) {
  if (assigned_.empty()) {
    // Canonical empty-tree shape regardless of how corrupted it was.
    store_.Clear();
    active_index_ = 0;
    stale_ = false;
    return Status::OK();
  }
  std::vector<Schedule> branches = Schedules();
  std::vector<Schedule> rebuilt;
  rebuilt.reserve(branches.size());
  for (Schedule& branch : branches) {
    branch.legs.clear();
    branch.legs.reserve(branch.stops.size());
    VertexId prev = location_;
    bool reachable = true;
    for (const Stop& stop : branch.stops) {
      const Distance leg = dist(prev, stop.location);
      if (leg == kInfDistance) {
        reachable = false;
        break;
      }
      branch.legs.push_back(leg);
      prev = stop.location;
    }
    if (!reachable || !IsValidSchedule(branch, nullptr)) continue;
    rebuilt.push_back(std::move(branch));
  }
  if (rebuilt.empty()) {
    return Status::Internal("no valid branch survived rebuild for vehicle " +
                            std::to_string(vehicle_));
  }
  // Legs are recomputed from the stops, so equal stop sequences have equal
  // totals and sort adjacent.
  std::sort(rebuilt.begin(), rebuilt.end(), BranchLess);
  rebuilt.erase(std::unique(rebuilt.begin(), rebuilt.end(),
                            [](const Schedule& a, const Schedule& b) {
                              return a.SameStops(b);
                            }),
                rebuilt.end());
  LoadBranches(rebuilt);
  stale_ = false;
  RecomputeActive();
  return Status::OK();
}

void KineticTree::CorruptLegForTest(std::size_t branch, std::size_t leg,
                                    Distance value) {
  PTAR_CHECK(branch < num_branches());
  PTAR_CHECK(!store_.empty());
  std::vector<BranchStore::NodeId> path;
  store_.MaterializePath(store_.leaf(branch), &path);
  PTAR_CHECK(leg < path.size());
  store_.set_leg(path[leg], value);
}

std::vector<std::pair<CellId, KineticEdgeEntry>>
KineticTree::BuildRegistration(const GridIndex& grid) const {
  // Merge duplicate (cell, o_x, o_y) entries conservatively: max capacity,
  // max detour, min dist_tr — every merge direction keeps the cell-level
  // pruning lemmas sound.
  std::map<std::tuple<CellId, VertexId, VertexId>, KineticEdgeEntry> merged;
  auto add = [&](CellId cell, const KineticEdgeEntry& entry) {
    auto [it, inserted] =
        merged.try_emplace({cell, entry.ox, entry.oy}, entry);
    if (!inserted) {
      KineticEdgeEntry& e = it->second;
      e.capacity = std::max(e.capacity, entry.capacity);
      e.detour = std::max(e.detour, entry.detour);
      e.dist_tr = std::min(e.dist_tr, entry.dist_tr);
    }
  };

  Schedule branch;
  for (std::size_t b = 0; b < store_.num_leaves(); ++b) {
    store_.Materialize(store_.leaf(b), &branch);
    if (branch.stops.empty()) continue;
    const std::size_t k = branch.stops.size();
    const std::vector<Distance> slacks = GapSlacks(branch);
    const std::vector<int> seats = GapFreeSeats(branch);
    Distance prefix = 0.0;
    for (std::size_t j = 0; j <= k; ++j) {
      KineticEdgeEntry entry;
      entry.vehicle = vehicle_;
      entry.capacity = seats[j];
      entry.detour = slacks[j];
      entry.dist_tr = prefix;
      entry.tail = (j == k);
      entry.ox = (j == 0) ? location_ : branch.stops[j - 1].location;
      entry.oy = entry.tail ? kInvalidVertex : branch.stops[j].location;
      entry.leg_dist = entry.tail ? 0.0 : branch.legs[j];
      add(grid.CellOfVertex(entry.ox), entry);
      if (!entry.tail) add(grid.CellOfVertex(entry.oy), entry);
      if (j < k) prefix += branch.legs[j];
    }
  }

  std::vector<std::pair<CellId, KineticEdgeEntry>> out;
  out.reserve(merged.size());
  for (const auto& [key, entry] : merged) {
    out.emplace_back(std::get<0>(key), entry);
  }
  return out;
}

std::size_t KineticTree::MemoryBytes() const {
  return sizeof(*this) + store_.HeapBytes() +
         assigned_.capacity() * sizeof(AssignedRequest);
}

KineticTree::ArenaStats KineticTree::arena_stats() const {
  ArenaStats stats;
  stats.heap_bytes = MemoryBytes() - sizeof(*this);
  stats.live_nodes = store_.live_nodes();
  stats.node_slots = store_.slots();
  stats.branches = num_branches();
  return stats;
}

}  // namespace ptar
