// In-tree slice of the kinetic-tree spec check: seeded op streams drive a
// tree that must hold exactly the schedules a brute-force enumeration of
// Definition 2 finds, and a capped tree must keep only valid schedules
// with every loss attributed to its drops. The 200-seed sweep lives in
// `ptar_check --tree_spec` (run by differential-nightly on both backends);
// this test keeps a fast slice in every ctest run, including the sanitizer
// sweeps (`-L kinetic`, `-L tsan`), plus hand-counted enumerator cases.

#include "check/tree_spec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "graph/distance_oracle.h"
#include "kinetic/tree_auditor.h"
#include "tests/test_util.h"

namespace ptar {
namespace {

using check::CompareWithSpec;
using check::EnumerateValidOrderings;
using check::RunTreeSpec;
using check::SpecOrdering;
using check::SpecRule;
using check::SpecVehicle;
using check::TreeSpecOutcome;

TEST(KineticSpecTest, DijkstraSeedsMatchDefinition) {
  TreeSpecOutcome total;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    total.Fold(RunTreeSpec(seed, DistanceBackend::kDijkstra, /*cap=*/8));
  }
  for (const std::string& finding : total.findings) {
    ADD_FAILURE() << finding;
  }
  EXPECT_EQ(total.divergences, 0u);
  // The op mix must actually exercise the tree, not idle through it.
  EXPECT_GT(total.commits, 0u);
  EXPECT_GT(total.arrivals, 0u);
}

TEST(KineticSpecTest, CHBackendMatchesDefinition) {
  TreeSpecOutcome total;
  for (std::uint64_t seed = 7; seed <= 9; ++seed) {
    total.Fold(RunTreeSpec(seed, DistanceBackend::kCH, /*cap=*/8));
  }
  for (const std::string& finding : total.findings) {
    ADD_FAILURE() << finding;
  }
  EXPECT_EQ(total.divergences, 0u);
  EXPECT_GT(total.commits, 0u);
}

TEST(KineticSpecTest, TightCapDropsBranchesButStaysSubsetSound) {
  // cap=2 forces heavy dropping; the subset rule and loss attribution are
  // asserted inside RunTreeSpec after the first drop.
  TreeSpecOutcome total;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    total.Fold(RunTreeSpec(seed, DistanceBackend::kDijkstra, /*cap=*/2));
  }
  for (const std::string& finding : total.findings) {
    ADD_FAILURE() << finding;
  }
  EXPECT_EQ(total.divergences, 0u);
  EXPECT_GT(total.capped_drops, 0u);
}

TEST(KineticSpecTest, UncappedRunReportsNoDrops) {
  const TreeSpecOutcome one =
      RunTreeSpec(3, DistanceBackend::kDijkstra, /*cap=*/0);
  EXPECT_EQ(one.divergences, 0u);
  EXPECT_EQ(one.capped_drops, 0u);
  EXPECT_EQ(one.capped_losses, 0u);
}

/// The small 3x3 grid (100 m spacing, vertex r * 3 + c) with its oracle.
struct SmallWorld {
  SmallWorld() = default;
  SmallWorld(const SmallWorld&) = delete;  // `dist` captures `this`
  SmallWorld& operator=(const SmallWorld&) = delete;

  RoadNetwork graph = testing::MakeSmallGrid();
  DistanceOracle oracle{&graph};
  KineticTree::DistFn dist = [this](VertexId a, VertexId b) {
    return oracle.Dist(a, b);
  };

  /// An unpicked single-rider request with loose service and waiting
  /// bounds.
  AssignedRequest Loose(RequestId id, VertexId s, VertexId d) {
    AssignedRequest a;
    a.request.id = id;
    a.request.start = s;
    a.request.destination = d;
    a.request.riders = 1;
    a.request.epsilon = 10.0;
    a.request.max_wait_dist = 1e6;
    a.direct_dist = dist(s, d);
    a.deadline_odometer = 1e6;
    return a;
  }
};

TEST(KineticSpecTest, TwoUnpickedRequestsGiveSixOrderingsAtCapacityTwo) {
  SmallWorld w;
  SpecVehicle v;
  v.location = 0;
  v.capacity = 2;
  v.assigned = {w.Loose(1, 1, 8), w.Loose(2, 3, 5)};
  // Every interleaving of s1 < d1 with s2 < d2: 4! / (2 * 2).
  EXPECT_EQ(EnumerateValidOrderings(v, nullptr, w.dist).size(), 6u);
  // One seat: a ride must end before the next begins.
  v.capacity = 1;
  EXPECT_EQ(EnumerateValidOrderings(v, nullptr, w.dist).size(), 2u);
}

TEST(KineticSpecTest, PickedUpRiderContributesOnlyItsDropoff) {
  SmallWorld w;
  SpecVehicle v;
  v.location = 0;
  v.capacity = 2;
  v.onboard = 1;
  v.assigned = {w.Loose(1, 1, 8), w.Loose(2, 3, 5)};
  v.assigned[0].picked_up = true;
  const std::vector<SpecOrdering> orderings =
      EnumerateValidOrderings(v, nullptr, w.dist);
  // d1 slots into any of the three gaps around s2 < d2.
  ASSERT_EQ(orderings.size(), 3u);
  for (const SpecOrdering& o : orderings) {
    ASSERT_EQ(o.schedule.stops.size(), 3u);
    EXPECT_EQ(std::count_if(o.schedule.stops.begin(), o.schedule.stops.end(),
                            [](const Stop& s) { return s.request == 1; }),
              1);
  }
  v.capacity = 1;
  EXPECT_EQ(EnumerateValidOrderings(v, nullptr, w.dist).size(), 1u);
}

TEST(KineticSpecTest, TightWaitingDeadlineRemovesExactlyTheLateOrderings) {
  SmallWorld w;
  SpecVehicle v;
  v.location = 0;
  v.odometer = 50.0;
  v.capacity = 2;
  v.assigned = {w.Loose(1, 1, 8), w.Loose(2, 3, 5)};
  const std::vector<SpecOrdering> loose =
      EnumerateValidOrderings(v, nullptr, w.dist);
  ASSERT_EQ(loose.size(), 6u);

  // s2 is reached after 100 m (s2 first), 300 m (after s1) or 700 m (after
  // s1 and d1); a deadline 300 m down the road removes only s1 d1 s2 d2.
  const Distance deadline = v.odometer + 300.0;
  v.assigned[1].deadline_odometer = deadline;
  const std::vector<SpecOrdering> tight =
      EnumerateValidOrderings(v, nullptr, w.dist);
  std::vector<Schedule> expected;
  for (const SpecOrdering& o : loose) {
    const auto& stops = o.schedule.stops;
    const std::size_t s2 =
        std::find(stops.begin(), stops.end(),
                  Stop{StopType::kPickup, 2, 3}) - stops.begin();
    if (v.odometer + o.schedule.PrefixDistance(s2) <= deadline) {
      expected.push_back(o.schedule);
    }
  }
  EXPECT_EQ(expected.size(), 5u);
  ASSERT_EQ(tight.size(), expected.size());
  for (std::size_t i = 0; i < tight.size(); ++i) {
    EXPECT_TRUE(tight[i].schedule.SameStops(expected[i]));
  }
  // The binding ordering sits exactly on the deadline.
  EXPECT_DOUBLE_EQ(
      std::min_element(tight.begin(), tight.end(),
                       [](const SpecOrdering& a, const SpecOrdering& b) {
                         return a.slack < b.slack;
                       })->slack,
      0.0);
}

// Direct spot-check of the tree against the enumeration on a hand-built
// world (independent of the fuzz harness): every insertion offer and the
// committed branch set must be exactly what Definition 2 allows.
TEST(KineticSpecTest, HandBuiltCommitSequenceMatches) {
  SmallWorld w;
  KineticTree tree(0, 0, 4);
  SpecVehicle model;
  model.location = 0;
  model.capacity = 4;

  Request r1;
  r1.id = 1;
  r1.start = 1;
  r1.destination = 8;
  r1.riders = 1;
  r1.max_wait_dist = 1000.0;
  r1.epsilon = 1.0;
  Request r2 = r1;
  r2.id = 2;
  r2.start = 3;
  r2.destination = 5;

  std::uint64_t borderline = 0;
  for (const Request& r : {r1, r2}) {
    AssignedRequest extra;
    extra.request = r;
    extra.direct_dist = w.dist(r.start, r.destination);
    extra.deadline_odometer = kInfDistance;
    const std::vector<SpecOrdering> offered =
        EnumerateValidOrderings(model, &extra, w.dist);
    const std::vector<InsertionCandidate> cands = tree.EnumerateInsertions(
        r, extra.direct_dist, w.dist, InsertionHooks{});
    std::vector<Schedule> schedules;
    Distance planned = kInfDistance;
    for (const InsertionCandidate& c : cands) {
      schedules.push_back(c.schedule);
      planned = std::min(planned, c.pickup_dist);
    }
    EXPECT_EQ(CompareWithSpec(schedules, offered, SpecRule::kEqual,
                              &borderline),
              "");
    ASSERT_TRUE(tree.Commit(r, extra.direct_dist, planned, w.dist).ok());
    extra.deadline_odometer = model.odometer + (planned + r.max_wait_dist);
    model.assigned.push_back(extra);
  }

  const std::vector<SpecOrdering> held =
      EnumerateValidOrderings(model, nullptr, w.dist);
  EXPECT_EQ(CompareWithSpec(tree.Schedules(), held, SpecRule::kEqual,
                            &borderline),
            "");
  // Grid distances hit service bounds exactly; the tree keeps those
  // borderline orderings too.
  EXPECT_EQ(tree.num_branches(), held.size());
  Distance shortest = kInfDistance;
  for (const SpecOrdering& o : held) {
    shortest = std::min(shortest, o.schedule.total());
  }
  EXPECT_DOUBLE_EQ(tree.CurrentTotal(), shortest);
}

// Completeness is what only the spec can check: a capped tree that dropped
// branches holds valid schedules only, so the auditor (which validates the
// branches present) is clean, yet the equality rule reports what is gone.
TEST(KineticSpecTest, DroppedBranchesAreReportedMissingUnderEqualityRule) {
  SmallWorld w;
  KineticTree tree(0, 0, 4, /*max_branches=*/2);
  SpecVehicle model;
  model.location = 0;
  model.capacity = 4;
  RequestId next_id = 1;
  const std::pair<VertexId, VertexId> trips[] = {{1, 8}, {3, 5}, {6, 2}};
  for (const auto& [s, d] : trips) {
    AssignedRequest a = w.Loose(next_id++, s, d);
    a.request.epsilon = 1.5;
    a.request.max_wait_dist = 1500.0;
    const Distance planned = a.direct_dist;
    ASSERT_TRUE(tree.Commit(a.request, a.direct_dist, planned, w.dist).ok());
    a.deadline_odometer = model.odometer + (planned + a.request.max_wait_dist);
    model.assigned.push_back(a);
  }
  ASSERT_GT(tree.branches_dropped(), 0u);
  EXPECT_TRUE(KineticTreeAuditor(w.dist).AuditTree(tree).ok());

  const std::vector<SpecOrdering> orderings =
      EnumerateValidOrderings(model, nullptr, w.dist);
  std::uint64_t borderline = 0;
  EXPECT_EQ(CompareWithSpec(tree.Schedules(), orderings, SpecRule::kSubset,
                            &borderline),
            "");
  EXPECT_NE(CompareWithSpec(tree.Schedules(), orderings, SpecRule::kEqual,
                            &borderline)
                .find("missing schedule"),
            std::string::npos);
}

}  // namespace
}  // namespace ptar
