#include "check/tree_spec.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <sstream>
#include <tuple>
#include <utility>

#include "check/scenario.h"
#include "common/logging.h"
#include "common/random.h"
#include "graph/ch_graph.h"
#include "graph/ch_preprocessor.h"
#include "graph/dijkstra.h"
#include "kinetic/tree_auditor.h"

namespace ptar::check {

namespace {

bool StopLess(const Stop& a, const Stop& b) {
  return std::tie(a.request, a.type) < std::tie(b.request, b.type);
}

std::string ScheduleString(const Schedule& schedule) {
  std::ostringstream os;
  for (const Stop& stop : schedule.stops) {
    os << (stop.type == StopType::kPickup ? "s" : "d") << stop.request << "@"
       << stop.location << " ";
  }
  os << "total=" << schedule.total();
  return os.str();
}

/// The ordering with `schedule`'s stop sequence, or null.
const SpecOrdering* FindOrdering(const std::vector<SpecOrdering>& orderings,
                                 const Schedule& schedule) {
  const auto it = std::lower_bound(
      orderings.begin(), orderings.end(), schedule,
      [](const SpecOrdering& o, const Schedule& s) {
        return std::lexicographical_compare(o.schedule.stops.begin(),
                                            o.schedule.stops.end(),
                                            s.stops.begin(), s.stops.end(),
                                            StopLess);
      });
  if (it == orderings.end() || !it->schedule.SameStops(schedule)) {
    return nullptr;
  }
  return &*it;
}

bool SameBookkeeping(const KineticTree& tree, const SpecVehicle& model) {
  auto fields = [](const AssignedRequest& a) {
    return std::tie(a.request.id, a.picked_up, a.direct_dist,
                    a.deadline_odometer, a.pickup_odometer);
  };
  return tree.location() == model.location &&
         tree.odometer() == model.odometer &&
         tree.onboard() == model.onboard &&
         std::equal(tree.assigned().begin(), tree.assigned().end(),
                    model.assigned.begin(), model.assigned.end(),
                    [&](const AssignedRequest& a, const AssignedRequest& b) {
                      return fields(a) == fields(b);
                    });
}

/// One seeded op stream on one tree; `cap` 0 means uncapped.
TreeSpecOutcome RunOne(std::uint64_t seed, DistanceBackend backend,
                       std::size_t cap) {
  TreeSpecOutcome outcome;
  const ScenarioSpec spec = MakeRandomSpec(seed);
  StatusOr<BuiltScenario> built = BuildScenario(spec);
  PTAR_CHECK(built.ok()) << built.status().message();
  const RoadNetwork& graph = *built->graph;
  const std::unique_ptr<CHGraph> ch =
      backend == DistanceBackend::kCH
          ? std::make_unique<CHGraph>(CHPreprocessor().Build(graph))
          : nullptr;
  // The enumeration gets its own oracle: sharing the memo cache would let it
  // pick which direction of a pair is computed first, moving the tree's
  // legs by an ulp, which flips ties between branches and the op stream.
  DistanceOracle oracle =
      ch ? DistanceOracle(&graph, ch.get()) : DistanceOracle(&graph);
  DistanceOracle spec_oracle =
      ch ? DistanceOracle(&graph, ch.get()) : DistanceOracle(&graph);
  const KineticTree::DistFn dist =
      std::bind_front(&DistanceOracle::Dist, &oracle);
  const KineticTree::DistFn spec_dist =
      std::bind_front(&DistanceOracle::Dist, &spec_oracle);
  DijkstraEngine router(&graph);
  const KineticTreeAuditor auditor(dist);

  SpecVehicle model;
  model.location = spec.vehicle_starts.empty()
                       ? static_cast<VertexId>(seed % graph.num_vertices())
                       : spec.vehicle_starts[0];
  model.capacity = spec.vehicle_capacity;
  KineticTree tree(0, model.location, model.capacity,
                   cap > 0 ? cap : KineticTree::kUnlimitedBranches);

  SplitMix64 rng(seed * SplitMix64::kGamma + 1);
  std::size_t next_spec_request = 0;
  RequestId synth_id = 1u << 20;
  auto make_request = [&]() -> Request {
    if (next_spec_request < spec.requests.size()) {
      return spec.requests[next_spec_request++];
    }
    Request r;
    r.id = synth_id++;
    r.start = static_cast<VertexId>(rng.Next() % graph.num_vertices());
    r.destination =
        static_cast<VertexId>(rng.Next() % graph.num_vertices());
    r.riders = 1 + static_cast<int>(rng.Next() % 2);
    r.epsilon = 1.2 + 0.1 * static_cast<double>(rng.Next() % 9);
    r.max_wait_dist = 500.0 + static_cast<double>(rng.Next() % 2000);
    return r;
  };

  std::uint64_t op = 0;
  const char* what = "";
  auto fail = [&](const std::string& detail) {
    std::ostringstream os;
    os << "seed=" << seed << " cap=" << cap << " op=" << op << " (" << what
       << "): " << detail;
    outcome.findings.push_back(os.str());
    ++outcome.divergences;
  };
  auto rule = [&] {
    return tree.branches_dropped() == 0 ? SpecRule::kEqual : SpecRule::kSubset;
  };
  // A request some ordering serves with every bound cleared is a loss once
  // the tree has dropped branches, and a divergence before.
  auto unserved = [&](const std::vector<SpecOrdering>& orderings,
                      const std::string& detail) {
    if (std::none_of(orderings.begin(), orderings.end(),
                     [](const SpecOrdering& o) {
                       return o.slack > kSpecTolerance;
                     })) {
      return;
    }
    if (tree.branches_dropped() == 0) return fail(detail);
    ++outcome.capped_losses;
  };
  auto check_tree = [&] {
    if (!SameBookkeeping(tree, model)) {
      return fail("location, odometer, riders or assigned requests differ");
    }
    if (tree.stale()) return;
    const std::vector<SpecOrdering> orderings =
        EnumerateValidOrderings(model, nullptr, spec_dist);
    if (const std::string d = CompareWithSpec(tree.Schedules(), orderings,
                                              rule(), &outcome.borderline);
        !d.empty()) {
      return fail(d);
    }
    // The active branch is one of the branches just checked, so no
    // ordering is much shorter; under the equality rule it must also be no
    // longer than any ordering the tree has to hold.
    Distance shortest = kInfDistance;
    for (const SpecOrdering& o : orderings) {
      if (o.slack > kSpecTolerance) {
        shortest = std::min(shortest, o.schedule.total());
      }
    }
    if (rule() == SpecRule::kEqual &&
        tree.CurrentTotal() > shortest + kSpecTolerance) {
      return fail("active total " + std::to_string(tree.CurrentTotal()) +
                  " exceeds the shortest ordering's " +
                  std::to_string(shortest));
    }
    const AuditReport report = auditor.AuditTree(tree);
    if (!report.ok()) fail("auditor: " + report.findings[0]);
  };

  constexpr std::uint64_t kOps = 160;
  for (; op < kOps && outcome.ok(); ++op) {
    ++outcome.ops;
    const std::uint64_t roll = rng.Next() % 100;
    if (roll < 40 && model.assigned.size() < 6) {
      what = "commit";
      if (tree.stale()) tree.Refresh(dist);
      AssignedRequest extra;
      extra.request = make_request();
      const Request& request = extra.request;
      if (request.start == request.destination) continue;
      extra.direct_dist = dist(request.start, request.destination);
      if (!(extra.direct_dist < kInfDistance)) continue;
      extra.deadline_odometer = kInfDistance;  // unbounded while offered

      const std::vector<SpecOrdering> offered =
          EnumerateValidOrderings(model, &extra, spec_dist);
      const std::vector<InsertionCandidate> candidates =
          tree.EnumerateInsertions(request, extra.direct_dist, dist,
                                   InsertionHooks{});
      std::vector<Schedule> schedules;
      for (const InsertionCandidate& c : candidates) {
        schedules.push_back(c.schedule);
      }
      if (const std::string d = CompareWithSpec(schedules, offered, rule(),
                                                &outcome.borderline);
          !d.empty()) {
        fail("insertions: " + d);
        break;
      }
      const Stop pickup{StopType::kPickup, request.id, request.start};
      Distance planned = kInfDistance;  // the quote: the earliest pickup
      for (const InsertionCandidate& c : candidates) {
        planned = std::min(planned, c.pickup_dist);
        const Schedule& o = FindOrdering(offered, c.schedule)->schedule;
        const auto at = std::find(o.stops.begin(), o.stops.end(), pickup);
        const Distance to_pickup = o.PrefixDistance(at - o.stops.begin());
        if (std::abs(c.pickup_dist - to_pickup) > kSpecTolerance ||
            std::abs(c.total_dist - o.total()) > kSpecTolerance) {
          fail("insertion pickup or total drifts: " +
               ScheduleString(c.schedule));
          break;
        }
      }
      if (!outcome.ok()) break;
      if (candidates.empty()) {
        unserved(offered, "no insertion offered for a servable request");
        continue;
      }
      AssignedRequest quoted = extra;
      quoted.deadline_odometer =
          model.odometer + (planned + request.max_wait_dist);
      if (!tree.Commit(request, extra.direct_dist, planned, dist).ok()) {
        unserved(EnumerateValidOrderings(model, &quoted, spec_dist),
                 "commit refused a request served within its quote");
        continue;
      }
      model.assigned.push_back(quoted);
      ++outcome.commits;
    } else if (roll < 70) {
      what = "move";
      const VertexId target = tree.NextStopLocation();
      if (target == kInvalidVertex || model.location == target) continue;
      (void)router.PointToPoint(model.location, target);
      const std::vector<VertexId> path = router.PathTo(target);
      if (path.size() < 2) continue;  // unreachable (cannot happen in-city)
      const auto arcs = graph.OutArcs(model.location);
      const auto arc =
          std::find_if(arcs.begin(), arcs.end(),
                       [&](const Arc& a) { return a.head == path[1]; });
      PTAR_CHECK(arc != arcs.end());
      tree.MoveTo(arc->head, arc->weight);
      model.location = arc->head;
      model.odometer += arc->weight;
    } else if (roll < 80) {
      what = "arrive";
      const VertexId target = tree.NextStopLocation();
      if (target == kInvalidVertex || target != model.location) continue;
      const Stop served = tree.ActiveSchedule().stops[0];
      const auto event = tree.ArriveAtNextStop();
      const auto a = std::find_if(
          model.assigned.begin(), model.assigned.end(),
          [&](const AssignedRequest& x) {
            return x.request.id == served.request;
          });
      if (!event.ok() || a == model.assigned.end() ||
          event->request != served.request || event->type != served.type ||
          event->riders != a->request.riders) {
        fail("stop event is not the active branch's first stop");
        break;
      }
      if (served.type == StopType::kPickup) {
        a->picked_up = true;
        a->pickup_odometer = model.odometer;
        model.onboard += a->request.riders;
      } else {
        model.onboard -= a->request.riders;
        model.assigned.erase(a);
      }
      ++outcome.arrivals;
    } else if (roll < 90) {
      what = "refresh";
      tree.Refresh(dist);
    } else {
      what = "rebuild";
      if (!tree.RebuildBranches(dist).ok()) {
        fail("rebuild found no valid branch");
        break;
      }
    }
    check_tree();
  }
  outcome.capped_drops = tree.branches_dropped();
  return outcome;
}

}  // namespace

std::vector<SpecOrdering> EnumerateValidOrderings(
    const SpecVehicle& vehicle, const AssignedRequest* extra,
    const KineticTree::DistFn& dist) {
  std::vector<const AssignedRequest*> requests;
  for (const AssignedRequest& a : vehicle.assigned) requests.push_back(&a);
  if (extra != nullptr) requests.push_back(extra);
  std::vector<std::pair<Stop, std::size_t>> stops;  // with request index
  std::vector<char> riding(requests.size(), 0);  // boarded, dropoff unplaced
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const Request& q = requests[r]->request;
    if (requests[r]->picked_up) {
      riding[r] = 1;
    } else {
      stops.push_back({Stop{StopType::kPickup, q.id, q.start}, r});
    }
    stops.push_back({Stop{StopType::kDropoff, q.id, q.destination}, r});
  }
  // Visiting stops in StopLess order emits the orderings sorted.
  std::sort(stops.begin(), stops.end(), [](const auto& a, const auto& b) {
    return StopLess(a.first, b.first);
  });
  const std::size_t n = stops.size();
  // legs[p * n + q]: from point p (0 = the vehicle, 1 + i = stop i) to q.
  std::vector<Distance> legs;
  for (std::size_t p = 0; p <= n; ++p) {
    const VertexId from =
        p == 0 ? vehicle.location : stops[p - 1].first.location;
    for (const auto& item : stops) {
      legs.push_back(dist(from, item.first.location));
    }
  }

  std::vector<Distance> boarded_at(requests.size(), 0.0);  // trip at pickup
  // (1 + eps) * dist(s, d) minus request r's ride after `trip`.
  auto service_slack = [&](std::size_t r, Distance trip) {
    const AssignedRequest& a = *requests[r];
    const Distance ride =
        a.picked_up ? (vehicle.odometer - a.pickup_odometer) + trip
                    : trip - boarded_at[r];
    return (1.0 + a.request.epsilon) * a.direct_dist - ride;
  };
  std::vector<char> placed(n, 0);
  std::vector<std::size_t> order(n);
  std::vector<SpecOrdering> out;
  // Depth-first over the unplaced stops. A prefix is abandoned only when it
  // already breaks a bound no later stop can repair: legs are non-negative,
  // so trip distances only grow.
  auto search = [&](auto& self, std::size_t depth, std::size_t at,
                    Distance trip, int onboard, Distance slack) -> void {
    if (depth == n) {
      SpecOrdering& o = out.emplace_back();
      o.slack = slack;
      for (std::size_t d = 0, p = 0; d < n; p = order[d++] + 1) {
        o.schedule.stops.push_back(stops[order[d]].first);
        o.schedule.legs.push_back(legs[p * n + order[d]]);
      }
      return;
    }
    for (std::size_t q = 0; q < n; ++q) {
      if (placed[q]) continue;
      const std::size_t r = stops[q].second;
      const AssignedRequest& a = *requests[r];
      const bool pickup = stops[q].first.type == StopType::kPickup;
      const Distance leg = legs[at * n + q];
      if (!(leg < kInfDistance)) continue;  // unreachable
      const Distance reached = trip + leg;
      Distance s = slack;
      int load = onboard;
      if (pickup) {
        load += a.request.riders;
        if (load > vehicle.capacity) continue;
        s = std::min(s, a.deadline_odometer - (vehicle.odometer + reached));
        boarded_at[r] = reached;
      } else {
        if (!riding[r]) continue;  // its pickup comes first
        load -= a.request.riders;
        s = std::min(s, service_slack(r, reached));
      }
      if (s < -kSpecTolerance) continue;
      placed[q] = 1;
      order[depth] = q;
      riding[r] = pickup;
      bool rides_in_bound = true;  // for every rider still on board
      for (std::size_t k = 0; k < requests.size(); ++k) {
        if (riding[k] && service_slack(k, reached) < -kSpecTolerance) {
          rides_in_bound = false;
        }
      }
      if (rides_in_bound) self(self, depth + 1, q + 1, reached, load, s);
      riding[r] = !pickup;
      placed[q] = 0;
    }
  };
  search(search, 0, 0, 0.0, vehicle.onboard, kInfDistance);
  return out;
}

std::string CompareWithSpec(const std::vector<Schedule>& branches,
                            const std::vector<SpecOrdering>& orderings,
                            SpecRule rule, std::uint64_t* borderline) {
  std::vector<char> held(orderings.size(), 0);
  for (const Schedule& branch : branches) {
    const SpecOrdering* o = FindOrdering(orderings, branch);
    if (o == nullptr) {
      return "invalid branch, not a Definition-2 schedule: " +
             ScheduleString(branch);
    }
    char& seen = held[o - orderings.data()];
    if (seen) return "duplicate branch: " + ScheduleString(branch);
    seen = 1;
    for (std::size_t m = 0; m < branch.legs.size(); ++m) {
      if (std::abs(branch.legs[m] - o->schedule.legs[m]) > kSpecTolerance) {
        return "leg " + std::to_string(m) + " of " + ScheduleString(branch) +
               " drifts from the spec's " +
               std::to_string(o->schedule.legs[m]);
      }
    }
  }
  for (std::size_t i = 0; i < orderings.size(); ++i) {
    if (orderings[i].slack <= kSpecTolerance) {
      ++*borderline;
    } else if (rule == SpecRule::kEqual && !held[i]) {
      return "missing schedule, valid under Definition 2: " +
             ScheduleString(orderings[i].schedule);
    }
  }
  return "";
}

void TreeSpecOutcome::Fold(const TreeSpecOutcome& other) {
  ops += other.ops;
  commits += other.commits;
  arrivals += other.arrivals;
  divergences += other.divergences;
  borderline += other.borderline;
  capped_losses += other.capped_losses;
  capped_drops += other.capped_drops;
  findings.insert(findings.end(), other.findings.begin(),
                  other.findings.end());
}

TreeSpecOutcome RunTreeSpec(std::uint64_t seed, DistanceBackend backend,
                            std::size_t cap) {
  TreeSpecOutcome outcome = RunOne(seed, backend, 0);
  if (cap > 0) {
    TreeSpecOutcome capped = RunOne(seed, backend, cap);
    capped.ops = capped.commits = capped.arrivals = 0;  // counted uncapped
    outcome.Fold(capped);
  }
  return outcome;
}

}  // namespace ptar::check
