// Unit tests for graph algorithms and the multi-path routing policies —
// in particular the ε-parameterized path distribution of Section 5.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "harness/scenarios.hpp"
#include "net/network.hpp"
#include "routing/graph.hpp"
#include "routing/multipath.hpp"
#include "sim/scheduler.hpp"

namespace tcppr::routing {
namespace {

TEST(Graph, ShortestPathPicksLowerCost) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(0, 2, 0.5);
  g.add_edge(2, 3, 0.5);
  const auto path = g.shortest_path(0, 3);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, (std::vector<net::NodeId>{0, 2, 3}));
  EXPECT_DOUBLE_EQ(g.path_cost(*path), 1.0);
}

TEST(Graph, UnreachableReturnsNullopt) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  EXPECT_FALSE(g.shortest_path(0, 2).has_value());
}

TEST(Graph, ShortestPathTreeDistances) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(0, 2, 5.0);
  g.add_edge(2, 3, 1.0);
  const auto tree = g.shortest_paths(0);
  EXPECT_DOUBLE_EQ(tree.dist[0], 0.0);
  EXPECT_DOUBLE_EQ(tree.dist[1], 1.0);
  EXPECT_DOUBLE_EQ(tree.dist[2], 3.0);
  EXPECT_DOUBLE_EQ(tree.dist[3], 4.0);
}

TEST(Graph, DisjointPathsFindsParallelRoutes) {
  // Two node-disjoint routes 0-1-5 and 0-2-3-5 plus a shared-node variant.
  Graph g(6);
  const auto duplex = [&](net::NodeId a, net::NodeId b, double c) {
    g.add_edge(a, b, c);
    g.add_edge(b, a, c);
  };
  duplex(0, 1, 1);
  duplex(1, 5, 1);
  duplex(0, 2, 1);
  duplex(2, 3, 1);
  duplex(3, 5, 1);
  const auto paths = g.node_disjoint_paths(0, 5);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0].size(), 3u);  // shortest first
  EXPECT_EQ(paths[1].size(), 4u);
}

TEST(Graph, DisjointPathsStopOnDirectEdge) {
  Graph g(2);
  g.add_edge(0, 1, 1);
  const auto paths = g.node_disjoint_paths(0, 1);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0], (std::vector<net::NodeId>{0, 1}));
}

PathSet two_paths() {
  PathSet set;
  set.src = 0;
  set.dst = 3;
  set.paths = {{0, 1, 3}, {0, 2, 3}};
  set.costs = {2.0, 4.0};
  return set;
}

TEST(MultipathSelector, EpsilonZeroIsUniform) {
  MultipathSelector sel(two_paths(), 0.0, sim::Rng(1));
  int first = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto choice = sel.choose_route(3);
    ASSERT_TRUE(choice.has_value());
    if (choice->path_id == 0) ++first;
  }
  EXPECT_NEAR(first / static_cast<double>(n), 0.5, 0.02);
}

TEST(MultipathSelector, LargeEpsilonIsShortestPath) {
  MultipathSelector sel(two_paths(), 500.0, sim::Rng(1));
  for (int i = 0; i < 5000; ++i) {
    const auto choice = sel.choose_route(3);
    ASSERT_TRUE(choice.has_value());
    EXPECT_EQ(choice->path_id, 0);
  }
}

TEST(MultipathSelector, IntermediateEpsilonPrefersShorter) {
  MultipathSelector sel(two_paths(), 1.0, sim::Rng(1));
  int first = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (sel.choose_route(3)->path_id == 0) ++first;
  }
  // Weight ratio exp(0) : exp(-1) -> p(short) = 1/(1+e^-1) ~ 0.731.
  EXPECT_NEAR(first / static_cast<double>(n), 1.0 / (1.0 + std::exp(-1.0)),
              0.02);
}

TEST(MultipathSelector, OtherDestinationsFallThrough) {
  MultipathSelector sel(two_paths(), 0.0, sim::Rng(1));
  EXPECT_FALSE(sel.choose_route(7).has_value());
}

TEST(MultipathSelector, RouteExcludesSource) {
  MultipathSelector sel(two_paths(), 500.0, sim::Rng(1));
  const auto choice = sel.choose_route(3);
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(*choice->route, (net::RouteVec{1, 3}));
}

TEST(MultipathSelector, ChoicesPointIntoOneTableBuiltOnce) {
  MultipathSelector sel(two_paths(), 0.0, sim::Rng(1));
  const net::RouteVec* seen[2] = {nullptr, nullptr};
  for (int i = 0; i < 200; ++i) {
    const auto choice = sel.choose_route(3);
    ASSERT_TRUE(choice.has_value());
    const auto id = static_cast<std::size_t>(choice->path_id);
    ASSERT_LT(id, 2u);
    if (seen[id] == nullptr) seen[id] = choice->route;
    // Every pick of a path hands out the same route, never a copy.
    EXPECT_EQ(choice->route, seen[id]);
  }
  ASSERT_NE(seen[0], nullptr);
  ASSERT_NE(seen[1], nullptr);
  EXPECT_EQ(*seen[0], (net::RouteVec{1, 3}));
  EXPECT_EQ(*seen[1], (net::RouteVec{2, 3}));
}

TEST(MultipathSelector, PicksAreCounted) {
  MultipathSelector sel(two_paths(), 0.0, sim::Rng(1));
  for (int i = 0; i < 100; ++i) sel.choose_route(3);
  EXPECT_EQ(sel.picks()[0] + sel.picks()[1], 100u);
}

TEST(RouteFlapPolicy, AlternatesOverTime) {
  sim::Scheduler sched;
  RouteFlapPolicy policy(sched, two_paths(), sim::Duration::seconds(1));
  EXPECT_EQ(policy.choose_route(3)->path_id, 0);
  sched.run_until(sim::TimePoint::from_seconds(1.5));
  EXPECT_EQ(policy.choose_route(3)->path_id, 1);
  sched.run_until(sim::TimePoint::from_seconds(2.5));
  EXPECT_EQ(policy.choose_route(3)->path_id, 0);
}

TEST(RouteFlapPolicy, ChoicesPointIntoOneTableBuiltOnce) {
  sim::Scheduler sched;
  RouteFlapPolicy policy(sched, two_paths(), sim::Duration::seconds(1));
  const net::RouteVec* first = policy.choose_route(3)->route;
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(*first, (net::RouteVec{1, 3}));
  sched.run_until(sim::TimePoint::from_seconds(1.5));
  const net::RouteVec* second = policy.choose_route(3)->route;
  ASSERT_NE(second, nullptr);
  EXPECT_NE(second, first);
  EXPECT_EQ(*second, (net::RouteVec{2, 3}));
  // Flapping back hands out the first route again, not a rebuilt one.
  sched.run_until(sim::TimePoint::from_seconds(2.5));
  EXPECT_EQ(policy.choose_route(3)->route, first);
}

TEST(PathSetDisjoint, FromNetworkMatchesTopology) {
  sim::Scheduler sched;
  net::Network network(sched);
  const auto s = network.add_node();
  const auto d = network.add_node();
  net::LinkConfig cfg;
  // Two disjoint relay paths with 1 and 2 relays.
  auto r1 = network.add_node();
  network.add_duplex_link(s, r1, cfg);
  network.add_duplex_link(r1, d, cfg);
  auto r2a = network.add_node();
  auto r2b = network.add_node();
  network.add_duplex_link(s, r2a, cfg);
  network.add_duplex_link(r2a, r2b, cfg);
  network.add_duplex_link(r2b, d, cfg);
  const PathSet set = PathSet::disjoint_paths(network, s, d);
  ASSERT_EQ(set.paths.size(), 2u);
  EXPECT_EQ(set.paths[0].size(), 3u);
  EXPECT_EQ(set.paths[1].size(), 4u);
  EXPECT_LT(set.costs[0], set.costs[1]);
}

TEST(MultipathScenario, ReorderingActuallyHappens) {
  // End-to-end sanity: with epsilon 0 the receiver must observe
  // out-of-order arrivals; with epsilon 500 it must not.
  using namespace tcppr::harness;
  for (const double eps : {0.0, 500.0}) {
    MultipathConfig config;
    config.variant = TcpVariant::kTcpPr;
    config.epsilon = eps;
    config.tcp.max_cwnd = 20;  // below BDP: no losses, reordering only
    auto scenario = make_multipath(config);
    scenario->sched.run_until(sim::TimePoint::from_seconds(5));
    const auto& rs = scenario->receivers[0]->stats();
    if (eps == 0.0) {
      EXPECT_GT(rs.out_of_order, 50u) << "eps=" << eps;
    } else {
      EXPECT_EQ(rs.out_of_order, 0u) << "eps=" << eps;
    }
  }
}

}  // namespace
}  // namespace tcppr::routing
