#include "routing/multipath.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.hpp"

namespace tcppr::routing {

PathSet PathSet::disjoint_paths(const net::Network& network, NodeId src,
                                NodeId dst) {
  const Graph g = network.build_graph();
  PathSet set;
  set.src = src;
  set.dst = dst;
  set.paths = g.node_disjoint_paths(src, dst);
  set.costs.reserve(set.paths.size());
  for (const auto& p : set.paths) set.costs.push_back(g.path_cost(p));
  return set;
}

std::vector<net::RouteVec> PathSet::source_routes() const {
  std::vector<net::RouteVec> routes;
  routes.reserve(paths.size());
  for (const auto& p : paths) routes.emplace_back(p.begin() + 1, p.end());
  return routes;
}

MultipathSelector::MultipathSelector(PathSet paths, double epsilon,
                                     sim::Rng rng)
    : paths_(std::move(paths)),
      routes_(paths_.source_routes()),
      picks_(paths_.paths.size(), 0),
      rng_(rng) {
  TCPPR_CHECK(!paths_.paths.empty());
  TCPPR_CHECK(paths_.costs.size() == paths_.paths.size());
  TCPPR_CHECK(epsilon >= 0);
  const double c_min =
      *std::min_element(paths_.costs.begin(), paths_.costs.end());
  TCPPR_CHECK(c_min > 0);
  weights_.reserve(paths_.costs.size());
  for (const double c : paths_.costs) {
    weights_.push_back(std::exp(-epsilon * (c - c_min) / c_min));
  }
}

std::optional<net::SourceRoutingPolicy::Choice>
MultipathSelector::choose_route(NodeId dst) {
  if (dst != paths_.dst) return std::nullopt;
  const int idx = rng_.categorical(weights_.data(),
                                   static_cast<int>(weights_.size()));
  ++picks_[static_cast<std::size_t>(idx)];
  return Choice{&routes_[static_cast<std::size_t>(idx)], idx};
}

RouteFlapPolicy::RouteFlapPolicy(sim::Scheduler& sched, PathSet paths,
                                 sim::Duration flap_interval)
    : sched_(sched),
      paths_(std::move(paths)),
      routes_(paths_.source_routes()),
      interval_(flap_interval),
      started_(sched.now()) {
  TCPPR_CHECK(!paths_.paths.empty());
  TCPPR_CHECK(interval_ > sim::Duration::zero());
}

std::optional<net::SourceRoutingPolicy::Choice>
RouteFlapPolicy::choose_route(NodeId dst) {
  if (dst != paths_.dst) return std::nullopt;
  const auto elapsed = sched_.now() - started_;
  current_ = static_cast<int>((elapsed.as_nanos() / interval_.as_nanos()) %
                              static_cast<std::int64_t>(paths_.paths.size()));
  return Choice{&routes_[static_cast<std::size_t>(current_)], current_};
}

}  // namespace tcppr::routing
