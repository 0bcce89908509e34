// Reference routes for the route tests: one BFS per destination host over
// the network's links, with every switch keeping each port whose peer is
// one hop closer, listed in wiring order — Network::BuildRoutes' contract
// computed the direct way (it runs one BFS per attachment switch instead).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "net/network.h"

namespace dcqcn {

// routes[switch index in net.switches()][host id]; empty = no route.
using ReferenceTable = std::vector<std::vector<std::vector<int>>>;

inline ReferenceTable ReferenceRoutes(const Network& net) {
  // Adjacency in wiring order: each link adds one entry at either end.
  size_t num_nodes = 0;
  for (const auto& sw : net.switches()) {
    num_nodes = std::max(num_nodes, static_cast<size_t>(sw->id()) + 1);
  }
  for (const auto& h : net.hosts()) {
    num_nodes = std::max(num_nodes, static_cast<size_t>(h->id()) + 1);
  }
  struct Adj {
    int peer;
    int port;
  };
  std::vector<std::vector<Adj>> adj(num_nodes);
  auto port_of = [](const Node* n, const Link* l) {
    for (int p = 0; p < n->num_ports(); ++p) {
      if (n->link(p) == l) return p;
    }
    ADD_FAILURE() << "link not attached to node " << n->id();
    return -1;
  };
  for (const auto& l : net.links()) {
    const Node* a = l->node_a();
    const Node* b = l->node_b();
    adj[static_cast<size_t>(a->id())].push_back(Adj{b->id(), port_of(a, l.get())});
    adj[static_cast<size_t>(b->id())].push_back(Adj{a->id(), port_of(b, l.get())});
  }
  constexpr int kInf = std::numeric_limits<int>::max();
  ReferenceTable routes(net.switches().size(),
                        std::vector<std::vector<int>>(num_nodes));
  for (const auto& h : net.hosts()) {
    std::vector<int> dist(num_nodes, kInf);
    std::deque<int> frontier = {h->id()};
    dist[static_cast<size_t>(h->id())] = 0;
    while (!frontier.empty()) {
      const int cur = frontier.front();
      frontier.pop_front();
      for (const Adj& a : adj[static_cast<size_t>(cur)]) {
        if (dist[static_cast<size_t>(a.peer)] == kInf) {
          dist[static_cast<size_t>(a.peer)] = dist[static_cast<size_t>(cur)] + 1;
          frontier.push_back(a.peer);
        }
      }
    }
    for (size_t s = 0; s < net.switches().size(); ++s) {
      const int id = net.switches()[s]->id();
      const int d = dist[static_cast<size_t>(id)];
      if (d == kInf) continue;
      for (const Adj& a : adj[static_cast<size_t>(id)]) {
        if (dist[static_cast<size_t>(a.peer)] == d - 1) {
          routes[s][static_cast<size_t>(h->id())].push_back(a.port);
        }
      }
    }
  }
  return routes;
}

// Every (switch, host) pair's RouteTo equals the reference set exactly —
// same ports, same order (ECMP indexes into it) — and a pair without a
// reference route has none. `want` is ReferenceRoutes(net). Returns the
// number of routed pairs.
inline int ExpectRoutesMatchReference(const Network& net,
                                      const ReferenceTable& want) {
  int routed = 0;
  for (size_t s = 0; s < net.switches().size(); ++s) {
    const SharedBufferSwitch& sw = *net.switches()[s];
    for (const auto& h : net.hosts()) {
      const std::vector<int>& ref = want[s][static_cast<size_t>(h->id())];
      SCOPED_TRACE("switch " + std::to_string(sw.id()) + " -> host " +
                   std::to_string(h->id()));
      EXPECT_EQ(sw.HasRouteTo(h->id()), !ref.empty());
      if (ref.empty() || !sw.HasRouteTo(h->id())) continue;
      EXPECT_EQ(sw.RouteTo(h->id()), ref);
      ++routed;
    }
  }
  return routed;
}

// Each switch interned exactly one group per distinct reference set: no
// duplicate of a set and no set that no host uses. Valid right after
// BuildRoutes (a later SetRoute override can leave a set unused). `want`
// is ReferenceRoutes(net).
inline void ExpectRouteGroupsMatchReference(const Network& net,
                                            const ReferenceTable& want) {
  for (size_t s = 0; s < net.switches().size(); ++s) {
    std::set<std::vector<int>> distinct;
    for (const std::vector<int>& ref : want[s]) {
      if (!ref.empty()) distinct.insert(ref);
    }
    EXPECT_EQ(net.switches()[s]->route_group_count(), distinct.size())
        << "switch " << net.switches()[s]->id();
  }
}

}  // namespace dcqcn
