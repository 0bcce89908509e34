#include "net/route_plan.h"

#include <algorithm>
#include <limits>
#include <mutex>

#include "common/check.h"

namespace dcqcn {

namespace {

uint64_t MixWord(uint64_t h, uint64_t v) {
  h ^= v;
  h *= 0x100000001b3ULL;  // FNV-1a prime, one word at a time
  return h ^ (h >> 29);
}

// One interned wiring. The entry owns a copy of its key; the plan is held
// weakly, so it lives exactly as long as some Network (or the table's
// most-recent slot) uses it.
struct InternEntry {
  uint64_t hash = 0;
  RouteWiring wiring;
  std::weak_ptr<const RoutePlan> plan;
};

struct InternTable {
  std::mutex mu;
  std::vector<InternEntry> entries;
  // The most recently built plan: keeps a sweep's next trial of the same
  // shape a hit after the previous trial's Network is gone.
  std::shared_ptr<const RoutePlan> last_built;
};

InternTable& Table() {
  static InternTable table;
  return table;
}

}  // namespace

uint64_t RouteWiring::Hash() const {
  uint64_t h = 0xcbf29ce484222325ULL;
  h = MixWord(h, switch_ports.size());
  for (int32_t p : switch_ports) h = MixWord(h, static_cast<uint32_t>(p));
  for (const auto& ports : adj) {
    h = MixWord(h, ports.size());
    for (const WiredPort& w : ports) {
      h = MixWord(h, (static_cast<uint64_t>(static_cast<uint32_t>(w.peer))
                      << 32) |
                         (static_cast<uint64_t>(
                              static_cast<uint32_t>(w.local_port))
                          << 1) |
                         (w.peer_is_host ? 1u : 0u));
    }
  }
  return h;
}

void RouteTable::Set(std::span<const int> dst_hosts,
                     const std::vector<int>& ports) {
  DCQCN_CHECK(!ports.empty());
  if (dst_hosts.empty()) return;
  const auto [lo, hi] =
      std::minmax_element(dst_hosts.begin(), dst_hosts.end());
  DCQCN_CHECK(*lo >= 0);
  const size_t g = static_cast<size_t>(
      std::find(groups.begin(), groups.end(), ports) - groups.begin());
  if (g == groups.size()) {
    DCQCN_CHECK(g < kNoRoute);
    groups.push_back(ports);
  }
  if (static_cast<size_t>(*hi) >= group.size()) {
    group.resize(static_cast<size_t>(*hi) + 1, kNoRoute);
  }
  for (int dst : dst_hosts) {
    group[static_cast<size_t>(dst)] = static_cast<uint16_t>(g);
  }
}

RoutePlan BuildRoutePlan(const RouteWiring& wiring) {
  constexpr int kInf = std::numeric_limits<int>::max();
  const auto& adj = wiring.adj;
  DCQCN_CHECK(adj.size() == wiring.switch_ports.size());
  // One BFS per switch with hosts attached, not one per host. A NIC has
  // one port, so a host is a leaf: no shortest path passes through it, and
  // for every node other than the host itself, distance to the host =
  // distance to its switch + 1. Hence one BFS from the attachment switch
  // serves all of its hosts: any other switch's equal-cost set toward a
  // host is its set toward that switch, so each (switch, attachment
  // switch) pair interns that set once and stamps it on all of the
  // attachment switch's hosts in one call; the attachment switch routes
  // each host on the port that reaches it. The BFS never enters a host.
  // A host attached to no switch (unwired, or wired to another host) is
  // reachable from no switch and gets no routes. The BFS buffers are
  // reused across switches.
  std::vector<int> switch_ids;  // switch index -> node id
  for (size_t id = 0; id < adj.size(); ++id) {
    if (wiring.switch_ports[id] >= 0) {
      switch_ids.push_back(static_cast<int>(id));
    } else {
      DCQCN_CHECK(adj[id].size() <= 1);
    }
  }
  RoutePlan plan;
  plan.tables.resize(switch_ids.size());
  std::vector<int> dist(adj.size());
  std::vector<int> frontier(adj.size());
  std::vector<int> ports;
  std::vector<int> hosts;  // attach's host ids, in wiring order
  for (size_t ai = 0; ai < switch_ids.size(); ++ai) {
    const int attach = switch_ids[ai];
    hosts.clear();
    for (const WiredPort& a : adj[static_cast<size_t>(attach)]) {
      if (a.peer_is_host) {
        hosts.push_back(a.peer);
        ports.assign(1, a.local_port);
        plan.tables[ai].Set(std::span<const int>(&a.peer, 1), ports);
      }
    }
    if (hosts.empty()) continue;
    std::fill(dist.begin(), dist.end(), kInf);
    dist[static_cast<size_t>(attach)] = 0;
    frontier[0] = attach;
    for (size_t head = 0, tail = 1; head < tail; ++head) {
      const int cur = frontier[head];
      const int d = dist[static_cast<size_t>(cur)];
      for (const WiredPort& a : adj[static_cast<size_t>(cur)]) {
        if (a.peer_is_host) continue;
        auto& pd = dist[static_cast<size_t>(a.peer)];
        if (pd == kInf) {
          pd = d + 1;
          frontier[tail++] = a.peer;
        }
      }
    }
    // Each other switch keeps every port whose peer is one hop closer — the
    // equal-cost set ECMP hashes over.
    for (size_t si = 0; si < switch_ids.size(); ++si) {
      const int sw = switch_ids[si];
      const int d = dist[static_cast<size_t>(sw)];
      if (d == 0 || d == kInf) continue;  // attach itself, or unreachable
      ports.clear();
      for (const WiredPort& a : adj[static_cast<size_t>(sw)]) {
        if (!a.peer_is_host && dist[static_cast<size_t>(a.peer)] == d - 1) {
          ports.push_back(a.local_port);
        }
      }
      plan.tables[si].Set(hosts, ports);
    }
  }
  return plan;
}

std::shared_ptr<const RoutePlan> InternRoutePlan(const RouteWiring& wiring) {
  const uint64_t hash = wiring.Hash();
  InternTable& t = Table();
  const std::lock_guard<std::mutex> lock(t.mu);
  for (const InternEntry& e : t.entries) {
    if (e.hash != hash || !(e.wiring == wiring)) continue;
    if (std::shared_ptr<const RoutePlan> plan = e.plan.lock()) return plan;
  }
  // A miss builds under the lock, so concurrent builders of one wiring
  // share one plan. Entries whose plan died are dropped first: the table
  // never holds more keys than live plans plus the one this call retires
  // from `last_built`.
  std::erase_if(t.entries,
                [](const InternEntry& e) { return e.plan.expired(); });
  auto plan = std::make_shared<const RoutePlan>(BuildRoutePlan(wiring));
  t.entries.push_back(InternEntry{hash, wiring, plan});
  t.last_built = plan;
  return plan;
}

size_t LiveRoutePlanCount() {
  InternTable& t = Table();
  const std::lock_guard<std::mutex> lock(t.mu);
  return static_cast<size_t>(
      std::count_if(t.entries.begin(), t.entries.end(),
                    [](const InternEntry& e) { return !e.plan.expired(); }));
}

}  // namespace dcqcn
