// RoutePlan: a fabric's shortest-path ECMP routes as an immutable value of
// its wiring.
//
// Routes depend on the wiring alone — which node is a switch, how many
// ports it has, and which port reaches which peer — not on rates, delays,
// configs or seeds. A sweep that rebuilds one fabric per trial therefore
// computes the same routes every time. InternRoutePlan builds them once per
// distinct wiring per process and hands every Network wired that way the
// same read-only plan; each switch reads its table in place
// (SharedBufferSwitch::ShareRoutes) and copies it only if it is overridden
// (SetRoute/SetRoutes), so an override never reaches another Network.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace dcqcn {

// One wired port as the route build sees it: the peer's node id, this
// node's port, and whether the peer is a host — so the build walks ids and
// never dereferences a Node.
struct WiredPort {
  int32_t peer = -1;
  int32_t local_port = -1;
  bool peer_is_host = false;
  bool operator==(const WiredPort&) const = default;
};

// Everything a route build reads, and so the exact key of the intern table.
// Network keeps it up to date as nodes are added and wired.
struct RouteWiring {
  // node id -> the switch's port count, or -1 for a host
  std::vector<int32_t> switch_ports;
  // node id -> its wired ports, in wiring order
  std::vector<std::vector<WiredPort>> adj;
  bool operator==(const RouteWiring&) const = default;
  uint64_t Hash() const;
};

// One switch's routes. Every host behind one next hop shares its port set,
// so a destination stores only a 16-bit id into a small table of distinct
// equal-cost sets (ECMP indexes into a set, so order is part of it).
struct RouteTable {
  static constexpr uint16_t kNoRoute = 0xffff;
  std::vector<uint16_t> group;           // dst host id -> group id
  std::vector<std::vector<int>> groups;  // distinct port sets
  // Interns `ports` once (by comparison) and points every host in
  // `dst_hosts` (any order; an empty list does nothing) at it, growing
  // `group` at most once.
  void Set(std::span<const int> dst_hosts, const std::vector<int>& ports);
};

struct RoutePlan {
  // One table per switch, in node-id order (= Network::switches() order).
  std::vector<RouteTable> tables;
};

// The route build itself, with no cache: one BFS per switch with hosts
// attached (see route_plan.cc). CHECKs that every host has at most one
// wired port.
RoutePlan BuildRoutePlan(const RouteWiring& wiring);

// The plan for `wiring`, built on first use and shared afterwards. The
// process-wide table compares wirings in full and holds plans weakly, plus
// the most recently built one strongly: consecutive trials of one shape
// share a plan, and a process keeps at most one plan that no live holder
// uses. Thread-safe.
std::shared_ptr<const RoutePlan> InternRoutePlan(const RouteWiring& wiring);

// Plans in the intern table that are still alive (for tests).
size_t LiveRoutePlanCount();

}  // namespace dcqcn
