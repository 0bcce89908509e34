// Network-level tests: route construction on arbitrary graphs (checked
// pair by pair against a per-host BFS reference, tests/route_reference.h),
// the shared route plan (one per wiring, copied on override), route
// overrides, multi-path ECMP sets, link lookup, priority-class isolation,
// and aggregate counters.
#include "net/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "net/topology.h"
#include "route_reference.h"

namespace dcqcn {
namespace {

TEST(Network, RoutesOnALine) {
  // host A - sw1 - sw2 - host B.
  Network net(1);
  SwitchConfig cfg;
  auto* s1 = net.AddSwitch(2, cfg);
  auto* s2 = net.AddSwitch(2, cfg);
  auto* a = net.AddHost(NicConfig{});
  auto* b = net.AddHost(NicConfig{});
  net.Connect(a, 0, s1, 0, Gbps(40), Microseconds(1));
  net.Connect(s1, 1, s2, 0, Gbps(40), Microseconds(1));
  net.Connect(s2, 1, b, 0, Gbps(40), Microseconds(1));
  net.BuildRoutes();
  EXPECT_EQ(s1->RouteTo(b->id()), (std::vector<int>{1}));
  EXPECT_EQ(s1->RouteTo(a->id()), (std::vector<int>{0}));
  EXPECT_EQ(s2->RouteTo(b->id()), (std::vector<int>{1}));

  FlowSpec f;
  f.flow_id = 0;
  f.src_host = a->id();
  f.dst_host = b->id();
  f.size_bytes = 100 * 1000;
  f.cc_policy = CcPolicyIdByName("raw");
  net.StartFlow(f);
  net.RunFor(Milliseconds(1));
  EXPECT_EQ(b->ReceiverDeliveredBytes(0), 100 * 1000);
}

TEST(Network, ParallelPathsAllRetained) {
  // A diamond: src ToR has 3 parallel two-hop paths to dst ToR.
  Network net(1);
  SwitchConfig cfg;
  auto* t1 = net.AddSwitch(4, cfg);
  auto* t2 = net.AddSwitch(4, cfg);
  SharedBufferSwitch* mids[3];
  for (auto*& m : mids) m = net.AddSwitch(2, cfg);
  auto* a = net.AddHost(NicConfig{});
  auto* b = net.AddHost(NicConfig{});
  net.Connect(a, 0, t1, 3, Gbps(40), Microseconds(1));
  net.Connect(b, 0, t2, 3, Gbps(40), Microseconds(1));
  for (int i = 0; i < 3; ++i) {
    net.Connect(t1, i, mids[i], 0, Gbps(40), Microseconds(1));
    net.Connect(mids[i], 1, t2, i, Gbps(40), Microseconds(1));
  }
  net.BuildRoutes();
  EXPECT_EQ(t1->RouteTo(b->id()).size(), 3u);
  EXPECT_EQ(t2->RouteTo(a->id()).size(), 3u);
  // Many flows spread across all three middle switches.
  for (int i = 0; i < 30; ++i) {
    FlowSpec f;
    f.flow_id = i;
    f.src_host = a->id();
    f.dst_host = b->id();
    f.size_bytes = 10 * 1000;
    f.cc_policy = CcPolicyIdByName("raw");
    f.ecmp_salt = static_cast<uint64_t>(i);
    net.StartFlow(f);
  }
  net.RunFor(Milliseconds(5));
  for (auto* m : mids) {
    EXPECT_GT(m->counters().rx_packets, 0);
  }
}

// The parking lot: a chain of switches with hosts hanging off each one.
TEST(Network, ParkingLotRoutesMatchPerHostBfs) {
  Network net(1);
  SwitchConfig cfg;
  constexpr int kSwitches = 4;
  std::vector<SharedBufferSwitch*> chain;
  for (int i = 0; i < kSwitches; ++i) chain.push_back(net.AddSwitch(4, cfg));
  for (int i = 0; i < kSwitches; ++i) {
    for (int h = 0; h < 2; ++h) {
      net.Connect(chain[static_cast<size_t>(i)], h, net.AddHost(NicConfig{}),
                  0, Gbps(40), Microseconds(1));
    }
  }
  for (int i = 0; i + 1 < kSwitches; ++i) {
    net.Connect(chain[static_cast<size_t>(i)], 3,
                chain[static_cast<size_t>(i) + 1], 2, Gbps(40),
                Microseconds(1));
  }
  net.BuildRoutes();
  EXPECT_EQ(ExpectRoutesMatchReference(net, ReferenceRoutes(net)),
            kSwitches * 2 * kSwitches);
}

// Random connected switch graphs: a random spanning tree plus extra links,
// some of them parallel to an existing one, ports drawn in random order (so
// wiring order differs from port order), and 0-3 hosts per switch.
TEST(Network, RandomSwitchGraphsWithParallelLinksMatchPerHostBfs) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Network net(seed);
    SwitchConfig cfg;
    constexpr int kPorts = 32;  // the chip maximum; enough for any draw
    const auto n = static_cast<int>(rng.UniformInt(1, 9));
    std::vector<SharedBufferSwitch*> sws;
    std::vector<std::vector<int>> free_ports(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      sws.push_back(net.AddSwitch(kPorts, cfg));
      auto& fp = free_ports[static_cast<size_t>(i)];
      for (int p = 0; p < kPorts; ++p) fp.push_back(p);
      for (size_t k = fp.size(); k > 1; --k) {
        std::swap(fp[k - 1], fp[static_cast<size_t>(rng.UniformInt(
                                 0, static_cast<int64_t>(k) - 1))]);
      }
    }
    auto take_port = [&](int sw) {
      auto& fp = free_ports[static_cast<size_t>(sw)];
      const int p = fp.back();
      fp.pop_back();
      return p;
    };
    std::vector<std::pair<int, int>> edges;
    auto wire = [&](int a, int b) {
      net.Connect(sws[static_cast<size_t>(a)], take_port(a),
                  sws[static_cast<size_t>(b)], take_port(b), Gbps(40),
                  Microseconds(1));
      edges.emplace_back(a, b);
    };
    for (int i = 1; i < n; ++i) {
      wire(i, static_cast<int>(rng.UniformInt(0, i - 1)));
    }
    for (int64_t e = rng.UniformInt(0, 2 * n); e > 0 && n > 1; --e) {
      if (rng.Chance(0.3)) {  // parallel to an existing link
        const auto& [a, b] = edges[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(edges.size()) - 1))];
        wire(a, b);
        continue;
      }
      const auto a = static_cast<int>(rng.UniformInt(0, n - 1));
      const auto b = static_cast<int>(rng.UniformInt(0, n - 1));
      if (a != b) wire(a, b);
    }
    int hosts = 0;
    for (int i = 0; i < n; ++i) {
      for (int64_t h = rng.UniformInt(0, 3); h > 0; --h) {
        net.Connect(net.AddHost(NicConfig{}), 0, sws[static_cast<size_t>(i)],
                    take_port(i), Gbps(40), Microseconds(1));
        ++hosts;
      }
    }
    net.BuildRoutes();
    const ReferenceTable want = ReferenceRoutes(net);
    EXPECT_EQ(ExpectRoutesMatchReference(net, want), n * hosts);
    ExpectRouteGroupsMatchReference(net, want);
  }
}

// A host wired to another host, and a host wired to nothing, are reachable
// from no switch: neither gets a route, and every other pair still matches.
TEST(Network, HostToHostLinkAndUnconnectedHostGetNoRoutes) {
  Network net(1);
  auto* s1 = net.AddSwitch(4, SwitchConfig{});
  auto* s2 = net.AddSwitch(4, SwitchConfig{});
  auto* a = net.AddHost(NicConfig{});
  auto* b = net.AddHost(NicConfig{});
  auto* p = net.AddHost(NicConfig{});
  auto* q = net.AddHost(NicConfig{});
  auto* lonely = net.AddHost(NicConfig{});
  net.Connect(a, 0, s1, 0, Gbps(40), Microseconds(1));
  net.Connect(s1, 1, s2, 1, Gbps(40), Microseconds(1));
  net.Connect(s2, 2, b, 0, Gbps(40), Microseconds(1));
  net.Connect(p, 0, q, 0, Gbps(40), Microseconds(1));
  net.BuildRoutes();
  EXPECT_EQ(ExpectRoutesMatchReference(net, ReferenceRoutes(net)), 4);
  for (const auto* sw : {s1, s2}) {
    for (const auto* h : {p, q, lonely}) EXPECT_FALSE(sw->HasRouteTo(h->id()));
  }
  EXPECT_EQ(s1->RouteTo(a->id()), (std::vector<int>{0}));
  EXPECT_EQ(s1->RouteTo(b->id()), (std::vector<int>{1}));
}

// SetRoute after BuildRoutes overrides one destination — to a new port set
// and to one already interned — without touching the hosts that shared the
// old set, and packets follow the new ports.
TEST(Network, SetRouteOverridesAfterBuildRoutes) {
  // Diamond: t1 reaches t2 (hosts b and c) over three middle switches.
  Network net(1);
  SwitchConfig cfg;
  auto* t1 = net.AddSwitch(4, cfg);
  auto* t2 = net.AddSwitch(5, cfg);
  SharedBufferSwitch* mids[3];
  for (auto*& m : mids) m = net.AddSwitch(2, cfg);
  auto* a = net.AddHost(NicConfig{});
  auto* b = net.AddHost(NicConfig{});
  auto* c = net.AddHost(NicConfig{});
  net.Connect(a, 0, t1, 3, Gbps(40), Microseconds(1));
  net.Connect(b, 0, t2, 3, Gbps(40), Microseconds(1));
  net.Connect(c, 0, t2, 4, Gbps(40), Microseconds(1));
  for (int i = 0; i < 3; ++i) {
    net.Connect(t1, i, mids[i], 0, Gbps(40), Microseconds(1));
    net.Connect(mids[i], 1, t2, i, Gbps(40), Microseconds(1));
  }
  net.BuildRoutes();
  ASSERT_EQ(t1->RouteTo(b->id()), (std::vector<int>{0, 1, 2}));
  ASSERT_EQ(t1->RouteTo(c->id()), (std::vector<int>{0, 1, 2}));
  const size_t groups = t1->route_group_count();

  t1->SetRoute(c->id(), {2});  // a new set
  EXPECT_EQ(t1->RouteTo(c->id()), (std::vector<int>{2}));
  EXPECT_EQ(t1->RouteTo(b->id()), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(t1->route_group_count(), groups + 1);
  t1->SetRoute(b->id(), {2});  // now an existing set
  EXPECT_EQ(t1->RouteTo(b->id()), (std::vector<int>{2}));
  EXPECT_EQ(t1->route_group_count(), groups + 1);
  t1->SetRoute(b->id(), {1, 0});  // order is part of the set
  EXPECT_EQ(t1->RouteTo(b->id()), (std::vector<int>{1, 0}));
  EXPECT_EQ(t1->RouteTo(c->id()), (std::vector<int>{2}));

  // Data leaves t1 toward the middle switches only; ACKs and CNPs come
  // back the other way.
  auto sent_via = [&](int mid) {
    return net.FindLink(t1->id(), mids[mid]->id())->FramesSent(t1);
  };
  auto run_flows = [&](const RdmaNic* dst, int first) {
    for (int i = first; i < first + 10; ++i) {
      FlowSpec f;
      f.flow_id = i;
      f.src_host = a->id();
      f.dst_host = dst->id();
      f.size_bytes = 10 * 1000;
      f.cc_policy = CcPolicyIdByName("raw");
      f.ecmp_salt = static_cast<uint64_t>(i);
      net.StartFlow(f);
    }
    net.RunFor(Milliseconds(5));
    for (int i = first; i < first + 10; ++i) {
      EXPECT_EQ(dst->ReceiverDeliveredBytes(i), 10 * 1000) << "flow " << i;
    }
  };
  run_flows(c, 0);
  EXPECT_EQ(sent_via(0), 0);
  EXPECT_EQ(sent_via(1), 0);
  const int64_t via2 = sent_via(2);
  EXPECT_GT(via2, 0);
  run_flows(b, 10);
  EXPECT_GT(sent_via(0), 0);
  EXPECT_GT(sent_via(1), 0);
  EXPECT_EQ(sent_via(2), via2);
}

// SetRoutes points a whole host list at one interned set: ids past the end
// of the table and out of order, an empty list that changes nothing, and a
// re-stamp that moves only the hosts it names.
TEST(Network, SetRoutesStampsOneSetOnAHostList) {
  Network net(1);
  auto* sw = net.AddSwitch(4, SwitchConfig{});
  const std::vector<int> wide = {0, 1};
  sw->SetRoutes(std::vector<int>{9, 3, 7}, wide);
  EXPECT_EQ(sw->route_group_count(), 1u);
  for (int h : {9, 3, 7}) EXPECT_EQ(sw->RouteTo(h), wide) << "host " << h;
  for (int h : {0, 2, 4, 8, 10}) EXPECT_FALSE(sw->HasRouteTo(h)) << h;

  sw->SetRoutes({}, {2});  // no hosts: no new set, no new route
  EXPECT_EQ(sw->route_group_count(), 1u);
  EXPECT_FALSE(sw->HasRouteTo(10));

  sw->SetRoutes(std::vector<int>{12, 3}, {2});  // 3 had a group already
  EXPECT_EQ(sw->route_group_count(), 2u);
  EXPECT_EQ(sw->RouteTo(3), (std::vector<int>{2}));
  EXPECT_EQ(sw->RouteTo(12), (std::vector<int>{2}));
  EXPECT_EQ(sw->RouteTo(9), wide);
  EXPECT_EQ(sw->RouteTo(7), wide);
  EXPECT_FALSE(sw->HasRouteTo(11));

  sw->SetRoutes(std::vector<int>{3}, wide);  // back to an interned set
  EXPECT_EQ(sw->route_group_count(), 2u);
  EXPECT_EQ(sw->RouteTo(3), wide);
  EXPECT_EQ(sw->RouteTo(12), (std::vector<int>{2}));
}

// Networks of one wiring share one route plan: every switch reads the same
// tables in place. An override copies the overriding switch's table first,
// so the other network keeps its routes and its group count, and a network
// built afterwards still gets the plan's routes.
TEST(Network, SameWiringSharesRoutesAndOverridesStayLocal) {
  Network a(1);
  Network b(2);
  const ClosTopology ta = BuildClos(a, 5, TopologyOptions{});
  const ClosTopology tb = BuildClos(b, 5, TopologyOptions{});
  for (size_t s = 0; s < a.switches().size(); ++s) {
    for (const auto& h : a.hosts()) {
      EXPECT_EQ(&a.switches()[s]->RouteTo(h->id()),
                &b.switches()[s]->RouteTo(h->id()))
          << "switch " << s << " -> host " << h->id();
    }
  }
  const int far = ta.host(3, 0)->id();
  const std::vector<int> up = tb.tors[0]->RouteTo(far);
  ASSERT_EQ(up.size(), 2u);
  const size_t groups = tb.tors[0]->route_group_count();

  ta.tors[0]->SetRoute(far, {up.back()});
  EXPECT_EQ(ta.tors[0]->RouteTo(far), (std::vector<int>{up.back()}));
  EXPECT_EQ(ta.tors[0]->route_group_count(), groups + 1);
  EXPECT_EQ(tb.tors[0]->RouteTo(far), up);
  EXPECT_EQ(tb.tors[0]->route_group_count(), groups);
  EXPECT_EQ(&ta.tors[1]->RouteTo(far), &tb.tors[1]->RouteTo(far));
  const ReferenceTable want = ReferenceRoutes(b);
  ExpectRoutesMatchReference(b, want);
  ExpectRouteGroupsMatchReference(b, want);

  Network c(3);
  const ClosTopology tc = BuildClos(c, 5, TopologyOptions{});
  EXPECT_EQ(tc.tors[0]->RouteTo(far), up);
  EXPECT_EQ(&tc.tors[0]->RouteTo(far), &tb.tors[0]->RouteTo(far));
}

// The plan's key is the whole wiring: two networks with the same nodes and
// port counts but one link on another port get different plans, each equal
// to its own per-host BFS.
TEST(Network, OneSwappedPortIsAnotherPlan) {
  auto build = [](Network& net, int s1_port) {
    SwitchConfig cfg;
    auto* s1 = net.AddSwitch(3, cfg);
    auto* s2 = net.AddSwitch(2, cfg);
    auto* a = net.AddHost(NicConfig{});
    auto* b = net.AddHost(NicConfig{});
    net.Connect(a, 0, s1, 0, Gbps(40), Microseconds(1));
    net.Connect(s1, s1_port, s2, 0, Gbps(40), Microseconds(1));
    net.Connect(s2, 1, b, 0, Gbps(40), Microseconds(1));
    net.BuildRoutes();
    return b->id();
  };
  Network n1(1);
  Network n2(1);
  const int b = build(n1, 1);
  ASSERT_EQ(build(n2, 2), b);
  const SharedBufferSwitch& s1 = *n1.switches()[0];
  const SharedBufferSwitch& s2 = *n2.switches()[0];
  EXPECT_EQ(s1.RouteTo(b), (std::vector<int>{1}));
  EXPECT_EQ(s2.RouteTo(b), (std::vector<int>{2}));
  EXPECT_NE(&s1.RouteTo(b), &s2.RouteTo(b));
  for (const Network* net : {&n1, &n2}) {
    const ReferenceTable want = ReferenceRoutes(*net);
    EXPECT_EQ(ExpectRoutesMatchReference(*net, want), 4);
    ExpectRouteGroupsMatchReference(*net, want);
  }
}

// The intern table holds plans weakly plus the most recently built one:
// after a run of distinct wirings, the plans alive are the ones live
// networks use and at most one more.
TEST(Network, AtMostOneRoutePlanOutlivesItsNetworks) {
  Network keep(1);
  BuildStar(keep, 9, TopologyOptions{});  // a shape the loop never builds
  for (int hosts = 2; hosts <= 6; ++hosts) {
    Network net(1);
    BuildStar(net, hosts, TopologyOptions{});
  }
  EXPECT_EQ(LiveRoutePlanCount(), 2u);  // keep's, and the 6-host star's
  {
    Network net(1);
    BuildStar(net, 8, TopologyOptions{});
    EXPECT_EQ(LiveRoutePlanCount(), 2u);  // the 6-host star's is gone
  }
  EXPECT_EQ(LiveRoutePlanCount(), 2u);
}

// Four threads build one new wiring at once: all four get one plan, equal
// to the per-host BFS.
TEST(Network, ConcurrentBuildsOfOneWiringShareOnePlan) {
  const ClosShape shape{.pods = 3,
                        .tors_per_pod = 3,
                        .leaves_per_pod = 2,
                        .spines = 3,
                        .hosts_per_tor = 3};
  constexpr int kThreads = 4;
  std::vector<std::unique_ptr<Network>> nets;
  for (int i = 0; i < kThreads; ++i) {
    nets.push_back(std::make_unique<Network>(static_cast<uint64_t>(i + 1)));
  }
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      BuildClos(*nets[static_cast<size_t>(i)], shape, TopologyOptions{});
    });
  }
  for (std::thread& t : threads) t.join();
  const Network& first = *nets[0];
  for (int i = 1; i < kThreads; ++i) {
    const Network& other = *nets[static_cast<size_t>(i)];
    for (size_t s = 0; s < first.switches().size(); ++s) {
      for (const auto& h : first.hosts()) {
        EXPECT_EQ(&other.switches()[s]->RouteTo(h->id()),
                  &first.switches()[s]->RouteTo(h->id()));
      }
    }
  }
  const ReferenceTable want = ReferenceRoutes(first);
  ExpectRoutesMatchReference(first, want);
  ExpectRouteGroupsMatchReference(first, want);
}

// FindLink walks the first node's wired ports: either argument order finds
// the link (the first one wired when there are several), and a pair with no
// link, or an id that names no node, finds nothing.
TEST(Network, FindLinkByEndpoints) {
  Network net(1);
  SwitchConfig cfg;
  auto* s1 = net.AddSwitch(3, cfg);
  auto* s2 = net.AddSwitch(3, cfg);
  auto* a = net.AddHost(NicConfig{});
  Link* host_link = net.Connect(a, 0, s1, 0, Gbps(40), Microseconds(1));
  Link* first = net.Connect(s1, 1, s2, 0, Gbps(40), Microseconds(1));
  Link* second = net.Connect(s2, 1, s1, 2, Gbps(40), Microseconds(1));
  ASSERT_NE(first, second);
  EXPECT_EQ(net.FindLink(a->id(), s1->id()), host_link);
  EXPECT_EQ(net.FindLink(s1->id(), a->id()), host_link);
  EXPECT_EQ(net.FindLink(s1->id(), s2->id()), first);
  EXPECT_EQ(net.FindLink(s2->id(), s1->id()), first);
  EXPECT_EQ(net.FindLink(a->id(), s2->id()), nullptr);
  EXPECT_EQ(net.FindLink(s2->id(), a->id()), nullptr);
  EXPECT_EQ(net.FindLink(-1, s1->id()), nullptr);
  EXPECT_EQ(net.FindLink(s1->id(), 99), nullptr);
  EXPECT_EQ(net.FindLink(99, s1->id()), nullptr);

  // A host and its ToR on the 512-host Clos, from either end.
  Network big(1);
  const ClosTopology t = BuildClos(big,
                                   ClosShape{.pods = 8,
                                             .tors_per_pod = 4,
                                             .leaves_per_pod = 4,
                                             .spines = 8,
                                             .hosts_per_tor = 16},
                                   TopologyOptions{});
  const RdmaNic* h = t.hosts_by_tor[31][15];
  const int tor = t.tors[31]->id();
  EXPECT_EQ(big.FindLink(h->id(), tor), h->link(0));
  EXPECT_EQ(big.FindLink(tor, h->id()), h->link(0));
  EXPECT_EQ(big.FindLink(h->id(), t.tors[0]->id()), nullptr);
  EXPECT_EQ(big.FindLink(h->id(), t.hosts_by_tor[31][14]->id()), nullptr);
}

TEST(Network, HostLookupById) {
  Network net(1);
  auto topo = BuildStar(net, 3, TopologyOptions{});
  for (auto* h : topo.hosts) {
    EXPECT_EQ(net.host(h->id()), h);
  }
  EXPECT_EQ(net.host(topo.sw->id()), nullptr);  // a switch is not a host
}

TEST(Network, StartFlowAssignsIds) {
  Network net(1);
  auto topo = BuildStar(net, 2, TopologyOptions{});
  FlowSpec f;
  f.flow_id = -1;  // auto-assign
  f.src_host = topo.hosts[0]->id();
  f.dst_host = topo.hosts[1]->id();
  f.size_bytes = 1000;
  SenderQp* qp = net.StartFlow(f);
  EXPECT_GE(qp->spec().flow_id, 0);
  // Next id does not collide.
  EXPECT_GT(net.NextFlowId(), qp->spec().flow_id);
}

// Flow ids are network-wide: one live flow per id. Reusing a live id —
// from another host pair or the same one — is a caller bug, and StartFlow
// names the id and both flows' hosts. A released id is free again.
TEST(Network, StartFlowRejectsALiveIdAndNamesBothFlows) {
  Network net(1);
  auto topo = BuildStar(net, 4, TopologyOptions{});
  FlowSpec a;
  a.flow_id = 7;
  a.src_host = topo.hosts[0]->id();
  a.dst_host = topo.hosts[1]->id();
  a.size_bytes = 1000;
  net.StartFlow(a);
  FlowSpec b = a;
  b.src_host = topo.hosts[2]->id();
  b.dst_host = topo.hosts[3]->id();
  const std::string msg = "flow id 7 is still in use by host " +
                          std::to_string(a.src_host) + " -> host " +
                          std::to_string(a.dst_host) +
                          "; cannot start it for host " +
                          std::to_string(b.src_host) + " -> host " +
                          std::to_string(b.dst_host);
  EXPECT_DEATH(net.StartFlow(b), msg);
  // Completion alone does not free the id; release does.
  net.RunFor(Microseconds(100));
  ASSERT_TRUE(topo.hosts[0]->FindQp(7)->complete());
  EXPECT_DEATH(net.StartFlow(b), "flow id 7 is still in use");
  net.ReleaseFlow(a);
  net.RunFor(Microseconds(1));
  EXPECT_EQ(net.StartFlow(b)->spec().src_host, b.src_host);
}

TEST(Network, AggregateCountersSumSwitches) {
  Network net(2);
  auto topo = BuildStar(net, 5, TopologyOptions{});
  for (int i = 0; i < 4; ++i) {
    FlowSpec f;
    f.flow_id = i;
    f.src_host = topo.hosts[static_cast<size_t>(i)]->id();
    f.dst_host = topo.hosts[4]->id();
    f.size_bytes = 0;
    f.cc_policy = CcPolicyIdByName("raw");
    net.StartFlow(f);
  }
  net.RunFor(Milliseconds(5));
  EXPECT_EQ(net.TotalPauseFramesSent(),
            topo.sw->counters().pause_frames_sent);
  EXPECT_EQ(net.TotalDrops(), topo.sw->counters().dropped_packets);
}

TEST(PriorityClasses, TwoDataClassesIsolatedByPfc) {
  // Two flows to the same receiver on different priorities; freeze one
  // class with an injected PAUSE at the sender NIC and verify the other
  // keeps flowing at full rate.
  Network net(3);
  auto topo = BuildStar(net, 3, TopologyOptions{});
  FlowSpec f2;
  f2.flow_id = 0;
  f2.src_host = topo.hosts[0]->id();
  f2.dst_host = topo.hosts[2]->id();
  f2.size_bytes = 0;
  f2.priority = 2;
  f2.cc_policy = CcPolicyIdByName("raw");
  net.StartFlow(f2);
  FlowSpec f3 = f2;
  f3.flow_id = 1;
  f3.src_host = topo.hosts[1]->id();
  f3.priority = 3;
  net.StartFlow(f3);
  net.RunFor(Milliseconds(2));

  Packet pause;
  pause.type = PacketType::kPause;
  pause.pfc_priority = 2;
  topo.hosts[0]->ReceivePacket(pause, 0);
  const Bytes d2 = topo.hosts[2]->ReceiverDeliveredBytes(0);
  const Bytes d3 = topo.hosts[2]->ReceiverDeliveredBytes(1);
  net.RunFor(Milliseconds(2));
  // Class 2 frozen (at most a trickle already in flight), class 3 at line
  // rate now that it has the link to itself.
  EXPECT_LT(topo.hosts[2]->ReceiverDeliveredBytes(0) - d2, 20 * kMtu);
  EXPECT_GT(static_cast<double>(topo.hosts[2]->ReceiverDeliveredBytes(1) -
                                d3) * 8 / 2e-3,
            0.9 * Gbps(40));
}

TEST(PriorityClasses, SwitchQueuesAccountPerPriority) {
  Network net(4);
  auto topo = BuildStar(net, 3, TopologyOptions{});
  // Saturate the egress from two senders on different classes.
  for (int i = 0; i < 2; ++i) {
    FlowSpec f;
    f.flow_id = i;
    f.src_host = topo.hosts[static_cast<size_t>(i)]->id();
    f.dst_host = topo.hosts[2]->id();
    f.size_bytes = 0;
    f.priority = static_cast<int8_t>(2 + i);
    f.cc_policy = CcPolicyIdByName("raw");
    net.StartFlow(f);
  }
  net.RunFor(Milliseconds(3));
  // Strict priority: the lower-priority-number class (2) is served first,
  // so its egress queue stays near-empty while class 3's builds (until PFC
  // pushes back).
  EXPECT_LE(topo.sw->EgressQueueBytes(2, 2),
            topo.sw->EgressQueueBytes(2, 3) + 2 * kMtu);
  EXPECT_EQ(net.TotalDrops(), 0);
}

}  // namespace
}  // namespace dcqcn
