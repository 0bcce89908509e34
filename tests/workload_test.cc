// Benchmark-traffic pattern tests (§6.2 workload) and the ProbeSet samplers
// the benches use, exercised over the real Clos testbed topology.
#include "workload/pairs.h"

#include <gtest/gtest.h>

#include "net/topology.h"
#include "telemetry/probes.h"
#include "workload/poisson.h"
#include "workload/sim_host.h"

namespace dcqcn {
namespace {

using workload::PairsOptions;
using workload::PairsPattern;
using workload::SimWorkloadHost;

TEST(Workload, UserPairsMakeClosedLoopProgress) {
  Network net(1);
  auto topo = BuildClos(net, 5, TopologyOptions{});
  PairsOptions opt;
  opt.num_pairs = 10;
  opt.incast_degree = 0;
  opt.size_scale = 0.05;
  PairsPattern traffic(opt);
  SimWorkloadHost host(net, topo.AllHosts());
  host.Begin(traffic);
  net.RunFor(Milliseconds(10));
  EXPECT_GT(traffic.user_transfers(), 50);
  EXPECT_GT(traffic.user_goodput().size(), 50u);
  // Goodputs are positive and below line rate.
  EXPECT_GT(traffic.user_goodput().Quantile(0.5), 0.0);
  EXPECT_LE(traffic.user_goodput().Quantile(1.0), 40.0);
}

TEST(Workload, IncastStreamsRepeat) {
  Network net(2);
  auto topo = BuildClos(net, 5, TopologyOptions{});
  PairsOptions opt;
  opt.num_pairs = 0;
  opt.incast_degree = 4;
  opt.incast_flow_bytes = 100 * kKB;
  PairsPattern traffic(opt);
  SimWorkloadHost host(net, topo.AllHosts());
  host.Begin(traffic);
  net.RunFor(Milliseconds(10));
  // Each of the 4 sources streams chunks continuously: many transfers.
  EXPECT_GT(traffic.incast_transfers(), 16);
  EXPECT_EQ(traffic.incast_goodput().size(),
            static_cast<size_t>(traffic.incast_transfers()));
}

TEST(Workload, IncastSharesBottleneckAcrossSenders) {
  Network net(3);
  auto topo = BuildClos(net, 5, TopologyOptions{});
  PairsOptions opt;
  opt.num_pairs = 0;
  opt.incast_degree = 5;
  opt.incast_flow_bytes = 250 * kKB;
  PairsPattern traffic(opt);
  SimWorkloadHost host(net, topo.AllHosts());
  host.Begin(traffic);
  net.RunFor(Milliseconds(20));
  // Ideal per-flow is 8 Gbps (40/5); nobody can exceed it by much for a
  // full round, and the median should be within a factor ~3 of ideal.
  EXPECT_LT(traffic.incast_goodput().Quantile(0.5), 20.0);
  EXPECT_GT(traffic.incast_goodput().Quantile(0.5), 2.0);
}

TEST(Workload, DeterministicAcrossIdenticalRuns) {
  auto run = [] {
    Network net(7);
    auto topo = BuildClos(net, 5, TopologyOptions{});
    PairsOptions opt;
    opt.num_pairs = 5;
    opt.incast_degree = 3;
    opt.size_scale = 0.05;
    opt.seed = 42;
    PairsPattern traffic(opt);
    SimWorkloadHost host(net, topo.AllHosts());
    host.Begin(traffic);
    net.RunFor(Milliseconds(5));
    return std::make_pair(traffic.user_transfers(),
                          traffic.incast_transfers());
  };
  EXPECT_EQ(run(), run());
}

// Everything a run exposes: the uniform workload metrics (counts and every
// sample) followed by each switch's counters.
std::vector<double> RunOnClos(workload::WorkloadPattern& pattern) {
  Network net(11);
  auto topo = BuildClos(net, 5, TopologyOptions{});
  SimWorkloadHost host(net, topo.AllHosts());
  host.Begin(pattern);
  net.RunFor(Milliseconds(5));
  const workload::WorkloadMetrics& m = host.metrics();
  std::vector<double> out = {
      static_cast<double>(m.started), static_cast<double>(m.completed),
      static_cast<double>(m.skipped), static_cast<double>(m.in_flight)};
  for (const Cdf* c : {&m.goodput_gbps, &m.fct_us, &m.slowdown,
                       &m.iteration_us}) {
    const std::vector<double> v = c->Values();
    out.push_back(static_cast<double>(v.size()));
    out.insert(out.end(), v.begin(), v.end());
  }
  for (const auto& sw : net.switches()) {
    const SwitchCounters& c = sw->counters();
    for (const int64_t n :
         {c.rx_packets, c.tx_packets, c.dropped_packets, c.ecn_marked_packets,
          c.pause_frames_sent, c.resume_frames_sent,
          c.pause_frames_received}) {
      out.push_back(static_cast<double>(n));
    }
  }
  return out;
}

// scenario_cli's default traffic is the registered spec
// `pairs:pairs=12,incast=8`; the registry path must run exactly the
// simulation of the pattern built from the same options, and likewise for
// poisson.
TEST(Workload, RegisteredSpecsRunTheDirectPatterns) {
  constexpr uint64_t kSeed = 5;
  PairsOptions pairs;
  pairs.num_pairs = 12;
  pairs.incast_degree = 8;
  pairs.seed = kSeed;
  PairsPattern direct_pairs(pairs);
  const std::vector<double> want_pairs = RunOnClos(direct_pairs);
  EXPECT_GT(want_pairs[1], 0.0);  // completions happened
  EXPECT_EQ(RunOnClos(*workload::CreateWorkloadPattern(
                workload::ParseWorkloadSpec("pairs:pairs=12,incast=8"),
                kSeed)),
            want_pairs);

  workload::PoissonOptions poisson;
  poisson.offered_load = Gbps(60);
  poisson.max_in_flight = 20;
  poisson.seed = kSeed;
  workload::PoissonPattern direct_poisson(poisson);
  const std::vector<double> want_poisson = RunOnClos(direct_poisson);
  EXPECT_GT(want_poisson[1], 0.0);
  EXPECT_EQ(RunOnClos(*workload::CreateWorkloadPattern(
                workload::ParseWorkloadSpec(
                    "poisson:load_gbps=60,max_in_flight=20"),
                kSeed)),
            want_poisson);
}

TEST(ProbeSet, RateProbeMeasuresFlowGoodput) {
  Network net(1);
  auto topo = BuildStar(net, 2, TopologyOptions{});
  FlowSpec f;
  f.flow_id = 0;
  f.src_host = topo.hosts[0]->id();
  f.dst_host = topo.hosts[1]->id();
  f.size_bytes = 0;  // greedy
  f.cc_policy = CcPolicyIdByName("raw");
  net.StartFlow(f);
  telemetry::ProbeSet probes(&net.eq(), Milliseconds(1));
  const size_t f0 = probes.AddRate(
      "f0", [&] { return topo.hosts[1]->ReceiverDeliveredBytes(0); });
  probes.Start();
  net.RunFor(Milliseconds(10));
  // Steady line-rate flow: every 1 ms window shows ~40 Gbps.
  EXPECT_NEAR(probes.MeanOver(f0, Milliseconds(2), Milliseconds(10)), 40.0,
              1.0);
}

TEST(ProbeSet, GaugeProbeBuildsQueueCdf) {
  Network net(5);
  auto topo = BuildStar(net, 5, TopologyOptions{});
  for (int i = 0; i < 4; ++i) {
    FlowSpec f;
    f.flow_id = i;
    f.src_host = topo.hosts[static_cast<size_t>(i)]->id();
    f.dst_host = topo.hosts[4]->id();
    f.size_bytes = 0;
    net.StartFlow(f);
  }
  telemetry::ProbeSet probes(&net.eq(), Microseconds(10));
  const size_t queue = probes.AddGauge("queue_bytes", [&] {
    return static_cast<double>(topo.sw->EgressQueueBytes(4, kDataPriority));
  });
  probes.Start();
  net.RunFor(Milliseconds(20));
  Cdf cdf = probes.ToCdf(queue, Milliseconds(5));
  ASSERT_GT(cdf.size(), 100u);
  // DCQCN keeps the queue bounded well below the DCTCP-style level.
  EXPECT_LT(cdf.Quantile(0.9), 300e3);
  EXPECT_GT(cdf.Quantile(0.9), 0.0);
}

}  // namespace
}  // namespace dcqcn
