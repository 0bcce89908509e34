// Open-loop Poisson arrival pattern tests.
#include "workload/poisson.h"

#include <gtest/gtest.h>

#include <cmath>

#include "net/topology.h"
#include "workload/pairs.h"
#include "workload/sim_host.h"

namespace dcqcn {
namespace {

using workload::PoissonOptions;
using workload::PoissonPattern;
using workload::SimWorkloadHost;

TEST(PoissonPattern, RateMatchesOfferedLoad) {
  Network net(1);
  auto topo = BuildClos(net, 5, TopologyOptions{});
  PoissonOptions opt;
  opt.offered_load = Gbps(40);
  opt.size_scale = 0.1;  // small flows so many complete
  PoissonPattern gen(opt);
  SimWorkloadHost host(net, topo.AllHosts());
  host.Begin(gen);
  const Time dur = Milliseconds(20);
  net.RunFor(dur);
  // Expected arrivals = duration / mean gap; Poisson std is sqrt(n).
  const double expected =
      static_cast<double>(dur) / static_cast<double>(gen.mean_interarrival());
  EXPECT_NEAR(static_cast<double>(host.metrics().started), expected,
              4 * std::sqrt(expected) + 2);
}

TEST(PoissonPattern, FlowsCompleteAtModerateLoad) {
  Network net(2);
  auto topo = BuildClos(net, 5, TopologyOptions{});
  PoissonOptions opt;
  opt.offered_load = Gbps(20);  // light for a 20-host fabric
  opt.size_scale = 0.1;
  PoissonPattern gen(opt);
  SimWorkloadHost host(net, topo.AllHosts());
  host.Begin(gen);
  net.RunFor(Milliseconds(30));
  const workload::WorkloadMetrics& m = host.metrics();
  EXPECT_GT(m.completed, 0);
  // At light load nearly everything started early has finished.
  EXPECT_GT(static_cast<double>(m.completed),
            0.7 * static_cast<double>(m.started));
  EXPECT_GT(m.goodput_gbps.Quantile(0.5), 0.0);
  EXPECT_GT(m.fct_us.Quantile(0.5), 0.0);
}

TEST(PoissonPattern, HigherLoadMoreArrivals) {
  auto count = [](Rate load) {
    Network net(3);
    auto topo = BuildClos(net, 5, TopologyOptions{});
    PoissonOptions opt;
    opt.offered_load = load;
    opt.size_scale = 0.1;
    PoissonPattern gen(opt);
    SimWorkloadHost host(net, topo.AllHosts());
    host.Begin(gen);
    net.RunFor(Milliseconds(10));
    return host.metrics().started;
  };
  EXPECT_GT(count(Gbps(80)), 2 * count(Gbps(20)));
}

TEST(PoissonPattern, InFlightCapLimitsBacklog) {
  Network net(4);
  auto topo = BuildClos(net, 5, TopologyOptions{});
  PoissonOptions opt;
  opt.offered_load = Gbps(400);  // heavy overload
  opt.size_scale = 1.0;
  opt.max_in_flight = 10;
  PoissonPattern gen(opt);
  SimWorkloadHost host(net, topo.AllHosts());
  host.Begin(gen);
  net.RunFor(Milliseconds(10));
  const workload::WorkloadMetrics& m = host.metrics();
  EXPECT_GT(m.skipped, 0);
  EXPECT_LE(m.started - m.completed, 10);
}

TEST(PoissonPattern, DeterministicWithSeed) {
  auto run = [] {
    Network net(5);
    auto topo = BuildClos(net, 5, TopologyOptions{});
    PoissonOptions opt;
    opt.offered_load = Gbps(40);
    opt.size_scale = 0.1;
    opt.seed = 99;
    PoissonPattern gen(opt);
    SimWorkloadHost host(net, topo.AllHosts());
    host.Begin(gen);
    net.RunFor(Milliseconds(10));
    return std::make_pair(host.metrics().started, host.metrics().completed);
  };
  EXPECT_EQ(run(), run());
}

TEST(PoissonPattern, CoexistsWithPairsPattern) {
  // Poisson background + the §6.2 closed-loop benchmark on the same hosts:
  // the completion dispatchers must not steal each other's flows.
  Network net(6);
  auto topo = BuildClos(net, 5, TopologyOptions{});
  const std::vector<RdmaNic*> hosts = topo.AllHosts();
  workload::PairsOptions bopt;
  bopt.num_pairs = 4;
  bopt.incast_degree = 0;
  bopt.size_scale = 0.1;
  workload::PairsPattern bench(bopt);
  SimWorkloadHost bench_host(net, hosts);
  PoissonOptions popt;
  popt.offered_load = Gbps(10);
  popt.size_scale = 0.1;
  PoissonPattern gen(popt);
  SimWorkloadHost gen_host(net, hosts);
  bench_host.Begin(bench);
  gen_host.Begin(gen);
  net.RunFor(Milliseconds(20));
  EXPECT_GT(bench.user_transfers(), 0);
  EXPECT_GT(gen_host.metrics().completed, 0);
}

}  // namespace
}  // namespace dcqcn
