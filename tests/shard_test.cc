// Sharded parallel engine: partitioner properties and the determinism
// contract shards=1 ≡ shards=N.
//
// The partitioner half checks MakeClosShardPlan structurally: every node
// lands in exactly one shard, hosts ride with their ToR, every shard is
// non-empty, impossible cuts are rejected with a "no valid cut" error, and
// a Network built from the plan opens exactly two channels (one per
// direction) for every topology link whose endpoints land in different
// shards, with a positive conservative lookahead.
//
// The determinism half runs the ext_scale smoke matrix in-process through
// the experiment runner and requires byte-identical serialized JSON across
// shard counts — alone, composed with --cc / --workload / --host, under a
// boundary-crossing fault plan, and orthogonally to --jobs. This is the
// in-process twin of CI's `ext_scale --shards={1,2,4,8} ... && cmp` gate.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/common.h"
#include "fault/fault_plan.h"
#include "net/network.h"
#include "net/shard.h"
#include "net/topology.h"
#include "runner/runner.h"
#include "runner/serialize.h"

namespace dcqcn {
namespace {

std::vector<ClosShape> TestShapes() {
  return {
      ClosShape{},  // paper testbed: 4 ToRs / 20 hosts
      ClosShape{.pods = 4, .tors_per_pod = 2, .leaves_per_pod = 2,
                .spines = 4, .hosts_per_tor = 8},
      ClosShape{.pods = 4, .tors_per_pod = 4, .leaves_per_pod = 4,
                .spines = 8, .hosts_per_tor = 16},
  };
}

int TotalNodes(const ClosShape& s) {
  return s.num_tors() + s.num_leaves() + s.spines + s.num_hosts();
}

// Node-id layout produced by BuildClos (and assumed by MakeClosShardPlan):
// ToRs [0, T), leaves [T, T+L), spines [T+L, T+L+S), hosts ToR-major after.
int TorId(const ClosShape&, int tor) { return tor; }
int LeafId(const ClosShape& s, int leaf) { return s.num_tors() + leaf; }
int SpineId(const ClosShape& s, int sp) {
  return s.num_tors() + s.num_leaves() + sp;
}
int HostId(const ClosShape& s, int tor, int h) {
  return s.num_tors() + s.num_leaves() + s.spines + tor * s.hosts_per_tor + h;
}

// Links BuildClos creates whose endpoints the plan separates. Host links
// never cross (hosts ride with their ToR), so only ToR-leaf and leaf-spine
// links are candidates.
int CrossingLinks(const ClosShape& s, const ShardPlan& plan) {
  int crossing = 0;
  for (int tor = 0; tor < s.num_tors(); ++tor) {
    const int pod = tor / s.tors_per_pod;
    for (int l = 0; l < s.leaves_per_pod; ++l) {
      const int leaf = pod * s.leaves_per_pod + l;
      if (plan.shard_of(TorId(s, tor)) != plan.shard_of(LeafId(s, leaf))) {
        ++crossing;
      }
    }
  }
  for (int leaf = 0; leaf < s.num_leaves(); ++leaf) {
    for (int sp = 0; sp < s.spines; ++sp) {
      if (plan.shard_of(LeafId(s, leaf)) != plan.shard_of(SpineId(s, sp))) {
        ++crossing;
      }
    }
  }
  return crossing;
}

TEST(ClosShardPlan, EveryNodeInExactlyOneShardAndShardsNonEmpty) {
  for (const ClosShape& s : TestShapes()) {
    for (int n = 1; n <= s.num_tors(); ++n) {
      const ShardPlan plan = MakeClosShardPlan(s, n);
      ASSERT_TRUE(plan.ok) << plan.error;
      EXPECT_EQ(plan.num_shards, n);
      ASSERT_EQ(static_cast<int>(plan.shard_of_node.size()), TotalNodes(s));
      std::vector<int> population(static_cast<size_t>(n), 0);
      for (const int32_t shard : plan.shard_of_node) {
        ASSERT_GE(shard, 0);  // assigned exactly once: the vector is total
        ASSERT_LT(shard, n);
        ++population[static_cast<size_t>(shard)];
      }
      for (int i = 0; i < n; ++i) {
        EXPECT_GT(population[static_cast<size_t>(i)], 0)
            << "empty shard " << i << " of " << n;
      }
      // Hosts are co-located with their ToR — the invariant that keeps
      // host<->ToR links off the cut.
      for (int tor = 0; tor < s.num_tors(); ++tor) {
        for (int h = 0; h < s.hosts_per_tor; ++h) {
          EXPECT_EQ(plan.shard_of(HostId(s, tor, h)),
                    plan.shard_of(TorId(s, tor)));
        }
      }
    }
  }
}

TEST(ClosShardPlan, RejectsImpossibleCuts) {
  const ClosShape s;  // 4 ToRs
  EXPECT_FALSE(MakeClosShardPlan(s, 0).ok);
  const ShardPlan over = MakeClosShardPlan(s, s.num_tors() + 1);
  EXPECT_FALSE(over.ok);
  EXPECT_NE(over.error.find("no valid cut"), std::string::npos) << over.error;
}

TEST(ClosShardPlan, BoundaryLinksGetBothDirectionsAndPositiveLookahead) {
  for (const ClosShape& s : TestShapes()) {
    for (const int n : {2, 3, 4}) {
      if (n > s.num_tors()) continue;
      const ShardPlan plan = MakeClosShardPlan(s, n);
      ASSERT_TRUE(plan.ok) << plan.error;
      Network net(/*seed=*/1, plan);
      BuildClos(net, s, TopologyOptions{});
      const int crossing = CrossingLinks(s, plan);
      EXPECT_GT(crossing, 0);  // a >=2-way ToR cut always severs the fabric
      // One timestamped channel per direction of every severed link.
      EXPECT_EQ(net.num_channels(), static_cast<size_t>(2 * crossing));
      // Conservative windows need lookahead: min propagation over all links.
      EXPECT_GT(net.lookahead(), 0);
      EXPECT_EQ(net.num_shards(), n);
    }
  }
}

TEST(ClosShardPlan, ShortHostWiresDoNotShrinkTheWindow) {
  // Adaptive per-cut lookahead: a link whose endpoints share a partition
  // unit (a host and its ToR) can never cross a shard boundary, so its
  // propagation must not bound the window. With 100 ns host wires and 1 us
  // fabric links, the window stays at the fabric minimum — the legacy
  // global-minimum rule would have dragged it down 10x.
  for (const ClosShape& s : TestShapes()) {
    const ShardPlan plan = MakeClosShardPlan(s, 2);
    ASSERT_TRUE(plan.ok) << plan.error;

    TopologyOptions short_wires;
    short_wires.host_link_delay = Nanoseconds(100);
    Network net(/*seed=*/1, plan);
    BuildClos(net, s, short_wires);
    EXPECT_EQ(net.lookahead(), short_wires.link_delay);

    // Control: shortening a crossing (fabric) link *does* shrink it.
    TopologyOptions short_fabric;
    short_fabric.link_delay = Nanoseconds(100);
    Network net2(/*seed=*/1, plan);
    BuildClos(net2, s, short_fabric);
    EXPECT_EQ(net2.lookahead(), Nanoseconds(100));
  }
}

// ---------- shards=1 ≡ shards=N on the ext_scale matrix ----------

// A fault plan whose targets straddle every >=2-way ToR cut of `s`: leaf 0
// lands in shard 0 while spine 1 lands in shard 1 (spines are dealt
// round-robin), so both faulted links cross the partition boundary.
FaultPlan BoundaryFaults(const ClosShape& s) {
  FaultPlan plan;
  plan.Add(LinkFlap(LeafId(s, 0), SpineId(s, 1), Microseconds(40),
                    Microseconds(80)));
  plan.Add(PacketLoss(LeafId(s, 1), SpineId(s, 1), Microseconds(30),
                      Microseconds(120), 0.05));
  return plan;
}

std::string RunScaleMatrixJson(int shards, int jobs, uint64_t seed,
                               const bench::ScaleTrialOptions& topt,
                               bool boundary_faults, size_t max_cases) {
  std::vector<bench::ScaleCase> cases = bench::ScaleCases(/*smoke=*/true);
  if (cases.size() > max_cases) cases.resize(max_cases);
  std::vector<runner::TrialSpec> matrix;
  matrix.reserve(cases.size());
  for (const bench::ScaleCase& c : cases) {
    runner::TrialSpec spec = bench::ScaleTrial(c, topt);
    if (boundary_faults) spec.faults = BoundaryFaults(c.shape);
    matrix.push_back(std::move(spec));
  }
  runner::RunnerOptions opt;
  opt.jobs = jobs;
  opt.base_seed = seed;
  opt.shards = shards;
  return runner::ResultsToJson(runner::RunTrials(matrix, opt));
}

TEST(ShardDeterminism, ScaleMatrixIsByteIdenticalAcrossShardCounts) {
  const bench::ScaleTrialOptions topt;
  const std::string one =
      RunScaleMatrixJson(1, 1, 7, topt, false, /*max_cases=*/4);
  ASSERT_FALSE(one.empty());
  // shards=8 exercises the ToR-count clamp on the 4-ToR paper shape too.
  EXPECT_EQ(one, RunScaleMatrixJson(2, 1, 7, topt, false, 4));
  EXPECT_EQ(one, RunScaleMatrixJson(8, 1, 7, topt, false, 4));
  // --shards is orthogonal to --jobs (inter-trial parallelism).
  EXPECT_EQ(one, RunScaleMatrixJson(2, 4, 7, topt, false, 4));
}

TEST(ShardDeterminism, ComposedCcWorkloadHostIsShardCountInvariant) {
  bench::ScaleTrialOptions topt;
  topt.cc = runner::ResolveCc("dctcp", CcPolicyIdByName("dcqcn"));
  topt.workload = "pairs:pairs=32,incast=8";
  topt.host = "default";
  const std::string one = RunScaleMatrixJson(1, 1, 11, topt, false, 2);
  ASSERT_NE(one.find("wl_completed"), std::string::npos);
  // An odd shard count: windows and cuts share no structure with the
  // power-of-two sweeps.
  EXPECT_EQ(one, RunScaleMatrixJson(3, 1, 11, topt, false, 2));
}

TEST(ShardDeterminism, BoundaryCrossingFaultsAreShardCountInvariant) {
  const bench::ScaleTrialOptions topt;
  const std::string one = RunScaleMatrixJson(1, 1, 13, topt, true, 2);
  // The plan armed and fired (it is serialized with the results).
  ASSERT_NE(one.find("faults_started"), std::string::npos);
  EXPECT_EQ(one, RunScaleMatrixJson(2, 1, 13, topt, true, 2));
  EXPECT_EQ(one, RunScaleMatrixJson(4, 1, 13, topt, true, 2));
}

}  // namespace
}  // namespace dcqcn
