// Conformance suite for the hybrid packet/flow fast-forward engine
// (src/hybrid/): the allocator's max-min fixed point (and its bit-for-bit
// agreement with a full-scan reference), the --hybrid spec grammar, the
// quiescence gate's maintained PFC counts against a brute-force scan, and
// the engine's accuracy contract against the pure packet engine — exact FCT
// equality on an uncongested fabric with zero pacing jitter, bounded FCT
// error under load, byte-identical runner output across --jobs, composition
// with every registered rate-based CC policy, packet-mode fallback around
// faults and window-based transports, per-reason reject accounting, and
// bounded event-queue peeks that keep every event in the timer wheel.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "bench/common.h"
#include "common/rng.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "hybrid/allocator.h"
#include "hybrid/engine.h"
#include "net/network.h"
#include "net/topology.h"
#include "runner/runner.h"
#include "runner/serialize.h"
#include "workload/sim_host.h"
#include "workload/workload.h"

namespace dcqcn {
namespace {

using hybrid::AllocDemand;
using hybrid::AllocResult;
using hybrid::HybridConfig;
using hybrid::HybridEngine;
using hybrid::MaxMinAllocate;
using hybrid::ParseHybridSpec;
using hybrid::RejectReason;

// ---------- allocator ----------

TEST(MaxMinAllocator, SingleFlowTakesMinOfCapAndLink) {
  const std::vector<Rate> links = {Gbps(40)};
  AllocResult r = MaxMinAllocate({{Gbps(25), {0}}}, links);
  ASSERT_EQ(r.rate.size(), 1u);
  EXPECT_DOUBLE_EQ(r.rate[0], Gbps(25));

  r = MaxMinAllocate({{Gbps(100), {0}}}, links);
  EXPECT_DOUBLE_EQ(r.rate[0], Gbps(40));
}

TEST(MaxMinAllocator, EqualSplitOnSharedBottleneck) {
  const std::vector<Rate> links = {Gbps(40)};
  const AllocResult r =
      MaxMinAllocate({{Gbps(40), {0}}, {Gbps(40), {0}}}, links);
  ASSERT_EQ(r.rate.size(), 2u);
  EXPECT_NEAR(r.rate[0], Gbps(20), 1.0);
  EXPECT_NEAR(r.rate[1], Gbps(20), 1.0);
}

TEST(MaxMinAllocator, CapFreezeRedistributesHeadroom) {
  // Flow 0 freezes at its 10 Gbps cap; flow 1 absorbs the rest of the link.
  const std::vector<Rate> links = {Gbps(40)};
  const AllocResult r =
      MaxMinAllocate({{Gbps(10), {0}}, {Gbps(40), {0}}}, links);
  EXPECT_NEAR(r.rate[0], Gbps(10), 1.0);
  EXPECT_NEAR(r.rate[1], Gbps(30), 1.0);
}

TEST(MaxMinAllocator, ClassicTwoBottleneckMaxMin) {
  // Links: A (10), B (40). Flow 0 crosses A only, flow 1 crosses A and B,
  // flow 2 crosses B only. Max-min: flows 0/1 split A at 5 each; flow 2
  // takes B's remainder, 35.
  const std::vector<Rate> links = {Gbps(10), Gbps(40)};
  const AllocResult r = MaxMinAllocate(
      {{Gbps(40), {0}}, {Gbps(40), {0, 1}}, {Gbps(40), {1}}}, links);
  EXPECT_NEAR(r.rate[0], Gbps(5), 1.0);
  EXPECT_NEAR(r.rate[1], Gbps(5), 1.0);
  EXPECT_NEAR(r.rate[2], Gbps(35), 1.0);
}

TEST(MaxMinAllocator, EmptyDemandsYieldEmptyResult) {
  const AllocResult r = MaxMinAllocate({}, {Gbps(40)});
  EXPECT_TRUE(r.rate.empty());
}

// The allocator as first written: every filling round scans all links of
// the fabric. Kept as the reference the touched-link allocator must match
// bit for bit.
AllocResult FullScanMaxMin(const std::vector<AllocDemand>& demands,
                           const std::vector<Rate>& link_capacity) {
  const size_t nf = demands.size();
  const size_t nl = link_capacity.size();
  AllocResult out;
  out.rate.assign(nf, 0.0);
  if (nf == 0) return out;
  std::vector<Rate> remaining = link_capacity;
  std::vector<int32_t> active(nl, 0);
  std::vector<char> frozen(nf, 0);
  size_t unfrozen = nf;
  for (const AllocDemand& d : demands) {
    for (int32_t l : d.links) ++active[static_cast<size_t>(l)];
  }
  constexpr double kRelTol = 1e-9;
  while (unfrozen > 0) {
    ++out.rounds;
    double inc = std::numeric_limits<double>::infinity();
    for (size_t l = 0; l < nl; ++l) {
      if (active[l] > 0) inc = std::min(inc, remaining[l] / active[l]);
    }
    for (size_t f = 0; f < nf; ++f) {
      if (!frozen[f]) inc = std::min(inc, demands[f].cap - out.rate[f]);
    }
    if (inc < 0) inc = 0;
    for (size_t f = 0; f < nf; ++f) {
      if (!frozen[f]) out.rate[f] += inc;
    }
    for (size_t l = 0; l < nl; ++l) {
      if (active[l] > 0) remaining[l] -= inc * active[l];
    }
    size_t froze = 0;
    for (size_t f = 0; f < nf; ++f) {
      if (frozen[f]) continue;
      bool stop = out.rate[f] >= demands[f].cap * (1.0 - kRelTol);
      for (int32_t l : demands[f].links) {
        const auto i = static_cast<size_t>(l);
        stop = stop || remaining[i] <= kRelTol * link_capacity[i];
      }
      if (stop) {
        frozen[f] = 1;
        ++froze;
        --unfrozen;
        for (int32_t l : demands[f].links) --active[static_cast<size_t>(l)];
      }
    }
    if (froze == 0) break;
  }
  return out;
}

TEST(MaxMinAllocator, TouchedLinkFillMatchesFullScanBitForBit) {
  // Random demand sets: 1-64 flows, paths of 1-8 links (repeats allowed)
  // drawn half from a small hot set — shared, oversubscribed bottlenecks —
  // and half from the whole fabric. Every fourth set uses a 1000-2000 link
  // fabric and the next a tiny one, so a call cannot lean on state sized by
  // the previous call. Some sets pin link capacities a hair above another
  // flow's cap, so a link ends a round just above or below the saturation
  // tolerance.
  Rng rng(/*seed=*/20150817);
  const Rate kTiers[] = {Gbps(10), Gbps(25), Gbps(40), Gbps(100)};
  for (int iter = 0; iter < 10000; ++iter) {
    const bool large = iter % 4 == 0;
    const auto nl = static_cast<size_t>(large ? rng.UniformInt(1000, 2000)
                                              : rng.UniformInt(1, 64));
    const bool equal_caps = rng.Chance(0.5);
    std::vector<Rate> caps(nl);
    for (Rate& c : caps) c = equal_caps ? Gbps(40) : kTiers[rng.UniformInt(0, 3)];
    const auto hot = static_cast<int64_t>(
        rng.UniformInt(1, static_cast<int64_t>(std::min<size_t>(nl, 6))));
    const int64_t hot_base = rng.UniformInt(0, static_cast<int64_t>(nl) - 1);
    std::vector<AllocDemand> demands(
        static_cast<size_t>(rng.UniformInt(1, 64)));
    for (AllocDemand& d : demands) {
      d.cap = rng.Chance(0.5) ? Gbps(40) : Gbps(rng.Uniform(0.5, 100.0));
      const int64_t hops = rng.UniformInt(1, 8);
      for (int64_t h = 0; h < hops; ++h) {
        const int64_t l =
            rng.Chance(0.5)
                ? (hot_base + rng.UniformInt(0, hot - 1)) %
                      static_cast<int64_t>(nl)
                : rng.UniformInt(0, static_cast<int64_t>(nl) - 1);
        d.links.push_back(static_cast<int32_t>(l));
      }
    }
    if (rng.Chance(0.25)) {
      const double kNudge[] = {0.0, 1e-10, 1e-8, 1e-6};
      for (const AllocDemand& d : demands) {
        if (!rng.Chance(0.5)) continue;
        const AllocDemand& other =
            demands[static_cast<size_t>(rng.UniformInt(
                0, static_cast<int64_t>(demands.size()) - 1))];
        caps[static_cast<size_t>(d.links[0])] =
            other.cap * (1.0 + kNudge[rng.UniformInt(0, 3)]);
      }
    }
    SCOPED_TRACE("demand set " + std::to_string(iter));
    const AllocResult want = FullScanMaxMin(demands, caps);
    const AllocResult got = MaxMinAllocate(demands, caps);
    EXPECT_EQ(got.rounds, want.rounds);
    ASSERT_EQ(got.rate.size(), want.rate.size());
    for (size_t i = 0; i < want.rate.size(); ++i) {
      EXPECT_EQ(got.rate[i], want.rate[i]) << "demand " << i;
    }
    if (HasFailure()) return;
  }
}

// ---------- spec grammar ----------

TEST(HybridSpec, EmptyMeansDefaults) {
  HybridConfig cfg;
  ASSERT_TRUE(ParseHybridSpec("", &cfg));
  const HybridConfig def;
  EXPECT_EQ(cfg.check_interval, def.check_interval);
  EXPECT_EQ(cfg.eps, def.eps);
  EXPECT_EQ(cfg.release_completed, def.release_completed);
}

TEST(HybridSpec, ParsesEveryKey) {
  HybridConfig cfg;
  ASSERT_TRUE(ParseHybridSpec(
      "check=50,eps=0.05,queue_frac=0.5,max_epoch=500,guard=10,release=1",
      &cfg));
  EXPECT_EQ(cfg.check_interval, Microseconds(50));
  EXPECT_DOUBLE_EQ(cfg.eps, 0.05);
  EXPECT_DOUBLE_EQ(cfg.queue_frac, 0.5);
  EXPECT_EQ(cfg.max_epoch, Microseconds(500));
  EXPECT_EQ(cfg.fault_guard, Microseconds(10));
  EXPECT_TRUE(cfg.release_completed);
}

TEST(HybridSpec, RejectsUnknownKeysAndMalformedValues) {
  HybridConfig cfg;
  EXPECT_FALSE(ParseHybridSpec("bogus=1", &cfg));
  EXPECT_FALSE(ParseHybridSpec("eps=abc", &cfg));
  EXPECT_FALSE(ParseHybridSpec("check=", &cfg));
  EXPECT_FALSE(ParseHybridSpec("check", &cfg));
}

// ---------- quiescence gate counters ----------

// Brute-force PFC scan of every switch and NIC, checked against the
// maintained counts the quiescence gate reads. Returns the number of paused
// (port, priority) pairs plus paused NICs, so callers can tell the run was
// not vacuous.
int ExpectGateCountersMatchScan(const Network& net) {
  int paused = 0;
  for (const auto& sw : net.switches()) {
    int sent = 0;
    int tx = 0;
    for (int p = 0; p < sw->num_ports(); ++p) {
      for (int pr = 0; pr < kNumPriorities; ++pr) {
        sent += sw->PauseSent(p, pr) ? 1 : 0;
        tx += sw->TxPaused(p, pr) ? 1 : 0;
      }
    }
    EXPECT_EQ(sw->pauses_outstanding(), sent) << "switch " << sw->id();
    EXPECT_EQ(sw->tx_paused_count(), tx) << "switch " << sw->id();
    paused += sent + tx;
  }
  for (const auto& nic : net.hosts()) {
    bool any = false;
    for (int pr = 0; pr < kNumPriorities; ++pr) any = any || nic->TxPaused(pr);
    EXPECT_EQ(nic->AnyTxPaused(), any) << "host " << nic->id();
    paused += any ? 1 : 0;
  }
  return paused;
}

// 8:1 line-rate raw incast across pods on the testbed Clos (a PFC cascade
// from the receiver's ToR up through the spines), checked every 10 us.
void RunIncastCheckingGateCounters(const TopologyOptions& topt,
                                   const FaultPlan& plan) {
  Network net(/*seed=*/3);
  const ClosTopology topo = BuildClos(net, 5, topt);
  for (int tor = 0; tor < 2; ++tor) {
    for (int h = 0; h < 4; ++h) {
      FlowSpec f;
      f.flow_id = net.NextFlowId();
      f.src_host = topo.host(tor, h)->id();
      f.dst_host = topo.host(3, 0)->id();
      f.size_bytes = 0;  // greedy
      f.mode = TransportMode::kRdmaRaw;
      f.ecmp_salt = static_cast<uint64_t>(h);
      net.StartFlow(f);
    }
  }
  FaultInjector inj(&net, plan, /*seed=*/9);
  inj.Arm();
  int paused_steps = 0;
  for (int step = 1; step <= 200; ++step) {
    net.Run(step * Microseconds(10));
    SCOPED_TRACE("t = " + std::to_string(step * 10) + " us");
    if (ExpectGateCountersMatchScan(net) > 0) ++paused_steps;
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(net.TotalPauseFramesSent(), 0);
  EXPECT_GT(paused_steps, 0);
  EXPECT_EQ(inj.faults_started(), static_cast<int64_t>(plan.faults.size()));
}

TEST(GateCounters, MatchBruteForceScanWithPauseExpiryAndRefresh) {
  TopologyOptions topt;
  topt.switch_config.pfc_pause_expiry = Microseconds(100);
  topt.switch_config.pfc_pause_refresh = Microseconds(40);
  topt.nic_config.pfc_pause_expiry = Microseconds(100);
  RunIncastCheckingGateCounters(topt, FaultPlan{});
}

TEST(GateCounters, MatchBruteForceScanAcrossLinkDown) {
  // The receiver ToR (T4, node 3) loses one of its two leaf uplinks (L3,
  // node 6) mid-incast: frames in flight on it — PAUSE and RESUME included
  // — die, and the latching PFC model keeps whatever state they left.
  FaultPlan plan;
  plan.Add(LinkFlap(/*node_a=*/3, /*node_b=*/6, Microseconds(300),
                    Microseconds(600)));
  RunIncastCheckingGateCounters(TopologyOptions{}, plan);
}

// ---------- engine vs packet engine ----------

// Node-id layout produced by BuildClos: ToRs, leaves, spines, then hosts
// ToR-major (shard_test pins this for the partitioner).
int HostId(const ClosShape& s, int tor, int h) {
  return s.num_tors() + s.num_leaves() + s.spines + tor * s.hosts_per_tor + h;
}

struct DisjointRun {
  std::map<int, Time> finish;  // flow id -> sender-side completion time
  uint64_t events = 0;
  hybrid::HybridStats stats;
};

// One bounded flow inside each ToR of the paper testbed (host 0 -> host 1,
// two dedicated host links per flow, no shared fabric links), with pacing
// jitter disabled — the regime where the analytic model's integer
// arithmetic must reproduce the packet engine's FCTs exactly.
DisjointRun RunDisjointPairs(bool use_hybrid) {
  const ClosShape shape{};  // 4 ToRs / 20 hosts
  Network net(/*seed=*/11);
  TopologyOptions topt;
  topt.nic_config.pacing_jitter = 0.0;
  const ClosTopology topo = BuildClos(net, shape, topt);
  HybridConfig cfg;
  cfg.check_interval = Microseconds(5);
  std::optional<HybridEngine> hyb;
  if (use_hybrid) hyb.emplace(&net, cfg);

  std::vector<RdmaNic*> senders;
  for (int tor = 0; tor < shape.num_tors(); ++tor) {
    FlowSpec fs;
    fs.flow_id = net.NextFlowId();
    fs.src_host = HostId(shape, tor, 0);
    fs.dst_host = HostId(shape, tor, 1);
    fs.size_bytes = 256 * kKB;
    net.StartFlow(fs);
    senders.push_back(topo.hosts_by_tor[static_cast<size_t>(tor)][0]);
  }

  DisjointRun out;
  out.events = use_hybrid ? hyb->Run(Milliseconds(1)) : net.Run(Milliseconds(1));
  for (const RdmaNic* nic : senders) {
    for (const FlowRecord& rec : nic->completed_flows()) {
      out.finish[rec.spec.flow_id] = rec.finish_time;
    }
  }
  if (use_hybrid) out.stats = hyb->stats();
  return out;
}

TEST(HybridEngine, ExactFctEqualityOnUncongestedFabric) {
  const DisjointRun packet = RunDisjointPairs(/*use_hybrid=*/false);
  const DisjointRun hybrid = RunDisjointPairs(/*use_hybrid=*/true);

  ASSERT_EQ(packet.finish.size(), 4u);
  ASSERT_EQ(hybrid.finish.size(), 4u);
  for (const auto& [flow_id, t] : packet.finish) {
    ASSERT_TRUE(hybrid.finish.count(flow_id));
    // Picosecond-exact: the analytic pacing/serialization arithmetic must
    // match SenderQp and Link::Transmit bit for bit.
    EXPECT_EQ(hybrid.finish.at(flow_id), t) << "flow " << flow_id;
  }
  // The fast path must actually engage — otherwise this test is vacuous.
  EXPECT_GE(hybrid.stats.epochs, 1);
  EXPECT_GT(hybrid.stats.ff_packets, 0);
  EXPECT_GT(hybrid.stats.ff_completions, 0);
  EXPECT_LT(hybrid.events, packet.events);
}

// Runs the ScaleTrial harness (one mid-size Clos case, open-loop Poisson)
// with the given hybrid spec; returns the serialized results.
std::vector<runner::TrialResult> RunPoissonCase(const std::string& hybrid,
                                                const std::string& cc,
                                                double load_gbps,
                                                const FaultPlan* faults,
                                                int jobs) {
  bench::ScaleCase c;
  c.name = "hybrid_conformance";
  c.shape = ClosShape{.pods = 4, .tors_per_pod = 2, .leaves_per_pod = 2,
                      .spines = 4, .hosts_per_tor = 8};  // 64 hosts
  c.duration = Milliseconds(2);
  bench::ScaleTrialOptions topt;
  topt.cc = runner::ResolveCc(cc, TransportMode::kRdmaDcqcn);
  char wl[64];
  std::snprintf(wl, sizeof(wl), "poisson:load_gbps=%.6g", load_gbps);
  topt.workload = wl;
  topt.workload_size_scale = 0.3;
  std::vector<runner::TrialSpec> matrix = {bench::ScaleTrial(c, topt)};
  if (faults != nullptr) matrix[0].faults = *faults;
  runner::RunnerOptions opt;
  opt.jobs = jobs;
  opt.base_seed = 23;
  opt.hybrid = hybrid;
  return runner::RunTrials(matrix, opt);
}

// Sparse Poisson traffic on a 64-host Clos, the regime where the controller
// alternates idle probes with short epochs. Its NextEventTime peek is
// bounded by the epoch end and every packet-mode step runs to a bound, so
// the wheel cursor never passes the clock: nothing is filed in the heap
// behind it (an unbounded peek filed tens of thousands of events per
// trial there on the 512-host benchmark). The counts are pinned to the
// unbounded controller's: the bound changes no simulated event.
TEST(HybridEngine, BoundedPeeksFileNothingBehindTheWheelCursor) {
  const ClosShape shape{.pods = 4, .tors_per_pod = 2, .leaves_per_pod = 2,
                        .spines = 4, .hosts_per_tor = 8};
  Network net(/*seed=*/29);
  const ClosTopology topo = BuildClos(net, shape, TopologyOptions{});
  const std::vector<RdmaNic*> hosts = topo.AllHosts();
  HybridConfig cfg;
  cfg.check_interval = Microseconds(5);
  HybridEngine hyb(&net, cfg);
  const auto pattern = workload::CreateWorkloadPattern(
      workload::ParseWorkloadSpec("poisson:load_gbps=12.8,cdf=storage-backend"),
      /*seed=*/7);
  workload::SimWorkloadHost whost(net, hosts, TransportMode::kRdmaDcqcn);
  whost.Begin(*pattern);
  uint64_t events = hyb.Run(Milliseconds(20));
  whost.StopEmission();
  events += hyb.Run(Milliseconds(60));

  const hybrid::HybridStats& st = hyb.stats();
  EXPECT_EQ(net.eq().heap_counters().behind_cursor, 0u);
  EXPECT_EQ(events, 27774u);
  EXPECT_EQ(st.probes, 215);
  EXPECT_EQ(st.epochs, 11);
  EXPECT_EQ(st.ff_packets, 28144);
  EXPECT_EQ(whost.metrics().completed, 100);
  EXPECT_EQ(whost.metrics().in_flight, 0);
}

TEST(HybridEngine, ProbeDuringPauseRejectsAsSwitchPfc) {
  // A babbling NIC (host 0 of T3) pauses its ToR's downlink while one
  // bounded flow runs elsewhere with no queue and no loss: every probe
  // during the storm must reject on switch PFC; once the storm heals, the
  // same flow fast-forwards.
  Network net(/*seed=*/11);
  const ClosTopology topo = BuildClos(net, 5, TopologyOptions{});
  HybridConfig cfg;
  cfg.check_interval = Microseconds(5);
  HybridEngine hyb(&net, cfg);
  topo.host(2, 0)->StartPauseStorm(kDataPriority, Microseconds(20));
  FlowSpec fs;
  fs.flow_id = net.NextFlowId();
  fs.src_host = topo.host(0, 0)->id();
  fs.dst_host = topo.host(0, 1)->id();
  fs.size_bytes = 4000 * kKB;  // ~0.8 ms at line rate: outlives the storm
  net.StartFlow(fs);

  hyb.Run(Microseconds(100));
  const hybrid::HybridStats during = hyb.stats();
  EXPECT_GT(during.probes, 0);
  EXPECT_EQ(during.epochs, 0);
  EXPECT_EQ(during.entry_rejects, during.probes);
  EXPECT_EQ(during.rejects[static_cast<size_t>(RejectReason::kSwitchPfc)],
            during.entry_rejects);

  topo.host(2, 0)->StopPauseStorm(kDataPriority);
  hyb.Run(Milliseconds(2));
  const hybrid::HybridStats after = hyb.stats();
  EXPECT_GE(after.epochs, 1);
  EXPECT_EQ(std::accumulate(after.rejects.begin(), after.rejects.end(),
                            int64_t{0}),
            after.entry_rejects);
}

TEST(HybridEngine, MedianFctWithinFivePercentUnderLoad) {
  // ~5% offered load: enough concurrency that flows really collide (the
  // hybrid run must mix packet-mode congestion with fast-forwarded epochs).
  const auto packet = RunPoissonCase("", "", 128.0, nullptr, 1);
  const auto hybrid = RunPoissonCase("on", "", 128.0, nullptr, 1);
  ASSERT_EQ(packet.size(), 1u);
  ASSERT_EQ(hybrid.size(), 1u);

  // Same arrival process on both engines.
  EXPECT_EQ(packet[0].counters.at("wl_started"),
            hybrid[0].counters.at("wl_started"));
  // The fast path engaged at least once.
  EXPECT_GE(hybrid[0].counters.at("hybrid_epochs"), 1);
  // Every rejected probe is attributed to exactly one reason.
  int64_t reasons = 0;
  for (size_t i = 0; i < hybrid::kNumRejectReasons; ++i) {
    reasons += hybrid[0].counters.at(
        std::string("hybrid_reject_") +
        hybrid::RejectReasonName(static_cast<RejectReason>(i)));
  }
  EXPECT_EQ(reasons, hybrid[0].counters.at("hybrid_entry_rejects"));
  EXPECT_EQ(packet[0].counters.count("hybrid_reject_loss"), 0u);

  const Summary& pf = packet[0].summaries.at("wl_fct_us");
  const Summary& hf = hybrid[0].summaries.at("wl_fct_us");
  ASSERT_GT(pf.count, 50u);
  ASSERT_GT(hf.count, 50u);
  EXPECT_NEAR(hf.median, pf.median, 0.05 * pf.median);
  EXPECT_NEAR(hf.mean, pf.mean, 0.05 * pf.mean);
}

TEST(HybridEngine, RunnerOutputByteIdenticalAcrossJobs) {
  bench::ScaleTrialOptions topt;
  topt.workload = "poisson:load_gbps=50";
  topt.workload_size_scale = 0.3;
  topt.fct_reservoir = 128;        // exercise the capped-Cdf path too
  topt.retain_flow_records = false;
  std::vector<runner::TrialSpec> matrix;
  for (const bench::ScaleCase& c : bench::ScaleCases(/*smoke=*/true)) {
    matrix.push_back(bench::ScaleTrial(c, topt));
  }
  runner::RunnerOptions opt;
  opt.base_seed = 5;
  opt.hybrid = "release=1,check=5";
  opt.jobs = 1;
  const std::string serial =
      runner::ResultsToJson(runner::RunTrials(matrix, opt));
  opt.jobs = 8;
  const std::string parallel =
      runner::ResultsToJson(runner::RunTrials(matrix, opt));
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("hybrid_epochs"), std::string::npos);
}

TEST(HybridEngine, ComposesWithEveryRateBasedPolicy) {
  for (const std::string cc : {"dcqcn", "timely"}) {
    const auto packet = RunPoissonCase("", cc, 32.0, nullptr, 1);
    const auto hybrid = RunPoissonCase("on", cc, 32.0, nullptr, 1);
    // Identical arrival stream; completions may shift only for flows still
    // in flight at the window edge.
    EXPECT_EQ(packet[0].counters.at("wl_started"),
              hybrid[0].counters.at("wl_started"))
        << cc;
    const double pc = static_cast<double>(packet[0].counters.at("wl_completed"));
    const double hc = static_cast<double>(hybrid[0].counters.at("wl_completed"));
    EXPECT_NEAR(hc, pc, std::max(2.0, 0.02 * pc)) << cc;
    EXPECT_GE(hybrid[0].counters.at("hybrid_epochs"), 1) << cc;
  }
}

TEST(HybridEngine, WindowBasedTransportNeverEntersFlowMode) {
  // DCTCP is window-based: the gate must reject every probe, and with zero
  // epochs the hybrid run must reproduce the packet run's numbers exactly.
  const auto packet = RunPoissonCase("", "dctcp", 32.0, nullptr, 1);
  const auto hybrid = RunPoissonCase("on", "dctcp", 32.0, nullptr, 1);
  EXPECT_EQ(hybrid[0].counters.at("hybrid_epochs"), 0);
  for (const char* k : {"wl_started", "wl_completed", "events",
                        "delivered_bytes", "cnps", "drops"}) {
    EXPECT_EQ(packet[0].counters.at(k), hybrid[0].counters.at(k)) << k;
  }
}

TEST(HybridEngine, FaultPlansForcePacketModeAndMatchInjection) {
  // A mid-run link flap plus a lossy window. The controller must never
  // fast-forward across a boundary (fault_guard), and the injection itself
  // — a packet-level mechanism — must execute identically.
  FaultPlan plan;
  const ClosShape s{.pods = 4, .tors_per_pod = 2, .leaves_per_pod = 2,
                    .spines = 4, .hosts_per_tor = 8};
  const int tor0 = 0;
  const int leaf0 = s.num_tors();
  plan.Add(LinkFlap(tor0, leaf0, Microseconds(300), Microseconds(200)));
  plan.Add(PacketLoss(tor0, leaf0, Microseconds(900), Microseconds(300),
                      0.02));
  const auto packet = RunPoissonCase("", "", 64.0, &plan, 1);
  const auto hybrid = RunPoissonCase("on", "", 64.0, &plan, 1);
  EXPECT_EQ(packet[0].counters.at("faults_started"),
            hybrid[0].counters.at("faults_started"));
  EXPECT_EQ(packet[0].counters.at("faults_healed"),
            hybrid[0].counters.at("faults_healed"));
  EXPECT_EQ(packet[0].counters.at("wl_started"),
            hybrid[0].counters.at("wl_started"));
  const double pc = static_cast<double>(packet[0].counters.at("wl_completed"));
  const double hc = static_cast<double>(hybrid[0].counters.at("wl_completed"));
  EXPECT_NEAR(hc, pc, std::max(2.0, 0.02 * pc));
}

}  // namespace
}  // namespace dcqcn
