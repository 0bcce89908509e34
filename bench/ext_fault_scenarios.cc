// Extension — fault scenarios: DCQCN vs PFC-only under an unhealthy fabric.
//
// The paper motivates DCQCN with what PFC does to a *healthy* fabric under
// congestion (victim flows, unfairness). Production RDMA deployments also
// see the unhealthy cases: flapping optics, BER loss/corruption, babbling
// NICs that emit PAUSE storms, slow receivers, and shrunken buffers. This
// bench replays the paper's Fig. 4/9 victim-flow experiment on the full
// Clos testbed while a declarative FaultPlan injects each failure mode, and
// sweeps fault intensity (storm duration, flap rate, drop probability) for
// PFC-only vs DCQCN.
//
// The headline scenario is the pause storm: a babbling NIC at the incast
// receiver R pauses T4's egress, congestion spreads PAUSE-by-PAUSE to the
// victim's ToR, and the victim flow (whose path shares no congested link)
// collapses under PFC-only — while DCQCN's end-to-end backoff drains the
// buffer pressure and keeps the victim moving. A PauseStormDetector
// watchdogs the victim's ToR exactly the way deployments watchdog
// paused-time per window.
//
// PFC pause-quanta semantics (802.1Qbb expiry + refresh) are enabled so a
// storm has to keep babbling to keep ports paused — matching real hardware,
// where a PAUSE is a lease, not a latch.
//
// Every scenario x mode cell is an independent trial on the parallel
// experiment runner: `--jobs N`, `--seed S`, `--json/--csv PATH` per README.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "cc/scenarios.h"
#include "fault/fault_injector.h"
#include "fault/pause_storm_detector.h"
#include "net/topology.h"
#include "runner/runner.h"
#include "telemetry/collect.h"

using namespace dcqcn;

namespace {

// Faults activate after convergence and the victim is measured to the end.
constexpr Time kWarmup = Milliseconds(10);
constexpr Time kFaultAt = kWarmup;
constexpr Time kEnd = Milliseconds(30);

struct Scenario {
  std::string name;
  FaultPlan faults;  // targets named by node id (Clos, 5 hosts/ToR)
};

// Clos node ids with hosts_per_tor = 5: ToRs 0-3, leaves 4-7, spines 8-9,
// hosts 10+ tor-major. Incast: host(0,0..3) = 10..13 -> R = host(3,0) = 25.
// Victim: VS = host(0,4) = 14 -> VR = host(1,0) = 15.
constexpr int kTor0 = 0;
constexpr int kTor3 = 3;
constexpr int kIncastSender0 = 10;
constexpr int kReceiverR = 25;

std::vector<Scenario> BuildScenarios() {
  std::vector<Scenario> out;
  out.push_back({"baseline", {}});

  // Storm-duration sweep: R babbles PAUSE on the data priority.
  for (Time dur : {Milliseconds(1), Milliseconds(3), Milliseconds(8)}) {
    Scenario s;
    s.name = "storm_" + std::to_string(dur / kMillisecond) + "ms";
    s.faults.Add(PauseStorm(kReceiverR, kDataPriority, kFaultAt, dur));
    out.push_back(std::move(s));
  }

  // Flap-rate sweep on one incast sender's access link.
  for (auto [label, period, count] :
       {std::make_tuple("flap_slow", Milliseconds(8), 2),
        std::make_tuple("flap_fast", Milliseconds(2), 8)}) {
    Scenario s;
    s.name = label;
    AddPeriodicFlaps(&s.faults, kTor0, kIncastSender0, kFaultAt, period,
                     /*down_for=*/Microseconds(500), count);
    out.push_back(std::move(s));
  }

  // Drop-probability sweep (plus corruption) on R's access link.
  for (auto [label, p] : {std::make_pair("drop_1e-3", 1e-3),
                          std::make_pair("drop_1e-2", 1e-2)}) {
    Scenario s;
    s.name = label;
    s.faults.Add(PacketLoss(kTor3, kReceiverR, kFaultAt, kEnd - kFaultAt, p));
    out.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "corrupt_1e-3";
    s.faults.Add(
        Corruption(kTor3, kReceiverR, kFaultAt, kEnd - kFaultAt, 1e-3));
    out.push_back(std::move(s));
  }

  // T4's shared buffer shrinks to just above the reserved headroom.
  {
    Scenario s;
    s.name = "shrink_t4";
    s.faults.Add(
        BufferShrink(kTor3, kFaultAt, kEnd - kFaultAt, 6 * kMiB));
    out.push_back(std::move(s));
  }

  // R turns into a slow receiver (delayed ACK/CNP generation).
  {
    Scenario s;
    s.name = "slowrx_r";
    s.faults.Add(
        SlowReceiver(kReceiverR, kFaultAt, kEnd - kFaultAt,
                     Microseconds(100)));
    out.push_back(std::move(s));
  }
  return out;
}

runner::TrialSpec VictimTrial(const Scenario& sc, runner::CcSelection cc,
                              const std::string& label) {
  runner::TrialSpec spec;
  spec.name = sc.name + "/" + label;
  spec.faults = sc.faults;
  spec.run = [cc](const runner::TrialContext& ctx) {
    Network net(ctx.seed);
    if (ctx.trace) net.EnableTracing(ctx.trace_capacity);
    // Real 802.1Qbb quanta: a received PAUSE expires (~840 us at 40G)
    // unless the sender keeps refreshing it.
    TopologyOptions topo_opt;
    cc::ApplyCcSwitchDefaults(cc.mode, &topo_opt.switch_config);
    topo_opt.switch_config.pfc_pause_expiry = Microseconds(840);
    topo_opt.switch_config.pfc_pause_refresh = Microseconds(200);
    topo_opt.nic_config.pfc_pause_expiry = Microseconds(840);
    ClosTopology topo = BuildClos(net, /*hosts_per_tor=*/5, topo_opt);

    auto start = [&](RdmaNic* src, RdmaNic* dst, uint64_t salt) {
      FlowSpec f;
      f.flow_id = net.NextFlowId();
      f.src_host = src->id();
      f.dst_host = dst->id();
      f.size_bytes = 0;  // greedy
      f.mode = cc.mode;
      f.cc_policy = cc.policy;
      f.ecmp_salt = salt;
      net.StartFlow(f);
      return f.flow_id;
    };
    for (int h = 0; h < 4; ++h) {
      start(topo.host(0, h), topo.host(3, 0), static_cast<uint64_t>(h));
    }
    const int victim_id = start(topo.host(0, 4), topo.host(1, 0), 99);

    FaultInjector inj(&net, *ctx.faults,
                      ctx.seed * 0x9e3779b97f4a7c15ULL + 1);
    inj.Arm();
    PauseStormDetector detector(&net.eq(), PauseStormDetectorConfig{});
    detector.Watch(topo.tors[0]);  // the victim's ToR — where spreading lands
    detector.Watch(topo.tors[3]);  // the storming receiver's ToR
    detector.Start();

    // Victim goodput is measured in three phases: overall, while the fault
    // is live, and after the last heal. The during-fault phase is where the
    // transports separate: DCQCN keeps standing buffers near-empty, so a
    // pause storm must first FILL T4 before a PAUSE cascade can reach the
    // victim's ToR — PFC-only already sits at the pause threshold and
    // cascades immediately.
    const FaultPlan& plan = *ctx.faults;
    const Time heal =
        plan.empty() ? kEnd : std::min(plan.LastHealTime(), kEnd);
    auto victim_bytes = [&] {
      return topo.host(1, 0)->ReceiverDeliveredBytes(victim_id);
    };
    auto gbps = [](Bytes b, Time window) {
      return window <= 0 ? 0.0
                         : static_cast<double>(b) * 8 /
                               (static_cast<double>(window) /
                                static_cast<double>(kSecond)) /
                               1e9;
    };

    net.RunFor(kWarmup);
    const Bytes v0 = victim_bytes();
    Bytes incast_before = 0;
    for (int h = 0; h < 4; ++h) {
      incast_before += topo.host(3, 0)->ReceiverDeliveredBytes(h);
    }
    net.RunFor(heal - kFaultAt);
    const Bytes v1 = victim_bytes();
    net.RunFor(kEnd - heal);
    const Bytes v2 = victim_bytes();

    Bytes incast_after = 0;
    for (int h = 0; h < 4; ++h) {
      incast_after += topo.host(3, 0)->ReceiverDeliveredBytes(h);
    }

    runner::TrialResult r;
    r.metrics["victim_gbps"] = gbps(v2 - v0, kEnd - kWarmup);
    r.metrics["victim_fault_gbps"] = gbps(v1 - v0, heal - kFaultAt);
    r.metrics["victim_post_gbps"] = gbps(v2 - v1, kEnd - heal);
    r.metrics["incast_gbps"] = gbps(incast_after - incast_before,
                                    kEnd - kWarmup);
    r.metrics["paused_ms"] = static_cast<double>(net.TotalPausedTime()) /
                             static_cast<double>(kMillisecond);
    r.counters["pause_frames"] = net.TotalPauseFramesSent();
    r.counters["cnps"] = net.TotalCnpsSent();
    r.counters["naks"] = net.TotalNaks();
    r.counters["drops"] = net.TotalDrops();
    r.counters["storm_alarms"] =
        static_cast<int64_t>(detector.alarms().size());
    r.counters["faults_started"] = inj.faults_started();
    r.counters["faults_healed"] = inj.faults_healed();
    if (ctx.trace) {
      r.trace_json = net.ExportChromeTrace();
      telemetry::MetricRegistry registry;
      telemetry::CollectNetworkMetrics(net, &registry);
      r.registry = registry.Snapshot();
    }
    return r;
  };
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  const runner::CliOptions cli = runner::ParseCli(argc, argv);
  if (!cli.ok) {
    std::fprintf(stderr, "%s\n", cli.error.c_str());
    return 2;
  }

  const std::vector<Scenario> scenarios = BuildScenarios();
  std::vector<runner::TrialSpec> matrix;
  // --cc swaps the congestion-controlled arm (default DCQCN) while the
  // PFC-only baseline stays fixed; default names/output are byte-identical
  // to before the axis existed.
  const runner::CcSelection managed =
      runner::ResolveCc(cli.cc, TransportMode::kRdmaDcqcn);
  const std::string managed_label = cli.cc.empty() ? "dcqcn" : cli.cc;
  const std::string managed_display = cli.cc.empty() ? "DCQCN" : cli.cc;
  for (const Scenario& sc : scenarios) {
    matrix.push_back(VictimTrial(
        sc, runner::CcSelection{TransportMode::kRdmaRaw, -1}, "pfc_only"));
    matrix.push_back(VictimTrial(sc, managed, managed_label));
  }
  if (!cli.trace_prefix.empty()) {
    for (runner::TrialSpec& spec : matrix) {
      spec.trace_path = runner::TracePathFor(cli.trace_prefix, spec.name);
    }
  }

  runner::RunnerOptions opt;
  opt.jobs = cli.jobs;
  opt.base_seed = cli.seed;
  const std::vector<runner::TrialResult> results =
      runner::RunTrials(matrix, opt);

  std::printf("Extension: victim flow under injected faults, PFC-only vs "
              "%s (jobs=%d)\n", managed_display.c_str(), cli.jobs);
  std::printf("Clos testbed, 4:1 incast into R + victim VS->VR; faults hit "
              "at t=%lld ms, victim measured over the following %lld ms.\n\n",
              static_cast<long long>(kFaultAt / kMillisecond),
              static_cast<long long>((kEnd - kWarmup) / kMillisecond));
  std::printf("(victim Gbps: whole window / while fault live / after "
              "heal)\n");
  std::printf("%-14s %-9s %7s %8s %7s %7s %9s %8s %7s %6s %6s\n", "scenario",
              "mode", "victim", "v@fault", "v@post", "incast", "paused_ms",
              "pauses", "cnps", "naks", "alarms");
  for (size_t i = 0; i < results.size(); ++i) {
    const runner::TrialResult& r = results[i];
    const std::string scenario = scenarios[i / 2].name;
    std::printf(
        "%-14s %-9s %7.2f %8.2f %7.2f %7.2f %9.2f %8lld %7lld %6lld "
        "%6lld\n",
        scenario.c_str(), i % 2 == 0 ? "pfc_only" : managed_label.c_str(),
        r.metrics.at("victim_gbps"), r.metrics.at("victim_fault_gbps"),
        r.metrics.at("victim_post_gbps"), r.metrics.at("incast_gbps"),
        r.metrics.at("paused_ms"),
        static_cast<long long>(r.counters.at("pause_frames")),
        static_cast<long long>(r.counters.at("cnps")),
        static_cast<long long>(r.counters.at("naks")),
        static_cast<long long>(r.counters.at("storm_alarms")));
  }

  // The acceptance bar for the fault subsystem: during the seeded pause
  // storm the victim collapses under PFC-only while DCQCN measurably keeps
  // it moving (standing queues near-empty => the storm must fill T4 before
  // the cascade reaches the victim's ToR).
  double storm_raw = -1, storm_managed = -1;
  for (size_t i = 0; i < results.size(); ++i) {
    if (scenarios[i / 2].name == "storm_8ms") {
      (i % 2 == 0 ? storm_raw : storm_managed) =
          results[i].metrics.at("victim_fault_gbps");
    }
  }
  const std::string verdict =
      storm_managed > 2 * storm_raw
          ? managed_display + " keeps the victim alive through the storm"
          : "(!) expected " + managed_display + " to recover the victim";
  std::printf(
      "\nheadline (storm_8ms, during the storm): victim %.2f Gbps under "
      "PFC-only vs %.2f Gbps with %s — %s\n",
      storm_raw, storm_managed, managed_display.c_str(), verdict.c_str());

  return runner::WriteRequestedOutputs(cli, results) ? 0 : 1;
}
