// Telemetry subsystem tests: the structured event tracer (ring semantics,
// deterministic ordering, zero-event disabled mode, Chrome JSON export),
// the metric registry (label-keyed uniqueness, snapshot round-trip), the
// registry-driven probes, network metric collection, and the end-to-end
// guarantee the runner builds on: trace bytes independent of --jobs.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "net/topology.h"
#include "runner/runner.h"
#include "runner/serialize.h"
#include "telemetry/collect.h"
#include "telemetry/event_trace.h"
#include "telemetry/metric_registry.h"
#include "telemetry/probes.h"

namespace dcqcn {
namespace {

using telemetry::EncodeMetricKey;
using telemetry::EventTracer;
using telemetry::MetricLabels;
using telemetry::MetricRegistry;
using telemetry::RegistrySnapshot;
using telemetry::TraceEventType;
using telemetry::TraceRecord;

// ---------------------------------------------------------------- tracer --

TEST(EventTracer, RingWraparoundKeepsNewestInOrder) {
  EventTracer tracer(8);
  for (int i = 0; i < 20; ++i) {
    tracer.Record(i * kMicrosecond, TraceEventType::kPktEnqueue,
                  /*node=*/0, /*port=*/0, /*priority=*/3, /*flow=*/-1,
                  /*value=*/i);
  }
  EXPECT_EQ(tracer.capacity(), 8u);
  EXPECT_EQ(tracer.size(), 8u);
  EXPECT_EQ(tracer.total_recorded(), 20u);
  EXPECT_EQ(tracer.overwritten(), 12u);

  const std::vector<TraceRecord> snap = tracer.Snapshot();
  ASSERT_EQ(snap.size(), 8u);
  for (size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].value, 12 + static_cast<int64_t>(i));
    EXPECT_EQ(snap[i].t, (12 + static_cast<Time>(i)) * kMicrosecond);
  }
}

TEST(EventTracer, NoWraparoundBelowCapacity) {
  EventTracer tracer(16);
  for (int i = 0; i < 5; ++i) {
    tracer.Record(i, TraceEventType::kEcnMark, 1, 2, 3, -1, i);
  }
  EXPECT_EQ(tracer.size(), 5u);
  EXPECT_EQ(tracer.overwritten(), 0u);
  const std::vector<TraceRecord> snap = tracer.Snapshot();
  ASSERT_EQ(snap.size(), 5u);
  for (size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].value, static_cast<int64_t>(i));
  }
}

TEST(EventTracer, EqualTimestampsPreserveInsertionOrder) {
  // Events at the same simulated instant must come back in the order they
  // were recorded (the EventQueue's FIFO tiebreak), including across a
  // wraparound boundary.
  EventTracer tracer(4);
  const Time t = Milliseconds(1);
  for (int i = 0; i < 7; ++i) {
    tracer.Record(t, TraceEventType::kCnpTx, /*node=*/9, /*port=*/0,
                  /*priority=*/0, /*flow=*/i, /*value=*/0);
  }
  const std::vector<TraceRecord> snap = tracer.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].flow, 3 + static_cast<int32_t>(i));
  }
}

TEST(EventTracer, ClearResetsEverything) {
  EventTracer tracer(4);
  for (int i = 0; i < 9; ++i) {
    tracer.Record(i, TraceEventType::kPktDrop, 0, 0, 0, -1, i);
  }
  tracer.Clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.total_recorded(), 0u);
  EXPECT_EQ(tracer.overwritten(), 0u);
  tracer.Record(1, TraceEventType::kPktDrop, 0, 0, 0, -1, 42);
  const std::vector<TraceRecord> snap = tracer.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].value, 42);
}

// A tiny congested run: 3:1 greedy DCQCN incast on a star for 300 us.
// Produces enqueues/dequeues, ECN marks, CNPs and rate updates.
Network& BuildIncast(Network& net, StarTopology* out_topo) {
  StarTopology topo = BuildStar(net, 4, TopologyOptions{});
  for (int i = 0; i < 3; ++i) {
    FlowSpec f;
    f.flow_id = i;
    f.src_host = topo.hosts[static_cast<size_t>(i)]->id();
    f.dst_host = topo.hosts[3]->id();
    f.size_bytes = 0;
    net.StartFlow(f);
  }
  *out_topo = topo;
  return net;
}

TEST(EventTracer, DisabledMeansZeroEventsAndIdenticalSimulation) {
  // Same seed, tracing off vs on: the simulation must be bit-identical
  // (tracing is observation only) and the untraced network must have no
  // tracer at all.
  auto run = [](bool traced, int64_t* cnps, Bytes* delivered) {
    Network net(7);
    if (traced) net.EnableTracing();
    StarTopology topo;
    BuildIncast(net, &topo);
    net.RunFor(Microseconds(300));
    *cnps = net.TotalCnpsSent();
    *delivered = topo.hosts[3]->ReceiverDeliveredBytes(0) +
                 topo.hosts[3]->ReceiverDeliveredBytes(1) +
                 topo.hosts[3]->ReceiverDeliveredBytes(2);
    return net.tracer() != nullptr ? net.tracer()->total_recorded() : 0;
  };

  int64_t cnps_off = 0, cnps_on = 0;
  Bytes bytes_off = 0, bytes_on = 0;
  const uint64_t events_off = run(false, &cnps_off, &bytes_off);
  const uint64_t events_on = run(true, &cnps_on, &bytes_on);

  EXPECT_EQ(events_off, 0u);
  EXPECT_GT(events_on, 0u);
  EXPECT_EQ(cnps_off, cnps_on);
  EXPECT_EQ(bytes_off, bytes_on);
}

TEST(EventTracer, ChromeJsonExportIsDeterministicAndComplete) {
  auto trace_of = [] {
    Network net(11);
    net.EnableTracing();
    StarTopology topo;
    BuildIncast(net, &topo);
    net.RunFor(Microseconds(300));
    return net.ExportChromeTrace();
  };
  const std::string json = trace_of();

  // Structure + the event classes a congested DCQCN run must surface.
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"q p"), std::string::npos);       // queues
  EXPECT_NE(json.find("\"name\":\"ECN p"), std::string::npos);     // marks
  EXPECT_NE(json.find("\"name\":\"CNP tx\""), std::string::npos);  // NP
  EXPECT_NE(json.find("\"name\":\"CNP rx\""), std::string::npos);  // RP in
  EXPECT_NE(json.find("\"name\":\"rate_gbps\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("switch 0"), std::string::npos);  // node naming
  EXPECT_EQ(json.back(), '}');

  // Same seed, fresh network: byte-identical export.
  EXPECT_EQ(json, trace_of());
}

TEST(EventTracer, UntracedNetworkExportsEmptyString) {
  Network net(1);
  EXPECT_EQ(net.tracer(), nullptr);
  EXPECT_EQ(net.ExportChromeTrace(), "");
}

TEST(EventTracer, SwitchPauseEdgesTraceOnlyOnChange) {
  Network net(1);
  net.EnableTracing();
  SharedBufferSwitch* sw = net.AddSwitch(2, SwitchConfig{});
  Packet pause;
  pause.type = PacketType::kPause;
  pause.pfc_priority = kDataPriority;
  Packet resume = pause;
  resume.type = PacketType::kResume;

  sw->ReceivePacket(pause, 0);
  sw->ReceivePacket(pause, 0);   // no edge: already paused
  sw->ReceivePacket(resume, 0);
  sw->ReceivePacket(resume, 0);  // no edge: already resumed

  const std::vector<TraceRecord> pfc = [&] {
    std::vector<TraceRecord> out;
    for (const TraceRecord& r : net.tracer()->Snapshot()) {
      if (r.type == TraceEventType::kPauseRx ||
          r.type == TraceEventType::kResumeRx) {
        out.push_back(r);
      }
    }
    return out;
  }();
  ASSERT_EQ(pfc.size(), 2u);
  EXPECT_EQ(pfc[0].type, TraceEventType::kPauseRx);
  EXPECT_EQ(pfc[1].type, TraceEventType::kResumeRx);
  EXPECT_EQ(pfc[0].port, 0);
  EXPECT_EQ(pfc[0].priority, kDataPriority);
}

// -------------------------------------------------------------- registry --

TEST(MetricRegistry, EncodesCanonicalKeys) {
  EXPECT_EQ(EncodeMetricKey("net.drops", MetricLabels{}), "net.drops");
  EXPECT_EQ(EncodeMetricKey("sw.drops", MetricLabels{3, 1, 4, -1}),
            "sw.drops{node=3,port=1,prio=4}");
  EXPECT_EQ(EncodeMetricKey("rate", MetricLabels{-1, -1, -1, 17}),
            "rate{flow=17}");
}

TEST(MetricRegistry, LabelsDistinguishMetrics) {
  MetricRegistry reg;
  int64_t& a = reg.Counter("drops", MetricLabels{1, -1, -1, -1});
  int64_t& b = reg.Counter("drops", MetricLabels{2, -1, -1, -1});
  a += 5;
  b += 9;
  // Same (name, labels) resolves to the same storage.
  EXPECT_EQ(reg.Counter("drops", MetricLabels{1, -1, -1, -1}), 5);
  EXPECT_EQ(reg.Counter("drops", MetricLabels{2, -1, -1, -1}), 9);
  EXPECT_EQ(reg.size(), 2u);

  const RegistrySnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("drops{node=1}"), 5);
  EXPECT_EQ(snap.counters.at("drops{node=2}"), 9);
}

TEST(MetricRegistry, GaugeMaxKeepsHighWatermark) {
  MetricRegistry reg;
  const MetricLabels q{0, 3, 3, -1};
  reg.GaugeMax("depth", q, 100);
  reg.GaugeMax("depth", q, 700);
  reg.GaugeMax("depth", q, 300);
  EXPECT_EQ(reg.Gauge("depth", q), 700);
}

TEST(MetricRegistry, SnapshotJsonRoundTrips) {
  MetricRegistry reg;
  reg.Counter("net.drops") = 12;
  reg.Counter("sw.ecn_marked", MetricLabels{0, 3, 3, -1}) = 451;
  reg.Gauge("sw.max_queue_depth", MetricLabels{0, 3, 3, -1}) = 123456;
  for (double v : {1.0, 2.0, 2.5, 9.75}) {
    reg.Observe("goodput", MetricLabels{-1, -1, -1, 2}, v);
  }
  const RegistrySnapshot snap = reg.Snapshot();
  EXPECT_FALSE(snap.empty());
  EXPECT_EQ(snap.histograms.at("goodput{flow=2}").count, 4u);

  RegistrySnapshot parsed;
  ASSERT_TRUE(RegistrySnapshot::FromJson(snap.ToJson(), &parsed));
  EXPECT_EQ(parsed, snap);
  // And the parsed snapshot serializes to the same bytes.
  EXPECT_EQ(parsed.ToJson(), snap.ToJson());
}

TEST(MetricRegistry, FromJsonRejectsMalformedInput) {
  RegistrySnapshot out;
  EXPECT_FALSE(RegistrySnapshot::FromJson("", &out));
  EXPECT_FALSE(RegistrySnapshot::FromJson("{", &out));
  EXPECT_FALSE(RegistrySnapshot::FromJson("[]", &out));
  EXPECT_FALSE(RegistrySnapshot::FromJson(
      "{\"counters\":{},\"gauges\":{},\"histograms\":{}}trailing", &out));
  // The empty schema parses.
  EXPECT_TRUE(RegistrySnapshot::FromJson(
      "{\"counters\":{},\"gauges\":{},\"histograms\":{}}", &out));
  EXPECT_TRUE(out.empty());
}

// ---------------------------------------------------------------- probes --

TEST(ProbeSet, RateProbeConvertsDeltasToGbps) {
  EventQueue eq;
  // Cumulative byte counter advancing 125000 bytes per ms == 1 Gbps.
  Bytes delivered = 0;
  eq.ScheduleIn(0, [&] {});  // anchor t=0
  telemetry::ProbeSet probes(&eq, Milliseconds(1));
  const size_t idx = probes.AddRate("goodput", [&] { return delivered; });
  probes.Start();
  // Advance in 1 ms steps, bumping the counter between samples.
  for (int step = 0; step < 10; ++step) {
    eq.RunUntil((step + 1) * Milliseconds(1));
    delivered += 125000;
  }
  const TimeSeries& series = probes.Series(idx);
  ASSERT_GE(series.points.size(), 5u);
  EXPECT_NEAR(probes.MeanOver(idx, Milliseconds(2), Milliseconds(10)), 1.0,
              1e-9);
}

TEST(ProbeSet, GaugeProbeSamplesAndExports) {
  EventQueue eq;
  double level = 0;
  telemetry::ProbeSet probes(&eq, Microseconds(100));
  probes.AddGauge("queue", [&] { return level; },
                  MetricLabels{0, 3, 3, -1});
  probes.Start();
  for (int step = 0; step < 8; ++step) {
    level = 100.0 * step;
    eq.RunUntil((step + 1) * Microseconds(100));
  }
  MetricRegistry reg;
  probes.ExportTo(&reg, /*from=*/Microseconds(400));
  const RegistrySnapshot snap = reg.Snapshot();
  const Summary& s = snap.histograms.at("queue{node=0,port=3,prio=3}");
  // Samples at 400..800 us (level set before each tick: 300..700).
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.max, 700.0);
}

// --------------------------------------------------------------- collect --

TEST(CollectNetworkMetrics, MatchesNetworkAggregatesAndSwitchCounters) {
  Network net(13);
  StarTopology topo;
  BuildIncast(net, &topo);
  net.RunFor(Microseconds(500));

  MetricRegistry reg;
  telemetry::CollectNetworkMetrics(net, &reg);
  const RegistrySnapshot snap = reg.Snapshot();

  EXPECT_EQ(snap.counters.at("net.cnps_sent"), net.TotalCnpsSent());
  EXPECT_EQ(snap.counters.at("net.drops"), net.TotalDrops());
  EXPECT_EQ(snap.counters.at("net.naks"), net.TotalNaks());
  EXPECT_EQ(snap.counters.at("net.pause_frames_sent"),
            net.TotalPauseFramesSent());

  // Per-(port, priority) ECN marks sum to the switch-global counter, and
  // the registry rows agree with the switch accessors.
  const SharedBufferSwitch* sw = topo.sw;
  int64_t marks_sum = 0;
  Bytes deepest = 0;
  for (int port = 0; port < sw->num_ports(); ++port) {
    for (int prio = 0; prio < kNumPriorities; ++prio) {
      marks_sum += sw->EcnMarked(port, prio);
      deepest = std::max(deepest, sw->MaxQueueDepth(port, prio));
    }
  }
  EXPECT_EQ(marks_sum, sw->counters().ecn_marked_packets);
  EXPECT_GT(marks_sum, 0);  // the incast must have marked something
  EXPECT_GT(deepest, 0);
  const std::string sw_key = "{node=" + std::to_string(sw->id()) + "}";
  EXPECT_EQ(snap.counters.at("sw.ecn_marked_packets" + sw_key), marks_sum);

  // The bottleneck queue's high-watermark made it into the registry.
  const std::string depth_key =
      "sw.max_queue_depth{node=" + std::to_string(sw->id()) + ",port=3,prio=" +
      std::to_string(kDataPriority) + "}";
  EXPECT_EQ(snap.gauges.at(depth_key),
            sw->MaxQueueDepth(3, kDataPriority));
}

// ---------------------------------------------------- runner integration --

runner::TrialSpec TracedIncastTrial(int trial, const std::string& dir) {
  runner::TrialSpec spec;
  spec.name = "traced_t" + std::to_string(trial);
  spec.trace_path = dir + "/" + spec.name + ".json";
  spec.run = [](const runner::TrialContext& ctx) {
    Network net(ctx.seed);
    if (ctx.trace) net.EnableTracing(ctx.trace_capacity);
    StarTopology topo;
    BuildIncast(net, &topo);
    net.RunFor(Microseconds(300));

    runner::TrialResult r;
    r.counters["cnps"] = net.TotalCnpsSent();
    if (ctx.trace) {
      r.trace_json = net.ExportChromeTrace();
      MetricRegistry reg;
      telemetry::CollectNetworkMetrics(net, &reg);
      r.registry = reg.Snapshot();
    }
    return r;
  };
  return spec;
}

std::string ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return "";
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

TEST(RunnerTrace, TraceBytesIndependentOfJobs) {
  const std::string dir1 = ::testing::TempDir() + "telemetry_j1";
  const std::string dir8 = ::testing::TempDir() + "telemetry_j8";
  for (const std::string& d : {dir1, dir8}) {
    std::string cmd = "mkdir -p " + d;
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }

  auto build = [](const std::string& dir) {
    std::vector<runner::TrialSpec> matrix;
    for (int t = 0; t < 6; ++t) matrix.push_back(TracedIncastTrial(t, dir));
    return matrix;
  };

  runner::RunnerOptions o1;
  o1.jobs = 1;
  o1.base_seed = 42;
  runner::RunnerOptions o8 = o1;
  o8.jobs = 8;

  const std::vector<runner::TrialSpec> m1 = build(dir1);
  const std::vector<runner::TrialSpec> m8 = build(dir8);
  const std::vector<runner::TrialResult> r1 = runner::RunTrials(m1, o1);
  const std::vector<runner::TrialResult> r8 = runner::RunTrials(m8, o8);

  ASSERT_EQ(r1.size(), r8.size());
  for (size_t i = 0; i < r1.size(); ++i) {
    // In-memory traces match byte-for-byte...
    EXPECT_FALSE(r1[i].trace_json.empty());
    EXPECT_EQ(r1[i].trace_json, r8[i].trace_json) << m1[i].name;
    // ...and so do the snapshots and the files the runner wrote.
    EXPECT_FALSE(r1[i].registry.empty());
    EXPECT_EQ(r1[i].registry, r8[i].registry) << m1[i].name;
    EXPECT_EQ(ReadWholeFile(m1[i].trace_path), r1[i].trace_json);
    EXPECT_EQ(ReadWholeFile(m8[i].trace_path), r8[i].trace_json);
    // The trace carries the event classes the figures need.
    EXPECT_NE(r1[i].trace_json.find("\"name\":\"q p"), std::string::npos);
    EXPECT_NE(r1[i].trace_json.find("CNP"), std::string::npos);
    EXPECT_NE(r1[i].trace_json.find("rate_gbps"), std::string::npos);
  }

  // Results JSON embeds the registry (but never the trace itself), and
  // still parses round-trip through the snapshot schema.
  const std::string json = runner::ResultsToJson(r1);
  EXPECT_NE(json.find("\"registry\":{"), std::string::npos);
  EXPECT_EQ(json.find("traceEvents"), std::string::npos);
}

TEST(RunnerTrace, UntracedTrialsCarryNoRegistryKey) {
  runner::TrialSpec spec;
  spec.name = "plain";
  spec.run = [](const runner::TrialContext& ctx) {
    EXPECT_FALSE(ctx.trace);
    runner::TrialResult r;
    r.counters["x"] = 1;
    return r;
  };
  runner::RunnerOptions opt;
  const std::vector<runner::TrialResult> res = runner::RunTrials({spec}, opt);
  const std::string json = runner::ResultsToJson(res);
  EXPECT_EQ(json.find("\"registry\""), std::string::npos);
  EXPECT_EQ(json.find("\"faults\""), std::string::npos);
}

TEST(RunnerTrace, TracePathForSanitizesNames) {
  EXPECT_EQ(runner::TracePathFor("out/tr", "storm_8ms/dcqcn"),
            "out/tr_storm_8ms_dcqcn.json");
  EXPECT_EQ(runner::TracePathFor("p", "a b:c"), "p_a_b_c.json");
}

}  // namespace
}  // namespace dcqcn
