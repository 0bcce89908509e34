// Host-path device model (src/host/): config grammar, the
// verbs/doorbell/PCIe/cache pipeline, and the VerbsWorkloadHost
// integration — default-off identity, deterministic replay, accounting
// closure through the device, the QP-cache goodput cliff, fault
// composition and host.* telemetry.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "host/host_config.h"
#include "host/host_device.h"
#include "net/topology.h"
#include "nic/rdma_nic.h"
#include "runner/runner.h"
#include "runner/serialize.h"
#include "sim/event_queue.h"
#include "telemetry/collect.h"
#include "telemetry/metric_registry.h"
#include "workload/sim_host.h"
#include "workload/verbs_host.h"
#include "workload/workload.h"

namespace dcqcn {
namespace {

using host::HostPathConfig;
using host::HostPathDevice;
using host::HostSpec;
using host::Verb;

// ---------------------------------------------------------------------------
// --host grammar / profiles / config construction.

TEST(HostSpecGrammar, ParsesNameAndParams) {
  HostSpec s = host::ParseHostSpec("tiny-cache:qp_cache=4,verb=read");
  ASSERT_TRUE(s.ok);
  EXPECT_EQ(s.name, "tiny-cache");
  ASSERT_EQ(s.params.size(), 2u);
  EXPECT_EQ(s.params.at("qp_cache"), "4");
  EXPECT_EQ(s.params.at("verb"), "read");

  s = host::ParseHostSpec("default");
  ASSERT_TRUE(s.ok);
  EXPECT_EQ(s.name, "default");
  EXPECT_TRUE(s.params.empty());
}

TEST(HostSpecGrammar, RejectsMalformedSpecs) {
  EXPECT_FALSE(host::ParseHostSpec("").ok);
  EXPECT_FALSE(host::ParseHostSpec(":qp_cache=4").ok);
  EXPECT_FALSE(host::ParseHostSpec("default:").ok);
  EXPECT_FALSE(host::ParseHostSpec("default:qp_cache").ok);
  EXPECT_FALSE(host::ParseHostSpec("default:qp_cache=4,").ok);
  EXPECT_FALSE(host::ParseHostSpec("default:=4").ok);
}

TEST(HostSpecGrammar, CheckRejectsUnknownProfileAndKey) {
  EXPECT_EQ(host::CheckHostSpec(host::ParseHostSpec("default")), "");
  EXPECT_EQ(host::CheckHostSpec(host::ParseHostSpec("off")), "");

  const std::string unknown_profile =
      host::CheckHostSpec(host::ParseHostSpec("mega-cache"));
  EXPECT_NE(unknown_profile.find("unknown --host profile"), std::string::npos);
  // The error lists the registered profiles, like --cc and --workload do.
  EXPECT_NE(unknown_profile.find("tiny-cache"), std::string::npos);

  const std::string unknown_key =
      host::CheckHostSpec(host::ParseHostSpec("default:qp_cash=4"));
  EXPECT_NE(unknown_key.find("unknown --host key"), std::string::npos);
}

TEST(HostSpecGrammar, MakeAppliesProfileAndOverrides) {
  EXPECT_FALSE(host::MakeHostPathConfig(host::ParseHostSpec("off")).enabled);

  const HostPathConfig def =
      host::MakeHostPathConfig(host::ParseHostSpec("default"));
  EXPECT_TRUE(def.enabled);
  EXPECT_EQ(def.qp_cache_entries, HostPathConfig{}.qp_cache_entries);

  const HostPathConfig tiny = host::MakeHostPathConfig(
      host::ParseHostSpec("tiny-cache:qp_cache=4,verb=read,doorbell_batch=8,"
                          "pcie_gbps=64"));
  EXPECT_TRUE(tiny.enabled);
  EXPECT_EQ(tiny.qp_cache_entries, 4);
  EXPECT_EQ(tiny.mr_cache_entries, 16);  // tiny-cache profile base
  EXPECT_EQ(tiny.workload_verb, Verb::kRead);
  EXPECT_EQ(tiny.doorbell_batch, 8);
  EXPECT_DOUBLE_EQ(tiny.pcie_rate, Gbps(64));
}

TEST(HostCli, RunnerParseCliAcceptsAndRejectsHostSpecs) {
  {
    const char* argv[] = {"bench", "--host=tiny-cache:qp_cache=4"};
    const runner::CliOptions cli = runner::ParseCli(2, const_cast<char**>(argv));
    ASSERT_TRUE(cli.ok) << cli.error;
    EXPECT_EQ(cli.host, "tiny-cache:qp_cache=4");
  }
  {
    const char* argv[] = {"bench", "--host", "mega-cache"};
    const runner::CliOptions cli = runner::ParseCli(3, const_cast<char**>(argv));
    EXPECT_FALSE(cli.ok);
    EXPECT_NE(cli.error.find("unknown --host profile"), std::string::npos);
  }
  {
    const char* argv[] = {"bench", "--host=default:qp_cache"};
    const runner::CliOptions cli = runner::ParseCli(2, const_cast<char**>(argv));
    EXPECT_FALSE(cli.ok);
  }
}

// ---------------------------------------------------------------------------
// Device pipeline unit tests (raw EventQueue, no network).

HostPathConfig UnitCfg() {
  HostPathConfig cfg;
  cfg.enabled = true;
  return cfg;
}

// With doorbell_batch=1 every post rings its own doorbell; with batch=4,
// 8 simultaneous posts ring exactly twice.
TEST(HostPathDeviceTest, DoorbellBatchAmortizesMmio) {
  for (const int batch : {1, 4}) {
    EventQueue eq;
    HostPathConfig cfg = UnitCfg();
    cfg.doorbell_batch = batch;
    HostPathDevice dev(&eq, cfg, /*node_id=*/0);
    dev.CreateQp(0);
    int launched = 0;
    for (int i = 0; i < 8; ++i) {
      dev.Post(0, Verb::kWrite, 4096, [&launched] {
        ++launched;
        return true;
      });
    }
    eq.RunUntil(Milliseconds(1));
    EXPECT_EQ(launched, 8);
    EXPECT_EQ(dev.stats().wr_posted, 8);
    EXPECT_EQ(dev.stats().wr_launched, 8);
    EXPECT_EQ(dev.stats().doorbells, batch == 1 ? 8 : 2);
  }
}

// A partial batch is flushed by the timer, not stuck waiting for more posts.
TEST(HostPathDeviceTest, PartialBatchFlushes) {
  EventQueue eq;
  HostPathConfig cfg = UnitCfg();
  cfg.doorbell_batch = 16;
  HostPathDevice dev(&eq, cfg, 0);
  dev.CreateQp(0);
  Time launch_time = -1;
  dev.Post(0, Verb::kWrite, 1024, [&] {
    launch_time = eq.Now();
    return true;
  });
  eq.RunUntil(Milliseconds(1));
  ASSERT_GE(launch_time, 0);
  EXPECT_EQ(dev.stats().doorbells, 1);
  // Flush delay + doorbell MMIO are both in the launch path.
  EXPECT_GE(launch_time, cfg.doorbell_flush + cfg.doorbell_latency);
}

// Posts beyond sq_depth backlog host-side and are admitted as completions
// free slots; accounting closes exactly.
TEST(HostPathDeviceTest, SqDepthBoundsOutstandingWrs) {
  EventQueue eq;
  HostPathConfig cfg = UnitCfg();
  cfg.sq_depth = 2;
  HostPathDevice dev(&eq, cfg, 0);
  dev.CreateQp(7);
  int launched = 0;
  for (int i = 0; i < 5; ++i) {
    dev.Post(7, Verb::kWrite, 2048, [&launched] {
      ++launched;
      return true;
    });
  }
  EXPECT_EQ(dev.stats().sq_stalls, 3);
  eq.RunUntil(Milliseconds(1));
  EXPECT_EQ(launched, 2);  // the rest are backlogged behind the SQ bound

  int completions = 0;
  for (int i = 0; i < 5; ++i) {
    dev.OnWireComplete(7, [&completions] { ++completions; });
    eq.RunUntil(eq.Now() + Milliseconds(1));
  }
  EXPECT_EQ(launched, 5);
  EXPECT_EQ(completions, 5);
  EXPECT_EQ(dev.stats().wr_posted, 5);
  EXPECT_EQ(dev.stats().wr_completed, 5);
  EXPECT_EQ(dev.in_flight(), 0);
}

// Launches on one QP are FIFO in post order.
TEST(HostPathDeviceTest, PerQpLaunchFifo) {
  EventQueue eq;
  HostPathConfig cfg = UnitCfg();
  cfg.doorbell_batch = 4;
  HostPathDevice dev(&eq, cfg, 0);
  dev.CreateQp(0);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    // Decreasing sizes: if payload DMA alone decided, later WRs would
    // launch earlier.
    dev.Post(0, Verb::kWrite, (4 - i) * 8192, [&order, i] {
      order.push_back(i);
      return true;
    });
  }
  eq.RunUntil(Milliseconds(1));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// Thrashing the QP/MR caches serializes every WR on the context-fetch
// engine: per-WR launch span is >= 2x the warm case (the cliff, in unit
// form).
TEST(HostPathDeviceTest, CacheMissesSerializeLaunches) {
  auto span_per_wr = [](int num_qps, int rounds) {
    EventQueue eq;
    HostPathConfig cfg = UnitCfg();
    cfg.qp_cache_entries = 4;
    cfg.mr_cache_entries = 4;
    cfg.sq_depth = 1 << 20;
    HostPathDevice dev(&eq, cfg, 0);
    for (int q = 0; q < num_qps; ++q) dev.CreateQp(q);
    Time last = 0;
    for (int r = 0; r < rounds; ++r) {
      for (int q = 0; q < num_qps; ++q) {
        dev.Post(q, Verb::kWrite, 4096, [&last, &eq] {
          last = eq.Now();
          return true;
        });
      }
    }
    eq.RunUntil(Milliseconds(10));
    return static_cast<double>(last) / (num_qps * rounds);
  };
  const double warm = span_per_wr(/*num_qps=*/4, /*rounds=*/8);    // fits
  const double thrash = span_per_wr(/*num_qps=*/8, /*rounds=*/8);  // misses
  EXPECT_GE(thrash, 2.0 * warm)
      << "warm=" << warm << "ps/wr thrash=" << thrash << "ps/wr";
}

// The slow-host drain delay shifts every launch by at least that much.
TEST(HostPathDeviceTest, DrainDelayStretchesDoorbellService) {
  auto first_launch = [](Time drain) {
    EventQueue eq;
    HostPathDevice dev(&eq, UnitCfg(), 0);
    dev.SetDrainDelay(drain);
    dev.CreateQp(0);
    Time t = -1;
    dev.Post(0, Verb::kWrite, 4096, [&] {
      t = eq.Now();
      return true;
    });
    eq.RunUntil(Milliseconds(1));
    return t;
  };
  const Time base = first_launch(0);
  const Time slow = first_launch(Microseconds(5));
  ASSERT_GE(base, 0);
  EXPECT_EQ(slow, base + Microseconds(5));
}

// Completion is only visible after the CQE DMA + poll latency; READ charges
// its payload at completion time, making its CQE later than WRITE's.
TEST(HostPathDeviceTest, CqeLatencyAndReadPayloadAtCompletion) {
  auto cqe_delay = [](Verb verb) {
    EventQueue eq;
    HostPathDevice dev(&eq, UnitCfg(), 0);
    dev.CreateQp(0);
    dev.Post(0, verb, 256 * 1024, [] { return true; });
    eq.RunUntil(Milliseconds(1));
    const Time wire_done = eq.Now();
    Time cqe = -1;
    dev.OnWireComplete(0, [&] { cqe = eq.Now(); });
    eq.RunUntil(eq.Now() + Milliseconds(5));
    return cqe - wire_done;
  };
  const Time write_delay = cqe_delay(Verb::kWrite);
  const Time read_delay = cqe_delay(Verb::kRead);
  EXPECT_GE(write_delay, UnitCfg().cqe_latency);
  // 256 KB over the PCIe budget lands on the READ completion side.
  EXPECT_GT(read_delay, write_delay);
}

// A launch callback returning false (emission stopped) retires the WR,
// frees its SQ slot, and admits the backlog — no wire completion expected.
TEST(HostPathDeviceTest, DeclinedLaunchRetiresAndAdmitsBacklog) {
  EventQueue eq;
  HostPathConfig cfg = UnitCfg();
  cfg.sq_depth = 1;
  HostPathDevice dev(&eq, cfg, 0);
  dev.CreateQp(0);
  int attempts = 0;
  for (int i = 0; i < 3; ++i) {
    dev.Post(0, Verb::kWrite, 1024, [&attempts] {
      ++attempts;
      return false;  // pattern already stopped
    });
  }
  eq.RunUntil(Milliseconds(1));
  EXPECT_EQ(attempts, 3);  // backlog drained through the retire path
  EXPECT_EQ(dev.stats().wr_retired, 3);
  EXPECT_EQ(dev.stats().wr_launched, 0);
  EXPECT_EQ(dev.in_flight(), 0);
}

// Counter closure: doorbells == posts at batch=1, cache lookups equal
// hits + misses, and the PCIe byte ledger covers descriptors + payloads.
TEST(HostPathDeviceTest, StatsAccountingCloses) {
  EventQueue eq;
  HostPathDevice dev(&eq, UnitCfg(), 0);
  for (int q = 0; q < 3; ++q) dev.CreateQp(q);
  const int kWrs = 30;
  for (int i = 0; i < kWrs; ++i) {
    dev.Post(i % 3, Verb::kWrite, 4096, [] { return true; });
  }
  eq.RunUntil(Milliseconds(1));
  for (int i = 0; i < kWrs; ++i) {
    dev.OnWireComplete(i % 3, nullptr);
  }
  eq.RunUntil(eq.Now() + Milliseconds(1));
  EXPECT_EQ(dev.stats().wr_posted, kWrs);
  EXPECT_EQ(dev.stats().doorbells, kWrs);  // doorbell_batch == 1
  EXPECT_EQ(dev.stats().wr_completed, kWrs);
  EXPECT_EQ(dev.qp_cache().hits() + dev.qp_cache().misses(),
            dev.qp_cache().lookups());
  EXPECT_EQ(dev.qp_cache().lookups(), kWrs);
  EXPECT_EQ(dev.mr_cache().lookups(), kWrs);
  // 3 QPs fit the cache: one miss each, then hits.
  EXPECT_EQ(dev.qp_cache().misses(), 3);
  // desc + ctx fetches + payloads + CQEs all crossed the bus.
  const HostPathConfig cfg = UnitCfg();
  EXPECT_EQ(dev.pcie().bytes(),
            kWrs * (cfg.desc_bytes + 4096 + cfg.cqe_bytes) +
                6 * cfg.ctx_fetch_bytes);  // 3 QP + 3 MR cold misses
  EXPECT_EQ(dev.stats().posted_by_verb[static_cast<int>(Verb::kWrite)], kWrs);
}

// ---------------------------------------------------------------------------
// VerbsWorkloadHost integration on a paper-shape Clos.

struct ChurnRun {
  runner::TrialResult result;
  int64_t started = 0;
  int64_t completed = 0;
  int64_t in_flight = 0;
  int64_t posted = 0;
  int64_t wr_completed = 0;
  int64_t retired = 0;
  int64_t doorbells = 0;
  int64_t device_in_flight = 0;
  uint64_t events_after_drain = 0;
};

ChurnRun RunChurnThroughHostPath(int qp_cache, int fanout, uint64_t seed,
                                 Time duration, Time drain) {
  Network net(seed);
  TopologyOptions topt;
  topt.nic_config.host_path.enabled = true;
  topt.nic_config.host_path.qp_cache_entries = qp_cache;
  topt.nic_config.host_path.mr_cache_entries = 2 * qp_cache;
  const ClosTopology topo = BuildClos(net, /*hosts_per_tor=*/5, topt);
  const std::vector<RdmaNic*> hosts = topo.AllHosts();

  workload::WorkloadSpec spec;
  spec.name = "qpchurn";
  spec.params["fanout"] = std::to_string(fanout);
  spec.params["kb"] = "4";
  std::unique_ptr<workload::WorkloadPattern> pattern =
      workload::CreateWorkloadPattern(spec, seed);
  workload::VerbsWorkloadHost vhost(net, hosts, TransportMode::kRdmaDcqcn);
  vhost.Begin(*pattern);
  net.RunFor(duration);

  ChurnRun run;
  if (drain > 0) {
    vhost.StopEmission();
    net.RunFor(drain);
    run.events_after_drain =
        net.eq().RunUntil(net.eq().Now() + Milliseconds(5));
  }
  run.result.name = "qpchurn";
  workload::FillTrialResult(vhost.metrics(), &run.result);
  run.started = vhost.metrics().started;
  run.completed = vhost.metrics().completed;
  run.in_flight = vhost.metrics().in_flight;
  for (RdmaNic* h : hosts) {
    const HostPathDevice* d = h->host_path();
    run.posted += d->stats().wr_posted;
    run.wr_completed += d->stats().wr_completed;
    run.retired += d->stats().wr_retired;
    run.doorbells += d->stats().doorbells;
    run.device_in_flight += d->in_flight();
  }
  return run;
}

// No host-path config => no device, and nothing host-related in telemetry:
// the wire-only world is bit-for-bit what it was before this subsystem.
TEST(VerbsHostIntegration, DefaultOffBuildsNoDevice) {
  Network net(1);
  const ClosTopology topo = BuildClos(net, 2, TopologyOptions{});
  for (const auto& per_tor : topo.hosts_by_tor) {
    for (RdmaNic* h : per_tor) {
      EXPECT_EQ(h->host_path(), nullptr);
    }
  }
  telemetry::MetricRegistry reg;
  telemetry::CollectNetworkMetrics(net, &reg);
  for (const auto& kv : reg.Snapshot().counters) {
    EXPECT_EQ(kv.first.rfind("host.", 0), std::string::npos) << kv.first;
  }
}

TEST(VerbsHostIntegration, DeterministicReplay) {
  const ChurnRun a =
      RunChurnThroughHostPath(8, 6, 11, Microseconds(300), 0);
  const ChurnRun b =
      RunChurnThroughHostPath(8, 6, 11, Microseconds(300), 0);
  EXPECT_GT(a.started, 0);
  EXPECT_EQ(runner::ResultsToJson({a.result}),
            runner::ResultsToJson({b.result}));
  EXPECT_EQ(a.posted, b.posted);
}

// Through the device: every workload launch matches one completion, every
// posted WR ends completed or retired, and the queue goes silent.
TEST(VerbsHostIntegration, AccountingClosesAndQuiescesAfterDrain) {
  const ChurnRun run =
      RunChurnThroughHostPath(8, 6, 7, Microseconds(300), Milliseconds(250));
  EXPECT_GT(run.started, 0);
  EXPECT_EQ(run.started, run.completed);
  EXPECT_EQ(run.in_flight, 0);
  EXPECT_EQ(run.posted, run.wr_completed + run.retired);
  EXPECT_EQ(run.device_in_flight, 0);
  EXPECT_EQ(run.doorbells, run.posted);  // doorbell_batch == 1
  EXPECT_EQ(run.events_after_drain, 0u);
}

// The acceptance cliff, in-test: same workload, the under-provisioned cache
// completes less than half the messages of the fitting one.
TEST(VerbsHostIntegration, QpCacheCliffHalvesGoodput) {
  const int kFanout = 16;
  const ChurnRun fits =
      RunChurnThroughHostPath(/*qp_cache=*/64, kFanout, 5, Microseconds(400),
                              0);
  const ChurnRun thrash =
      RunChurnThroughHostPath(/*qp_cache=*/4, kFanout, 5, Microseconds(400),
                              0);
  EXPECT_GT(fits.completed, 0);
  EXPECT_GT(thrash.completed, 0);
  EXPECT_GE(fits.completed, 2 * thrash.completed)
      << "fits=" << fits.completed << " thrash=" << thrash.completed;
}

// SlowReceiver-style faults reach the host path: SetControlDelay forwards
// into the device's doorbell drain.
TEST(VerbsHostIntegration, ControlDelayForwardsToDrainDelay) {
  Network net(1);
  TopologyOptions topt;
  topt.nic_config.host_path.enabled = true;
  const ClosTopology topo = BuildClos(net, 2, topt);
  RdmaNic* nic = topo.hosts_by_tor[0][0];
  ASSERT_NE(nic->host_path(), nullptr);
  EXPECT_EQ(nic->host_path()->drain_delay(), 0);
  nic->SetControlDelay(Microseconds(5));
  EXPECT_EQ(nic->host_path()->drain_delay(), Microseconds(5));
  nic->SetControlDelay(0);
  EXPECT_EQ(nic->host_path()->drain_delay(), 0);
}

// host.* flows through the shared CollectNetworkMetrics path with node
// labels, and the exported counters match the device.
TEST(VerbsHostIntegration, TelemetryExportsHostNamespace) {
  Network net(3);
  TopologyOptions topt;
  topt.nic_config.host_path.enabled = true;
  const ClosTopology topo = BuildClos(net, 2, topt);
  const std::vector<RdmaNic*> hosts = topo.AllHosts();
  workload::WorkloadSpec spec;
  spec.name = "qpchurn";
  spec.params["fanout"] = "2";
  spec.params["kb"] = "4";
  std::unique_ptr<workload::WorkloadPattern> pattern =
      workload::CreateWorkloadPattern(spec, 3);
  workload::VerbsWorkloadHost vhost(net, hosts, TransportMode::kRdmaDcqcn);
  vhost.Begin(*pattern);
  net.RunFor(Microseconds(200));

  telemetry::MetricRegistry reg;
  telemetry::CollectNetworkMetrics(net, &reg);
  const telemetry::RegistrySnapshot snap = reg.Snapshot();
  int64_t exported_posted = 0, device_posted = 0;
  for (const auto& kv : snap.counters) {
    if (kv.first.rfind("host.wr_posted", 0) == 0) exported_posted += kv.second;
  }
  for (RdmaNic* h : hosts) device_posted += h->host_path()->stats().wr_posted;
  EXPECT_GT(device_posted, 0);
  EXPECT_EQ(exported_posted, device_posted);
  // Node-labeled key for the first host exists.
  const std::string key = "host.wr_posted{node=" +
                          std::to_string(hosts[0]->id()) + "}";
  EXPECT_EQ(snap.counters.count(key), 1u) << key;
}

}  // namespace
}  // namespace dcqcn
