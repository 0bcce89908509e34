// perfbench: times whole simulations of one workload and checks them.
//
//   perfbench_sim --workload NAME --seed N --seconds S --trace 0|1
//
// One trial builds a Clos fabric, starts a registered WorkloadPattern on it,
// runs the engine until every emitted flow has completed, and checks the
// result. Trials repeat, each on its own seed derived from --seed, until
// --seconds of host time are spent; the program then prints one JSON line
// with medians over the trials.
//
//   --trace 0  end-to-end metrics: host time to simulate a trial (median and
//              p75) and set-up time, both calibrated against machine drift.
//   --trace 1  per-layer metrics: a span around each call into a layer
//              (topology build, workload start, engine run, telemetry
//              collection) plus the layers' own counters.
//
// "attempted" counts the flows the measured trials emitted; "failed" those
// that never completed. Per-trial checks (correct = all passed): every flow
// completes, the PFC fabric drops nothing, no flow beats its line rate, the
// host path closes every work request, and a re-run of the first seed
// reproduces the simulation exactly.
//
// The three workloads each put a different layer on the critical path:
//
//   fabric    the paper's §6.2 storage traffic (user pairs + a 16:1 disk
//             rebuild incast) on the 20-host testbed Clos. Congested: the
//             switch (ECN marking, PFC) and the NIC/DCQCN feedback loop do
//             the work; the host path and the hybrid engine are bypassed.
//   hostpath  qpchurn over the host-path device with an 8-entry QP cache and
//             16 QPs per host, so every work request misses the cache. The
//             verbs/doorbell/PCIe layer does the work while the fabric idles.
//   sparse    open-loop Poisson arrivals at 0.1% load on the 512-host Clos
//             under the hybrid fast path. The flow-level epoch controller
//             and allocator do the work; most packets are never simulated.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dcqcn.h"
#include "hybrid/engine.h"

namespace {

using namespace dcqcn;
using Clock = std::chrono::steady_clock;

struct Scenario {
  const char* name;
  ClosShape shape;
  const char* workload;  // WorkloadPattern spec
  const char* host;      // host-path profile; "" = wire only
  const char* hybrid;    // hybrid spec; nullptr = plain packet engine
  Time emit_for;         // emission stops here; the trial then drains
  double memory_weight;  // see CalibrationSeconds
};

const Scenario kScenarios[] = {
    {"fabric", ClosShape{},
     "pairs:pairs=20,incast=16,incast_kb=1000,think_us=100", "", nullptr,
     Milliseconds(4), 0.0},
    {"hostpath",
     ClosShape{.pods = 2, .tors_per_pod = 2, .leaves_per_pod = 2,
               .spines = 2, .hosts_per_tor = 16},
     "qpchurn:fanout=16,kb=4", "tiny-cache", nullptr, Milliseconds(1), 0.2},
    {"sparse",
     ClosShape{.pods = 8, .tors_per_pod = 4, .leaves_per_pod = 4,
               .spines = 8, .hosts_per_tor = 16},
     "poisson:load_gbps=20.48,cdf=storage-backend", "", "check=5",
     Milliseconds(150), 0.4},
};

// Simulated time a trial may spend draining in-flight flows after emission
// stops before the trial counts as hung.
constexpr Time kDrainLimit = Milliseconds(200);
constexpr Time kDrainStep = Milliseconds(1);
constexpr int kMinTrials = 5;

struct Metric {
  const char* name;
  const char* unit;
  double value = 0;
};

// Per-layer metrics, in output order (values filled per trial).
constexpr Metric kLayerMetrics[] = {
    {"topology_ms", "ms"},           // Network + BuildClos
    {"workload_ms", "ms"},           // pattern creation + Begin
    {"run_ms", "ms"},                // engine run until drained
    {"collect_ms", "ms"},            // telemetry collection
    {"events", "count"},             // event core
    {"ns_per_event", "ns"},          // run span / events
    {"pool_kb", "KiB"},              // packet-ring storage high water
    {"switch_rx_packets", "count"},  // switch
    {"ecn_marks", "count"},
    {"pause_frames", "count"},
    {"data_packets", "count"},  // NIC send path
    {"cnps", "count"},          // DCQCN feedback
    {"flows_completed", "count"},  // workload
    {"host_wr_posted", "count"},   // host path
    {"host_doorbells", "count"},
    {"host_qp_miss_ratio", "ratio"},
    {"hybrid_probes", "count"},  // hybrid engine
    {"hybrid_epochs", "count"},
    {"hybrid_ff_packets", "count"},
    {"hybrid_elided_ratio", "ratio"},
};
constexpr size_t kNumLayerMetrics = std::size(kLayerMetrics);

struct Trial {
  // Host times below are calibrated (see CalibrationSeconds): seconds on a
  // machine where the calibration kernel takes kCalibrationNominal.
  double setup_s = 0;  // topology + workload spans
  double run_s = 0;
  double raw_run_s = 0;  // uncalibrated, for the stderr summary
  Time sim_time = 0;
  int64_t started = 0;
  int64_t completed = 0;
  uint64_t fingerprint = 0;
  double layer[kNumLayerMetrics] = {};  // traced trials only
  std::string error;                    // empty = outputs check out
};

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// One fixed calibration kernel, sharing no code with the simulator: a binary
// heap of 4096 keys fed from a table of `table_words` words — the
// heap-and-scattered-state access pattern of an event-driven simulation.
double KernelSeconds(size_t table_words, int iterations) {
  std::vector<uint64_t> table(table_words, 1);
  std::vector<uint64_t> heap;
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto t0 = Clock::now();
  for (int i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x & (table.size() - 1)] += x;
    heap.push_back(x + table[(x >> 20) & (table.size() - 1)]);
    std::push_heap(heap.begin(), heap.end());
    if (heap.size() > 4096) {
      std::pop_heap(heap.begin(), heap.end());
      heap.pop_back();
    }
  }
  const auto t1 = Clock::now();
  DCQCN_CHECK(heap.front() != 0);  // keeps the loop's result observable
  return Seconds(t0, t1);
}

// On a shared machine the speed of one core drifts by tens of percent over
// seconds (up to 1.45x on the fabric workload on a shared 4-vCPU VM), moving
// every timing with it. Each trial is therefore bracketed by calibration
// kernels and its host times are divided by their mean time around the
// trial, which removes most of the drift while a change to the simulator
// moves the result in full. Workloads differ in how much the drift is cache
// contention, so the calibration time is a geometric blend of a kernel on a
// 256 KiB table (fits in L2) and one on a 4 MiB table (spills to memory),
// weighted by Scenario::memory_weight; on that VM each weight minimised its
// workload's run-to-run spread. Results read as host time on a machine
// where the blend takes kCalibrationNominal.
constexpr double kCalibrationNominal = 0.010;  // seconds

double CalibrationSeconds(double memory_weight) {
  const double cache = KernelSeconds(size_t{1} << 15, 100000);
  const double memory = KernelSeconds(size_t{1} << 19, 50000);
  return std::pow(memory, memory_weight) * std::pow(cache, 1 - memory_weight);
}

uint64_t Fnv(uint64_t h, int64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<uint64_t>(v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

double Ratio(int64_t num, int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

// Host-path device counters summed over every NIC that has one.
struct HostTotals {
  int64_t posted = 0;
  int64_t closed = 0;  // completed + retired
  int64_t doorbells = 0;
  int64_t qp_misses = 0;
  int64_t qp_lookups = 0;
};

HostTotals SumHostPath(const std::vector<RdmaNic*>& hosts) {
  HostTotals s;
  for (const RdmaNic* h : hosts) {
    const host::HostPathDevice* d = h->host_path();
    if (d == nullptr) continue;
    s.posted += d->stats().wr_posted;
    s.closed += d->stats().wr_completed + d->stats().wr_retired;
    s.doorbells += d->stats().doorbells;
    s.qp_misses += d->qp_cache().misses();
    s.qp_lookups += d->qp_cache().lookups();
  }
  return s;
}

Trial RunTrial(const Scenario& sc, uint64_t seed, bool trace) {
  Trial t;
  const int16_t policy = CcPolicyIdByName("dcqcn");
  const auto mode = CcPolicyInfoById(policy).mode;
  const bool verbs = sc.host[0] != '\0';

  const double cal_before = CalibrationSeconds(sc.memory_weight);
  const auto t0 = Clock::now();
  Network net(seed);
  TopologyOptions topt;
  cc::ApplyCcSwitchDefaults(mode, &topt.switch_config);
  if (verbs) {
    topt.nic_config.host_path =
        host::MakeHostPathConfig(host::ParseHostSpec(sc.host));
  }
  const ClosTopology topo = BuildClos(net, sc.shape, topt);
  std::vector<RdmaNic*> hosts;
  for (const auto& per_tor : topo.hosts_by_tor) {
    hosts.insert(hosts.end(), per_tor.begin(), per_tor.end());
  }
  std::optional<hybrid::HybridEngine> hyb;
  if (sc.hybrid != nullptr) {
    hybrid::HybridConfig cfg;
    DCQCN_CHECK(hybrid::ParseHybridSpec(sc.hybrid, &cfg));
    hyb.emplace(&net, cfg);
  }
  const auto t1 = Clock::now();

  const std::unique_ptr<workload::WorkloadPattern> pattern =
      workload::CreateWorkloadPattern(workload::ParseWorkloadSpec(sc.workload),
                                      runner::DeriveTrialSeed(seed, 0x3a11));
  std::optional<workload::SimWorkloadHost> whost;
  std::optional<workload::VerbsWorkloadHost> vhost;
  if (verbs) {
    vhost.emplace(net, hosts, mode, policy);
    vhost->Begin(*pattern);
  } else {
    whost.emplace(net, hosts, mode, policy);
    whost->Begin(*pattern);
  }
  const workload::WorkloadMetrics& m =
      verbs ? vhost->metrics() : whost->metrics();
  const auto t2 = Clock::now();

  uint64_t events = 0;
  auto run = [&](Time deadline) {
    events += hyb.has_value() ? hyb->Run(deadline) : net.Run(deadline);
  };
  run(sc.emit_for);
  if (verbs) {
    vhost->StopEmission();
  } else {
    whost->StopEmission();
  }
  // Drained once every flow completed and the host path closed every work
  // request it accepted.
  HostTotals ht = SumHostPath(hosts);
  const Time limit = net.eq().Now() + kDrainLimit;
  while ((m.in_flight > 0 || ht.posted != ht.closed) &&
         net.eq().Now() < limit) {
    run(net.eq().Now() + kDrainStep);
    ht = SumHostPath(hosts);
  }
  const auto t3 = Clock::now();
  const double scale =
      2 * kCalibrationNominal /
      (cal_before + CalibrationSeconds(sc.memory_weight));

  t.setup_s = Seconds(t0, t2) * scale;
  t.run_s = Seconds(t2, t3) * scale;
  t.raw_run_s = Seconds(t2, t3);
  t.sim_time = net.eq().Now();
  t.started = m.started;
  t.completed = m.completed;

  int64_t sw_rx = 0, ecn = 0, data = 0;
  for (const auto& sw : net.switches()) {
    sw_rx += sw->counters().rx_packets;
    ecn += sw->counters().ecn_marked_packets;
  }
  for (const auto& nic : net.hosts()) data += nic->counters().data_packets_sent;

  // Checks on the simulated outcome.
  if (m.started == 0) {
    t.error = "workload emitted no flows";
  } else if (m.completed != m.started) {
    t.error = "flows still in flight after the drain limit";
  } else if (net.TotalDrops() != 0) {
    t.error = "lossless (PFC) fabric dropped packets";
  } else if (m.slowdown.empty() || m.slowdown.Quantile(0.0) < 0.999) {
    t.error = "a flow finished faster than its source line rate allows";
  } else if (ht.posted != ht.closed) {
    t.error = "host path left work requests open after the drain limit";
  }

  uint64_t fp = 0xcbf29ce484222325ULL;
  for (int64_t v : {static_cast<int64_t>(events), m.completed, data, sw_rx,
                    ecn, net.TotalCnpsSent(), static_cast<int64_t>(t.sim_time),
                    ht.qp_misses}) {
    fp = Fnv(fp, v);
  }
  for (double v : m.fct_us.Values()) {
    fp = Fnv(fp, static_cast<int64_t>(v * 1e6));
  }
  t.fingerprint = fp;

  if (!trace) return t;

  const auto t4 = Clock::now();
  telemetry::MetricRegistry reg;
  telemetry::CollectNetworkMetrics(net, &reg);
  workload::ExportMetrics(m, &reg);
  const telemetry::RegistrySnapshot snap = reg.Snapshot();
  const auto t5 = Clock::now();
  DCQCN_CHECK(!snap.empty());

  const hybrid::HybridStats hs =
      hyb.has_value() ? hyb->stats() : hybrid::HybridStats{};
  const double values[] = {
      Seconds(t0, t1) * scale * 1e3,
      Seconds(t1, t2) * scale * 1e3,
      t.run_s * 1e3,
      Seconds(t4, t5) * scale * 1e3,
      static_cast<double>(events),
      events > 0 ? t.run_s * 1e9 / static_cast<double>(events) : 0.0,
      static_cast<double>(net.pool().allocated_bytes()) / 1024.0,
      static_cast<double>(sw_rx),
      static_cast<double>(ecn),
      static_cast<double>(net.TotalPauseFramesSent()),
      static_cast<double>(data),
      static_cast<double>(net.TotalCnpsSent()),
      static_cast<double>(m.completed),
      static_cast<double>(ht.posted),
      static_cast<double>(ht.doorbells),
      Ratio(ht.qp_misses, ht.qp_lookups),
      static_cast<double>(hs.probes),
      static_cast<double>(hs.epochs),
      static_cast<double>(hs.ff_packets),
      Ratio(hs.ff_packets, hs.ff_packets + data),
  };
  static_assert(std::size(values) == kNumLayerMetrics);
  std::copy(std::begin(values), std::end(values), t.layer);
  return t;
}

// Linear-interpolated quantile of a non-empty sample.
double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name, metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_sim --workload fabric|hostpath|sparse "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Scenario* sc = nullptr;
  uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  if (argc % 2 == 0) return Usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--workload") {
      for (const Scenario& s : kScenarios) {
        if (std::strcmp(s.name, val) == 0) sc = &s;
      }
    } else if (flag == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(val);
    } else if (flag == "--trace") {
      trace = std::atoi(val);
    } else {
      return Usage();
    }
  }
  if (sc == nullptr || seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage();
  }

  // Warm-up trial on the first measured seed: fills caches and the
  // allocator, and the first measured trial must reproduce it exactly.
  const Trial warm = RunTrial(*sc, runner::DeriveTrialSeed(seed, 0), trace);

  std::vector<Trial> trials;
  bool correct = warm.error.empty();
  const auto start = Clock::now();
  while (static_cast<int>(trials.size()) < kMinTrials ||
         Seconds(start, Clock::now()) < seconds) {
    trials.push_back(
        RunTrial(*sc, runner::DeriveTrialSeed(seed, trials.size()), trace));
    if (!trials.back().error.empty()) {
      std::fprintf(stderr, "trial %zu: %s\n", trials.size() - 1,
                   trials.back().error.c_str());
      correct = false;
    }
  }
  if (trials.front().fingerprint != warm.fingerprint) {
    std::fprintf(stderr, "the same seed gave a different simulation\n");
    correct = false;
  }

  int64_t attempted = 0, completed = 0;
  for (const Trial& t : trials) {
    attempted += t.started;
    completed += t.completed;
  }
  auto quantile = [&trials](auto field, double q) {
    std::vector<double> v;
    for (const Trial& t : trials) v.push_back(field(t));
    return Quantile(std::move(v), q);
  };
  auto run_ms = [](const Trial& t) { return t.run_s * 1e3; };

  std::vector<Metric> metrics;
  if (trace == 0) {
    metrics = {
        {"sim_ms", "ms", quantile(run_ms, 0.5)},
        {"sim_p75_ms", "ms", quantile(run_ms, 0.75)},
        {"setup_s", "s",
         quantile([](const Trial& t) { return t.setup_s; }, 0.5)},
    };
  } else {
    for (size_t i = 0; i < kNumLayerMetrics; ++i) {
      Metric mt = kLayerMetrics[i];
      mt.value = quantile([i](const Trial& t) { return t.layer[i]; }, 0.5);
      metrics.push_back(mt);
    }
  }
  std::fprintf(stderr,
               "%s: %zu trials, %lld flows, %.3f simulated ms each, "
               "uncalibrated median %.3f host ms\n",
               sc->name, trials.size(), static_cast<long long>(attempted),
               ToMilliseconds(trials.front().sim_time),
               quantile([](const Trial& t) { return t.raw_run_s * 1e3; }, 0.5));
  PrintResult(correct, attempted, attempted - completed, metrics);
  return 0;
}
