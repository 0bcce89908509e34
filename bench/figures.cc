#include "bench/figures.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <memory>

#include "bench/common.h"
#include "bench/fig1_host_curves.h"
#include "cc/cc_policy.h"
#include "core/params.h"
#include "core/thresholds.h"
#include "fluid/fluid_model.h"
#include "fluid/sweep.h"
#include "telemetry/probes.h"
#include "workload/pairs.h"
#include "workload/sim_host.h"

namespace dcqcn {
namespace bench {
namespace {

using runner::TrialResult;
using runner::TrialSpec;
using Report = std::function<void(const Results&)>;

// ---------- shared helpers ----------

// The paper's "~X" read as X ± 10%, for every claim alike.
constexpr double kApprox = 0.10;
bool Approx(double v, double x) { return std::abs(v - x) <= kApprox * x; }

// fluid_property_test's Fig. 11 regions: mean |R1 - R2| below 6 Gbps
// converges, above 12 Gbps does not.
constexpr double kConverged = 6.0, kDiverged = 12.0;

__attribute__((format(printf, 1, 2))) std::string Fmt(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

// A trial that ignores the per-trial seed: the figure pins its own.
TrialSpec Spec(std::string name, std::function<TrialResult()> body) {
  TrialSpec spec;
  spec.name = std::move(name);
  spec.run = [body = std::move(body)](const runner::TrialContext&) {
    return body();
  };
  return spec;
}

double M(const TrialResult& r, const std::string& key) {
  return r.metrics.at(key);
}
int64_t C(const TrialResult& r, const std::string& key) {
  return r.counters.at(key);
}
double Q(const Cdf& c, double p) { return c.empty() ? 0.0 : c.Quantile(p); }

// Every quantile a table prints, stored as `<key>_<suffix>` metrics.
constexpr std::pair<const char*, double> kQuantiles[] = {
    {"min", 0.0},  {"p05", 0.05}, {"p10", 0.1},  {"p25", 0.25}, {"p50", 0.5},
    {"p75", 0.75}, {"p90", 0.9},  {"p95", 0.95}, {"max", 1.0}};

void PutQuantiles(TrialResult& r, const std::string& key, const Cdf& c) {
  for (const auto& [suffix, p] : kQuantiles) {
    r.metrics[key + "_" + suffix] = Q(c, p);
  }
  r.counters[key + "_samples"] = static_cast<int64_t>(c.size());
}

bool Falls(const std::vector<double>& v) {
  return std::is_sorted(v.rbegin(), v.rend());
}
bool Rises(const std::vector<double>& v) {
  return std::is_sorted(v.begin(), v.end());
}

// "a / b / c", each value printed with `fmt`.
std::string Join(const std::vector<double>& v, const char* fmt) {
  std::string s;
  for (double x : v) s += (s.empty() ? "" : " / ") + Fmt(fmt, x);
  return s;
}

// Starts a closed-loop stream of `bytes` messages on one warm QP; every
// completion but the first (the cold start) adds its goodput to `out`.
void ClosedLoop(Network& net, RdmaNic* src, RdmaNic* dst, Bytes bytes,
                int16_t policy, uint64_t salt, Cdf* out) {
  FlowSpec f;
  f.flow_id = net.NextFlowId();
  f.src_host = src->id();
  f.dst_host = dst->id();
  f.size_bytes = bytes;
  f.cc_policy = policy;
  f.ecmp_salt = salt;
  SenderQp* qp = net.StartFlow(f);
  const int id = f.flow_id;
  auto seen = std::make_shared<int>(0);
  src->AddCompletionCallback([out, qp, id, bytes, seen](const FlowRecord& r) {
    if (r.spec.flow_id != id) return;
    if ((*seen)++ > 0) out->Add(r.goodput() / 1e9);
    qp->EnqueueMessage(bytes);
  });
}

// k greedy flows (ids 0..k-1) from hosts 0..k-1 into host k of a star.
void StartIncast(Network& net, const StarTopology& topo, int k,
                 int16_t policy = kDcqcnPolicyId) {
  for (int i = 0; i < k; ++i) {
    StartGreedyFlow(net, topo.hosts[static_cast<size_t>(i)],
                    topo.hosts[static_cast<size_t>(k)], i, policy);
  }
}

Bytes IncastBytes(const StarTopology& topo, int k) {
  return DeliveredSum(topo.hosts[static_cast<size_t>(k)], k);
}

// Two greedy flows (ids 0, 1) into host 2 of a star, the second from 5 ms.
void StartTwoFlows(Network& net, const StarTopology& topo) {
  for (int i = 0; i < 2; ++i) {
    StartGreedyFlow(net, topo.hosts[static_cast<size_t>(i)], topo.hosts[2], i,
                    kDcqcnPolicyId, i * Milliseconds(5));
  }
}

// Gauge of the egress queue towards the incast receiver (host k).
size_t QueueGauge(telemetry::ProbeSet& probes, const StarTopology& topo,
                  int k) {
  SharedBufferSwitch* sw = topo.sw;
  return probes.AddGauge("queue_bytes", [sw, k] {
    return static_cast<double>(sw->EgressQueueBytes(k, kDataPriority));
  });
}

// k:1 incast on a star: after a 10 ms warm-up, the queue quantiles, the
// goodput and the CNPs the senders received over the next 20 ms.
TrialResult RunIncastWindow(uint64_t seed, const TopologyOptions& opt, int k) {
  Network net(seed);
  StarTopology topo = BuildStar(net, k + 1, opt);
  StartIncast(net, topo, k);
  telemetry::ProbeSet probes(&net.eq(), Microseconds(10));
  const size_t queue = QueueGauge(probes, topo, k);
  probes.Start();
  net.RunFor(Milliseconds(10));
  const Bytes before = IncastBytes(topo, k);
  net.RunFor(Milliseconds(20));
  int64_t cnps = 0;
  for (int i = 0; i < k; ++i) {
    cnps += topo.hosts[static_cast<size_t>(i)]
                ->FindQp(i)
                ->counters()
                .cnps_received;
  }
  const Cdf q = probes.ToCdf(queue, Milliseconds(10));
  TrialResult r;
  r.counters["cnps_received"] = cnps;
  r.metrics["queue_p50_bytes"] = q.Quantile(0.5);
  r.metrics["queue_p90_bytes"] = q.Quantile(0.9);
  r.metrics["total_gbps"] =
      static_cast<double>(IncastBytes(topo, k) - before) * 8 / 20e-3 / 1e9;
  return r;
}

// ---------- Fig. 1: TCP vs RDMA (fig1_host_curves.h's analytic model) ----
constexpr Bytes kFig1Sizes[] = {4000, 16000, 64000, 256000, 1000000, 4000000};
constexpr const char* kFig1Labels[] = {"4KB", "16KB", "64KB",
                                       "256KB", "1MB", "4MB"};

std::vector<TrialSpec> Fig01Matrix() {
  return {Spec("host_curves", [] {
    const HostModelConfig cfg;
    TrialResult r;
    for (int i = 0; i < 6; ++i) {
      const std::string l = kFig1Labels[i];
      const HostPerf tcp = TcpPerformance(cfg, kFig1Sizes[i]);
      const HostPerf client = RdmaClientPerformance(cfg, kFig1Sizes[i]);
      r.metrics["tcp_gbps_" + l] = tcp.throughput_gbps;
      r.metrics["tcp_cpu_" + l] = tcp.cpu_percent;
      r.metrics["rdma_gbps_" + l] = client.throughput_gbps;
      r.metrics["rdma_client_cpu_" + l] = client.cpu_percent;
      r.metrics["rdma_server_cpu_" + l] =
          RdmaServerPerformance(cfg, kFig1Sizes[i]).cpu_percent;
    }
    r.metrics["tcp_2KB_us"] = TcpLatencyUs(cfg, 2000);
    r.metrics["rdma_rw_2KB_us"] = RdmaReadWriteLatencyUs(cfg, 2000);
    r.metrics["rdma_send_2KB_us"] = RdmaSendLatencyUs(cfg, 2000);
    return r;
  })};
}

void Fig01Report(const Results& res) {
  const TrialResult& r = res[0];
  std::printf("Figure 1(a): throughput (Gbps) vs message size\n");
  std::printf("%-8s %12s %12s\n", "msgsize", "TCP", "RDMA");
  for (const std::string l : kFig1Labels) {
    std::printf("%-8s %12.2f %12.2f\n", l.c_str(), M(r, "tcp_gbps_" + l),
                M(r, "rdma_gbps_" + l));
  }
  std::printf("\nFigure 1(b): CPU utilization (%% of all cores)\n");
  std::printf("%-8s %12s %12s %12s\n", "msgsize", "TCP-server", "RDMA-server",
              "RDMA-client");
  for (const std::string l : kFig1Labels) {
    std::printf("%-8s %12.2f %12.2f %12.2f\n", l.c_str(),
                M(r, "tcp_cpu_" + l), M(r, "rdma_server_cpu_" + l),
                M(r, "rdma_client_cpu_" + l));
  }
  std::printf("\nFigure 1(c): mean time to transfer 2KB (us)\n");
  std::printf("  TCP               : %6.2f   (paper: 25.4)\n",
              M(r, "tcp_2KB_us"));
  std::printf("  RDMA (read/write) : %6.2f   (paper:  1.7)\n",
              M(r, "rdma_rw_2KB_us"));
  std::printf("  RDMA (send)       : %6.2f   (paper:  2.8)\n",
              M(r, "rdma_send_2KB_us"));
}

// 40 Gbps and 0% compare at the table's 2-decimal resolution.
std::vector<Claim> Fig01Claims(const Results& res) {
  const TrialResult& r = res[0];
  double rdma = 1e9, client = 0, server = 0;
  for (const std::string l : kFig1Labels) {
    rdma = std::min(rdma, M(r, "rdma_gbps_" + l));
    client = std::max(client, M(r, "rdma_client_cpu_" + l));
    server = std::max(server, M(r, "rdma_server_cpu_" + l));
  }
  const std::vector<double> lat = {M(r, "tcp_2KB_us"), M(r, "rdma_rw_2KB_us"),
                                   M(r, "rdma_send_2KB_us")};
  return {
      {"Fig. 1: TCP needs > 20% CPU for 40 Gbps at 4 MB and is CPU-bound "
       "below 40 Gbps at 4 KB",
       M(r, "tcp_gbps_4MB") > 39.995 && M(r, "tcp_cpu_4MB") > 20 &&
           M(r, "tcp_gbps_4KB") < 39.995,
       Fmt("%.2f%% CPU at 4 MB, %.2f Gbps at 4 KB", M(r, "tcp_cpu_4MB"),
           M(r, "tcp_gbps_4KB"))},
      {"Fig. 1: RDMA reaches 40 Gbps at every size with < 3% client and ~0 "
       "server CPU",
       rdma > 39.995 && client < 3 && server < 0.005,
       Fmt("min %.2f Gbps, CPU <= %.2f%% / %.2f%%", rdma, client, server)},
      {"Fig. 1: 2 KB latency 25.4 / 1.7 / 2.8 us (TCP / RDMA read-write / "
       "send), to the paper's 0.1 us",
       std::abs(lat[0] - 25.4) < 0.05 && std::abs(lat[1] - 1.7) < 0.05 &&
           std::abs(lat[2] - 2.8) < 0.05,
       Join(lat, "%.2f") + " us"},
  };
}

// ---------- Figs. 3 / 8: parking-lot unfairness on the testbed ----------
//
// H1-H3 (under T1) and H4 (under T4) send 4 MB transfers to R (under T4);
// PFC pauses ports, not flows, so without DCQCN H4 beats H1-H3. Goodputs
// pool over 8 runs with different ECMP salts.
TrialResult RunUnfairness(int16_t policy) {
  constexpr uint64_t kSeedBase = 100;
  std::vector<Cdf> per_host(4);
  for (int run = 0; run < 8; ++run) {
    Network net(kSeedBase + static_cast<uint64_t>(run));
    ClosTopology topo = BuildClos(net, 3, TopologyOptions{});
    RdmaNic* senders[4] = {topo.host(0, 0), topo.host(0, 1), topo.host(0, 2),
                           topo.host(3, 0)};
    for (int h = 0; h < 4; ++h) {
      const uint64_t salt =
          kSeedBase * 1000 + static_cast<uint64_t>(run * 17 + h * 131);
      ClosedLoop(net, senders[h], topo.host(3, 1), 4000 * kKB, policy, salt,
                 &per_host[static_cast<size_t>(h)]);
    }
    net.RunFor(Milliseconds(40));
  }
  TrialResult r;
  for (size_t h = 0; h < 4; ++h) {
    PutQuantiles(r, "H" + std::to_string(h + 1), per_host[h]);
  }
  return r;
}

std::vector<TrialSpec> UnfairnessMatrix(const char* policy) {
  return {Spec(std::string("unfairness_") + policy, [policy] {
    return RunUnfairness(CcPolicyIdByName(policy));
  })};
}

// One statistic of H1..H4.
std::vector<double> PerHost(const Results& res, const char* stat) {
  std::vector<double> v;
  for (int h = 1; h <= 4; ++h) {
    v.push_back(M(res[0], "H" + std::to_string(h) + "_" + stat));
  }
  return v;
}

Report UnfairnessReport(const char* title) {
  return [title](const Results& res) {
    const std::vector<double> lo = PerHost(res, "min"),
                              med = PerHost(res, "p50"),
                              hi = PerHost(res, "max");
    std::printf("%s\n%-6s %8s %8s %8s\n", title, "host", "min", "median",
                "max");
    for (size_t h = 0; h < 4; ++h) {
      std::printf("H%-5d %8.2f %8.2f %8.2f\n", static_cast<int>(h + 1), lo[h],
                  med[h], hi[h]);
    }
  };
}

// H4's value of `stat` and the best of H1-H3's.
std::pair<double, double> H4VsRest(const Results& res, const char* stat) {
  const std::vector<double> v = PerHost(res, stat);
  return {v[3], *std::max_element(v.begin(), v.begin() + 3)};
}

std::vector<Claim> Fig03Claims(const Results& res) {
  const auto lo = H4VsRest(res, "min"), med = H4VsRest(res, "p50"),
             hi = H4VsRest(res, "max");
  return {
      {"Fig. 3: without DCQCN H4's min exceeds H1-H3's max",
       lo.first > hi.second, Fmt("%.2f vs %.2f", lo.first, hi.second),
       /*known_deviation=*/true},
      {"Fig. 3: H4's median and max exceed every H1-H3 median and max "
       "(EXPERIMENTS.md)",
       med.first > med.second && hi.first > hi.second,
       Fmt("median %.2f vs %.2f, max %.2f vs %.2f", med.first, med.second,
           hi.first, hi.second)},
  };
}

std::vector<Claim> Fig08Claims(const Results& res) {
  const std::vector<double> m = PerHost(res, "p50");
  return {
      {"Fig. 8: with DCQCN every median is ~10 Gbps, the 40/4 equal share",
       std::all_of(m.begin(), m.end(), [](double v) { return Approx(v, 10); }),
       Join(m, "%.2f")},
      {"Fig. 8: Jain index of the medians >= 0.99 (ROADMAP's tolerance for "
       "\"equal share\")",
       JainIndex(m) >= 0.99, Fmt("%.3f", JainIndex(m))},
  };
}

// ---------- Figs. 4 / 9: the victim flow ----------
//
// H11-H14 (under T1) run a greedy incast into R (under T4) while VS (under
// T1) sends 2 MB transfers to VR (under T2); 0-2 more greedy senders under
// T3 target R. Each of 9 runs per configuration is a trial reporting its
// victim median, so runs with fast victims do not dominate the pooled
// statistic.
constexpr int kVictimRuns = 9;

TrialResult RunVictim(int16_t policy, int t3_senders, int run) {
  const uint64_t salt0 = 300 + static_cast<uint64_t>(run) * 7919;
  Network net(salt0);
  ClosTopology topo = BuildClos(net, 5, TopologyOptions{});
  for (int h = 0; h < 4; ++h) {
    StartGreedyFlow(net, topo.host(0, h), topo.host(3, 0), net.NextFlowId(),
                    policy, 0, salt0 + static_cast<uint64_t>(h));
  }
  for (int h = 0; h < t3_senders; ++h) {
    StartGreedyFlow(net, topo.host(2, h), topo.host(3, 0), net.NextFlowId(),
                    policy, 0, salt0 + 100 + static_cast<uint64_t>(h));
  }
  Cdf victim;
  ClosedLoop(net, topo.host(0, 4), topo.host(1, 0), 2000 * kKB, policy,
             salt0 + 200, &victim);
  net.RunFor(Milliseconds(40));
  TrialResult res;
  res.counters["victim_transfers"] = static_cast<int64_t>(victim.size());
  if (!victim.empty()) res.metrics["victim_median_gbps"] = victim.Quantile(0.5);
  return res;
}

std::vector<TrialSpec> VictimMatrix(const char* policy) {
  std::vector<TrialSpec> matrix;
  for (int t3 = 0; t3 <= 2; ++t3) {
    for (int run = 0; run < kVictimRuns; ++run) {
      matrix.push_back(Spec(Fmt("t3_%d_run%d", t3, run), [policy, t3, run] {
        return RunVictim(CcPolicyIdByName(policy), t3, run);
      }));
    }
  }
  return matrix;
}

// Median over runs of the per-run victim median, for 0, 1 and 2 T3 senders.
std::vector<double> VictimMedians(const Results& res) {
  std::vector<double> medians;
  for (int t3 = 0; t3 <= 2; ++t3) {
    Cdf runs;
    for (int run = 0; run < kVictimRuns; ++run) {
      const auto& m = res[static_cast<size_t>(t3 * kVictimRuns + run)].metrics;
      if (auto it = m.find("victim_median_gbps"); it != m.end()) {
        runs.Add(it->second);
      }
    }
    medians.push_back(Q(runs, 0.5));
  }
  return medians;
}

Report VictimReport(const char* title) {
  return [title](const Results& res) {
    std::printf("%s\n%-22s %12s\n", title, "senders under T3",
                "VS median (Gbps)");
    const std::vector<double> medians = VictimMedians(res);
    for (size_t t3 = 0; t3 < medians.size(); ++t3) {
      std::printf("%-22d %12.2f\n", static_cast<int>(t3), medians[t3]);
    }
  };
}

std::vector<Claim> Fig04Claims(const Results& res) {
  const std::vector<double> m = VictimMedians(res);
  return {{"Fig. 4: PFC throttles VS to ~10 Gbps or less (half its 20 Gbps "
           "path) with no T3 senders, and lower with two (paper: ~4.5)",
           m[0] <= 10 * (1 + kApprox) && m[2] < m[0],
           Join(m, "%.2f") + " Gbps"}};
}

std::vector<Claim> Fig09Claims(const Results& res) {
  const std::vector<double> m = VictimMedians(res);
  const auto [lo, hi] = std::minmax_element(m.begin(), m.end());
  return {
      {"Fig. 9: with DCQCN VS keeps ~20 Gbps at 0, 1 and 2 T3 senders",
       std::all_of(m.begin(), m.end(), [](double v) { return Approx(v, 20); }),
       Join(m, "%.2f") + " Gbps"},
      {"Fig. 9: flat: VS's spread across T3 configs is within the ~ "
       "tolerance of 20 Gbps",
       *hi - *lo <= kApprox * 20, Fmt("%.2f Gbps", *hi - *lo)},
  };
}

// ---------- Fig. 10: fluid model vs implementation ----------
//
// Two greedy DCQCN flows through one 40 Gbps switch, the second joining at
// 5 ms: its packet-level rate (the firmware's stand-in) against the §5
// fluid model, and their RMS gap after the join.
std::vector<TrialSpec> Fig10Matrix() {
  return {Spec("fluid_vs_sim", [] {
    Network net(4);
    StarTopology topo = BuildStar(net, 3, TopologyOptions{});
    StartTwoFlows(net, topo);
    telemetry::ProbeSet probes(&net.eq(), Milliseconds(1));
    const size_t flow2 = probes.AddRate(
        "flow2", [&] { return topo.hosts[2]->ReceiverDeliveredBytes(1); });
    probes.Start();
    net.RunFor(Milliseconds(60));

    FluidModel fm(
        FluidParams::FromDcqcn(DcqcnParams::Deployment(), Gbps(40), 2));
    fm.StartFlow(0);
    fm.StartFlowAt(1, ToSeconds(Milliseconds(5)));
    TrialResult r;
    double sq_err = 0;
    int n = 0;
    for (const auto& [t, sim_rate] : probes.Series(flow2).points) {
      fm.RunUntil(ToSeconds(t));
      const double fluid_rate = fm.flow(1).active ? fm.FlowRateGbps(1) : 0.0;
      if (ToMilliseconds(t) >= 6.0) {  // after the join transient
        sq_err += (sim_rate - fluid_rate) * (sim_rate - fluid_rate);
        ++n;
      }
      r.series["implementation_gbps"].Add(t, sim_rate);
      r.series["fluid_gbps"].Add(t, fluid_rate);
    }
    r.metrics["rms_gap_gbps"] = std::sqrt(sq_err / n);
    return r;
  })};
}

void Fig10Report(const Results& res) {
  const auto& sim = res[0].series.at("implementation_gbps").points;
  const auto& fluid = res[0].series.at("fluid_gbps").points;
  std::printf("Figure 10: sending rate of the second flow (Gbps)\n");
  std::printf("%8s %14s %12s\n", "t(ms)", "implementation", "fluid");
  for (size_t i = 0; i < sim.size(); ++i) {
    if (static_cast<int64_t>(ToMilliseconds(sim[i].first)) % 4 == 0) {
      std::printf("%8.1f %14.2f %12.2f\n", ToMilliseconds(sim[i].first),
                  sim[i].second, fluid[i].second);
    }
  }
}

std::vector<Claim> Fig10Claims(const Results& res) {
  const double rms = M(res[0], "rms_gap_gbps");
  return {{"Fig. 10: the model closely matches the implementation: RMS gap "
           "over [6ms, 60ms] within the ~ tolerance of the 20 Gbps share",
           rms <= kApprox * 20, Fmt("%.2f Gbps", rms)}};
}

// ---------- Fig. 11: fluid-model parameter sweeps (§5.2) ----------
//
// Mean |R1 - R2| of two flows started at 40 and 5 Gbps, over the second
// half of a 200 ms solve; each panel varies one knob of the strawman
// parameters. Plus the §5.1 fixed point for deployment parameters.
struct Fig11Panel {
  const char* title;
  const char* column;
  const char* unit;
  std::vector<double> xs;
  void (*set)(FluidParams&, double);
};

const Fig11Panel kFig11Panels[] = {
    {"Figure 11(a): byte counter sweep, strawman params (T = 1.5 ms, cut-off "
     "marking)",
     "byte counter", "KB", {150, 500, 1000, 3000, 10000},
     [](FluidParams& p, double kb) { p.byte_counter_packets = kb * 1000 / kMtu; }},
    {"Figure 11(b): timer sweep with 10 MB byte counter (cut-off marking)",
     "timer", "us", {55, 150, 300, 600, 1500},
     [](FluidParams& p, double us) {
       p.byte_counter_packets = 10e6 / kMtu;
       p.timer_seconds = us * 1e-6;
     }},
    {"Figure 11(c): Kmax sweep with strawman params (Kmin = 40 KB, Pmax = "
     "10%)",
     "Kmax", "KB", {41, 80, 200, 400, 800},
     [](FluidParams& p, double kb) {
       p.kmin = 40 * kKB;
       p.kmax = static_cast<Bytes>(kb) * kKB;
       p.pmax = 0.10;
     }},
    {"Figure 11(d): Pmax sweep with Kmax = 200 KB (strawman timers)", "Pmax",
     "%", {100, 50, 10, 1},
     [](FluidParams& p, double pct) {
       p.kmin = 5 * kKB;
       p.kmax = 200 * kKB;
       p.pmax = pct / 100;
     }}};

TrialSpec GapTrial(std::string name, const FluidParams& p) {
  return Spec(std::move(name), [p] {
    TrialResult r;
    r.metrics["gap_gbps"] = TwoFlowConvergence(p).mean_abs_diff_gbps;
    return r;
  });
}

std::vector<TrialSpec> Fig11Matrix() {
  std::vector<TrialSpec> m = {Spec("fixed_point", [] {
    const FluidFixedPoint fp = SolveFixedPoint(
        FluidParams::FromDcqcn(DcqcnParams::Deployment(), Gbps(40), 2));
    TrialResult r;
    r.metrics["p"] = fp.p;
    r.metrics["queue_bytes"] = fp.queue_bytes;
    return r;
  })};
  for (const Fig11Panel& panel : kFig11Panels) {
    for (double x : panel.xs) {
      FluidParams p =
          FluidParams::FromDcqcn(DcqcnParams::Strawman(), Gbps(40), 2);
      panel.set(p, x);
      m.push_back(GapTrial(Fmt("%s_%.0f%s", panel.column, x, panel.unit), p));
    }
  }
  return m;
}

// The gaps of panel `i`.
std::vector<double> Fig11Gaps(const Results& res, size_t i) {
  size_t first = 1;
  for (size_t k = 0; k < i; ++k) first += kFig11Panels[k].xs.size();
  std::vector<double> g;
  for (size_t k = 0; k < kFig11Panels[i].xs.size(); ++k) {
    g.push_back(M(res[first + k], "gap_gbps"));
  }
  return g;
}

void Fig11Report(const Results& res) {
  std::printf("Section 5.1 fixed point (2 flows, deployment params): "
              "p = %.4f%% (paper: < 1%%), stable queue = %.1f KB\n",
              M(res[0], "p") * 100, M(res[0], "queue_bytes") / 1e3);
  for (size_t i = 0; i < std::size(kFig11Panels); ++i) {
    const Fig11Panel& panel = kFig11Panels[i];
    const std::vector<double> gaps = Fig11Gaps(res, i);
    std::printf("\n%s\n%-14s %22s\n", panel.title, panel.column,
                "mean |R1-R2| (Gbps)");
    for (size_t k = 0; k < gaps.size(); ++k) {
      std::printf("%10.0f %s %22.2f\n", panel.xs[k], panel.unit, gaps[k]);
    }
  }
}

std::vector<Claim> Fig11Claims(const Results& res) {
  const std::vector<double> a = Fig11Gaps(res, 0), b = Fig11Gaps(res, 1),
                            c = Fig11Gaps(res, 2), d = Fig11Gaps(res, 3);
  return {
      {"§5.1: the fixed point's marking probability is < 1%",
       M(res[0], "p") < 0.01, Fmt("%.4f%%", M(res[0], "p") * 100)},
      {"Fig. 11(a): the strawman does not converge (> 12 Gbps); a larger "
       "byte counter helps, but slowly (still > 12 at 10 MB)",
       a[0] > kDiverged && Falls(a) && a[4] > kDiverged, Join(a, "%.2f")},
      {"Fig. 11(b): a faster timer fixes it: the gap grows with the timer "
       "and converges (< 6 Gbps) at 55 us",
       Rises(b) && b[0] < kConverged, Join(b, "%.2f")},
      {"Fig. 11(c): RED-like marking helps: the gap falls as Kmax grows, "
       "> 12 Gbps at 41 KB to < 6 from 200 KB",
       Falls(c) && c[0] > kDiverged && c[2] < kConverged, Join(c, "%.2f")},
      {"Fig. 11(d): smaller Pmax helps: 10% converges better than 100% "
       "(EXPERIMENTS.md)",
       d[2] < d[0], Join(d, "%.2f")},
  };
}

// ---------- Fig. 12: choosing g (§5.2) ----------
//
// N:1 fluid incast: queue statistics for g = 1/16 vs 1/256 at 2:1 and 16:1
// plus the plotted 2:1 traces. At 16:1 the model limit-cycles
// (EXPERIMENTS.md), so the claim is at 2:1.
std::vector<TrialSpec> Fig12Matrix() {
  const auto params = [](int n, double g) {
    FluidParams p =
        FluidParams::FromDcqcn(DcqcnParams::Deployment(), Gbps(40), n);
    p.g = g;
    return p;
  };
  std::vector<TrialSpec> m;
  for (int n : {2, 16}) {
    for (double g : {1.0 / 16.0, 1.0 / 256.0}) {
      m.push_back(IncastQueueTrial(Fmt("incast%d_g1over%.0f", n, 1.0 / g),
                                   params(n, g), n, 0.1));
    }
  }
  for (double g : {1.0 / 16.0, 1.0 / 256.0}) {  // the plotted 2:1 traces
    m.push_back(IncastQueueTrial(Fmt("trace_2to1_g1over%.0f", 1.0 / g),
                                 params(2, g), 2, 0.1, 5e-3));
  }
  return m;
}

void Fig12Report(const Results& res) {
  std::printf("Figure 12: bottleneck queue (fluid model), settled tail "
              "[50ms, 100ms]\n");
  std::printf("%-10s %-8s %10s %10s %10s %10s\n", "incast", "g", "mean(KB)",
              "std(KB)", "min(KB)", "max(KB)");
  for (size_t i = 0; i < 4; ++i) {
    const TrialResult& r = res[i];
    std::printf("%2d:1       1/%-6.0f %10.1f %10.1f %10.1f %10.1f\n",
                i < 2 ? 2 : 16, i % 2 == 0 ? 16.0 : 256.0,
                M(r, "tail_mean_bytes") / 1e3,
                M(r, "tail_stddev_bytes") / 1e3,
                M(r, "tail_min_bytes") / 1e3, M(r, "tail_max_bytes") / 1e3);
  }
  std::printf("\n2:1 queue trace (KB):\n%8s %12s %12s\n", "t(ms)", "g=1/16",
              "g=1/256");
  const TimeSeries& qhi = res[4].series.at("queue_bytes");
  const TimeSeries& qlo = res[5].series.at("queue_bytes");
  for (size_t i = 0; i < qhi.points.size() && i < qlo.points.size(); ++i) {
    std::printf("%8.1f %12.1f %12.1f\n", ToMilliseconds(qhi.points[i].first),
                qhi.points[i].second / 1e3, qlo.points[i].second / 1e3);
  }
}

std::vector<Claim> Fig12Claims(const Results& res) {
  const auto kb = [&res](size_t i, const char* key) {
    return M(res[i], key) / 1e3;
  };
  return {{"Fig. 12: at 2:1 g = 1/256 gives a lower and smoother queue than "
           "1/16 (tail mean and stddev)",
           kb(1, "tail_mean_bytes") < kb(0, "tail_mean_bytes") &&
               kb(1, "tail_stddev_bytes") < kb(0, "tail_stddev_bytes"),
           Fmt("mean %.2f vs %.2f KB, std %.2f vs %.2f KB",
               kb(1, "tail_mean_bytes"), kb(0, "tail_mean_bytes"),
               kb(1, "tail_stddev_bytes"), kb(0, "tail_stddev_bytes"))}};
}

// ---------- Fig. 13 + §6.1: testbed validation of the parameters ----------
//
// Two flows through one switch, the second joining at 5 ms, over the tail
// [50 ms, 100 ms) under four parameter sets; then K:1 incasts with the
// deployment parameters.
constexpr const char* kTwoFlowLabels[] = {
    "(a) strawman", "(b) 55us timer + cut-off ECN",
    "(c) RED-ECN + slow timers", "(d) RED-ECN + 55us timer (deployed)"};
constexpr int kIncastDegrees[] = {2, 4, 8, 16, 20};

TrialResult RunTwoFlowValidation(const DcqcnParams& params) {
  Network net(6);
  TopologyOptions opt;
  opt.switch_config.red = params.red;
  opt.nic_config.params = params;
  StarTopology topo = BuildStar(net, 3, opt);
  StartTwoFlows(net, topo);
  RdmaNic* recv = topo.hosts[2];
  telemetry::ProbeSet probes(&net.eq(), Milliseconds(1));
  const size_t f1 =
      probes.AddRate("f1", [recv] { return recv->ReceiverDeliveredBytes(0); });
  const size_t f2 =
      probes.AddRate("f2", [recv] { return recv->ReceiverDeliveredBytes(1); });
  probes.Start();
  net.RunFor(Milliseconds(100));
  const Time from = Milliseconds(50), to = Milliseconds(100);
  TrialResult r;
  r.metrics["f1_gbps"] = probes.MeanOver(f1, from, to);
  r.metrics["f2_gbps"] = probes.MeanOver(f2, from, to);
  // Flow 1's rate stddev: the RED-with-slow-timers instability of (c).
  r.metrics["f1_stddev_gbps"] = TailOver(probes.Series(f1), from, to).stddev;
  return r;
}

// 20 ms run; throughput and queue statistics over the second half.
TrialResult RunIncast(int k) {
  Network net(8);
  StarTopology topo = BuildStar(net, k + 1, TopologyOptions{});
  StartIncast(net, topo, k);
  telemetry::ProbeSet probes(&net.eq(), Microseconds(10));
  const size_t rate =
      probes.AddRate("total", [&topo, k] { return IncastBytes(topo, k); });
  const size_t queue = QueueGauge(probes, topo, k);
  probes.Start();
  net.RunFor(Milliseconds(20));
  TrialResult r;
  r.metrics["total_gbps"] =
      probes.MeanOver(rate, Milliseconds(10), Milliseconds(20));
  r.metrics["p99_queue_bytes"] =
      probes.ToCdf(queue, Milliseconds(10)).Quantile(0.99);
  return r;
}

std::vector<TrialSpec> Fig13Matrix() {
  const DcqcnParams params[] = {
      DcqcnParams::Strawman(), DcqcnParams::FastTimerCutoff(),
      DcqcnParams::RedOnly(), DcqcnParams::Deployment()};
  std::vector<TrialSpec> m;
  for (const DcqcnParams& p : params) {
    m.push_back(Spec(Fmt("two_flow_%c", 'a' + static_cast<int>(m.size())),
                     [p] { return RunTwoFlowValidation(p); }));
  }
  for (int k : kIncastDegrees) {
    m.push_back(Spec(Fmt("incast_%d", k), [k] { return RunIncast(k); }));
  }
  return m;
}

double FlowGap(const TrialResult& r) {
  return std::abs(M(r, "f1_gbps") - M(r, "f2_gbps"));
}

void Fig13Report(const Results& res) {
  std::printf("Figure 13: two-flow testbed validation (tail window "
              "[50ms,100ms], Gbps)\n");
  for (size_t i = 0; i < 4; ++i) {
    std::printf("  %-34s f1 %6.2f  f2 %6.2f  |diff| %5.2f  std %5.2f\n",
                kTwoFlowLabels[i], M(res[i], "f1_gbps"), M(res[i], "f2_gbps"),
                FlowGap(res[i]), M(res[i], "f1_stddev_gbps"));
  }
  std::printf("\nSection 6.1: K:1 incast with deployment parameters "
              "(20 ms, tail from 10 ms)\n");
  std::printf("%6s %16s %18s\n", "K", "total (Gbps)", "p99 queue (KB)");
  for (size_t i = 0; i < std::size(kIncastDegrees); ++i) {
    std::printf("%6d %16.2f %18.1f\n", kIncastDegrees[i],
                M(res[4 + i], "total_gbps"),
                M(res[4 + i], "p99_queue_bytes") / 1e3);
  }
}

std::vector<Claim> Fig13Claims(const Results& res) {
  const double gap[] = {FlowGap(res[0]), FlowGap(res[1]), FlowGap(res[2]),
                        FlowGap(res[3])};
  const double std_c = M(res[2], "f1_stddev_gbps"),
               std_d = M(res[3], "f1_stddev_gbps");
  std::vector<Claim> claims = {
      {"Fig. 13: (a) is unfair (|f1 - f2| > 12 Gbps); (b), (c), (d) are "
       "fair (< 6, the Fig. 11 bounds); (c) is less stable than (d)",
       gap[0] > kDiverged && gap[1] < kConverged && gap[2] < kConverged &&
           gap[3] < kConverged && std_c > std_d,
       Fmt("|diff| %.2f / %.2f / %.2f / %.2f, std (c) %.2f vs (d) %.2f",
           gap[0], gap[1], gap[2], gap[3], std_c, std_d)}};
  // EXPERIMENTS.md records both §6.1 deviations: low-K runs under-utilize
  // (marking around the 5 KB Kmin idles the link), and the p99 queue passes
  // ~100 KB from K = 8 (the Fig. 19 note).
  for (size_t i = 0; i < std::size(kIncastDegrees); ++i) {
    const int k = kIncastDegrees[i];
    const double gbps = M(res[4 + i], "total_gbps"),
                 q_kb = M(res[4 + i], "p99_queue_bytes") / 1e3;
    claims.push_back({Fmt("§6.1: %d:1 incast keeps total > 39 Gbps", k),
                      gbps > 39, Fmt("%.2f Gbps", gbps), k <= 4});
    claims.push_back({Fmt("§6.1: %d:1 incast keeps the p99 queue <= ~100 KB",
                          k),
                      q_kb <= 100 * (1 + kApprox), Fmt("%.1f KB", q_kb),
                      k >= 8});
  }
  return claims;
}

// ---------- Fig. 14 + §4: deployment parameters and buffer thresholds ----
//
// Each row prints one metric of the trial with its format.
struct TableRow {
  const char* label;
  const char* key;
  const char* fmt;
};

constexpr TableRow kParamRows[] = {
    {"Rate increase timer", "rate_increase_timer_us", "  %-22s %8.0f us\n"},
    {"Byte counter", "byte_counter_mb", "  %-22s %8.0f MB\n"},
    {"Kmax", "kmax_kb", "  %-22s %8.0f KB\n"},
    {"Kmin", "kmin_kb", "  %-22s %8.0f KB\n"},
    {"Pmax", "pmax_pct", "  %-22s %8.0f %%\n"},
    {"g", "one_over_g", "  %-22s    1/%0.f\n"},
    {"CNP interval (N)", "cnp_interval_us", "  %-22s %8.0f us\n"},
    {"Alpha timer (K)", "alpha_timer_us", "  %-22s %8.0f us\n"},
    {"R_AI", "rate_ai_mbps", "  %-22s %8.0f Mbps\n"},
    {"F (fast recovery)", "fast_recovery_steps", "  %-22s %8.0f\n"}};

constexpr TableRow kThresholdRows[] = {
    {"t_flight (headroom/port/prio)", "headroom_kb",
     "  %-34s %8.2f KB   (paper: 22.4)\n"},
    {"static t_PFC upper bound", "static_pfc_kb",
     "  %-34s %8.2f KB   (paper: 24.47)\n"},
    {"naive t_ECN bound (static t_PFC)", "naive_ecn_kb",
     "  %-34s %8.2f KB   (paper: <0.85, infeasible: < 1 MTU)\n"},
    {"dynamic t_ECN bound (beta = 8)", "dynamic_ecn_kb",
     "  %-34s %8.2f KB   (paper: ~21.7, feasible)\n"}};

std::vector<TrialSpec> TableMatrix() {
  return {Spec("params_and_thresholds", [] {
    const DcqcnParams p = DcqcnParams::Deployment();
    const SwitchBufferSpec spec;  // 12 MiB, 32 x 40G, 8 priorities, 1 KB MTU
    const Bytes headroom = HeadroomPerPortPriority(spec);
    const auto kb = [](Bytes b) { return static_cast<double>(b) / 1e3; };
    TrialResult r;
    r.metrics = {
        {"rate_increase_timer_us", ToMicroseconds(p.rate_increase_timer)},
        {"byte_counter_mb", static_cast<double>(p.byte_counter) / 1e6},
        {"kmax_kb", static_cast<double>(p.red.kmax / 1000)},
        {"kmin_kb", static_cast<double>(p.red.kmin / 1000)},
        {"pmax_pct", p.red.pmax * 100},
        {"one_over_g", 1.0 / p.g},
        {"cnp_interval_us", ToMicroseconds(p.cnp_interval)},
        {"alpha_timer_us", ToMicroseconds(p.alpha_timer)},
        {"rate_ai_mbps", ToMbps(p.rate_ai)},
        {"fast_recovery_steps", p.fast_recovery_steps},
        {"headroom_kb", kb(headroom)},
        {"static_pfc_kb", kb(StaticPfcThreshold(spec, headroom))},
        {"naive_ecn_kb", kb(StaticEcnBound(spec, headroom))},
        {"dynamic_ecn_kb", kb(DynamicEcnBound(spec, headroom, 8.0))}};
    r.counters["kmin5_ecn_first"] =
        EcnBeforePfcGuaranteed(spec, headroom, 8.0, 5 * kKB);
    r.counters["kmin120_ecn_first"] =
        EcnBeforePfcGuaranteed(spec, headroom, 8.0, 120 * kKB);
    return r;
  })};
}

void TableReport(const Results& res) {
  const TrialResult& r = res[0];
  std::printf("Figure 14: DCQCN parameters used in the deployment\n");
  for (const TableRow& row : kParamRows) {
    std::printf(row.fmt, row.label, M(r, row.key));
  }
  std::printf("\nSection 4: buffer thresholds (B = 12 MB, n = 32 x 40G, 8 "
              "priorities)\n");
  for (const TableRow& row : kThresholdRows) {
    std::printf(row.fmt, row.label, M(r, row.key));
  }
  std::printf("  Kmin = 5 KB satisfies ECN-before-PFC: %s\n",
              C(r, "kmin5_ecn_first") ? "yes" : "NO (bug)");
  std::printf("  misconfigured Kmin = 120 KB satisfies it: %s (Fig. 18 uses "
              "this to show why thresholds matter)\n",
              C(r, "kmin120_ecn_first") ? "yes (bug)" : "no");
}

std::vector<Claim> TableClaims(const Results& res) {
  const TrialResult& r = res[0];
  const double headroom = M(r, "headroom_kb"), naive = M(r, "naive_ecn_kb"),
               static_pfc = M(r, "static_pfc_kb"),
               dynamic = M(r, "dynamic_ecn_kb");
  const bool kmin5 = C(r, "kmin5_ecn_first"), kmin120 = C(r, "kmin120_ecn_first");
  return {
      {"§4: t_flight is 22.4 KB per (port, priority), to the paper's 0.1 KB",
       std::abs(headroom - 22.4) < 0.05, Fmt("%.2f KB", headroom)},
      // SwitchBufferSpec's B is 12 MiB where the paper's arithmetic uses
      // 12 MB (24.52 KB with 12 MB); EXPERIMENTS.md records 26.79.
      {"§4: the static t_PFC bound is 24.47 KB, to the paper's 0.01 KB",
       std::abs(static_pfc - 24.47) < 0.005, Fmt("%.2f KB", static_pfc),
       /*known_deviation=*/true},
      {"§4: static t_PFC leaves t_ECN < 0.85 KB, below one MTU (infeasible); "
       "dynamic beta = 8 allows ~21.7 KB",
       naive < 0.85 && naive * 1e3 < kMtu && Approx(dynamic, 21.7),
       Fmt("%.2f KB and %.2f KB", naive, dynamic)},
      {"§4: Kmin = 5 KB guarantees ECN before PFC; 120 KB does not",
       kmin5 && !kmin120, Fmt("%d / %d", kmin5, kmin120)},
  };
}

// ---------- §6.2 benchmark traffic (Figs. 15-18) ----------

TrialResult RunBenchmarkTraffic(int16_t policy, int incast_degree,
                                int num_pairs, uint64_t seed,
                                const TopologyOptions& topo_opts) {
  Network net(seed);
  ClosTopology topo = BuildClos(net, 5, topo_opts);
  workload::PairsOptions opt;
  opt.num_pairs = num_pairs;
  opt.incast_degree = incast_degree;
  opt.seed = seed;
  workload::PairsPattern traffic(opt);
  workload::SimWorkloadHost host(net, topo.AllHosts(), policy);
  host.Begin(traffic);
  net.RunFor(Milliseconds(40));

  TrialResult r;
  PutQuantiles(r, "user", traffic.user_goodput());
  PutQuantiles(r, "incast", traffic.incast_goodput());
  int64_t spine_pauses = 0;
  for (auto* s : topo.spines) {
    spine_pauses += s->counters().pause_frames_received;
  }
  r.counters["spine_pauses"] = spine_pauses;
  r.counters["total_pauses"] = net.TotalPauseFramesSent();
  r.counters["drops"] = net.TotalDrops();
  return r;
}

}  // namespace

TrialSpec BenchmarkTrafficTrial(std::string name, int16_t policy,
                                int incast_degree, int num_pairs,
                                uint64_t seed, const TopologyOptions& topo) {
  return Spec(std::move(name), [=] {
    return RunBenchmarkTraffic(policy, incast_degree, num_pairs, seed, topo);
  });
}

namespace {

TrialSpec Traffic(const char* policy, int degree, int pairs, uint64_t seed) {
  return BenchmarkTrafficTrial(Fmt("%s_%dto1_%dpairs", policy, degree, pairs),
                               CcPolicyIdByName(policy), degree, pairs, seed);
}

// Fig. 15 — PAUSEs at the spines, 20 user pairs + a 10:1 disk rebuild.
// Paper (2-minute run): > 6,000,000 without DCQCN vs ~300 with; our runs
// are ~1000x shorter, so the ratio is the result.
std::vector<TrialSpec> Fig15Matrix() {
  return {Traffic("raw", 10, 20, 11), Traffic("dcqcn", 10, 20, 11)};
}

void Fig15Report(const Results& res) {
  std::printf("Figure 15: PAUSE frames received at S1+S2 (40 ms benchmark "
              "run)\n");
  std::printf("  %-16s %10lld\n", "without DCQCN",
              static_cast<long long>(C(res[0], "spine_pauses")));
  std::printf("  %-16s %10lld\n", "with DCQCN",
              static_cast<long long>(C(res[1], "spine_pauses")));
  std::printf("\n  total PAUSE frames anywhere: %lld vs %lld\n",
              static_cast<long long>(C(res[0], "total_pauses")),
              static_cast<long long>(C(res[1], "total_pauses")));
}

std::vector<Claim> Fig15Claims(const Results& res) {
  const int64_t off = C(res[0], "spine_pauses"), on = C(res[1], "spine_pauses");
  return {{"Fig. 15: PFC alone pauses the spines; DCQCN cuts those PAUSEs by "
           "at least the paper's 6,000,000 : 300",
           off > 0 && static_cast<double>(on) <=
                          static_cast<double>(off) * 300 / 6e6,
           Fmt("%lld vs %lld", static_cast<long long>(off),
               static_cast<long long>(on))}};
}

// Fig. 16 — 20 user pairs + one disk-rebuild incast of degree 2..10, with
// and without DCQCN.
constexpr int kFig16Degrees[] = {2, 4, 6, 8, 10};

std::vector<TrialSpec> Fig16Matrix() {
  std::vector<TrialSpec> m;
  for (int degree : kFig16Degrees) {
    for (const char* policy : {"raw", "dcqcn"}) {
      m.push_back(Traffic(policy, degree, 20, static_cast<uint64_t>(degree)));
    }
  }
  return m;
}

// One statistic per degree, without (on = false) or with DCQCN.
std::vector<double> ByDegree(const Results& res, bool on, const char* key) {
  std::vector<double> v;
  for (size_t i = 0; i < std::size(kFig16Degrees); ++i) {
    v.push_back(M(res[2 * i + on], key));
  }
  return v;
}

void Fig16Report(const Results& res) {
  std::printf("Figure 16: user and incast goodput vs incast degree "
              "(Gbps; 40 ms runs, 20 user pairs)\n\n");
  std::printf("%7s | %21s | %21s | %9s\n", "", "user median / p10",
              "incast median / p10", "ideal40/K");
  std::printf("%7s | %10s %10s | %10s %10s |\n", "degree", "no-DCQCN",
              "DCQCN", "no-DCQCN", "DCQCN");
  for (size_t i = 0; i < std::size(kFig16Degrees); ++i) {
    const TrialResult &off = res[2 * i], &on = res[2 * i + 1];
    std::printf("%7d | med %5.2f  med %5.2f | med %5.2f  med %5.2f | %6.2f\n",
                kFig16Degrees[i], M(off, "user_p50"), M(on, "user_p50"),
                M(off, "incast_p50"), M(on, "incast_p50"),
                40.0 / kFig16Degrees[i]);
    std::printf("%7s | p10 %5.2f  p10 %5.2f | p10 %5.2f  p10 %5.2f |\n", "",
                M(off, "user_p10"), M(on, "user_p10"), M(off, "incast_p10"),
                M(on, "incast_p10"));
  }
}

std::vector<Claim> Fig16Claims(const Results& res) {
  const std::vector<double> off = ByDegree(res, false, "user_p10"),
                            on = ByDegree(res, true, "user_p10"),
                            incast = ByDegree(res, true, "incast_p10");
  bool tail_wins = true, ideal = true;
  for (size_t i = 0; i < on.size(); ++i) {
    tail_wins &= on[i] > off[i];
    ideal &= Approx(incast[i], 40.0 / kFig16Degrees[i]);
  }
  return {
      {"Fig. 16(b): without DCQCN the user p10 falls from K = 2 to K = 10; "
       "with DCQCN it stays ~ flat and beats PFC-only at every K",
       off.back() < off.front() && Approx(on.back(), on.front()) && tail_wins,
       "PFC only " + Join(off, "%.2f") + "; DCQCN " + Join(on, "%.2f")},
      // EXPERIMENTS.md: our DCQCN incast sits below the 40/K ideal.
      {"Fig. 16(d): with DCQCN the incast p10 is ~40/K at every K", ideal,
       Join(incast, "%.2f"), /*known_deviation=*/true},
  };
}

// Fig. 17 — "16x more user traffic, without performance degradation":
// incast degree 10, 5 pairs without DCQCN against 80 pairs with it.
constexpr std::pair<double, const char*> kFig17Quantiles[] = {
    {0.05, "p05"}, {0.1, "p10"}, {0.25, "p25"}, {0.5, "p50"},
    {0.75, "p75"}, {0.9, "p90"}, {0.95, "p95"}};

std::vector<TrialSpec> Fig17Matrix() {
  return {Traffic("raw", 10, 5, 21), Traffic("dcqcn", 10, 80, 21)};
}

void Fig17Report(const Results& res) {
  for (const std::string cls : {"user", "incast"}) {
    std::fputs(cls == "user" ? "Figure 17(a): user-traffic goodput CDF "
                               "(Gbps)\n"
                             : "\nFigure 17(b): incast (disk rebuild) "
                               "goodput CDF (Gbps)\n",
               stdout);
    std::printf("%10s %18s %18s\n", "quantile", "noDCQCN, 5 pairs",
                "DCQCN, 80 pairs");
    for (const auto& [q, suffix] : kFig17Quantiles) {
      std::printf("%10.2f %18.2f %18.2f\n", q, M(res[0], cls + "_" + suffix),
                  M(res[1], cls + "_" + suffix));
    }
  }
}

std::vector<Claim> Fig17Claims(const Results& res) {
  const TrialResult &light = res[0], &heavy = res[1];
  bool overlap = true;
  for (const auto& [q, suffix] : kFig17Quantiles) {
    const std::string key = std::string("user_") + suffix;
    overlap &= Approx(M(heavy, key), M(light, key));
  }
  const auto spread = [](const TrialResult& r) {
    return M(r, "incast_p90") - M(r, "incast_p10");
  };
  return {
      {"Fig. 17: at 16x the load DCQCN's user p05 and p10 match or beat "
       "PFC-only's, and its incast p10-p90 range is narrower",
       M(heavy, "user_p05") >= M(light, "user_p05") &&
           M(heavy, "user_p10") >= M(light, "user_p10") &&
           spread(heavy) < spread(light),
       Fmt("user p10 %.2f vs %.2f, incast range %.2f vs %.2f",
           M(heavy, "user_p10"), M(light, "user_p10"), spread(heavy),
           spread(light))},
      // EXPERIMENTS.md: the lightly-loaded run's upper quantiles stay
      // higher in our short simulations; the paper's CDFs overlapped.
      {"Fig. 17(a): the two user CDFs overlap at every printed quantile",
       overlap,
       Fmt("p50 %.2f vs %.2f", M(heavy, "user_p50"), M(light, "user_p50")),
       /*known_deviation=*/true},
  };
}

// Fig. 18 — the need for PFC and correct thresholds: 8:1 incast + 20 user
// pairs under PFC only, DCQCN without PFC, DCQCN with a static t_PFC at its
// upper bound and Kmin = 120 KB (PFC fires before ECN), and DCQCN.
constexpr const char* kFig18Labels[] = {"No DCQCN (PFC only)",
                                        "DCQCN without PFC",
                                        "DCQCN (misconfigured)", "DCQCN"};

std::vector<TrialSpec> Fig18Matrix() {
  // Without PFC a per-queue cap stands in for the shared buffer's dynamic
  // lossy limit: with the incast keeping the pool hot a queue's share is
  // ~160 KB, where DCQCN's high-fan-in queue oscillates, so drops recur and
  // go-back-0 recovery livelocks ("unable to recover from persistent
  // packet losses").
  TopologyOptions lossy;
  lossy.switch_config.pfc_enabled = false;
  lossy.switch_config.lossy_egress_cap = 160 * kKB;
  TopologyOptions misconfigured;
  SwitchConfig& sw = misconfigured.switch_config;
  sw.dynamic_pfc = false;
  sw.static_pfc_threshold =
      StaticPfcThreshold(sw.buffer, HeadroomPerPortPriority(sw.buffer));
  sw.red.kmin = 120 * kKB;
  sw.red.kmax = 320 * kKB;
  const int16_t dcqcn = CcPolicyIdByName("dcqcn");
  return {Traffic("raw", 8, 20, 31),
          BenchmarkTrafficTrial("dcqcn_without_pfc", dcqcn, 8, 20, 31, lossy),
          BenchmarkTrafficTrial("dcqcn_misconfigured", dcqcn, 8, 20, 31,
                                misconfigured),
          Traffic("dcqcn", 8, 20, 31)};
}

void Fig18Report(const Results& res) {
  std::printf("Figure 18: 10th-percentile goodput for 8:1 incast + 20 user "
              "pairs (Gbps)\n");
  std::printf("%-26s %12s %12s %10s\n", "configuration", "user p10",
              "incast p10", "drops");
  for (size_t i = 0; i < 4; ++i) {
    std::printf("%-26s %12.2f %12.2f %10lld\n", kFig18Labels[i],
                M(res[i], "user_p10"), M(res[i], "incast_p10"),
                static_cast<long long>(C(res[i], "drops")));
  }
}

std::vector<Claim> Fig18Claims(const Results& res) {
  // p10 of one class under PFC only, misconfigured and full DCQCN.
  const auto p10 = [&res](const std::string& cls) {
    return std::vector<double>{M(res[0], cls + "_p10"),
                               M(res[2], cls + "_p10"),
                               M(res[3], cls + "_p10")};
  };
  const std::vector<double> user = p10("user"), incast = p10("incast");
  const bool between = incast[1] >= std::min(incast[0], incast[2]) &&
                       incast[1] <= std::max(incast[0], incast[2]);
  return {
      {"Fig. 18: without PFC the incast p10 is ~0 (0.00 at 2 decimals)",
       M(res[1], "incast_p10") < 0.005,
       Fmt("%.2f Gbps", M(res[1], "incast_p10"))},
      {"Fig. 18: user p10 orders DCQCN > misconfigured > PFC only, and the "
       "misconfigured incast p10 lies between the other two",
       user[2] > user[1] && user[1] > user[0] && between,
       "user " + Join(user, "%.2f") + ", incast " + Join(incast, "%.2f")},
      // Our DCQCN incast tail sits low, as in Fig. 16 (EXPERIMENTS.md).
      {"Fig. 18: incast p10 orders DCQCN > misconfigured > PFC only",
       incast[2] > incast[1] && incast[1] > incast[0], Join(incast, "%.2f"),
       /*known_deviation=*/true},
  };
}

// ---------- Fig. 19: queue CDF, DCQCN vs DCTCP ----------
//
// Paper (20:1): p90 queue 76.6 KB with DCQCN vs 162.9 KB with DCTCP, whose
// ECN threshold must be 160 KB at 40 Gbps while DCQCN tolerates Kmin =
// 5 KB. EXPERIMENTS.md records the deviation at 8:1 and 20:1: N senders'
// additive increase overruns the gentle RED slope and the DCQCN queue
// oscillates up to ~Kmax (the paper's fluid model predicts it too).
constexpr int kFig19Degrees[] = {2, 8, 20};

TrialResult RunQueueCdf(const char* policy, const RedEcnConfig& red,
                        int degree) {
  Network net(12);
  TopologyOptions opt;
  opt.switch_config.red = red;
  StarTopology topo = BuildStar(net, degree + 1, opt);
  StartIncast(net, topo, degree, CcPolicyIdByName(policy));
  telemetry::ProbeSet probes(&net.eq(), Microseconds(10));
  const size_t queue = QueueGauge(probes, topo, degree);
  probes.Start();
  net.RunFor(Milliseconds(40));
  const Cdf q = probes.ToCdf(queue, Milliseconds(10));  // skip the start-up
  TrialResult r;
  r.metrics["queue_p50_kb"] = q.Quantile(0.5) / 1e3;
  r.metrics["queue_p90_kb"] = q.Quantile(0.9) / 1e3;
  return r;
}

std::vector<TrialSpec> Fig19Matrix() {
  std::vector<TrialSpec> m;
  for (int k : kFig19Degrees) {
    m.push_back(Spec(Fmt("dcqcn_%dto1", k), [k] {
      return RunQueueCdf("dcqcn", RedEcnConfig::Deployment(), k);
    }));
    m.push_back(Spec(Fmt("dctcp_%dto1", k), [k] {
      return RunQueueCdf("dctcp", RedEcnConfig::CutOff(160 * kKB), k);
    }));
  }
  return m;
}

void Fig19Report(const Results& res) {
  std::printf("Figure 19: instantaneous egress queue at the congested port "
              "(KB)\n");
  std::printf("%8s | %12s %12s | %12s %12s\n", "", "DCQCN p50", "p90",
              "DCTCP p50", "p90");
  for (size_t i = 0; i < std::size(kFig19Degrees); ++i) {
    std::printf("%6d:1 | %12.1f %12.1f | %12.1f %12.1f\n", kFig19Degrees[i],
                M(res[2 * i], "queue_p50_kb"), M(res[2 * i], "queue_p90_kb"),
                M(res[2 * i + 1], "queue_p50_kb"),
                M(res[2 * i + 1], "queue_p90_kb"));
  }
}

std::vector<Claim> Fig19Claims(const Results& res) {
  std::vector<Claim> claims;
  std::vector<double> dctcp_p90;
  for (size_t i = 0; i < std::size(kFig19Degrees); ++i) {
    const int k = kFig19Degrees[i];
    const double dcqcn = M(res[2 * i], "queue_p90_kb"),
                 dctcp = M(res[2 * i + 1], "queue_p90_kb");
    claims.push_back({Fmt("Fig. 19: at %d:1 DCQCN's p90 queue is at most the "
                          "paper's 76.6/162.9 of DCTCP's",
                          k),
                      dcqcn <= dctcp * 76.6 / 162.9,
                      Fmt("%.1f vs %.1f KB", dcqcn, dctcp), k >= 8});
    dctcp_p90.push_back(dctcp);
  }
  claims.push_back({"Fig. 19: DCTCP's p90 queue is ~162.9 KB at every fan-in, "
                    "pinned near its 160 KB threshold",
                    std::all_of(dctcp_p90.begin(), dctcp_p90.end(),
                                [](double v) { return Approx(v, 162.9); }),
                    Join(dctcp_p90, "%.1f") + " KB"});
  return claims;
}

// ---------- Fig. 20: multi-bottleneck parking lot (§7) ----------
//
// f1: H1(T1)->R1(T2), f2: H2(T1)->R2(T4), f3: H3(T3)->R2(T4), with ECMP
// salts chosen so f1 and f2 share one T1 uplink: f2 crosses two
// bottlenecks, and max-min fairness gives all three 20 Gbps.
uint64_t FindSalt(const SharedBufferSwitch& sw, int flow_id, int dst,
                  int want_port) {
  for (uint64_t salt = 0; salt < 4096; ++salt) {
    if (sw.EcmpSelect(FlowEcmpKey(flow_id, salt), dst) == want_port) {
      return salt;
    }
  }
  return 0;
}

TrialResult RunParkingLot(const DcqcnParams& params) {
  Network net(3);
  TopologyOptions opt;
  opt.switch_config.red = params.red;
  opt.nic_config.params = params;
  ClosTopology topo = BuildClos(net, 2, opt);
  RdmaNic* r1 = topo.host(1, 0);
  RdmaNic* r2 = topo.host(3, 0);
  const int uplink = topo.hosts_per_tor;  // T1's first uplink port
  FlowSpec f1, f2, f3;
  f1.flow_id = 1;
  f1.src_host = topo.host(0, 0)->id();
  f1.dst_host = r1->id();
  f1.ecmp_salt = FindSalt(*topo.tors[0], 1, f1.dst_host, uplink);
  f2.flow_id = 2;
  f2.src_host = topo.host(0, 1)->id();
  f2.dst_host = r2->id();
  f2.ecmp_salt = FindSalt(*topo.tors[0], 2, f2.dst_host, uplink);
  f3.flow_id = 3;
  f3.src_host = topo.host(2, 0)->id();
  f3.dst_host = r2->id();
  for (FlowSpec* f : {&f1, &f2, &f3}) {
    f->size_bytes = 0;
    net.StartFlow(*f);
  }
  telemetry::ProbeSet probes(&net.eq(), Milliseconds(1));
  probes.AddRate("f1", [&] { return r1->ReceiverDeliveredBytes(1); });
  probes.AddRate("f2", [&] { return r2->ReceiverDeliveredBytes(2); });
  probes.AddRate("f3", [&] { return r2->ReceiverDeliveredBytes(3); });
  probes.Start();
  net.RunFor(Milliseconds(150));
  TrialResult r;
  for (size_t i = 0; i < 3; ++i) {
    r.metrics["f" + std::to_string(i + 1) + "_gbps"] =
        probes.MeanOver(i, Milliseconds(75), Milliseconds(150));
  }
  return r;
}

std::vector<TrialSpec> Fig20Matrix() {
  return {Spec("cutoff",
               [] { return RunParkingLot(DcqcnParams::FastTimerCutoff()); }),
          Spec("red", [] { return RunParkingLot(DcqcnParams::Deployment()); })};
}

void Fig20Report(const Results& res) {
  std::printf("Figure 20(b): parking-lot goodput, tail window (Gbps; "
              "max-min fair = 20 each)\n");
  std::printf("%-28s %8s %8s %8s\n", "marking scheme", "f1", "f2", "f3");
  const char* labels[] = {"cut-off (DCTCP-like)", "RED-like (deployment)"};
  for (size_t i = 0; i < 2; ++i) {
    std::printf("%-28s %8.2f %8.2f %8.2f\n", labels[i], M(res[i], "f1_gbps"),
                M(res[i], "f2_gbps"), M(res[i], "f3_gbps"));
  }
}

std::vector<Claim> Fig20Claims(const Results& res) {
  const double cut = M(res[0], "f2_gbps"), red = M(res[1], "f2_gbps");
  return {{"Fig. 20: cut-off marking starves f2 below f1 and f3; RED-like "
           "marking raises it, but not to the 20 Gbps max-min share",
           cut < std::min(M(res[0], "f1_gbps"), M(res[0], "f3_gbps")) &&
               red > cut && red < 20,
           Fmt("f2 %.2f -> %.2f Gbps", cut, red)}};
}

// ---------- Ablation: R_AI vs incast scalability (§5.2) ----------
//
// "Halving R_AI reduces the convergence speed, but it ensures no buffer
// starvation with 32:1 incast": the fluid model's starved fraction (tail
// samples with an empty queue) at 16:1 and 32:1, and the two-flow gap.
constexpr double kRaiMbps[] = {40.0, 20.0, 10.0};

double StarvedFraction(const TimeSeries& q, Time from) {
  int starved = 0, n = 0;
  for (const auto& [t, v] : q.points) {
    if (t < from) continue;
    ++n;
    if (v <= 0.0) ++starved;
  }
  return n > 0 ? static_cast<double>(starved) / n : 0.0;
}

std::vector<TrialSpec> RaiMatrix() {
  const auto params = [](double rai, int n) {
    FluidParams p =
        FluidParams::FromDcqcn(DcqcnParams::Deployment(), Gbps(40), n);
    p.rate_ai_pps = Mbps(rai) / 8.0 / 1000.0;
    return p;
  };
  std::vector<TrialSpec> m;
  for (double rai : kRaiMbps) {
    for (int n : {16, 32}) {
      const FluidParams p = params(rai, n);
      m.push_back(Spec(Fmt("rai%.0f_incast%d", rai, n), [p, n] {
        TrialResult r;
        r.metrics["starved_frac"] =
            StarvedFraction(IncastQueueSeries(p, n, 0.15), Milliseconds(75));
        return r;
      }));
    }
    m.push_back(GapTrial(Fmt("rai%.0f_two_flow", rai), params(rai, 2)));
  }
  return m;
}

void RaiReport(const Results& res) {
  std::printf("Ablation: R_AI vs incast scalability (fluid model)\n\n");
  std::printf("%8s | %22s | %22s | %s\n", "R_AI", "16:1 starved frac",
              "32:1 starved frac", "2-flow conv |R1-R2|");
  for (size_t i = 0; i < std::size(kRaiMbps); ++i) {
    std::printf("%5.0f Mb | %22.3f | %22.3f | %.2f Gbps\n", kRaiMbps[i],
                M(res[3 * i], "starved_frac"),
                M(res[3 * i + 1], "starved_frac"),
                M(res[3 * i + 2], "gap_gbps"));
  }
}

std::vector<Claim> RaiClaims(const Results& res) {
  const std::vector<double> gaps = {M(res[2], "gap_gbps"),
                                    M(res[5], "gap_gbps"),
                                    M(res[8], "gap_gbps")};
  const double s16 = M(res[0], "starved_frac"),
               s16_half = M(res[3], "starved_frac"),
               s32_half = M(res[4], "starved_frac");
  return {
      {"§5.2: halving R_AI slows convergence (the two-flow gap grows) and "
       "removes starvation at 16:1 (one level earlier, EXPERIMENTS.md)",
       gaps[0] < gaps[1] && gaps[1] < gaps[2] && s16 > 0 && s16_half == 0,
       Join(gaps, "%.2f") +
           Fmt(" Gbps; 16:1 starved %.3f -> %.3f", s16, s16_half)},
      {"§5.2: halving R_AI ensures no buffer starvation with 32:1 incast",
       s32_half == 0, Fmt("%.3f starved", s32_half), /*known_deviation=*/true},
  };
}

// ---------- Ablation: the NP's CNP pacing interval ----------
//
// §3.1's N (50 us on ConnectX-3) on an 8:1 incast; the alpha/rate timers
// stay > N, as the protocol requires. The Network is seeded from the
// per-trial seed, so --seed moves this table.
constexpr int kCnpIntervalsUs[] = {10, 25, 50, 100, 200};

TrialSpec CnpIntervalTrial(int n_us) {
  TrialSpec spec;
  spec.name = "cnp_interval_" + std::to_string(n_us) + "us";
  spec.run = [n_us](const runner::TrialContext& ctx) {
    TopologyOptions opt;
    DcqcnParams& params = opt.nic_config.params;
    params.cnp_interval = Microseconds(n_us);
    params.alpha_timer = std::max(params.alpha_timer, Microseconds(n_us + 5));
    params.rate_increase_timer =
        std::max(params.rate_increase_timer, Microseconds(n_us + 5));
    TrialResult r = RunIncastWindow(ctx.seed, opt, 8);
    r.counters["cnp_interval_us"] = n_us;
    return r;
  };
  return spec;
}

std::vector<TrialSpec> CnpMatrix() {
  std::vector<TrialSpec> m;
  for (int n_us : kCnpIntervalsUs) m.push_back(CnpIntervalTrial(n_us));
  return m;
}

void CnpReport(const Results& res) {
  std::printf("Ablation: CNP pacing interval N (8:1 incast, 30 ms)\n\n");
  std::printf("%8s | %12s %12s %12s %12s\n", "N (us)", "queue p50", "p90(KB)",
              "total Gbps", "CNPs");
  for (const TrialResult& r : res) {
    std::printf("%8lld | %12.1f %12.1f %12.2f %12lld\n",
                static_cast<long long>(C(r, "cnp_interval_us")),
                M(r, "queue_p50_bytes") / 1e3, M(r, "queue_p90_bytes") / 1e3,
                M(r, "total_gbps"),
                static_cast<long long>(C(r, "cnps_received")));
  }
}

// Points 0-2 are N = 10, 25, 50 us; 3-4 are 100, 200 us. Line rate is
// §6.1's "> 39 Gbps".
std::vector<Claim> CnpClaims(const Results& res) {
  std::vector<double> gbps, cnps;
  for (const TrialResult& r : res) {
    gbps.push_back(M(r, "total_gbps"));
    cnps.push_back(static_cast<double>(C(r, "cnps_received")));
  }
  const auto queue = [&res](size_t i) {
    return Fmt("%.0f/%.0f", M(res[i], "queue_p50_bytes") / 1e3,
               M(res[i], "queue_p90_bytes") / 1e3);
  };
  return {
      {"CNP interval: N = 50 us is the largest that keeps line rate (> 39 "
       "Gbps), and every N <= 50 us costs more CNPs than any longer N",
       gbps[2] > 39 && gbps[3] <= 39 && gbps[4] <= 39 &&
           *std::min_element(cnps.begin(), cnps.begin() + 3) >
               *std::max_element(cnps.begin() + 3, cnps.end()),
       Join(gbps, "%.2f") + " Gbps, " + Join(cnps, "%.0f") + " CNPs"},
      {"CNP interval: a shorter N keeps a lower queue at line rate: N = "
       "10 us below N = 50 us at p50 and p90",
       M(res[0], "queue_p50_bytes") < M(res[2], "queue_p50_bytes") &&
           M(res[0], "queue_p90_bytes") < M(res[2], "queue_p90_bytes"),
       queue(0) + " vs " + queue(2) + " KB"},
  };
}

// ---------- Ablation: loss recovery granularity ----------
//
// go-back-0 (ConnectX-3: a loss restarts the message), on which Fig. 18's
// no-PFC collapse hinges, vs go-back-N: completed goodput of a 4:1 incast
// of 4 MB chunks as the lossy per-queue cap tightens.
constexpr Bytes kLossCaps[] = {2000 * kKB, 500 * kKB, 250 * kKB, 125 * kKB};

TrialResult RunLossRecovery(bool go_back_zero, Bytes cap) {
  TopologyOptions opt;
  opt.switch_config.pfc_enabled = false;
  opt.switch_config.lossy_egress_cap = cap;
  opt.nic_config.go_back_zero = go_back_zero;
  Network net(11);
  StarTopology topo = BuildStar(net, 5, opt);
  for (int i = 0; i < 4; ++i) {
    FlowSpec f;
    f.flow_id = i;
    f.src_host = topo.hosts[static_cast<size_t>(i)]->id();
    f.dst_host = topo.hosts[4]->id();
    f.size_bytes = 4000 * kKB;
    net.StartFlow(f);
    // Closed loop: next chunk on completion (fresh QP, line-rate start).
    topo.hosts[static_cast<size_t>(i)]->AddCompletionCallback(
        [&net](const FlowRecord& r) {
          FlowSpec nf = r.spec;
          nf.flow_id = net.NextFlowId();
          nf.start_time = net.eq().Now();
          net.StartFlow(nf);
        });
  }
  net.RunFor(Milliseconds(40));
  Bytes total = 0;
  for (const auto& nic : net.hosts()) {
    for (const auto& rec : nic->completed_flows()) total += rec.bytes;
  }
  TrialResult r;
  r.metrics["completed_gbps"] = static_cast<double>(total) * 8 / 40e-3 / 1e9;
  return r;
}

std::vector<TrialSpec> LossMatrix() {
  std::vector<TrialSpec> m;
  for (Bytes cap : kLossCaps) {
    for (bool gb0 : {false, true}) {
      m.push_back(Spec(Fmt("cap%lldKB_go_back_%s",
                           static_cast<long long>(cap / 1000),
                           gb0 ? "0" : "n"),
                       [gb0, cap] { return RunLossRecovery(gb0, cap); }));
    }
  }
  return m;
}

void LossReport(const Results& res) {
  std::printf("Ablation: loss recovery under a lossy fabric "
              "(4:1 incast of 4 MB chunks, no PFC)\n\n");
  std::printf("%12s | %14s | %14s\n", "lossy cap", "go-back-N Gbps",
              "go-back-0 Gbps");
  for (size_t i = 0; i < std::size(kLossCaps); ++i) {
    std::printf("%9lld KB | %14.2f | %14.2f\n",
                static_cast<long long>(kLossCaps[i] / 1000),
                M(res[2 * i], "completed_gbps"),
                M(res[2 * i + 1], "completed_gbps"));
  }
}

std::vector<Claim> LossClaims(const Results& res) {
  std::vector<double> gbn, gb0;
  bool never_beats = true;
  for (size_t i = 0; i < std::size(kLossCaps); ++i) {
    gbn.push_back(M(res[2 * i], "completed_gbps"));
    gb0.push_back(M(res[2 * i + 1], "completed_gbps"));
    never_beats &= gb0.back() <= gbn.back();
  }
  // "Collapse" read as losing more than half of the loose-cap goodput.
  return {{"Loss recovery: go-back-0 never beats go-back-N; from 2000 KB to "
           "125 KB it collapses (< half) while go-back-N keeps >= half",
           never_beats && gb0.back() < gb0.front() / 2 &&
               gbn.back() >= gbn.front() / 2,
           "go-back-N " + Join(gbn, "%.2f") + "; go-back-0 " +
               Join(gb0, "%.2f")}};
}

// ---------- Ablation: NIC clock desynchronization ----------
//
// Real NICs' timers are not phase-locked; this quantifies the modeling
// choice of jittering them (DESIGN.md §5) on k:1 incasts.
constexpr int kJitterDegrees[] = {4, 8, 16};

std::vector<TrialSpec> JitterMatrix() {
  std::vector<TrialSpec> m;
  for (int k : kJitterDegrees) {
    for (double timer_jitter : {0.0, 0.10}) {
      TopologyOptions opt;
      opt.nic_config.timer_jitter = timer_jitter;
      opt.nic_config.pacing_jitter = timer_jitter > 0 ? 0.02 : 0.0;
      m.push_back(Spec(Fmt(timer_jitter > 0 ? "incast%d_jitter"
                                            : "incast%d_no_jitter",
                           k),
                       [opt, k] { return RunIncastWindow(13, opt, k); }));
    }
  }
  return m;
}

void JitterReport(const Results& res) {
  std::printf("Ablation: NIC clock jitter (queue KB / utilization, 30 ms "
              "runs)\n\n");
  std::printf("%6s | %22s | %26s\n", "", "no jitter", "10% timer + 2% pacing");
  std::printf("%6s | %6s %6s %8s | %6s %6s %8s\n", "incast", "q50", "q90",
              "Gbps", "q50", "q90", "Gbps");
  for (size_t i = 0; i < std::size(kJitterDegrees); ++i) {
    const TrialResult &off = res[2 * i], &on = res[2 * i + 1];
    std::printf("%4d:1 | %6.0f %6.0f %8.2f | %6.0f %6.0f %8.2f\n",
                kJitterDegrees[i], M(off, "queue_p50_bytes") / 1e3,
                M(off, "queue_p90_bytes") / 1e3, M(off, "total_gbps"),
                M(on, "queue_p50_bytes") / 1e3,
                M(on, "queue_p90_bytes") / 1e3, M(on, "total_gbps"));
  }
}

// One claim per statistic: it stays ~ its no-jitter value at every fan-in.
// The p90 queue moves 73 -> 81 KB (+11%) at 4:1 (EXPERIMENTS.md).
std::vector<Claim> JitterClaims(const Results& res) {
  std::vector<Claim> claims;
  for (const char* key : {"total_gbps", "queue_p50_bytes", "queue_p90_bytes"}) {
    const double shown = std::string(key) == "total_gbps" ? 1 : 1e-3;  // KB
    bool same = true;
    std::string values;
    for (size_t i = 0; i < std::size(kJitterDegrees); ++i) {
      const double off = M(res[2 * i], key), on = M(res[2 * i + 1], key);
      same &= Approx(on, off);
      values += Fmt("%s%.1f -> %.1f", i ? ", " : "", off * shown, on * shown);
    }
    claims.push_back({Fmt("Jitter: %s stays ~ its no-jitter value at 4, 8, "
                          "16:1 (senders synchronize through marking)",
                          key),
                      same, values + (shown == 1 ? " Gbps" : " KB"),
                      std::string(key) == "queue_p90_bytes"});
  }
  return claims;
}

}  // namespace

const std::vector<Figure>& Figures() {
  static const std::vector<Figure> figures = {
      {"fig01_tcp_vs_rdma", Fig01Matrix, Fig01Report, Fig01Claims},
      {"fig03_pfc_unfairness", [] { return UnfairnessMatrix("raw"); },
       UnfairnessReport("Figure 3(b): per-sender goodput without DCQCN (PFC "
                        "only), Gbps"),
       Fig03Claims},
      {"fig04_victim_flow", [] { return VictimMatrix("raw"); },
       VictimReport("Figure 4(b): median victim-flow goodput without DCQCN "
                    "(PFC only)"),
       Fig04Claims},
      {"fig08_dcqcn_fairness", [] { return UnfairnessMatrix("dcqcn"); },
       UnfairnessReport("Figure 8: per-sender goodput with DCQCN, Gbps"),
       Fig08Claims},
      {"fig09_dcqcn_victim", [] { return VictimMatrix("dcqcn"); },
       VictimReport("Figure 9: median victim-flow goodput with DCQCN"),
       Fig09Claims},
      {"fig10_fluid_vs_sim", Fig10Matrix, Fig10Report, Fig10Claims},
      {"fig11_param_sweep", Fig11Matrix, Fig11Report, Fig11Claims},
      {"fig12_g_sweep", Fig12Matrix, Fig12Report, Fig12Claims},
      {"fig13_param_validation", Fig13Matrix, Fig13Report, Fig13Claims},
      {"table_params_and_thresholds", TableMatrix, TableReport, TableClaims},
      {"fig15_pause_count", Fig15Matrix, Fig15Report, Fig15Claims},
      {"fig16_benchmark_traffic", Fig16Matrix, Fig16Report, Fig16Claims},
      {"fig17_higher_load", Fig17Matrix, Fig17Report, Fig17Claims},
      {"fig18_pfc_necessity", Fig18Matrix, Fig18Report, Fig18Claims},
      {"fig19_queue_cdf", Fig19Matrix, Fig19Report, Fig19Claims},
      {"fig20_multi_bottleneck", Fig20Matrix, Fig20Report, Fig20Claims},
      {"ablation_rai_scaling", RaiMatrix, RaiReport, RaiClaims},
      {"ablation_cnp_interval", CnpMatrix, CnpReport, CnpClaims},
      {"ablation_loss_recovery", LossMatrix, LossReport, LossClaims},
      {"ablation_jitter", JitterMatrix, JitterReport, JitterClaims},
  };
  return figures;
}

const Figure* FindFigure(const std::string& name) {
  for (const Figure& f : Figures()) {
    if (name == f.name) return &f;
  }
  return nullptr;
}

}  // namespace bench
}  // namespace dcqcn
