// Extension — DCQCN vs TIMELY on the same fabric.
//
// §3.3: "DCQCN is not particularly sensitive to congestion on the reverse
// path, as the send rate does not depend on accurate RTT estimation like
// TIMELY." We implemented TIMELY (core/timely.h) and compare the two on
// (a) an 8:1 incast — bottleneck queue depth and total utilization — and
// (b) the sensitivity experiment the quote implies: congesting the
// *reverse* path (where ACKs/CNPs travel) and watching what happens to a
// forward flow's rate.
//
// `--cc=POLICY` swaps the challenger arm for any registered CcPolicy
// (e.g. --cc=qcn pits DCQCN against QCN on the same scenarios); the
// default output is byte-identical to the pre-flag harness. It is the only
// flag: the scenarios run inline, not on the runner, so any other exits 2.
#include <cstdio>
#include <string>

#include "bench/common.h"
#include "runner/runner.h"
#include "telemetry/probes.h"

using namespace dcqcn;

namespace {

void Incast(int16_t cc, const char* label) {
  Network net(9);
  StarTopology topo = BuildStar(net, 9, bench::CcTopo(cc));
  for (int i = 0; i < 8; ++i) {
    bench::StartGreedyFlow(net, topo.hosts[static_cast<size_t>(i)],
                           topo.hosts[8], i, cc);
  }
  telemetry::ProbeSet probes(&net.eq(), Microseconds(20));
  const size_t queue = probes.AddGauge("queue_bytes", [&] {
    return static_cast<double>(topo.sw->EgressQueueBytes(8, kDataPriority));
  });
  probes.Start();
  net.RunFor(Milliseconds(10));
  const Bytes before = bench::DeliveredSum(topo.hosts[8], 8);
  net.RunFor(Milliseconds(20));
  const Bytes after = bench::DeliveredSum(topo.hosts[8], 8);
  const Cdf q = probes.ToCdf(queue, Milliseconds(10));
  std::printf("  %-7s queue p50 %7.1f KB  p90 %7.1f KB   total %6.2f "
              "Gbps\n",
              label, q.Quantile(0.5) / 1e3, q.Quantile(0.9) / 1e3,
              bench::WindowGbps(after - before, Milliseconds(20)));
}

void ReversePathSensitivity(int16_t cc,
                            const char* label) {
  // Forward flow H0 -> H2; reverse congestion: H2 and H1 blast toward H0 so
  // the forward flow's ACKs queue behind data at the switch egress to H0.
  Network net(10);
  StarTopology topo = BuildStar(net, 3, bench::CcTopo(cc));
  bench::StartGreedyFlow(net, topo.hosts[0], topo.hosts[2], 0, cc);
  net.RunFor(Milliseconds(10));
  const Bytes calm0 = topo.hosts[2]->ReceiverDeliveredBytes(0);
  net.RunFor(Milliseconds(10));
  const double calm = bench::WindowGbps(
      topo.hosts[2]->ReceiverDeliveredBytes(0) - calm0, Milliseconds(10));

  // Ignite reverse-path congestion (raw senders, they do not yield).
  const int16_t raw = CcPolicyIdByName("raw");
  for (int i = 1; i <= 2; ++i) {
    bench::StartGreedyFlow(net, topo.hosts[static_cast<size_t>(i)],
                           topo.hosts[0], i, raw, net.eq().Now());
  }
  net.RunFor(Milliseconds(10));
  const Bytes busy0 = topo.hosts[2]->ReceiverDeliveredBytes(0);
  net.RunFor(Milliseconds(10));
  const double busy = bench::WindowGbps(
      topo.hosts[2]->ReceiverDeliveredBytes(0) - busy0, Milliseconds(10));
  std::printf("  %-7s forward rate %6.2f -> %6.2f Gbps under reverse "
              "congestion (%.0f%% kept)\n",
              label, calm, busy, 100.0 * busy / calm);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchCli args = bench::ParseBenchCli(argc, argv, runner::kCliCc);
  if (!args.cli.ok) return 2;
  const runner::CliOptions& cli = args.cli;
  const int16_t champion = CcPolicyIdByName("dcqcn");
  const int16_t challenger =
      runner::ResolveCc(cli.cc, CcPolicyIdByName("timely"));
  const std::string label = cli.cc.empty() ? "TIMELY" : cli.cc;

  std::printf("Extension: DCQCN vs %s\n\n", label.c_str());
  std::printf("(a) 8:1 incast, single switch:\n");
  Incast(champion, "DCQCN");
  Incast(challenger, label.c_str());

  std::printf("\n(b) reverse-path congestion sensitivity (§3.3's claim):\n");
  ReversePathSensitivity(champion, "DCQCN");
  ReversePathSensitivity(challenger, label.c_str());

  std::printf(
      "\nexpected: both control the incast, with different queue operating "
      "points (ECN threshold vs RTT band); under reverse congestion TIMELY "
      "suffers because its RTT samples inflate with ACK queueing, while "
      "DCQCN only needs CNPs to *arrive*, not to be timely.\n");
  return 0;
}
