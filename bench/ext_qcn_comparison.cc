// Extension — QCN vs DCQCN (§2.3 made executable).
//
// The paper rejects QCN because its feedback is L2-addressed and cannot
// cross a routed hop. We implemented QCN (core/qcn.h) and demonstrate both
// halves of the argument:
//   1. within one L2 domain (a single switch), QCN controls congestion
//      and shares bandwidth like DCQCN does;
//   2. across the IP-routed Clos testbed, QCN's notifications die at the
//      first L3 boundary, remote senders never slow down, and PFC must
//      carry the congestion — with all its collateral damage — while
//      DCQCN's IP-routable CNPs keep the fabric quiet.
//
// `--cc=POLICY` swaps the QCN arm for any registered CcPolicy; the default
// output is byte-identical to the pre-flag harness. It is the only flag:
// the two scenarios run inline, not on the runner, so any other exits 2.
#include <cstdio>
#include <string>

#include "bench/common.h"
#include "runner/runner.h"

using namespace dcqcn;

namespace {

void SingleSwitch(int16_t cc, const char* label) {
  Network net(5);
  StarTopology topo = BuildStar(net, 3, bench::CcTopo(cc));
  for (int i = 0; i < 2; ++i) {
    bench::StartGreedyFlow(net, topo.hosts[static_cast<size_t>(i)],
                           topo.hosts[2], i, cc, i * Milliseconds(5));
  }
  net.RunFor(Milliseconds(60));
  Bytes b0[2];
  for (int i = 0; i < 2; ++i) {
    b0[i] = topo.hosts[2]->ReceiverDeliveredBytes(i);
  }
  net.RunFor(Milliseconds(20));
  double r[2];
  for (int i = 0; i < 2; ++i) {
    r[i] = bench::WindowGbps(
        topo.hosts[2]->ReceiverDeliveredBytes(i) - b0[i], Milliseconds(20));
  }
  std::printf("  %-8s f1 %6.2f  f2 %6.2f Gbps   (fair: 20/20)\n", label,
              r[0], r[1]);
}

void ClosIncast(int16_t cc, const char* label) {
  Network net(5);
  ClosTopology topo = BuildClos(net, 5, bench::CcTopo(cc));
  for (int h = 0; h < 4; ++h) {
    bench::StartGreedyFlow(net, topo.host(0, h), topo.host(3, 0), h, cc);
  }
  net.RunFor(Milliseconds(25));
  int64_t fb_dropped = 0;
  for (const auto& sw : net.switches()) {
    fb_dropped += sw->counters().qcn_feedback_dropped;
  }
  std::printf("  %-8s PAUSE frames %7lld   QCN feedback dropped at L3 "
              "%7lld\n",
              label, static_cast<long long>(net.TotalPauseFramesSent()),
              static_cast<long long>(fb_dropped));
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchCli args = bench::ParseBenchCli(argc, argv, runner::kCliCc);
  if (!args.cli.ok) return 2;
  const runner::CliOptions& cli = args.cli;
  const int16_t champion = CcPolicyIdByName("dcqcn");
  const int16_t challenger = runner::ResolveCc(cli.cc, CcPolicyIdByName("qcn"));
  const std::string label = cli.cc.empty() ? "QCN" : cli.cc;

  std::printf("Extension: %s vs DCQCN\n\n", label.c_str());
  std::printf("(1) one L2 domain — two staggered flows, one switch:\n");
  SingleSwitch(challenger, label.c_str());
  SingleSwitch(champion, "DCQCN");

  std::printf("\n(2) IP-routed Clos — 4:1 cross-pod incast:\n");
  ClosIncast(challenger, label.c_str());
  ClosIncast(champion, "DCQCN");

  std::printf(
      "\npaper's argument (§2.3): QCN works inside an L2 domain but its "
      "feedback cannot reach senders across routed hops; DCQCN's CNPs can "
      "— so only DCQCN silences PFC on the routed fabric.\n");
  return 0;
}
