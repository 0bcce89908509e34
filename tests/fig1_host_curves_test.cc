// Fig. 1 host-model tests: the published shapes must hold.
#include "bench/fig1_host_curves.h"

#include <gtest/gtest.h>

namespace dcqcn {
namespace {

HostModelConfig Cfg() { return HostModelConfig{}; }

TEST(HostModel, TcpSaturatesOnlyLargeMessages) {
  // "At smaller message sizes, TCP cannot saturate the link as CPU becomes
  // the bottleneck."
  EXPECT_LT(TcpPerformance(Cfg(), 4 * 1000).throughput_gbps, 35.0);
  EXPECT_NEAR(TcpPerformance(Cfg(), 4 * 1000 * 1000).throughput_gbps, 40.0,
              0.5);
}

TEST(HostModel, TcpCpuOver20PercentAtFullThroughput) {
  // "with 4MB message size, to drive full throughput, TCP consumes, on
  // average, over 20% CPU cycles across all cores."
  const HostPerf p = TcpPerformance(Cfg(), 4 * 1000 * 1000);
  EXPECT_GT(p.cpu_percent, 20.0);
  EXPECT_LT(p.cpu_percent, 35.0);
}

TEST(HostModel, TcpThroughputMonotoneInMessageSize) {
  double prev = 0;
  for (Bytes m : {4000, 16000, 64000, 256000, 1000000, 4000000}) {
    const double t = TcpPerformance(Cfg(), m).throughput_gbps;
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(HostModel, RdmaSaturatesAtAllSizes) {
  // "With RDMA, a single thread saturates the link."
  for (Bytes m : {4000, 16000, 64000, 256000, 1000000, 4000000}) {
    EXPECT_NEAR(RdmaClientPerformance(Cfg(), m).throughput_gbps, 40.0, 0.5)
        << m;
  }
}

TEST(HostModel, RdmaClientCpuUnder3Percent) {
  for (Bytes m : {4000, 16000, 64000, 256000, 1000000, 4000000}) {
    EXPECT_LT(RdmaClientPerformance(Cfg(), m).cpu_percent, 3.0) << m;
  }
}

TEST(HostModel, RdmaServerCpuNearZero) {
  // "The RDMA server, as expected, consumes almost no CPU cycles."
  for (Bytes m : {4000, 4000000}) {
    EXPECT_LT(RdmaServerPerformance(Cfg(), m).cpu_percent, 0.1) << m;
  }
}

TEST(HostModel, Latency2KBMatchesPaper) {
  // Paper: TCP 25.4 us, RDMA read/write 1.7 us, RDMA send 2.8 us.
  EXPECT_NEAR(TcpLatencyUs(Cfg(), 2000), 25.4, 1.0);
  EXPECT_NEAR(RdmaReadWriteLatencyUs(Cfg(), 2000), 1.7, 0.2);
  EXPECT_NEAR(RdmaSendLatencyUs(Cfg(), 2000), 2.8, 0.3);
}

TEST(HostModel, TcpLatencyAnOrderOfMagnitudeWorse) {
  EXPECT_GT(TcpLatencyUs(Cfg(), 2000),
            10 * RdmaReadWriteLatencyUs(Cfg(), 2000));
}

TEST(HostModel, CpuPercentConsistentWithThroughput) {
  // Property: cpu% == 100 * throughput * eff_cycles / capacity, so halving
  // the core count doubles cpu% while the CPU is not the bottleneck.
  HostModelConfig half = Cfg();
  half.cores = 8;
  const HostPerf full = TcpPerformance(Cfg(), 4 * 1000 * 1000);
  const HostPerf h = TcpPerformance(half, 4 * 1000 * 1000);
  if (h.throughput_gbps > 39.0) {
    EXPECT_NEAR(h.cpu_percent, 2 * full.cpu_percent, 1.0);
  }
}

}  // namespace
}  // namespace dcqcn
