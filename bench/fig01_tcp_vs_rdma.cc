// Figure 1 — Throughput, CPU consumption and latency of TCP and RDMA.
//
// Paper (hardware): TCP needs >20% CPU for full 40G at 4MB messages and is
// CPU-bound at small sizes; RDMA saturates with a single thread at <3%
// client CPU and ~0 server CPU; 2KB latency is 25.4us (TCP) vs 1.7us (RDMA
// read/write) and 2.8us (send).
//
// We reproduce the shapes from the analytic host cost model (see
// fig1_host_curves.h for the substitution rationale).
#include <cstdio>

#include "bench/fig1_host_curves.h"

using namespace dcqcn;

int main() {
  HostModelConfig cfg;
  const Bytes sizes[] = {4000, 16000, 64000, 256000, 1000000, 4000000};
  const char* labels[] = {"4KB", "16KB", "64KB", "256KB", "1MB", "4MB"};

  std::printf("Figure 1(a): throughput (Gbps) vs message size\n");
  std::printf("%-8s %12s %12s\n", "msgsize", "TCP", "RDMA");
  for (int i = 0; i < 6; ++i) {
    std::printf("%-8s %12.2f %12.2f\n", labels[i],
                TcpPerformance(cfg, sizes[i]).throughput_gbps,
                RdmaClientPerformance(cfg, sizes[i]).throughput_gbps);
  }

  std::printf("\nFigure 1(b): CPU utilization (%% of all cores)\n");
  std::printf("%-8s %12s %12s %12s\n", "msgsize", "TCP-server", "RDMA-server",
              "RDMA-client");
  for (int i = 0; i < 6; ++i) {
    std::printf("%-8s %12.2f %12.2f %12.2f\n", labels[i],
                TcpPerformance(cfg, sizes[i]).cpu_percent,
                RdmaServerPerformance(cfg, sizes[i]).cpu_percent,
                RdmaClientPerformance(cfg, sizes[i]).cpu_percent);
  }

  std::printf("\nFigure 1(c): mean time to transfer 2KB (us)\n");
  std::printf("  TCP               : %6.2f   (paper: 25.4)\n",
              TcpLatencyUs(cfg, 2000));
  std::printf("  RDMA (read/write) : %6.2f   (paper:  1.7)\n",
              RdmaReadWriteLatencyUs(cfg, 2000));
  std::printf("  RDMA (send)       : %6.2f   (paper:  2.8)\n",
              RdmaSendLatencyUs(cfg, 2000));
  return 0;
}
