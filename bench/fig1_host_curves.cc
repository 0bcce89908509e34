#include "bench/fig1_host_curves.h"

#include <algorithm>

#include "common/check.h"

namespace dcqcn {
namespace {

HostPerf PerfFromCosts(const HostModelConfig& cfg, Bytes message_bytes,
                       double cycles_per_byte, double cycles_per_segment,
                       Bytes segment, double cycles_per_message) {
  DCQCN_CHECK(message_bytes > 0);
  const double msg = static_cast<double>(message_bytes);
  const double eff_cycles_per_byte =
      cycles_per_byte +
      cycles_per_segment / static_cast<double>(segment) +
      cycles_per_message / msg;
  const double cpu_capacity = cfg.cpu_capacity_cycles_per_sec();
  const double cpu_limit_bytes_per_sec =
      eff_cycles_per_byte > 0 ? cpu_capacity / eff_cycles_per_byte : 1e30;
  const double wire_bytes_per_sec = cfg.link_rate / 8.0;
  const double tput = std::min(cpu_limit_bytes_per_sec, wire_bytes_per_sec);

  HostPerf p;
  p.throughput_gbps = tput * 8.0 / 1e9;
  p.cpu_percent = 100.0 * tput * eff_cycles_per_byte / cpu_capacity;
  return p;
}

}  // namespace

HostPerf TcpPerformance(const HostModelConfig& cfg, Bytes message_bytes) {
  return PerfFromCosts(cfg, message_bytes, cfg.tcp_cycles_per_byte,
                       cfg.tcp_cycles_per_segment, cfg.tcp_segment,
                       cfg.tcp_cycles_per_message);
}

HostPerf RdmaClientPerformance(const HostModelConfig& cfg,
                               Bytes message_bytes) {
  return PerfFromCosts(cfg, message_bytes, cfg.rdma_cycles_per_byte,
                       /*cycles_per_segment=*/0.0, cfg.tcp_segment,
                       cfg.rdma_client_cycles_per_message);
}

HostPerf RdmaServerPerformance(const HostModelConfig& cfg,
                               Bytes message_bytes) {
  return PerfFromCosts(cfg, message_bytes, /*cycles_per_byte=*/0.0,
                       /*cycles_per_segment=*/0.0, cfg.tcp_segment,
                       cfg.rdma_server_cycles_per_message +
                           1.0 /* avoid zero: MMU/PCIe upkeep */);
}

double TcpLatencyUs(const HostModelConfig& cfg, Bytes message_bytes) {
  const double wire_us = static_cast<double>(message_bytes) * 8.0 /
                         (cfg.link_rate / 1e6);
  return 2.0 * cfg.tcp_stack_traversal_us + cfg.wire_base_us + wire_us;
}

double RdmaReadWriteLatencyUs(const HostModelConfig& cfg,
                              Bytes message_bytes) {
  const double wire_us = static_cast<double>(message_bytes) * 8.0 /
                         (cfg.link_rate / 1e6);
  return 2.0 * cfg.rdma_nic_processing_us + cfg.wire_base_us + wire_us;
}

double RdmaSendLatencyUs(const HostModelConfig& cfg, Bytes message_bytes) {
  return RdmaReadWriteLatencyUs(cfg, message_bytes) +
         cfg.rdma_send_completion_us;
}

}  // namespace dcqcn
