// Host-path device model configuration and the `--host=NAME[:k=v,...]` axis.
//
// This is the SIMULATED host path (PR 8): a message-level queueing model of
// the verbs/doorbell/PCIe/context-cache pipeline that sits between a
// workload and the wire (see host_device.h). It is unrelated to
// `bench/fig1_host_curves.h`, which is a closed-form analytic TCP-vs-RDMA
// CPU/latency curve used only by the Fig. 1 motivation bench.
//
// Everything is OFF by default (`enabled = false`): a NicConfig with the
// default HostPathConfig builds no device, charges no cost anywhere, and
// every golden trace / fingerprint / bench output is byte-identical to a
// binary without this subsystem. Experiments opt in per NIC via
// `NicConfig::host_path` or per run via the `--host` CLI axis, which the
// runner CLI, scenario_cli and the message-level ext_* benches all accept
// alongside `--cc` and `--workload`.
//
// Grammar: `--host=PROFILE[:key=val,...]`. Profiles pin a base parameter
// set; key=val clauses override individual fields. Unknown profiles and
// unknown keys fail loudly (CheckHostSpec for CLI layers, DCQCN_CHECK in
// MakeHostPathConfig).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/units.h"

namespace dcqcn {
namespace host {

// RDMA verb of a work request. WRITE and SEND DMA their payload from host
// memory at post time; READ delivers into host memory at completion time
// (the PCIe budget is charged on the matching side).
enum class Verb : uint8_t { kWrite = 0, kRead = 1, kSend = 2 };
inline const char* VerbName(Verb v) {
  switch (v) {
    case Verb::kWrite: return "write";
    case Verb::kRead: return "read";
    case Verb::kSend: return "send";
  }
  return "?";
}

struct HostPathConfig {
  // Master switch. False = no device is built and nothing below applies.
  bool enabled = false;

  // --- verbs / send queue ---
  // Max work requests a QP may hold in flight (posted + launched, not yet
  // completed). Posts beyond this block host-side (the app backlog) until a
  // completion frees a slot — the SQ-depth collapse knob.
  int sq_depth = 128;
  // Verb used for workload-emitted messages (VerbsWorkloadHost).
  Verb workload_verb = Verb::kWrite;

  // --- doorbells ---
  // Work requests rung per doorbell. 1 = one MMIO write per post (so
  // host.doorbells == host.wr_posted, the accounting-closure check);
  // larger values amortize the doorbell cost BlueFlame-style.
  int doorbell_batch = 1;
  // A partial batch is flushed this long after it opened, so stragglers
  // are never stuck behind an unfilled batch.
  Time doorbell_flush = Nanoseconds(200);
  // Latency of the doorbell MMIO posted write crossing PCIe.
  Time doorbell_latency = Nanoseconds(300);

  // --- PCIe budget (shared across all QPs of the device) ---
  // Token-bucket bandwidth for descriptor fetches, context fetches, payload
  // DMA and CQE writes. Defaults model a x16 Gen3-ish effective budget:
  // comfortably above a 40G link, so only misses/doorbells surface until
  // the budget itself is constrained.
  Rate pcie_rate = Gbps(128);
  Bytes pcie_burst = 32 * kKiB;
  // Per-WQE descriptor fetch: bytes charged to the bucket plus fixed DMA
  // read latency.
  Bytes desc_bytes = 64;
  Time desc_fetch_latency = Nanoseconds(150);
  // CQE DMA write + completion poll latency (per completion).
  Bytes cqe_bytes = 64;
  Time cqe_latency = Nanoseconds(400);

  // --- bounded QP / MR context caches ---
  // On-NIC context cache capacities (entries). A WR whose QP or MR context
  // is not cached pays a deterministic ICM fetch over PCIe, serialized on
  // the device's single context-fetch engine — the RDCA last-mile cliff:
  // active QPs beyond qp_cache_entries turn every lookup into a miss.
  int qp_cache_entries = 64;
  int mr_cache_entries = 128;
  // A QP miss is not one PCIe read: QPC + CQC + the WQE re-fetch are
  // dependent round trips, so the penalty models the whole chain (an MR
  // miss is the shorter MPT+MTT walk). At 4 KB messages the serialized
  // qp+mr chain caps a thrashing host near 4 Gbps — well under half of
  // what the warm cache sustains, which is the >= 2x cliff ext_hostpath
  // sweeps.
  Time qp_miss_penalty = Microseconds(6);
  Time mr_miss_penalty = Microseconds(2);
  // Bytes charged to the PCIe bucket per ICM context fetch.
  Bytes ctx_fetch_bytes = 256;
};

// Parsed form of `--host=PROFILE[:key=val,...]` (same grammar as
// `--workload`; parsing never consults the profile table).
struct HostSpec {
  std::string name;
  std::map<std::string, std::string> params;
  bool ok = true;
  std::string error;  // set when !ok
};

HostSpec ParseHostSpec(const std::string& text);

// Registered profile names, in table order (the `--host=` domain):
//   off         enabled=false (the default; present so sweeps can spell it)
//   default     the HostPathConfig defaults above, enabled
//   tiny-cache  default with 8-entry QP / 16-entry MR caches — the
//               constrained part for cache-cliff sweeps
std::vector<std::string> HostProfileNames();

// Empty string when `spec` names a known profile and uses only known keys
// (value syntax is still checked later); a one-line error otherwise. CLI
// layers call this so a typo'd --host fails with the profile list, not a
// CHECK.
std::string CheckHostSpec(const HostSpec& spec);

// Builds the config a spec names: profile base + key=val overrides.
// DCQCN_CHECKs spec.ok, the profile name and every key (CLI layers validate
// first via CheckHostSpec). Keys:
//   sq_depth, doorbell_batch, flush_ns, doorbell_ns, pcie_gbps, burst_kb,
//   desc_bytes, desc_ns, cqe_ns, qp_cache, mr_cache, qp_miss_us, mr_miss_us,
//   ctx_bytes, verb (write|read|send)
HostPathConfig MakeHostPathConfig(const HostSpec& spec);

}  // namespace host
}  // namespace dcqcn
