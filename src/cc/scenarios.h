// Differential conformance scenarios for congestion-control policies.
//
// Each scenario is a small, fully deterministic simulation whose observable
// behaviour is folded into a textual trace: per-flow rate / delivered-bytes /
// counter samples at fixed instants, plus final switch counters and
// completion records. Two builds that produce byte-identical traces for
// every (scenario, policy) pair are behaviourally equivalent on the paths
// that matter — the trace covers the RP/NP state machines, pacing, window
// management, PFC interaction, and the completion path.
//
// The harness exists so the CcPolicy refactor (and any future policy or
// hot-path change) can be checked against pre-change behaviour exactly:
// tests/cc_differential_test.cc pins the fingerprint of every pair, and
// bench/regen_cc_goldens prints current values for re-pinning after an
// *intended* behaviour change (see EXPERIMENTS.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cc/cc_policy.h"
#include "net/switch.h"

namespace dcqcn {
namespace cc {

// The four pinned scenarios: "fig08" (parking-lot fairness), "fig09"
// (Clos victim flow), "victim" (star victim behind an incast), "incast"
// (8:1 single-switch incast).
std::vector<std::string> ConformanceScenarios();

// Switch-side defaults a policy's experiments assume, keyed on its
// registered mode: QCN needs the switch congestion point enabled and
// RED/ECN off; TIMELY runs without RED marking (its signal is delay).
// DCQCN/DCTCP/raw keep the deployment RED curve.
void ApplyCcSwitchDefaults(int16_t policy, SwitchConfig* cfg);
// perfbench only; deleted by the benchmark PR.
void ApplyCcSwitchDefaults(TransportMode mode, SwitchConfig* cfg);

// Runs `scenario` with every flow under the registered CcPolicy `policy`
// at `seed`; returns the full textual trace. Aborts on an unknown scenario
// name. Any registered policy, including test-registered ones, rides the
// same scenarios.
std::string RunScenarioTrace(const std::string& scenario, int16_t policy,
                             uint64_t seed);

// The golden 2-flow star: greedy flows 0 and 1 from hosts 0 and 1 into
// host 2 of a 3-host star, both under `policy`, run for 2 ms at `seed`.
// tests/golden_test.cc pins these readouts per policy at seed 42, and
// bench/regen_cc_goldens prints them for re-pinning.
struct GoldenStarRun {
  SwitchCounters sw;
  Bytes delivered[2];  // per flow, at host 2
  Rate rate_bps[2];    // final rate-limiter setting
  int64_t cnps[2];
  int64_t pkts_sent[2];
  Bytes cwnd[2];
  double dctcp_alpha[2];
};
GoldenStarRun RunGoldenStar(int16_t policy, uint64_t seed);

// FNV-1a 64-bit fingerprint of a trace (what the differential test pins;
// the full trace is printed on mismatch for diffing).
uint64_t TraceFingerprint(const std::string& trace);

}  // namespace cc
}  // namespace dcqcn
