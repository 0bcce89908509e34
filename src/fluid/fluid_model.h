// DCQCN fluid model (§5, Equations 5-9 and 11).
//
// N flows share one bottleneck of capacity C. Per flow i the model tracks
// the current rate R_C,i, target rate R_T,i and the rate-reduction factor
// alpha_i; the flows couple through the queue q and the RED marking
// probability p(q) (Eq. 5):
//
//   dq/dt     = sum_i R_C,i - C                                        (6)
//   dalpha/dt = g/tau_alpha * [(1 - (1-p')^{tau' R'_C}) - alpha]       (7)
//   dR_T/dt   = -(R_T - R_C)/tau' * (1 - (1-p')^{tau' R'_C})
//               + R_AI R'_C (1-p')^{F B}        p' / ((1-p')^{-B} - 1)
//               + R_AI R'_C (1-p')^{F T R'_C}   p' / ((1-p')^{-T R'_C} - 1)
//                                                                      (8)
//   dR_C/dt   = -R_C alpha/(2 tau') * (1 - (1-p')^{tau' R'_C})
//               + (R_T-R_C)/2 * R'_C p' / ((1-p')^{-B} - 1)
//               + (R_T-R_C)/2 * R'_C p' / ((1-p')^{-T R'_C} - 1)       (9)
//
// where primes denote values delayed by the control-loop delay tau*
// (feedback delay; the paper uses the CNP interval, 50 us), rates are in
// packets/second, B and T*R_C are the byte counter and timer periods in
// packets, F = 5, and the hyper-increase phase is ignored (like [4]).
//
// Integration is fixed-step Euler with a ring-buffer history for the
// delayed terms. Flows may enter at arbitrary times (they start at line
// rate, alpha = 1 — DCQCN has no slow start), which is how the Fig. 10
// staggered-start experiment is modeled.
#pragma once

#include <vector>

#include "common/units.h"
#include "core/params.h"
#include "net/packet.h"

namespace dcqcn {

struct FluidParams {
  int num_flows = 2;
  double capacity_pps = 5e6;  // 40 Gbps at 1000 B packets
  double line_rate_pps = 5e6;
  Bytes mtu = kMtu;

  // CP: RED curve (bytes).
  Bytes kmin = 5 * kKB;
  Bytes kmax = 200 * kKB;
  double pmax = 0.01;

  // RP / NP.
  double g = 1.0 / 256.0;
  double tau_star = 50e-6;   // feedback delay (s)
  double tau_prime = 50e-6;  // CNP generation interval (s)
  double tau_alpha = 55e-6;  // alpha update interval (s)
  int fast_recovery_steps = 5;
  double byte_counter_packets = 10e6 / 1000.0;  // 10 MB / MTU
  double timer_seconds = 55e-6;
  double rate_ai_pps = Mbps(40) / 8.0 / 1000.0;  // R_AI in packets/s

  double min_rate_pps = Mbps(10) / 8.0 / 1000.0;

  // Builds fluid parameters consistent with a protocol config.
  static FluidParams FromDcqcn(const DcqcnParams& p, Rate link_rate,
                               int num_flows);

  void Validate() const;
};

struct FluidFixedPoint;

struct FluidFlowState {
  double rc = 0;     // packets/s
  double rt = 0;     // packets/s
  double alpha = 1;  // rate reduction factor
  bool active = false;
  double start_time = 0;  // seconds
};

class FluidModel {
 public:
  // dt: Euler step, default 1 us.
  explicit FluidModel(const FluidParams& params, double dt = 1e-6);

  // Activates flow i at the current time with the given rate (defaults to
  // line rate — DCQCN's hyper-fast start).
  void StartFlow(int i, double rate_pps = -1);
  // Schedule a start in the future (seconds from t=0).
  void StartFlowAt(int i, double when_seconds, double rate_pps = -1);

  void Step();
  // Advance to absolute time `t_seconds`.
  void RunUntil(double t_seconds);

  // Initializes every flow, the queue and the delay history exactly at the
  // fixed point (all flows active at C/N) — the starting state for local
  // stability probes.
  void WarmStartAtFixedPoint(const FluidFixedPoint& fp);
  // Multiplies flow i's current rate by `factor` (perturbation injection).
  void Perturb(int i, double factor);

  double time() const { return t_; }
  double queue_bytes() const { return q_; }
  const FluidFlowState& flow(int i) const {
    return flows_[static_cast<size_t>(i)];
  }
  double FlowRateGbps(int i) const {
    return flow(i).rc * static_cast<double>(params_.mtu) * 8.0 / 1e9;
  }
  double TotalRatePps() const;

 private:
  struct Delayed {
    double p = 0;
    std::vector<double> rc;
  };
  double RedP(double q_bytes) const;
  const Delayed& DelayedState() const;

  FluidParams params_;
  double dt_;
  double t_ = 0;
  double q_ = 0;
  std::vector<FluidFlowState> flows_;
  std::vector<std::pair<int, std::pair<double, double>>> pending_starts_;

  // History ring buffer for the tau*-delayed terms.
  std::vector<Delayed> history_;
  size_t hist_head_ = 0;  // slot holding the oldest (= delayed) state
};

// --- fixed-point analysis (§5.1, Eq. 10 and the discussion after it) ---
//
// At the fixed point every flow sends at C/N; the residual system reduces
// to one equation in the marking probability p. Returns the unique root.
struct FluidFixedPoint {
  double p = 0;            // marking probability at the fixed point
  double alpha = 0;        // per-flow alpha
  double rt_pps = 0;       // per-flow target rate
  double queue_bytes = 0;  // implied stable queue (inverting Eq. 5)
};

FluidFixedPoint SolveFixedPoint(const FluidParams& params);

}  // namespace dcqcn
