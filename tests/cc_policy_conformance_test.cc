// Parameterized conformance suite: policy-agnostic invariants every
// registered CcPolicy must satisfy, swept over the registry. The suite
// discovers policies via CcPolicyNames() at INSTANTIATE time, so a policy
// registered with RegisterCcPolicy — including the toy "probe" policy this
// file registers to prove extensibility — is swept automatically with no
// test edits.
//
// Two layers:
//   * unit level — a FakeCcHost direct-drives each policy with the uniform
//     signal set (CNPs, marked/clean ACKs, RTT samples, QCN feedback, bytes,
//     timer fires) and asserts rate/window bounds, alpha monotonicity,
//     timer quiescence, and tolerance of signals a policy "doesn't care
//     about" (the no-op default contract);
//   * system level — every policy rides the pinned differential scenarios
//     (cc/scenarios.h) deterministically, and the --cc axis stays
//     bit-identical across --jobs 1 vs --jobs 8 through the runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "cc/cc_policy.h"
#include "cc/dcqcn_policy.h"
#include "cc/dctcp_policy.h"
#include "cc/scenarios.h"
#include "cc_pins.h"
#include "nic/flow.h"
#include "runner/runner.h"
#include "runner/serialize.h"

namespace dcqcn {
namespace {

constexpr Rate kLine = Gbps(40);

// ---------------------------------------------------------------------------
// Toy policy registered by this test binary: halve on CNP, creep back on a
// rate timer. Registering it BEFORE the INSTANTIATE below puts it through
// the whole conformance sweep — which is the point: a third-party policy
// gets the invariant checks for free.
class ProbePolicy : public CcPolicy {
 public:
  ProbePolicy(const NicConfig& config, Rate line_rate)
      : period_(config.params.rate_increase_timer), line_rate_(line_rate),
        floor_(line_rate / 64), rate_(line_rate) {}

  const char* name() const override { return "probe"; }
  Rate CurrentRate() const override { return rate_; }
  Rate MinRate() const override { return floor_; }

  void OnCnp(CcHost& host) override {
    rate_ = std::max(floor_, rate_ / 2);
    host.TraceCcRate(rate_);
    host.ArmCcTimer(CcTimerKind::kRate, period_);
  }
  void OnTimer(CcHost& host, CcTimerKind kind) override {
    if (kind != CcTimerKind::kRate) return;
    rate_ = std::min(line_rate_, rate_ + line_rate_ / 100);
    host.TraceCcRate(rate_);
    if (rate_ < line_rate_) host.ArmCcTimer(CcTimerKind::kRate, period_);
  }

 private:
  const Time period_;
  const Rate line_rate_;
  const Rate floor_;
  Rate rate_;
};

const int16_t kProbeId = RegisterCcPolicy(
    {"probe", TransportMode::kRdmaDcqcn,
     [](const NicConfig& config, Rate line_rate) {
       return std::unique_ptr<CcPolicy>(new ProbePolicy(config, line_rate));
     }});

// Built-ins re-registered under new names with the original's registered
// mode. They ride the whole sweep too, and must reproduce the original's
// pinned traces: receiver feedback and switch defaults follow the
// registration, not anything a flow carries besides its policy id.
template <typename P>
int16_t RegisterClone(const char* name, const char* original) {
  return RegisterCcPolicy(
      {name, CcPolicyInfoById(CcPolicyIdByName(original)).mode,
       [](const NicConfig& config, Rate line_rate) {
         return std::unique_ptr<CcPolicy>(new P(config, line_rate));
       }});
}
const int16_t kDctcpClone = RegisterClone<DctcpPolicy>("dctcp_clone", "dctcp");
const int16_t kDcqcnClone = RegisterClone<DcqcnPolicy>("dcqcn_clone", "dcqcn");

// ---------------------------------------------------------------------------
// Minimal CcHost: virtual time plus the two timer slots, with explicit
// firing so tests control interleaving exactly.
class FakeCcHost : public CcHost {
 public:
  Time CcNow() const override { return now_; }
  void ArmCcTimer(CcTimerKind kind, Time base_period) override {
    EXPECT_GT(base_period, 0) << "policies must arm with a positive period";
    armed_[Idx(kind)] = true;
    period_[Idx(kind)] = base_period;
  }
  void CancelCcTimer(CcTimerKind kind) override {
    armed_[Idx(kind)] = false;
  }
  void TraceCcRate(Rate rate) override {
    EXPECT_TRUE(std::isfinite(rate));
    ++rate_traces_;
  }
  void TraceCcAlpha(double alpha) override {
    EXPECT_TRUE(std::isfinite(alpha));
    ++alpha_traces_;
  }

  bool armed(CcTimerKind kind) const { return armed_[Idx(kind)]; }
  bool any_armed() const { return armed_[0] || armed_[1]; }

  // Fires `kind` if armed (advancing time past its period). Returns whether
  // it fired.
  bool Fire(CcPolicy& policy, CcTimerKind kind) {
    if (!armed_[Idx(kind)]) return false;
    armed_[Idx(kind)] = false;
    now_ += period_[Idx(kind)];
    policy.OnTimer(*this, kind);
    return true;
  }
  int FireAll(CcPolicy& policy) {
    int fired = 0;
    if (Fire(policy, CcTimerKind::kAlpha)) ++fired;
    if (Fire(policy, CcTimerKind::kRate)) ++fired;
    return fired;
  }

  Time now_ = 0;
  int64_t rate_traces_ = 0;
  int64_t alpha_traces_ = 0;

 private:
  static size_t Idx(CcTimerKind kind) { return static_cast<size_t>(kind); }
  bool armed_[2] = {false, false};
  Time period_[2] = {0, 0};
};

class CcPolicyConformance : public ::testing::TestWithParam<std::string> {
 protected:
  int16_t id() const {
    const int16_t id = CcPolicyIdByName(GetParam());
    EXPECT_GE(id, 0) << GetParam() << " vanished from the registry";
    return id;
  }
  const CcPolicyInfo& info() const { return CcPolicyInfoById(id()); }
  std::unique_ptr<CcPolicy> Make() const {
    return CreateCcPolicy(id(), NicConfig{}, kLine);
  }

  // The invariant every other check hangs off: rate within [MinRate, line],
  // window floor respected, rate-vs-window contract consistent.
  static void CheckBounds(const CcPolicy& p) {
    const Rate rate = p.CurrentRate();
    ASSERT_TRUE(std::isfinite(rate));
    EXPECT_LE(rate, kLine);
    EXPECT_GE(rate, p.MinRate());
    EXPECT_GE(p.MinRate(), 0);
    if (p.window_based()) {
      EXPECT_GE(p.Cwnd(), NicConfig{}.dctcp.min_cwnd);
    } else {
      EXPECT_EQ(p.Cwnd(), 0) << "rate-based policies carry no window";
    }
  }

  static double AlphaOf(const CcPolicy& p) {
    return p.rp() ? p.rp()->alpha() : p.dctcp_alpha();
  }
};

// Every signal the QP can deliver, in a hostile mix, never drives the
// policy out of [MinRate, line_rate] (or below the window floor).
TEST_P(CcPolicyConformance, RateStaysWithinBoundsUnderSignalStorm) {
  auto p = Make();
  FakeCcHost host;
  CheckBounds(*p);
  EXPECT_EQ(p->CurrentRate(), kLine) << "policies must start at line rate";

  uint64_t seq = 0;
  for (int i = 0; i < 400; ++i) {
    host.now_ += Microseconds(10);
    p->OnCnp(host);
    p->OnQcnFeedback(host, 32);
    p->OnRttSample(host, Microseconds(300));  // far above TIMELY's T_high
    seq += kMtu;
    p->OnAck(host, CcAckSignal{kMtu, true, seq, seq + 8 * kMtu});
    p->OnBytesSent(host, kMtu);
    host.FireAll(*p);
    CheckBounds(*p);
  }
}

// After the congestion clears, benign signals recover the rate without ever
// leaving the bounds — and rate-based policies make it back to line rate.
TEST_P(CcPolicyConformance, RecoversToLineRateAfterCongestion) {
  auto p = Make();
  FakeCcHost host;
  uint64_t seq = 0;
  for (int i = 0; i < 50; ++i) {  // congestion epoch
    host.now_ += Microseconds(10);
    p->OnCnp(host);
    p->OnQcnFeedback(host, 32);
    p->OnRttSample(host, Microseconds(300));
    seq += kMtu;
    p->OnAck(host, CcAckSignal{kMtu, true, seq, seq + 8 * kMtu});
  }
  for (int i = 0; i < 20000 && p->CurrentRate() < kLine; ++i) {  // recovery
    host.now_ += Microseconds(10);
    p->OnRttSample(host, Microseconds(5));  // below TIMELY's T_low
    seq += kMtu;
    p->OnAck(host, CcAckSignal{kMtu, false, seq, seq + 8 * kMtu});
    p->OnBytesSent(host, 4 * kMtu);
    host.FireAll(*p);
    CheckBounds(*p);
  }
  if (!p->window_based()) {
    EXPECT_EQ(p->CurrentRate(), kLine)
        << p->name() << " never recovered to line rate";
  }
}

// Timers retire once congestion stops: a policy may not keep a timer armed
// forever at line rate (it would spin the NIC's timer wheel for idle QPs),
// and a spurious fire after quiescence must not move the rate — the
// policy-level face of "no rate updates after flow completion".
TEST_P(CcPolicyConformance, TimersQuiesceAndSpuriousFiresAreNoOps) {
  auto p = Make();
  FakeCcHost host;
  for (int i = 0; i < 10; ++i) {
    host.now_ += Microseconds(10);
    p->OnCnp(host);
    p->OnQcnFeedback(host, 32);
  }
  int fires = 0;
  while (host.any_armed() && fires < 100000) {
    fires += host.FireAll(*p);
  }
  EXPECT_FALSE(host.any_armed())
      << p->name() << " still re-arming after " << fires << " fires";

  const Rate settled = p->CurrentRate();
  const Bytes cwnd = p->Cwnd();
  p->OnTimer(host, CcTimerKind::kAlpha);  // stale fires past cancellation
  p->OnTimer(host, CcTimerKind::kRate);
  EXPECT_EQ(p->CurrentRate(), settled);
  EXPECT_EQ(p->Cwnd(), cwnd);
  EXPECT_FALSE(host.any_armed());
}

// Sustained marking pushes the congestion estimate one way only: alpha is
// non-decreasing and stays in [0, 1] while no decay timer fires. Policies
// without an alpha (raw, timely, probe) report a constant 0, which passes
// trivially — the point is that no estimator may oscillate under a
// constant-congestion input.
TEST_P(CcPolicyConformance, AlphaMonotoneUnderSustainedMarking) {
  auto p = Make();
  FakeCcHost host;
  p->OnCnp(host);
  for (int i = 0; i < 20; ++i) {  // decay alpha off its 1.0 initial value
    if (!host.Fire(*p, CcTimerKind::kAlpha)) break;
  }
  double prev = AlphaOf(*p);
  uint64_t seq = 0;
  for (int i = 0; i < 60; ++i) {
    host.now_ += Microseconds(50);
    p->OnCnp(host);
    seq += kMtu;
    p->OnAck(host, CcAckSignal{kMtu, true, seq, seq + 2 * kMtu});
    const double alpha = AlphaOf(*p);
    EXPECT_GE(alpha, prev) << p->name() << " alpha decayed under marking";
    EXPECT_GE(alpha, 0.0);
    EXPECT_LE(alpha, 1.0);
    prev = alpha;
  }
}

// The no-op default contract: a policy must tolerate the signals it does
// not subscribe to (the QP delivers RTT samples, dup ACKs, zero-byte sends
// and stale timers to every policy alike).
TEST_P(CcPolicyConformance, ToleratesForeignAndDegenerateSignals) {
  auto p = Make();
  FakeCcHost host;
  p->OnTimer(host, CcTimerKind::kAlpha);  // never armed
  p->OnTimer(host, CcTimerKind::kRate);
  p->OnRttSample(host, 0);
  p->OnBytesSent(host, 0);
  p->OnQcnFeedback(host, 0);
  p->OnAck(host, CcAckSignal{0, false, 0, 0});   // dup ACK, no echo
  p->OnAck(host, CcAckSignal{0, true, 0, kMtu});  // dup ACK carrying echo
  CheckBounds(*p);
  p->OnCnp(host);
  p->OnRttSample(host, Milliseconds(5));  // absurd RTT
  CheckBounds(*p);
}

// System level: every registered policy replays bit-identically through the
// differential scenario harness (same seed => same trace). Seed
// *sensitivity* is deliberately not asserted here: the seed only enters the
// sim through RED's marking draw, and policies that run with RED off
// (TIMELY) are legitimately seed-invariant on a lossless fabric.
TEST_P(CcPolicyConformance, ScenarioReplayIsDeterministic) {
  const std::string a = cc::RunScenarioTrace("incast", id(), 42);
  const std::string b = cc::RunScenarioTrace("incast", id(), 42);
  EXPECT_EQ(a, b) << GetParam();
  EXPECT_FALSE(a.empty());
}

std::string PolicyName(const ::testing::TestParamInfo<std::string>& info) {
  return info.param;
}

INSTANTIATE_TEST_SUITE_P(AllRegistered, CcPolicyConformance,
                         ::testing::ValuesIn(CcPolicyNames()), PolicyName);

// ---------------------------------------------------------------------------
// Registry behaviour (not per-policy).

TEST(CcPolicyRegistry, TestRegisteredPolicyIsLive) {
  EXPECT_GE(kProbeId, 0);
  EXPECT_EQ(CcPolicyIdByName("probe"), kProbeId);
  const std::vector<std::string> names = CcPolicyNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "probe"), names.end());
  auto p = CreateCcPolicy(kProbeId, NicConfig{}, kLine);
  ASSERT_NE(p, nullptr);
  EXPECT_STREQ(p->name(), "probe");
  // ...but it must NOT have displaced the built-in flow default.
  EXPECT_EQ(FlowSpec{}.cc_policy, CcPolicyIdByName("dcqcn"));
}

// The built-ins register the wire modes their algorithms need, the switch
// defaults follow the mode, and dcqcn holds the id every flow defaults to.
TEST(CcPolicyRegistry, DefaultsMatchTransportModes) {
  const struct {
    TransportMode mode;
    const char* name;
  } kWant[] = {
      {TransportMode::kRdmaRaw, "raw"},     {TransportMode::kRdmaDcqcn, "dcqcn"},
      {TransportMode::kDctcp, "dctcp"},     {TransportMode::kQcn, "qcn"},
      {TransportMode::kTimely, "timely"},
  };
  for (const auto& w : kWant) {
    const int16_t id = CcPolicyIdByName(w.name);
    ASSERT_GE(id, 0);
    EXPECT_EQ(CcPolicyInfoById(id).mode, w.mode);
    SwitchConfig by_id, by_mode;
    cc::ApplyCcSwitchDefaults(id, &by_id);
    cc::ApplyCcSwitchDefaults(w.mode, &by_mode);
    EXPECT_EQ(by_id.red.enabled, by_mode.red.enabled) << w.name;
    EXPECT_EQ(by_id.qcn.enabled, by_mode.qcn.enabled) << w.name;
  }
  EXPECT_EQ(CcPolicyIdByName("dcqcn"), kDcqcnPolicyId);
}

TEST(CcPolicyRegistry, ClonesReproduceBuiltInPins) {
  const struct {
    const char* original;
    int16_t clone;
  } kClones[] = {{"dctcp", kDctcpClone}, {"dcqcn", kDcqcnClone}};
  for (const auto& c : kClones) {
    SCOPED_TRACE(c.original);
    int checked = 0;
    for (const Pin& pin : kPins) {
      if (std::string(pin.policy) != c.original) continue;
      const std::string trace = cc::RunScenarioTrace(pin.scenario, c.clone, 42);
      EXPECT_EQ(trace.size(), pin.trace_bytes) << pin.scenario;
      EXPECT_EQ(cc::TraceFingerprint(trace), pin.fingerprint) << pin.scenario;
      ++checked;
    }
    EXPECT_EQ(checked, 4);
  }
}

TEST(CcPolicyRegistry, UnknownNamesRejected) {
  EXPECT_EQ(CcPolicyIdByName("vegas"), -1);
  EXPECT_EQ(CcPolicyIdByName(""), -1);
  EXPECT_EQ(runner::ResolveCc("", CcPolicyIdByName("timely")),
            CcPolicyIdByName("timely"));
  EXPECT_EQ(runner::ResolveCc("qcn", kDcqcnPolicyId), CcPolicyIdByName("qcn"));
}

// The --cc sweep axis obeys the runner's determinism contract: a matrix
// mixing every registered policy serializes to identical bytes under
// --jobs 1 and --jobs 8.
TEST(CcPolicyRegistry, PolicySweepIsJobsInvariant) {
  std::vector<runner::TrialSpec> matrix;
  for (const std::string& name : CcPolicyNames()) {
    const int16_t id = CcPolicyIdByName(name);
    runner::TrialSpec spec;
    spec.name = "incast/" + name;
    spec.run = [id, name](const runner::TrialContext& ctx) {
      const std::string trace = cc::RunScenarioTrace("incast", id, ctx.seed);
      const uint64_t fp = cc::TraceFingerprint(trace);
      runner::TrialResult r;
      r.name = "incast/" + name;
      r.metrics["trace_bytes"] = static_cast<double>(trace.size());
      r.metrics["fp_hi"] = static_cast<double>(fp >> 32);
      r.metrics["fp_lo"] = static_cast<double>(fp & 0xffffffffull);
      return r;
    };
    matrix.push_back(std::move(spec));
  }
  runner::RunnerOptions serial;
  serial.jobs = 1;
  serial.base_seed = 42;
  runner::RunnerOptions pooled;
  pooled.jobs = 8;
  pooled.base_seed = 42;
  const std::string a = runner::ResultsToJson(runner::RunTrials(matrix, serial));
  const std::string b = runner::ResultsToJson(runner::RunTrials(matrix, pooled));
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("probe"), std::string::npos);
}

}  // namespace
}  // namespace dcqcn
