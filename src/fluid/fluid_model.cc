#include "fluid/fluid_model.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace dcqcn {
namespace {

// 1 - (1-p)^m, computed stably for small p*m. This is the probability that
// at least one of m packets is marked — i.e. that a CNP window produces a
// rate cut.
double ProbWindow(double p, double m) {
  if (p <= 0 || m <= 0) return 0;
  if (p >= 1) return 1;
  return -std::expm1(m * std::log1p(-p));
}

// p / ((1-p)^{-m} - 1): the per-second fraction of increase events that
// survive the geometric marking process; -> 1/m as p -> 0.
double GeoTerm(double p, double m) {
  DCQCN_CHECK(m > 0);
  if (p <= 0) return 1.0 / m;
  if (p >= 1) return 0;
  const double denom = std::expm1(-m * std::log1p(-p));
  return denom > 0 ? p / denom : 0.0;
}

// (1-p)^m.
double Pow1mP(double p, double m) {
  if (p <= 0) return 1;
  if (p >= 1) return 0;
  return std::exp(m * std::log1p(-p));
}

}  // namespace

FluidParams FluidParams::FromDcqcn(const DcqcnParams& p, Rate link_rate,
                                   int num_flows) {
  FluidParams f;
  f.num_flows = num_flows;
  f.capacity_pps = link_rate / 8.0 / static_cast<double>(kMtu);
  f.line_rate_pps = f.capacity_pps;
  f.kmin = p.red.kmin;
  f.kmax = p.red.kmax;
  f.pmax = p.red.enabled ? p.red.pmax : 0.0;
  f.g = p.g;
  f.tau_star = ToSeconds(p.cnp_interval);
  f.tau_prime = ToSeconds(p.cnp_interval);
  f.tau_alpha = ToSeconds(p.alpha_timer);
  f.fast_recovery_steps = p.fast_recovery_steps;
  f.byte_counter_packets =
      static_cast<double>(p.byte_counter) / static_cast<double>(kMtu);
  f.timer_seconds = ToSeconds(p.rate_increase_timer);
  f.rate_ai_pps = p.rate_ai / 8.0 / static_cast<double>(kMtu);
  f.min_rate_pps = p.min_rate / 8.0 / static_cast<double>(kMtu);
  return f;
}

void FluidParams::Validate() const {
  DCQCN_CHECK(num_flows >= 1);
  DCQCN_CHECK(capacity_pps > 0 && line_rate_pps > 0);
  DCQCN_CHECK(kmax >= kmin && kmin >= 0);
  DCQCN_CHECK(pmax >= 0 && pmax <= 1);
  DCQCN_CHECK(g > 0 && g <= 1);
  DCQCN_CHECK(tau_star > 0 && tau_prime > 0 && tau_alpha > 0);
  DCQCN_CHECK(byte_counter_packets > 0);
  DCQCN_CHECK(timer_seconds > 0);
  DCQCN_CHECK(rate_ai_pps > 0);
}

FluidModel::FluidModel(const FluidParams& params, double dt)
    : params_(params), dt_(dt) {
  params_.Validate();
  DCQCN_CHECK(dt > 0);
  flows_.resize(static_cast<size_t>(params_.num_flows));
  const size_t hist_len =
      std::max<size_t>(1, static_cast<size_t>(params_.tau_star / dt_ + 0.5));
  history_.assign(hist_len, Delayed{0.0, std::vector<double>(
                                             flows_.size(), 0.0)});
}

void FluidModel::StartFlow(int i, double rate_pps) {
  auto& f = flows_[static_cast<size_t>(i)];
  DCQCN_CHECK(!f.active);
  f.active = true;
  f.start_time = t_;
  f.rc = rate_pps < 0 ? params_.line_rate_pps : rate_pps;
  f.rt = f.rc;
  f.alpha = 1.0;
}

void FluidModel::StartFlowAt(int i, double when_seconds, double rate_pps) {
  if (when_seconds <= t_) {
    StartFlow(i, rate_pps);
    return;
  }
  pending_starts_.push_back({i, {when_seconds, rate_pps}});
}

double FluidModel::RedP(double q_bytes) const {
  if (params_.pmax <= 0) return 0;
  const double kmin = static_cast<double>(params_.kmin);
  const double kmax = static_cast<double>(params_.kmax);
  if (q_bytes <= kmin) return 0;
  if (q_bytes > kmax) return 1;
  if (kmax == kmin) return 1;
  return params_.pmax * (q_bytes - kmin) / (kmax - kmin);
}

double FluidModel::TotalRatePps() const {
  double sum = 0;
  for (const auto& f : flows_) {
    if (f.active) sum += f.rc;
  }
  return sum;
}

const FluidModel::Delayed& FluidModel::DelayedState() const {
  return history_[hist_head_];
}

void FluidModel::Step() {
  // Activate pending flows.
  for (auto it = pending_starts_.begin(); it != pending_starts_.end();) {
    if (it->second.first <= t_) {
      StartFlow(it->first, it->second.second);
      it = pending_starts_.erase(it);
    } else {
      ++it;
    }
  }

  const Delayed& d = DelayedState();
  const double pD = d.p;
  const double tau_p = params_.tau_prime;
  const double B = params_.byte_counter_packets;
  const double F = params_.fast_recovery_steps;
  const double Rai = params_.rate_ai_pps;

  std::vector<double> new_rc(flows_.size(), 0.0);
  std::vector<double> new_rt(flows_.size(), 0.0);
  std::vector<double> new_alpha(flows_.size(), 0.0);

  for (size_t i = 0; i < flows_.size(); ++i) {
    FluidFlowState& f = flows_[i];
    if (!f.active) continue;
    // Delayed own rate; before the flow existed in the history, fall back
    // to its current rate (start-up transient).
    double rcD = d.rc[i];
    if (rcD <= 0) rcD = f.rc;

    const double pw = ProbWindow(pD, tau_p * rcD);      // cut probability
    const double t_pkts = params_.timer_seconds * rcD;  // timer period, pkts

    const double bc_events = rcD * GeoTerm(pD, B);
    const double ti_events = t_pkts > 0 ? rcD * GeoTerm(pD, t_pkts) : 0.0;

    // Eq. 7
    const double dalpha =
        params_.g / params_.tau_alpha * (pw - f.alpha);
    // Eq. 8 (hyper increase ignored)
    const double drt = -(f.rt - f.rc) / tau_p * pw +
                       Rai * Pow1mP(pD, F * B) * bc_events +
                       Rai * Pow1mP(pD, F * t_pkts) * ti_events;
    // Eq. 9
    const double drc = -f.rc * f.alpha / (2.0 * tau_p) * pw +
                       (f.rt - f.rc) / 2.0 * GeoTerm(pD, B) * rcD +
                       (f.rt - f.rc) / 2.0 * GeoTerm(pD, t_pkts) * rcD;

    new_alpha[i] = std::clamp(f.alpha + dalpha * dt_, 0.0, 1.0);
    new_rt[i] = std::clamp(f.rt + drt * dt_, params_.min_rate_pps,
                           params_.line_rate_pps);
    new_rc[i] = std::clamp(f.rc + drc * dt_, params_.min_rate_pps,
                           params_.line_rate_pps);
  }

  // Eq. 6 (bytes).
  const double dq =
      (TotalRatePps() - params_.capacity_pps) * static_cast<double>(
          params_.mtu);
  q_ = std::max(0.0, q_ + dq * dt_);

  for (size_t i = 0; i < flows_.size(); ++i) {
    if (!flows_[i].active) continue;
    flows_[i].rc = new_rc[i];
    flows_[i].rt = new_rt[i];
    flows_[i].alpha = new_alpha[i];
  }

  // Rotate history: overwrite the oldest slot with the current state.
  Delayed& slot = history_[hist_head_];
  slot.p = RedP(q_);
  for (size_t i = 0; i < flows_.size(); ++i) {
    slot.rc[i] = flows_[i].active ? flows_[i].rc : 0.0;
  }
  hist_head_ = (hist_head_ + 1) % history_.size();

  t_ += dt_;
}

void FluidModel::RunUntil(double t_seconds) {
  while (t_ < t_seconds) Step();
}

void FluidModel::WarmStartAtFixedPoint(const FluidFixedPoint& fp) {
  const double fair = params_.capacity_pps / params_.num_flows;
  for (auto& f : flows_) {
    f.active = true;
    f.start_time = t_;
    f.rc = fair;
    f.rt = fp.rt_pps;
    f.alpha = fp.alpha;
  }
  q_ = fp.queue_bytes;
  for (auto& slot : history_) {
    slot.p = fp.p;
    for (double& rc : slot.rc) rc = fair;
  }
}

void FluidModel::Perturb(int i, double factor) {
  auto& f = flows_[static_cast<size_t>(i)];
  DCQCN_CHECK(f.active);
  f.rc = std::clamp(f.rc * factor, params_.min_rate_pps,
                    params_.line_rate_pps);
}

FluidFixedPoint SolveFixedPoint(const FluidParams& params) {
  params.Validate();
  const double rc = params.capacity_pps / params.num_flows;
  const double tau_p = params.tau_prime;
  const double B = params.byte_counter_packets;
  const double F = params.fast_recovery_steps;
  const double t_pkts = params.timer_seconds * rc;
  const double Rai = params.rate_ai_pps;

  // Residual of dR_C/dt = 0 with R_T taken from dR_T/dt = 0 and alpha from
  // dalpha/dt = 0. Positive residual => net increase => p must grow.
  const auto residual = [&](double p) {
    const double pw = ProbWindow(p, tau_p * rc);
    const double alpha = pw;
    const double bc_events = rc * GeoTerm(p, B);
    const double ti_events = rc * GeoTerm(p, t_pkts);
    // From Eq. 8 = 0: (RT - RC) = tau'/pw * (AI terms).
    const double ai = Rai * Pow1mP(p, F * B) * bc_events +
                      Rai * Pow1mP(p, F * t_pkts) * ti_events;
    const double rt_minus_rc = pw > 0 ? tau_p * ai / pw : 0.0;
    const double dec = -rc * alpha / (2.0 * tau_p) * pw;
    const double inc = rt_minus_rc / 2.0 *
                       (GeoTerm(p, B) + GeoTerm(p, t_pkts)) * rc;
    return inc + dec;
  };

  // Bisection on p in (0, 1): residual is positive for tiny p (increase
  // dominates) and negative once marking is heavy.
  double lo = 1e-9, hi = 0.9999;
  DCQCN_CHECK(residual(lo) > 0);
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (residual(mid) > 0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }

  FluidFixedPoint fp;
  fp.p = 0.5 * (lo + hi);
  fp.alpha = ProbWindow(fp.p, tau_p * rc);
  {
    const double pw = fp.alpha;
    const double ai = Rai * Pow1mP(fp.p, F * B) * rc * GeoTerm(fp.p, B) +
                      Rai * Pow1mP(fp.p, F * t_pkts) * rc *
                          GeoTerm(fp.p, t_pkts);
    fp.rt_pps = rc + (pw > 0 ? tau_p * ai / pw : 0.0);
  }
  // Invert the RED curve (Eq. 5) for the implied stable queue.
  if (fp.p >= params.pmax) {
    fp.queue_bytes = static_cast<double>(params.kmax);
  } else {
    fp.queue_bytes =
        static_cast<double>(params.kmin) +
        fp.p / params.pmax *
            static_cast<double>(params.kmax - params.kmin);
  }
  return fp;
}

}  // namespace dcqcn
