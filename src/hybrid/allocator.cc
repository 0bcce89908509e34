#include "hybrid/allocator.h"

#include <algorithm>
#include <limits>
#include <span>

#include "common/check.h"

namespace dcqcn::hybrid {

AllocResult MaxMinAllocate(const std::vector<AllocDemand>& demands,
                           const std::vector<Rate>& link_capacity) {
  AllocScratch scratch;
  AllocResult out;
  MaxMinAllocate(demands.data(), demands.size(), link_capacity, &scratch,
                 &out);
  return out;
}

void MaxMinAllocate(const AllocDemand* demand_list, size_t count,
                    const std::vector<Rate>& link_capacity,
                    AllocScratch* scratch, AllocResult* result) {
  const std::span<const AllocDemand> demands(demand_list, count);
  const size_t nf = demands.size();
  const size_t nl = link_capacity.size();
  AllocResult& out = *result;
  out.rate.assign(nf, 0.0);
  out.rounds = 0;
  if (nf == 0) return;

  // Compact the links some demand crosses to local indices [0, nt): every
  // per-link step below visits only those, so a call costs O(hops), not
  // O(fabric). Links no demand crosses never carry an active flow, so
  // skipping them changes nothing.
  size_t hops = 0;
  for (const AllocDemand& d : demands) {
    DCQCN_CHECK(d.cap > 0);
    hops += d.links.size();
  }
  std::vector<int32_t>& touched = scratch->touched;
  touched.clear();
  for (const AllocDemand& d : demands) {
    for (int32_t l : d.links) {
      DCQCN_CHECK(l >= 0 && static_cast<size_t>(l) < nl);
      touched.push_back(l);
    }
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  const size_t nt = touched.size();

  // Demand f's links, as local indices, are path[off[f], off[f + 1]).
  std::vector<int32_t>& path = scratch->path;
  std::vector<size_t>& off = scratch->off;
  path.resize(hops);
  off.assign(nf + 1, 0);
  for (size_t f = 0, k = 0; f < nf; ++f) {
    for (int32_t l : demands[f].links) {
      path[k++] = static_cast<int32_t>(
          std::lower_bound(touched.begin(), touched.end(), l) -
          touched.begin());
    }
    off[f + 1] = k;
  }

  // Saturation tolerance relative to the link's own capacity: rates are
  // doubles, so "remaining == 0" needs slack after repeated subtraction.
  constexpr double kRelTol = 1e-9;

  std::vector<Rate>& remaining = scratch->remaining;
  std::vector<Rate>& saturated = scratch->saturated;  // at or below = full
  std::vector<int32_t>& active = scratch->active;  // unfrozen flows per link
  remaining.resize(nt);
  saturated.resize(nt);
  active.assign(nt, 0);
  for (size_t t = 0; t < nt; ++t) {
    const Rate cap = link_capacity[static_cast<size_t>(touched[t])];
    remaining[t] = cap;
    saturated[t] = kRelTol * cap;
  }
  for (int32_t t : path) ++active[static_cast<size_t>(t)];
  std::vector<char>& frozen = scratch->frozen;
  frozen.assign(nf, 0);
  size_t unfrozen = nf;

  while (unfrozen > 0) {
    ++out.rounds;
    // Uniform increment: the smallest headroom-per-active-flow over all
    // loaded links, clamped by the closest per-flow cap. min is exact, so
    // the visiting order cannot change the result.
    double inc = std::numeric_limits<double>::infinity();
    for (size_t t = 0; t < nt; ++t) {
      if (active[t] > 0) inc = std::min(inc, remaining[t] / active[t]);
    }
    for (size_t f = 0; f < nf; ++f) {
      if (!frozen[f]) inc = std::min(inc, demands[f].cap - out.rate[f]);
    }
    if (inc < 0) inc = 0;

    for (size_t f = 0; f < nf; ++f) {
      if (!frozen[f]) out.rate[f] += inc;
    }
    for (size_t t = 0; t < nt; ++t) {
      if (active[t] > 0) remaining[t] -= inc * active[t];
    }

    // Freeze flows at cap and flows on saturated links. At least one flow
    // freezes per round (the arg-min of the increment), so the loop runs at
    // most nf rounds.
    size_t froze = 0;
    for (size_t f = 0; f < nf; ++f) {
      if (frozen[f]) continue;
      bool stop = out.rate[f] >= demands[f].cap * (1.0 - kRelTol);
      for (size_t k = off[f]; !stop && k < off[f + 1]; ++k) {
        const auto t = static_cast<size_t>(path[k]);
        stop = remaining[t] <= saturated[t];
      }
      if (stop) {
        frozen[f] = 1;
        ++froze;
        --unfrozen;
        for (size_t k = off[f]; k < off[f + 1]; ++k) {
          --active[static_cast<size_t>(path[k])];
        }
      }
    }
    // Numerical backstop: if the tolerance let a round pass with no freeze,
    // freeze everything at the current level rather than loop forever.
    if (froze == 0) break;
  }
}

}  // namespace dcqcn::hybrid
