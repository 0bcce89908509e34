// Max-min fair rate allocator for the hybrid fast-forward engine.
//
// Classic progressive filling (water-filling): every unfrozen flow's rate
// rises at the same pace; a flow freezes when it reaches its policy rate cap
// or when one of its links saturates (all flows still active on a saturated
// link freeze at that bottleneck's equal share). The fixed point is the
// unique max-min fair allocation subject to the per-flow caps.
//
// The epoch controller uses the allocation two ways:
//   * as the quiescence gate — an epoch is only fast-forwardable when every
//     flow's allocation is within eps of its policy cap, i.e. the fabric
//     imposes no sharing and each flow behaves as if alone on its path;
//   * as the reseed rate handed back to CC policies on epoch exit.
//
// Deterministic by construction: no RNG, no pointer-keyed iteration — the
// caller supplies dense link indices and demand order, and the result is a
// pure function of them.
//
// Cost: each call compacts the links some demand crosses to local indices
// and fills over those alone — O(hops · log hops) set-up plus O(hops) per
// round, independent of link_capacity.size() — so the epoch controller can
// re-run it on every modelled arrival at large-Clos scale.
//
// Capacity is per cable, not per direction: the controller passes one entry
// per full-duplex Link, so a flow's data and a reverse flow's data crossing
// the same cable share it. That over-constrains opposite-direction flows,
// and it is load-bearing: ACKs ride the reverse direction behind reverse
// data serialization, which the analytic model does not capture, and the
// shared capacity keeps such pairs in packet mode (DESIGN §4k).
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"

namespace dcqcn::hybrid {

struct AllocDemand {
  Rate cap = 0;                // policy/path rate cap, bits/s (> 0)
  std::vector<int32_t> links;  // dense indices of the links the flow crosses
};

struct AllocResult {
  std::vector<Rate> rate;  // max-min allocation per demand; rate[i] <= cap
  int rounds = 0;          // filling rounds until fixed point
};

AllocResult MaxMinAllocate(const std::vector<AllocDemand>& demands,
                           const std::vector<Rate>& link_capacity);

}  // namespace dcqcn::hybrid
