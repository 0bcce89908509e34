// Topology builders.
//
//  * Star       — N hosts on one switch (microbenchmarks, incast, Fig. 10,
//                 Fig. 13, Fig. 19).
//  * Clos       — the paper's Fig. 2 testbed generalized to an arbitrary
//                 3-tier shape (ClosShape). The default shape is exactly the
//                 paper's: four ToRs (T1-T4), four leaves (L1-L4), two
//                 spines (S1-S2), all links 40 Gbps, ToRs T1/T2 and leaves
//                 L1/L2 in pod 0, T3/T4 and L3/L4 in pod 1, every leaf wired
//                 to both spines. Each ToR hosts `hosts_per_tor` servers
//                 (the paper's benchmark uses five). Scale experiments
//                 (bench/ext_scale) grow the same wiring pattern to dozens
//                 of ToRs and hundreds of hosts.
#pragma once

#include <vector>

#include "net/network.h"

namespace dcqcn {

struct TopologyOptions {
  Rate link_rate = Gbps(40);
  Time link_delay = Microseconds(1);  // per-hop propagation (+ switch fwd)
  // Host<->ToR propagation; 0 (default) = link_delay. Short host wires are
  // physically realistic (in-rack DAC vs inter-switch fiber) and, with the
  // adaptive per-cut lookahead (ShardPlan::unit_of_node), no longer shrink
  // the sharded engine's window width: host links never cross a shard.
  Time host_link_delay = 0;
  SwitchConfig switch_config;
  NicConfig nic_config;

  Time effective_host_link_delay() const {
    return host_link_delay > 0 ? host_link_delay : link_delay;
  }
};

struct StarTopology {
  SharedBufferSwitch* sw = nullptr;
  std::vector<RdmaNic*> hosts;
};

StarTopology BuildStar(Network& net, int num_hosts,
                       const TopologyOptions& opt);

// Shape of a 3-tier Clos: `pods` pods of `tors_per_pod` ToRs and
// `leaves_per_pod` leaves each, every leaf wired to all `spines`. Each ToR
// uplinks to every leaf of its pod. Defaults reproduce the paper's Fig. 2
// testbed byte-for-byte (verified by golden_test via the Clos benches).
struct ClosShape {
  int pods = 2;
  int tors_per_pod = 2;
  int leaves_per_pod = 2;
  int spines = 2;
  int hosts_per_tor = 5;

  int num_tors() const { return pods * tors_per_pod; }
  int num_leaves() const { return pods * leaves_per_pod; }
  int num_hosts() const { return num_tors() * hosts_per_tor; }

  void Validate() const {
    DCQCN_CHECK(pods >= 1);
    DCQCN_CHECK(tors_per_pod >= 1);
    DCQCN_CHECK(leaves_per_pod >= 1);
    DCQCN_CHECK(spines >= 1);
    DCQCN_CHECK(hosts_per_tor >= 1);
  }
};

struct ClosTopology {
  // The paper's fixed shape, kept for existing call sites and tests.
  static constexpr int kNumTors = 4;
  static constexpr int kNumLeaves = 4;
  static constexpr int kNumSpines = 2;

  ClosShape shape;
  std::vector<SharedBufferSwitch*> tors;    // T1..T4 = tors[0..3]
  std::vector<SharedBufferSwitch*> leaves;  // L1..L4 = leaves[0..3]
  std::vector<SharedBufferSwitch*> spines;  // S1..S2 = spines[0..1]
  std::vector<std::vector<RdmaNic*>> hosts_by_tor;
  int hosts_per_tor = 0;

  // Host `idx` under ToR `tor` (both 0-based).
  RdmaNic* host(int tor, int idx) const {
    return hosts_by_tor[static_cast<size_t>(tor)][static_cast<size_t>(idx)];
  }

  // Every host, ToR-major: the host universe workload patterns index.
  std::vector<RdmaNic*> AllHosts() const {
    std::vector<RdmaNic*> hosts;
    for (const auto& per_tor : hosts_by_tor) {
      hosts.insert(hosts.end(), per_tor.begin(), per_tor.end());
    }
    return hosts;
  }
};

// Paper-shape Clos (ClosShape defaults) with `hosts_per_tor` servers per ToR.
ClosTopology BuildClos(Network& net, int hosts_per_tor,
                       const TopologyOptions& opt);

// Arbitrary-shape Clos. Node ids and link construction order follow the same
// pattern as the fixed builder (ToRs, leaves, spines, then hosts ToR-major),
// so the default shape produces an identical network.
ClosTopology BuildClos(Network& net, const ClosShape& shape,
                       const TopologyOptions& opt);

}  // namespace dcqcn
