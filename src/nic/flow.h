// Flow descriptors and completion records.
#pragma once

#include <cstdint>
#include <limits>

#include "common/units.h"
#include "net/packet.h"

namespace dcqcn {

// dcqcn's registered CcPolicy id: the built-ins register in a fixed order
// (cc/cc_policy.cc checks this constant against it).
inline constexpr int16_t kDcqcnPolicyId = 1;

struct FlowSpec {
  int32_t flow_id = -1;
  int32_t src_host = -1;
  int32_t dst_host = -1;
  int8_t priority = kDataPriority;
  // Total message bytes; <= 0 means an unbounded, greedy flow.
  Bytes size_bytes = 0;
  Time start_time = 0;
  // Congestion-control policy id (CcPolicyIdByName). Its registration also
  // fixes the flow's wire behavior: the receiver's feedback and the switch
  // defaults (CcPolicyInfo::mode).
  int16_t cc_policy = kDcqcnPolicyId;
  // Salt mixed into the flow's ECMP key. Benches vary this per run to model
  // "depending on how ECMP maps the flows" (§2.2).
  uint64_t ecmp_salt = 0;

  bool unbounded() const { return size_bytes <= 0; }
  int64_t total_packets() const {
    if (unbounded()) return std::numeric_limits<int64_t>::max();
    return (size_bytes + kMtu - 1) / kMtu;
  }
};

// The ECMP key a flow's packets carry (also used by experiments to predict
// path choices via SharedBufferSwitch::EcmpSelect before starting flows).
inline uint64_t FlowEcmpKey(int32_t flow_id, uint64_t ecmp_salt) {
  return EcmpMix(static_cast<uint64_t>(flow_id) + 1, ecmp_salt);
}

struct FlowRecord {
  FlowSpec spec;
  Time start_time = 0;
  Time finish_time = 0;
  Bytes bytes = 0;

  Time fct() const { return finish_time - start_time; }
  Rate goodput() const {
    const Time d = fct();
    return d > 0 ? static_cast<double>(bytes) * 8.0 * 1e12 /
                       static_cast<double>(d)
                 : 0.0;
  }
};

}  // namespace dcqcn
