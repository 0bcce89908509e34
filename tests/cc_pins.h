// The (scenario x policy) trace fingerprints pinned by
// cc_differential_test, shared with cc_policy_conformance_test so that a
// re-registered clone of a built-in policy is held to the same bytes.
// Re-pin with `regen_cc_goldens` (see cc_differential_test.cc).
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>

namespace dcqcn {

struct Pin {
  const char* scenario;
  const char* policy;
  uint64_t fingerprint;
  size_t trace_bytes;
};

// Captured at seed 42 from the pre-refactor state machines.
constexpr Pin kPins[] = {
    {"fig08", "dcqcn", 0x6ba2237d4b62fea7ull, 2521},
    {"fig08", "dctcp", 0x0660f0ccc0e3e274ull, 3019},
    {"fig08", "timely", 0xf9b14f6780829462ull, 2635},
    {"fig08", "qcn", 0x03aaa36a70868a04ull, 2664},
    {"fig09", "dcqcn", 0x33e06351c0fe8df4ull, 2432},
    {"fig09", "dctcp", 0xb1c20603975500fdull, 2898},
    {"fig09", "timely", 0xf80d41ce5f2a83a2ull, 2517},
    {"fig09", "qcn", 0xe26bc93c16c51fc1ull, 2553},
    {"victim", "dcqcn", 0x4fd8bc9d3e86f343ull, 3385},
    {"victim", "dctcp", 0x19b0a5c9aaf5c9dbull, 4091},
    {"victim", "timely", 0x0766a96a7f0a0f6dull, 3256},
    {"victim", "qcn", 0x8843d558402c7333ull, 3506},
    {"incast", "dcqcn", 0x27c8f649748c2351ull, 3874},
    {"incast", "dctcp", 0x1ab713a7f735843cull, 4601},
    {"incast", "timely", 0xd0deff71c9bd303bull, 3702},
    {"incast", "qcn", 0xa119dde0cca2e074ull, 4019},
};

// Print a pin by name, not as raw bytes: its bytes hold string addresses,
// which move with every build and process, and gtest puts the printed
// parameter into the test names that CTest discovers.
inline void PrintTo(const Pin& pin, std::ostream* os) {
  *os << pin.scenario << "/" << pin.policy;
}

}  // namespace dcqcn
