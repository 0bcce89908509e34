#include "cc/cc_policy.h"

#include <mutex>

#include "cc/dcqcn_policy.h"
#include "cc/dctcp_policy.h"
#include "cc/qcn_policy.h"
#include "cc/raw_policy.h"
#include "cc/timely_policy.h"
#include "common/check.h"
#include "nic/flow.h"

namespace dcqcn {
namespace {

template <typename P>
CcPolicyInfo BuiltIn(const char* name, TransportMode mode) {
  CcPolicyInfo info;
  info.name = name;
  info.mode = mode;
  info.make = [](const NicConfig& config, Rate line_rate) {
    return std::unique_ptr<CcPolicy>(new P(config, line_rate));
  };
  return info;
}

// Registration order fixes the ids; dcqcn's is every flow's default.
std::vector<CcPolicyInfo>& MutableRegistry() {
  static std::vector<CcPolicyInfo>* registry = [] {
    auto* r = new std::vector<CcPolicyInfo>();
    r->push_back(BuiltIn<RawPolicy>("raw", TransportMode::kRdmaRaw));
    DCQCN_CHECK(r->size() == static_cast<size_t>(kDcqcnPolicyId));
    r->push_back(BuiltIn<DcqcnPolicy>("dcqcn", TransportMode::kRdmaDcqcn));
    r->push_back(BuiltIn<DctcpPolicy>("dctcp", TransportMode::kDctcp));
    r->push_back(BuiltIn<QcnPolicy>("qcn", TransportMode::kQcn));
    r->push_back(BuiltIn<TimelyPolicy>("timely", TransportMode::kTimely));
    return r;
  }();
  return *registry;
}

// Registration is process-global (tests register toy policies); lookups on
// the hot path copy nothing and take no lock — concurrent runner jobs only
// read, and registration happens before flows start.
std::mutex& RegistryMutex() {
  static std::mutex m;
  return m;
}

}  // namespace

int16_t RegisterCcPolicy(CcPolicyInfo info) {
  DCQCN_CHECK(!info.name.empty());
  DCQCN_CHECK(static_cast<bool>(info.make));
  std::lock_guard<std::mutex> lock(RegistryMutex());
  auto& registry = MutableRegistry();
  DCQCN_CHECK(CcPolicyIdByName(info.name) < 0);  // names are unique
  registry.push_back(std::move(info));
  return static_cast<int16_t>(registry.size() - 1);
}

int16_t CcPolicyIdByName(const std::string& name) {
  const auto& registry = MutableRegistry();
  for (size_t i = 0; i < registry.size(); ++i) {
    if (registry[i].name == name) return static_cast<int16_t>(i);
  }
  return -1;
}

const CcPolicyInfo& CcPolicyInfoById(int16_t id) {
  const auto& registry = MutableRegistry();
  DCQCN_CHECK(id >= 0 && static_cast<size_t>(id) < registry.size());
  return registry[static_cast<size_t>(id)];
}

std::vector<std::string> CcPolicyNames() {
  const auto& registry = MutableRegistry();
  std::vector<std::string> names;
  names.reserve(registry.size());
  for (const CcPolicyInfo& info : registry) names.push_back(info.name);
  return names;
}

std::unique_ptr<CcPolicy> CreateCcPolicy(int16_t id, const NicConfig& config,
                                         Rate line_rate) {
  return CcPolicyInfoById(id).make(config, line_rate);
}

}  // namespace dcqcn
