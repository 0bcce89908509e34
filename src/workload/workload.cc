#include "workload/workload.h"

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <utility>

#include "common/check.h"
#include "trace/distributions.h"
#include "workload/collective.h"
#include "workload/incast.h"
#include "workload/pairs.h"
#include "workload/poisson.h"
#include "workload/qp_churn.h"

namespace dcqcn {
namespace workload {

int64_t WorkloadConfig::GetInt(const std::string& key, int64_t def) const {
  auto it = params.find(key);
  if (it == params.end()) return def;
  char* end = nullptr;
  const int64_t v = std::strtoll(it->second.c_str(), &end, 10);
  if (it->second.empty() || *end != '\0') {
    Reject(key + "=" + it->second + " is not an integer");
    return def;
  }
  return v;
}

double WorkloadConfig::GetDouble(const std::string& key, double def) const {
  auto it = params.find(key);
  if (it == params.end()) return def;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (it->second.empty() || *end != '\0') {
    Reject(key + "=" + it->second + " is not a number");
    return def;
  }
  return v;
}

std::string WorkloadConfig::GetString(const std::string& key,
                                      std::string def) const {
  auto it = params.find(key);
  return it == params.end() ? def : it->second;
}

void WorkloadConfig::CheckKeys(std::initializer_list<const char*> known) const {
  for (const auto& kv : params) {
    bool found = false;
    for (const char* k : known) found = found || kv.first == k;
    if (found) continue;
    std::string names;
    for (const char* k : known) {
      names += names.empty() ? k : std::string(", ") + k;
    }
    Reject("unknown key '" + kv.first + "' (keys: " + names + ")");
  }
}

void WorkloadConfig::Require(bool ok, const std::string& key,
                             const std::string& what) const {
  if (ok) return;
  auto it = params.find(key);
  Reject((it == params.end() ? key + " (default)" : key + "=" + it->second) +
         " " + what);
}

void WorkloadConfig::Reject(const std::string& message) const {
  if (error == nullptr) CheckFailed(message.c_str(), __FILE__, __LINE__);
  if (error->empty()) *error = message;
}

WorkloadSpec ParseWorkloadSpec(const std::string& text) {
  WorkloadSpec spec;
  if (text.empty()) {
    spec.ok = false;
    spec.error = "empty workload spec";
    return spec;
  }
  const size_t colon = text.find(':');
  spec.name = text.substr(0, colon);
  if (spec.name.empty()) {
    spec.ok = false;
    spec.error = "workload spec has no pattern name";
    return spec;
  }
  if (colon == std::string::npos) return spec;

  std::string rest = text.substr(colon + 1);
  size_t pos = 0;
  while (pos <= rest.size()) {
    const size_t comma = rest.find(',', pos);
    const std::string clause =
        rest.substr(pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos);
    const size_t eq = clause.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= clause.size()) {
      spec.ok = false;
      spec.error = "bad key=val clause '" + clause + "' in workload spec";
      return spec;
    }
    spec.params[clause.substr(0, eq)] = clause.substr(eq + 1);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return spec;
}

namespace {

// Rejects a size-CDF name outside EmpiricalSizeCdf::Names().
void RequireCdf(const WorkloadConfig& c, const std::string& cdf) {
  const std::vector<std::string> known = EmpiricalSizeCdf::Names();
  if (std::find(known.begin(), known.end(), cdf) != known.end()) return;
  std::string names;
  for (const std::string& n : known) names += names.empty() ? n : ", " + n;
  c.Require(false, "cdf", "is not a size CDF (" + names + ")");
}

// Rejects `key`'s value `v` unless it is below the host count (at most it,
// with `inclusive`); skipped while the host count is unknown.
void RequireHostBound(const WorkloadConfig& c, const char* key, int64_t v,
                      bool inclusive) {
  if (c.num_hosts == 0 || (inclusive ? v <= c.num_hosts : v < c.num_hosts)) {
    return;
  }
  c.Require(false, key,
            std::string("must be ") + (inclusive ? "<=" : "<") +
                " the host count (" + std::to_string(c.num_hosts) + ")");
}

std::vector<WorkloadPatternInfo>& MutableRegistry() {
  static auto* reg = new std::vector<WorkloadPatternInfo>{
      {"poisson",
       [](const WorkloadConfig& c) -> std::unique_ptr<WorkloadPattern> {
         c.CheckKeys({"load_gbps", "max_in_flight", "cdf"});
         PoissonOptions o;
         o.offered_load = Gbps(c.GetDouble("load_gbps", 40.0));
         o.max_in_flight =
             static_cast<int>(c.GetInt("max_in_flight", 0));
         o.size_cdf = c.GetString("cdf", "storage-backend");
         o.size_scale = c.size_scale;
         o.seed = c.seed;
         c.Require(o.offered_load > 0, "load_gbps", "must be > 0");
         RequireCdf(c, o.size_cdf);
         if (c.Failed()) return nullptr;
         return std::make_unique<PoissonPattern>(o);
       }},
      {"pairs",
       [](const WorkloadConfig& c) -> std::unique_ptr<WorkloadPattern> {
         c.CheckKeys({"pairs", "incast", "incast_kb", "think_us", "cdf"});
         PairsOptions o;
         o.num_pairs = static_cast<int>(c.GetInt("pairs", 20));
         o.incast_degree = static_cast<int>(c.GetInt("incast", 0));
         o.incast_flow_bytes = c.GetInt("incast_kb", 4000) * kKB;
         o.pair_think_time = Microseconds(c.GetInt("think_us", 1000));
         o.size_cdf = c.GetString("cdf", "storage-backend");
         o.size_scale = c.size_scale;
         o.seed = c.seed;
         c.Require(o.num_pairs >= 0, "pairs", "must be >= 0");
         c.Require(o.incast_degree >= 0, "incast", "must be >= 0");
         RequireHostBound(c, "incast", o.incast_degree, false);
         c.Require(o.incast_degree == 0 || o.incast_flow_bytes > 0,
                   "incast_kb", "must be > 0");
         c.Require(o.pair_think_time >= 0, "think_us", "must be >= 0");
         RequireCdf(c, o.size_cdf);
         if (c.Failed()) return nullptr;
         return std::make_unique<PairsPattern>(o);
       }},
      {"incast",
       [](const WorkloadConfig& c) -> std::unique_ptr<WorkloadPattern> {
         c.CheckKeys({"fanin", "kb", "epochs", "gap_us"});
         IncastOptions o;
         o.fan_in = static_cast<int>(c.GetInt("fanin", 8));
         o.request_bytes = c.GetInt("kb", 256) * kKB;
         o.epochs = c.GetInt("epochs", 0);
         o.epoch_gap = Microseconds(c.GetInt("gap_us", 0));
         o.seed = c.seed;
         c.Require(o.fan_in >= 1, "fanin", "must be >= 1");
         RequireHostBound(c, "fanin", o.fan_in, false);
         c.Require(o.request_bytes > 0, "kb", "must be > 0");
         c.Require(o.epochs >= 0, "epochs", "must be >= 0");
         c.Require(o.epoch_gap >= 0, "gap_us", "must be >= 0");
         if (c.Failed()) return nullptr;
         return std::make_unique<IncastPattern>(o);
       }},
      {"allreduce-ring",
       [](const WorkloadConfig& c) -> std::unique_ptr<WorkloadPattern> {
         c.CheckKeys({"nodes", "kb", "iters"});
         AllreduceRingOptions o;
         o.nodes = static_cast<int>(c.GetInt("nodes", 8));
         o.vector_bytes = c.GetInt("kb", 1024) * kKB;
         o.iterations = c.GetInt("iters", 0);
         o.seed = c.seed;
         c.Require(o.nodes >= 2, "nodes", "must be >= 2");
         RequireHostBound(c, "nodes", o.nodes, true);
         c.Require(o.nodes >= 2 && o.vector_bytes / o.nodes > 0, "kb",
                   "must split into a non-empty chunk per node");
         c.Require(o.iterations >= 0, "iters", "must be >= 0");
         if (c.Failed()) return nullptr;
         return std::make_unique<AllreduceRingPattern>(o);
       }},
      {"alltoall",
       [](const WorkloadConfig& c) -> std::unique_ptr<WorkloadPattern> {
         c.CheckKeys({"nodes", "kb", "rounds"});
         AllToAllOptions o;
         o.nodes = static_cast<int>(c.GetInt("nodes", 8));
         o.bytes_per_peer = c.GetInt("kb", 128) * kKB;
         o.rounds = c.GetInt("rounds", 0);
         o.seed = c.seed;
         c.Require(o.nodes >= 2, "nodes", "must be >= 2");
         RequireHostBound(c, "nodes", o.nodes, true);
         c.Require(o.bytes_per_peer > 0, "kb", "must be > 0");
         c.Require(o.rounds >= 0, "rounds", "must be >= 0");
         if (c.Failed()) return nullptr;
         return std::make_unique<AllToAllPattern>(o);
       }},
      {"qpchurn",
       [](const WorkloadConfig& c) -> std::unique_ptr<WorkloadPattern> {
         c.CheckKeys({"fanout", "kb", "rounds"});
         QpChurnOptions o;
         o.fanout = static_cast<int>(c.GetInt("fanout", 8));
         o.msg_bytes = c.GetInt("kb", 4) * kKB;
         o.rounds = c.GetInt("rounds", 0);
         o.size_scale = c.size_scale;
         o.seed = c.seed;
         c.Require(o.fanout >= 1, "fanout", "must be >= 1");
         c.Require(o.msg_bytes > 0, "kb", "must be > 0");
         c.Require(o.rounds >= 0, "rounds", "must be >= 0");
         if (c.Failed()) return nullptr;
         return std::make_unique<QpChurnPattern>(o);
       }},
  };
  return *reg;
}

std::mutex& RegistryMutex() {
  static auto* m = new std::mutex;
  return *m;
}

}  // namespace

int RegisterWorkloadPattern(WorkloadPatternInfo info) {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  auto& reg = MutableRegistry();
  for (const auto& existing : reg) {
    DCQCN_CHECK(existing.name != info.name);  // duplicate pattern name
  }
  DCQCN_CHECK(!info.name.empty());
  DCQCN_CHECK(info.make != nullptr);
  reg.push_back(std::move(info));
  return static_cast<int>(reg.size()) - 1;
}

int WorkloadPatternIdByName(const std::string& name) {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  const auto& reg = MutableRegistry();
  for (size_t i = 0; i < reg.size(); ++i) {
    if (reg[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

const WorkloadPatternInfo& WorkloadPatternInfoById(int id) {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  const auto& reg = MutableRegistry();
  DCQCN_CHECK(id >= 0 && static_cast<size_t>(id) < reg.size());
  return reg[static_cast<size_t>(id)];
}

std::vector<std::string> WorkloadPatternNames() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  std::vector<std::string> names;
  for (const auto& info : MutableRegistry()) names.push_back(info.name);
  return names;
}

std::unique_ptr<WorkloadPattern> CreateWorkloadPattern(const WorkloadSpec& spec,
                                                       uint64_t seed,
                                                       double size_scale) {
  DCQCN_CHECK(spec.ok);
  const int id = WorkloadPatternIdByName(spec.name);
  DCQCN_CHECK(id >= 0);  // unknown pattern; CLI layers validate first
  WorkloadConfig config;
  config.seed = seed;
  config.size_scale = size_scale;
  config.params = spec.params;
  return WorkloadPatternInfoById(id).make(config);
}

std::string WorkloadSpecError(const WorkloadSpec& spec, int num_hosts) {
  if (!spec.ok) return spec.error;
  const int id = WorkloadPatternIdByName(spec.name);
  if (id < 0) {
    std::string names;
    for (const std::string& n : WorkloadPatternNames()) {
      names += names.empty() ? n : ", " + n;
    }
    return "unknown pattern '" + spec.name + "' (registered: " + names + ")";
  }
  std::string error;
  WorkloadConfig config;
  config.params = spec.params;
  config.num_hosts = num_hosts;
  config.error = &error;
  WorkloadPatternInfoById(id).make(config);
  return error.empty() ? error : "pattern '" + spec.name + "': " + error;
}

}  // namespace workload
}  // namespace dcqcn
