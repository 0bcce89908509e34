#include "runner/serialize.h"

#include <cstdio>
#include <set>

#include "telemetry/json_writer.h"

namespace dcqcn {
namespace runner {

using telemetry::AppendDouble;
using telemetry::AppendInt;
using telemetry::AppendJsonString;
using telemetry::AppendSummary;
using telemetry::AppendUint;

std::string ResultsToJson(const std::vector<TrialResult>& results) {
  std::string out;
  out.reserve(4096);
  out += "{\"trials\":[";
  bool first_trial = true;
  for (const TrialResult& r : results) {
    if (!first_trial) out += ',';
    first_trial = false;
    out += "{\"name\":";
    AppendJsonString(out, r.name);
    out += ",\"index\":";
    AppendUint(out, r.trial_index);
    out += ",\"seed\":";
    AppendUint(out, r.seed);

    out += ",\"counters\":{";
    bool first = true;
    for (const auto& [k, v] : r.counters) {
      if (!first) out += ',';
      first = false;
      AppendJsonString(out, k);
      out += ':';
      AppendInt(out, v);
    }
    out += "},\"metrics\":{";
    first = true;
    for (const auto& [k, v] : r.metrics) {
      if (!first) out += ',';
      first = false;
      AppendJsonString(out, k);
      out += ':';
      AppendDouble(out, v);
    }
    out += "},\"summaries\":{";
    first = true;
    for (const auto& [k, v] : r.summaries) {
      if (!first) out += ',';
      first = false;
      AppendJsonString(out, k);
      out += ':';
      AppendSummary(out, v);
    }
    out += "},\"series\":{";
    first = true;
    for (const auto& [k, ts] : r.series) {
      if (!first) out += ',';
      first = false;
      AppendJsonString(out, k);
      out += ":[";
      bool first_pt = true;
      for (const auto& [t, v] : ts.points) {
        if (!first_pt) out += ',';
        first_pt = false;
        out += '[';
        AppendInt(out, t);
        out += ',';
        AppendDouble(out, v);
        out += ']';
      }
      out += ']';
    }
    out += '}';
    // Only trials that injected faults carry the key, so fault-free output
    // is byte-identical to what this schema produced before faults existed.
    if (!r.faults.empty()) {
      out += ",\"faults\":";
      out += r.faults.ToJson();
    }
    // Same byte-compatibility rule for the metric-registry snapshot.
    if (!r.registry.empty()) {
      out += ",\"registry\":";
      out += r.registry.ToJson();
    }
    out += '}';
  }
  out += "]}";
  return out;
}

std::string ResultsToCsv(const std::vector<TrialResult>& results) {
  // Header: fixed columns + the sorted union of counter/metric keys across
  // all trials (so every row has the same shape).
  std::set<std::string> counter_keys, metric_keys;
  bool any_faults = false;
  for (const TrialResult& r : results) {
    for (const auto& [k, v] : r.counters) {
      (void)v;
      counter_keys.insert(k);
    }
    for (const auto& [k, v] : r.metrics) {
      (void)v;
      metric_keys.insert(k);
    }
    if (!r.faults.empty()) any_faults = true;
  }

  auto csv_field = [](const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos) return s;
    std::string quoted = "\"";
    for (const char c : s) {
      if (c == '"') quoted += '"';
      quoted += c;
    }
    quoted += '"';
    return quoted;
  };

  // The `faults` column appears only when at least one trial has a plan,
  // so fault-free matrices keep the original header shape.
  std::string out = "name,index,seed";
  if (any_faults) out += ",faults";
  for (const std::string& k : counter_keys) out += ',' + csv_field(k);
  for (const std::string& k : metric_keys) out += ',' + csv_field(k);
  out += '\n';

  for (const TrialResult& r : results) {
    out += csv_field(r.name);
    out += ',';
    AppendUint(out, r.trial_index);
    out += ',';
    AppendUint(out, r.seed);
    if (any_faults) {
      out += ',';
      out += csv_field(r.faults.ToCompactString());
    }
    for (const std::string& k : counter_keys) {
      out += ',';
      if (auto it = r.counters.find(k); it != r.counters.end()) {
        AppendInt(out, it->second);
      }
    }
    for (const std::string& k : metric_keys) {
      out += ',';
      if (auto it = r.metrics.find(k); it != r.metrics.end()) {
        AppendDouble(out, it->second);
      }
    }
    out += '\n';
  }
  return out;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool ok = (std::fclose(f) == 0) && written == content.size();
  return ok;
}

}  // namespace runner
}  // namespace dcqcn
