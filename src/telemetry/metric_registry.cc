#include "telemetry/metric_registry.h"

#include <cstdlib>

#include "telemetry/json_writer.h"

namespace dcqcn {
namespace telemetry {

std::string EncodeMetricKey(const std::string& name, const MetricLabels& l) {
  std::string key = name;
  bool open = false;
  auto add = [&key, &open](const char* label, int v) {
    if (v < 0) return;
    key += open ? "," : "{";
    open = true;
    key += label;
    key += '=';
    key += std::to_string(v);
  };
  add("node", l.node);
  add("port", l.port);
  add("prio", l.priority);
  add("flow", l.flow);
  if (open) key += '}';
  return key;
}

void MetricRegistry::CheckKindUnique(const std::string& key, int kind) const {
  // A key may only live in the map matching its kind.
  DCQCN_CHECK(kind == 0 || counters_.count(key) == 0);
  DCQCN_CHECK(kind == 1 || gauges_.count(key) == 0);
  DCQCN_CHECK(kind == 2 || histograms_.count(key) == 0);
}

int64_t& MetricRegistry::Counter(const std::string& name,
                                 const MetricLabels& l) {
  const std::string key = EncodeMetricKey(name, l);
  CheckKindUnique(key, 0);
  return counters_[key];
}

int64_t& MetricRegistry::Gauge(const std::string& name,
                               const MetricLabels& l) {
  const std::string key = EncodeMetricKey(name, l);
  CheckKindUnique(key, 1);
  return gauges_[key];
}

void MetricRegistry::Observe(const std::string& name, const MetricLabels& l,
                             double v) {
  const std::string key = EncodeMetricKey(name, l);
  CheckKindUnique(key, 2);
  histograms_[key].push_back(v);
}

RegistrySnapshot MetricRegistry::Snapshot() const {
  RegistrySnapshot snap;
  snap.counters = counters_;
  snap.gauges = gauges_;
  for (const auto& [key, samples] : histograms_) {
    snap.histograms[key] = Summarize(samples);
  }
  return snap;
}

namespace {

void AppendIntMap(std::string& out, const std::map<std::string, int64_t>& m) {
  out += '{';
  bool first = true;
  for (const auto& [key, value] : m) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(out, key);
    out += ':';
    AppendInt(out, value);
  }
  out += '}';
}

// --- Minimal parser for exactly the ToJson() schema. ---
//
// Not a general JSON parser: object keys are strings, values are numbers or
// nested objects, no arrays, no unicode escapes beyond what the writer
// emits. Enough for snapshot round-trips in result files and tests.
struct Parser {
  const char* p;
  const char* end;

  bool Fail() { return false; }
  void SkipWs() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r'))
      ++p;
  }
  bool Consume(char c) {
    SkipWs();
    if (p >= end || *p != c) return false;
    ++p;
    return true;
  }
  bool Peek(char c) {
    SkipWs();
    return p < end && *p == c;
  }
  bool ParseString(std::string* out) {
    SkipWs();
    if (p >= end || *p != '"') return false;
    ++p;
    out->clear();
    while (p < end && *p != '"') {
      if (*p == '\\') {
        ++p;
        if (p >= end) return false;
        switch (*p) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case 'n': *out += '\n'; break;
          case 't': *out += '\t'; break;
          case 'u': {
            if (end - p < 5) return false;
            char hex[5] = {p[1], p[2], p[3], p[4], 0};
            *out += static_cast<char>(std::strtol(hex, nullptr, 16));
            p += 4;
            break;
          }
          default: return false;
        }
        ++p;
      } else {
        *out += *p++;
      }
    }
    if (p >= end) return false;
    ++p;  // closing quote
    return true;
  }
  bool ParseNumber(double* out) {
    SkipWs();
    char* num_end = nullptr;
    *out = std::strtod(p, &num_end);
    if (num_end == p) return false;
    p = num_end;
    return true;
  }
  bool ParseInt(int64_t* out) {
    double d;
    if (!ParseNumber(&d)) return false;
    *out = static_cast<int64_t>(d);
    return true;
  }
};

bool ParseIntMap(Parser* ps, std::map<std::string, int64_t>* out) {
  if (!ps->Consume('{')) return false;
  if (ps->Consume('}')) return true;
  while (true) {
    std::string key;
    int64_t value;
    if (!ps->ParseString(&key) || !ps->Consume(':') || !ps->ParseInt(&value))
      return false;
    (*out)[key] = value;
    if (ps->Consume('}')) return true;
    if (!ps->Consume(',')) return false;
  }
}

bool ParseSummary(Parser* ps, Summary* out) {
  if (!ps->Consume('{')) return false;
  if (ps->Consume('}')) return true;
  while (true) {
    std::string field;
    double value;
    if (!ps->ParseString(&field) || !ps->Consume(':') ||
        !ps->ParseNumber(&value))
      return false;
    if (field == "min") out->min = value;
    else if (field == "p10") out->p10 = value;
    else if (field == "p25") out->p25 = value;
    else if (field == "median") out->median = value;
    else if (field == "p75") out->p75 = value;
    else if (field == "p90") out->p90 = value;
    else if (field == "max") out->max = value;
    else if (field == "mean") out->mean = value;
    else if (field == "count") out->count = static_cast<size_t>(value);
    else return false;
    if (ps->Consume('}')) return true;
    if (!ps->Consume(',')) return false;
  }
}

bool ParseSummaryMap(Parser* ps, std::map<std::string, Summary>* out) {
  if (!ps->Consume('{')) return false;
  if (ps->Consume('}')) return true;
  while (true) {
    std::string key;
    Summary value;
    if (!ps->ParseString(&key) || !ps->Consume(':') ||
        !ParseSummary(ps, &value))
      return false;
    (*out)[key] = value;
    if (ps->Consume('}')) return true;
    if (!ps->Consume(',')) return false;
  }
}

}  // namespace

std::string RegistrySnapshot::ToJson() const {
  std::string out;
  out += "{\"counters\":";
  AppendIntMap(out, counters);
  out += ",\"gauges\":";
  AppendIntMap(out, gauges);
  out += ",\"histograms\":{";
  bool first = true;
  for (const auto& [key, summary] : histograms) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(out, key);
    out += ':';
    AppendSummary(out, summary);
  }
  out += "}}";
  return out;
}

bool RegistrySnapshot::FromJson(const std::string& json,
                                RegistrySnapshot* out) {
  *out = RegistrySnapshot{};
  Parser ps{json.data(), json.data() + json.size()};
  if (!ps.Consume('{')) return false;
  if (ps.Consume('}')) return true;
  while (true) {
    std::string section;
    if (!ps.ParseString(&section) || !ps.Consume(':')) return false;
    bool ok;
    if (section == "counters") {
      ok = ParseIntMap(&ps, &out->counters);
    } else if (section == "gauges") {
      ok = ParseIntMap(&ps, &out->gauges);
    } else if (section == "histograms") {
      ok = ParseSummaryMap(&ps, &out->histograms);
    } else {
      return false;
    }
    if (!ok) return false;
    if (ps.Consume('}')) {
      ps.SkipWs();
      return ps.p == ps.end;
    }
    if (!ps.Consume(',')) return false;
  }
}

}  // namespace telemetry
}  // namespace dcqcn
