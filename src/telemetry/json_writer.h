// The JSON value writer shared by runner results (runner/serialize.cc) and
// metric-registry snapshots (metric_registry.cc).
//
// Byte-stable by construction: integers print exactly, doubles print with
// %.17g (round-trips every finite double, and identical bit patterns give
// identical bytes on every platform), strings escape quote/backslash and
// control bytes.
#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include "stats/stats.h"

namespace dcqcn {
namespace telemetry {

inline void AppendInt(std::string& out, int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out += buf;
}

inline void AppendUint(std::string& out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

inline void AppendDouble(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

// Names we generate are plain ASCII, but quote/backslash/control bytes must
// never corrupt the stream.
inline void AppendJsonString(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

inline void AppendSummary(std::string& out, const Summary& s) {
  out += "{\"min\":";
  AppendDouble(out, s.min);
  out += ",\"p10\":";
  AppendDouble(out, s.p10);
  out += ",\"p25\":";
  AppendDouble(out, s.p25);
  out += ",\"median\":";
  AppendDouble(out, s.median);
  out += ",\"p75\":";
  AppendDouble(out, s.p75);
  out += ",\"p90\":";
  AppendDouble(out, s.p90);
  out += ",\"max\":";
  AppendDouble(out, s.max);
  out += ",\"mean\":";
  AppendDouble(out, s.mean);
  out += ",\"count\":";
  AppendUint(out, s.count);
  out += '}';
}

}  // namespace telemetry
}  // namespace dcqcn
