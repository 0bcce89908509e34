#include "telemetry/event_trace.h"

#include <cinttypes>
#include <cstddef>
#include <cstdio>
#include <set>

#include "telemetry/json_writer.h"

namespace dcqcn {
namespace telemetry {

const char* TraceEventTypeName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kPktEnqueue: return "pkt_enqueue";
    case TraceEventType::kPktDequeue: return "pkt_dequeue";
    case TraceEventType::kPktDrop: return "pkt_drop";
    case TraceEventType::kEcnMark: return "ecn_mark";
    case TraceEventType::kPauseTx: return "pause_tx";
    case TraceEventType::kResumeTx: return "resume_tx";
    case TraceEventType::kPauseRx: return "pause_rx";
    case TraceEventType::kResumeRx: return "resume_rx";
    case TraceEventType::kCnpTx: return "cnp_tx";
    case TraceEventType::kCnpRx: return "cnp_rx";
    case TraceEventType::kRateUpdate: return "rate_update";
    case TraceEventType::kAlphaUpdate: return "alpha_update";
    case TraceEventType::kFaultBegin: return "fault_begin";
    case TraceEventType::kFaultEnd: return "fault_end";
    case TraceEventType::kLinkDrop: return "link_drop";
  }
  return "unknown";
}

std::vector<TraceRecord> EventTracer::Snapshot() const {
  std::vector<TraceRecord> out;
  out.reserve(ring_.size());
  if (total_ <= capacity_) {
    out = ring_;
  } else {
    // Full ring: oldest record sits at the overwrite cursor.
    out.insert(out.end(), ring_.begin() + static_cast<ptrdiff_t>(next_),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<ptrdiff_t>(next_));
  }
  return out;
}

namespace {

// Chrome's "ts" field is microseconds. Simulated time is integer
// picoseconds, so µs = t / 10^6 exactly; printing integer-part.6-digit-
// fraction with pure integer arithmetic keeps the bytes deterministic
// across platforms (no floating-point formatting involved).
void AppendTs(std::string& out, Time t) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRId64 ".%06" PRId64, t / 1000000,
                t % 1000000);
  out += buf;
}

// Event-name helper: "q p<port> pr<prio>" etc. Names are generated ASCII,
// so no JSON escaping is needed.
std::string PortQueueName(const char* prefix, const TraceRecord& r) {
  std::string s = prefix;
  s += " p";
  s += std::to_string(r.port);
  s += " pr";
  s += std::to_string(static_cast<int>(r.priority));
  return s;
}

// {"name":"...","ph":"C","ts":...,"pid":N,"tid":0,"args":{"key":value}}
void AppendCounter(std::string& out, const std::string& name, Time t,
                   int pid, const char* key, int64_t value) {
  out += "{\"name\":\"" + name + "\",\"ph\":\"C\",\"ts\":";
  AppendTs(out, t);
  out += ",\"pid\":";
  AppendInt(out, pid);
  out += ",\"tid\":0,\"args\":{\"";
  out += key;
  out += "\":";
  AppendInt(out, value);
  out += "}}";
}

void AppendCounterDouble(std::string& out, const std::string& name, Time t,
                         int pid, const char* key, double value) {
  out += "{\"name\":\"" + name + "\",\"ph\":\"C\",\"ts\":";
  AppendTs(out, t);
  out += ",\"pid\":";
  AppendInt(out, pid);
  out += ",\"tid\":0,\"args\":{\"";
  out += key;
  out += "\":";
  AppendDouble(out, value);
  out += "}}";
}

// Process-scoped instant event with the record's raw fields in args.
void AppendInstant(std::string& out, const std::string& name,
                   const TraceRecord& r, int pid) {
  out += "{\"name\":\"" + name + "\",\"ph\":\"i\",\"s\":\"p\",\"ts\":";
  AppendTs(out, r.t);
  out += ",\"pid\":";
  AppendInt(out, pid);
  out += ",\"tid\":0,\"args\":{\"type\":\"";
  out += TraceEventTypeName(r.type);
  out += "\",\"node\":";
  AppendInt(out, r.node);
  out += ",\"port\":";
  AppendInt(out, r.port);
  out += ",\"prio\":";
  AppendInt(out, r.priority);
  out += ",\"flow\":";
  AppendInt(out, r.flow);
  out += ",\"value\":";
  AppendInt(out, r.value);
  out += "}}";
}

}  // namespace

std::string EventTracer::ToChromeJson(
    const std::map<int, std::string>& node_names) const {
  const std::vector<TraceRecord> records = Snapshot();

  // Collect every pid the events will reference so each gets a
  // process_name metadata event (chrome://tracing labels tracks with it).
  std::set<int> node_pids, flow_pids;
  bool any_fault = false;
  for (const TraceRecord& r : records) {
    switch (r.type) {
      case TraceEventType::kCnpRx:
      case TraceEventType::kRateUpdate:
      case TraceEventType::kAlphaUpdate:
        flow_pids.insert(kFlowTrackPidBase + r.flow);
        break;
      case TraceEventType::kCnpTx:
        flow_pids.insert(kFlowTrackPidBase + r.flow);
        node_pids.insert(r.node);
        break;
      case TraceEventType::kFaultBegin:
      case TraceEventType::kFaultEnd:
        any_fault = true;
        break;
      default:
        node_pids.insert(r.node);
        break;
    }
  }

  std::string out;
  out.reserve(records.size() * 120 + 1024);
  out += "{\"displayTimeUnit\":\"ms\",\"recordCount\":";
  AppendInt(out, static_cast<int64_t>(records.size()));
  out += ",\"overwritten\":";
  AppendInt(out, static_cast<int64_t>(overwritten()));
  out += ",\"traceEvents\":[";

  bool first = true;
  auto sep = [&out, &first] {
    if (!first) out += ',';
    first = false;
  };

  for (const int pid : node_pids) {
    sep();
    auto it = node_names.find(pid);
    const std::string name =
        it != node_names.end() ? it->second : "node " + std::to_string(pid);
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
    AppendInt(out, pid);
    out += ",\"args\":{\"name\":\"" + name + "\"}}";
  }
  for (const int pid : flow_pids) {
    sep();
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
    AppendInt(out, pid);
    out += ",\"args\":{\"name\":\"flow " +
           std::to_string(pid - kFlowTrackPidBase) + "\"}}";
  }
  if (any_fault) {
    sep();
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
    AppendInt(out, kFaultTrackPid);
    out += ",\"args\":{\"name\":\"faults\"}}";
  }

  for (const TraceRecord& r : records) {
    sep();
    const int flow_pid = kFlowTrackPidBase + r.flow;
    switch (r.type) {
      case TraceEventType::kPktEnqueue:
      case TraceEventType::kPktDequeue:
        // Queue-depth counter: one track per (node, port, priority).
        AppendCounter(out, PortQueueName("q", r), r.t, r.node, "bytes",
                      r.value);
        break;
      case TraceEventType::kPktDrop:
        AppendInstant(out, PortQueueName("drop", r), r, r.node);
        break;
      case TraceEventType::kEcnMark:
        AppendInstant(out, PortQueueName("ECN", r), r, r.node);
        break;
      case TraceEventType::kPauseTx:
        AppendInstant(out, PortQueueName("PAUSE tx", r), r, r.node);
        break;
      case TraceEventType::kResumeTx:
        AppendInstant(out, PortQueueName("RESUME tx", r), r, r.node);
        break;
      case TraceEventType::kPauseRx:
      case TraceEventType::kResumeRx:
        // Paused-state counter (1 while the (port, priority) tx is paused):
        // integrates visually to the Fig. 15-style paused-time measure.
        AppendCounter(out, PortQueueName("paused", r), r.t, r.node, "paused",
                      r.type == TraceEventType::kPauseRx ? 1 : 0);
        break;
      case TraceEventType::kCnpTx:
        AppendInstant(out, "CNP tx", r, flow_pid);
        break;
      case TraceEventType::kCnpRx:
        AppendInstant(out, "CNP rx", r, flow_pid);
        break;
      case TraceEventType::kRateUpdate:
        AppendCounterDouble(out, "rate_gbps", r.t, flow_pid, "gbps", r.aux);
        break;
      case TraceEventType::kAlphaUpdate:
        AppendCounterDouble(out, "alpha", r.t, flow_pid, "alpha", r.aux);
        break;
      case TraceEventType::kFaultBegin:
      case TraceEventType::kFaultEnd:
        AppendInstant(out,
                      r.type == TraceEventType::kFaultBegin ? "fault begin"
                                                            : "fault end",
                      r, kFaultTrackPid);
        break;
      case TraceEventType::kLinkDrop:
        AppendInstant(out, "wire drop", r, r.node);
        break;
    }
  }
  out += "]}";
  return out;
}

}  // namespace telemetry
}  // namespace dcqcn
