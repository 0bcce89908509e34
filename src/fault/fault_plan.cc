#include "fault/fault_plan.h"

#include <algorithm>

#include "common/check.h"
#include "telemetry/json_writer.h"

namespace dcqcn {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkFlap: return "link_flap";
    case FaultKind::kPacketLoss: return "packet_loss";
    case FaultKind::kCorruption: return "corruption";
    case FaultKind::kPauseStorm: return "pause_storm";
    case FaultKind::kSlowReceiver: return "slow_receiver";
    case FaultKind::kBufferShrink: return "buffer_shrink";
  }
  return "unknown";
}

void FaultSpec::Validate() const {
  DCQCN_CHECK(at >= 0);
  DCQCN_CHECK(node_a >= 0);
  switch (kind) {
    case FaultKind::kLinkFlap:
      DCQCN_CHECK(node_b >= 0);
      break;
    case FaultKind::kPacketLoss:
    case FaultKind::kCorruption:
      DCQCN_CHECK(node_b >= 0);
      DCQCN_CHECK(probability >= 0 && probability <= 1);
      break;
    case FaultKind::kPauseStorm:
      DCQCN_CHECK(priority >= 0 && priority < kNumPriorities);
      DCQCN_CHECK(refresh > 0);
      break;
    case FaultKind::kSlowReceiver:
      DCQCN_CHECK(delay > 0);
      break;
    case FaultKind::kBufferShrink:
      DCQCN_CHECK(buffer_bytes > 0);
      break;
  }
}

FaultSpec LinkFlap(int node_a, int node_b, Time at, Time down_for) {
  FaultSpec f;
  f.kind = FaultKind::kLinkFlap;
  f.node_a = node_a;
  f.node_b = node_b;
  f.at = at;
  f.duration = down_for;
  return f;
}

FaultSpec PacketLoss(int node_a, int node_b, Time at, Time duration,
                     double probability) {
  FaultSpec f;
  f.kind = FaultKind::kPacketLoss;
  f.node_a = node_a;
  f.node_b = node_b;
  f.at = at;
  f.duration = duration;
  f.probability = probability;
  return f;
}

FaultSpec Corruption(int node_a, int node_b, Time at, Time duration,
                     double probability) {
  FaultSpec f = PacketLoss(node_a, node_b, at, duration, probability);
  f.kind = FaultKind::kCorruption;
  return f;
}

FaultSpec PauseStorm(int host, int priority, Time at, Time duration,
                     Time refresh) {
  FaultSpec f;
  f.kind = FaultKind::kPauseStorm;
  f.node_a = host;
  f.priority = priority;
  f.at = at;
  f.duration = duration;
  f.refresh = refresh;
  return f;
}

FaultSpec SlowReceiver(int host, Time at, Time duration, Time delay) {
  FaultSpec f;
  f.kind = FaultKind::kSlowReceiver;
  f.node_a = host;
  f.at = at;
  f.duration = duration;
  f.delay = delay;
  return f;
}

FaultSpec BufferShrink(int switch_node, Time at, Time duration, Bytes bytes) {
  FaultSpec f;
  f.kind = FaultKind::kBufferShrink;
  f.node_a = switch_node;
  f.at = at;
  f.duration = duration;
  f.buffer_bytes = bytes;
  return f;
}

void FaultPlan::Validate() const {
  for (const FaultSpec& f : faults) f.Validate();
}

Time FaultPlan::LastHealTime() const {
  Time t = 0;
  for (const FaultSpec& f : faults) {
    if (f.bounded()) t = std::max(t, f.end());
  }
  return t;
}

bool FaultPlan::AllBounded() const {
  return std::all_of(faults.begin(), faults.end(),
                     [](const FaultSpec& f) { return f.bounded(); });
}

std::string FaultPlan::ToJson() const {
  std::string out = "[";
  bool first = true;
  for (const FaultSpec& f : faults) {
    if (!first) out += ',';
    first = false;
    out += "{\"kind\":\"";
    out += FaultKindName(f.kind);
    out += "\",\"at\":";
    telemetry::AppendInt(out, f.at);
    out += ",\"duration\":";
    telemetry::AppendInt(out, f.duration);
    out += ",\"node_a\":";
    telemetry::AppendInt(out, f.node_a);
    switch (f.kind) {
      case FaultKind::kLinkFlap:
        out += ",\"node_b\":";
        telemetry::AppendInt(out, f.node_b);
        break;
      case FaultKind::kPacketLoss:
      case FaultKind::kCorruption:
        out += ",\"node_b\":";
        telemetry::AppendInt(out, f.node_b);
        out += ",\"probability\":";
        telemetry::AppendDouble(out, f.probability);
        break;
      case FaultKind::kPauseStorm:
        out += ",\"priority\":";
        telemetry::AppendInt(out, f.priority);
        out += ",\"refresh\":";
        telemetry::AppendInt(out, f.refresh);
        break;
      case FaultKind::kSlowReceiver:
        out += ",\"delay\":";
        telemetry::AppendInt(out, f.delay);
        break;
      case FaultKind::kBufferShrink:
        out += ",\"buffer_bytes\":";
        telemetry::AppendInt(out, f.buffer_bytes);
        break;
    }
    out += '}';
  }
  out += ']';
  return out;
}

std::string FaultPlan::ToCompactString() const {
  std::string out;
  bool first = true;
  for (const FaultSpec& f : faults) {
    if (!first) out += ';';
    first = false;
    out += FaultKindName(f.kind);
    out += ':';
    telemetry::AppendInt(out, f.node_a);
    if (f.node_b >= 0) {
      out += '-';
      telemetry::AppendInt(out, f.node_b);
    }
    out += ":at";
    telemetry::AppendInt(out, f.at);
    out += ":dur";
    telemetry::AppendInt(out, f.duration);
    switch (f.kind) {
      case FaultKind::kLinkFlap:
        break;
      case FaultKind::kPacketLoss:
      case FaultKind::kCorruption:
        out += ":p";
        telemetry::AppendDouble(out, f.probability);
        break;
      case FaultKind::kPauseStorm:
        out += ":prio";
        telemetry::AppendInt(out, f.priority);
        break;
      case FaultKind::kSlowReceiver:
        out += ":delay";
        telemetry::AppendInt(out, f.delay);
        break;
      case FaultKind::kBufferShrink:
        out += ":bytes";
        telemetry::AppendInt(out, f.buffer_bytes);
        break;
    }
  }
  return out;
}

void AddPeriodicFlaps(FaultPlan* plan, int node_a, int node_b, Time first_at,
                      Time period, Time down_for, int count) {
  DCQCN_CHECK(plan != nullptr);
  DCQCN_CHECK(period > down_for);  // the link must come back up each cycle
  DCQCN_CHECK(down_for > 0 && count >= 0);
  for (int k = 0; k < count; ++k) {
    plan->Add(LinkFlap(node_a, node_b, first_at + k * period, down_for));
  }
}

}  // namespace dcqcn
