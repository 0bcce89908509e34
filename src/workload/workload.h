// Pluggable traffic generation: one pattern object emitting flows against a
// uniform host seam, mirroring the src/cc/ CcPolicy design (PR 6) on the
// workload side.
//
// Contract:
//
//   * A WorkloadPattern owns the *shape* of the traffic — who sends to whom,
//     how much, when, and what is gated on what (incast fans, collective
//     steps, closed-loop think time). It never touches the Network, the
//     event queue, or a NIC directly: all emission goes through the
//     WorkloadHost seam (launch a sized flow between two host indices,
//     enqueue a follow-up message on a warm connection, schedule a timer).
//   * The host owns the *mechanics*: flow-id assignment, FlowSpec stamping
//     (transport mode + CcPolicy id, so every pattern inherits the --cc axis
//     untouched), dense flow-id-indexed ownership tracking, and the uniform
//     per-pattern metrics (started / completed / in-flight, goodput, FCT,
//     FCT slowdown). Patterns add pattern-level samples — collective
//     iteration times — through the same WorkloadMetrics.
//   * Patterns draw all randomness from their own Rng (seeded via
//     WorkloadConfig::seed) and none from the network-wide RNG, so adding a
//     workload never perturbs wire randomness and replay is deterministic
//     (the runner's jobs=1 == jobs=8 byte-identity holds for every pattern;
//     the conformance suite in tests/workload_conformance_test.cc sweeps the
//     registry for it).
//   * Draining: after WorkloadHost emission stops (SimWorkloadHost::
//     StopEmission), LaunchFlow returns -1, EnqueueOnFlow returns false and
//     ScheduleIn drops the callback. A pattern must treat those as "stop
//     emitting" — in-flight flows then complete and accounting closes
//     (started == completed, in_flight == 0), which the conformance suite
//     asserts for every registered pattern.
//
// Adding a pattern: subclass WorkloadPattern, then register a factory with
// RegisterWorkloadPattern{name, make}. The name becomes a valid
// `--workload=NAME[:key=val,...]` value everywhere (runner CLI,
// scenario_cli, bench/ext_workload), and the conformance suite picks it up
// automatically from the registry.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "nic/flow.h"
#include "stats/stats.h"

namespace dcqcn {
namespace workload {

// One flow-emission request from a pattern. `src`/`dst` are indices into
// the host set the WorkloadHost was built over (not node ids); `tag` is a
// pattern-private cookie echoed back on completion.
struct EmitSpec {
  int src = -1;
  int dst = -1;
  Bytes size_bytes = 0;  // must be > 0: unbounded flows never complete, so
                         // accounting could not close
  int8_t priority = kDataPriority;
  uint64_t ecmp_salt = 0;
  uint64_t tag = 0;
};

// Uniform per-pattern metrics. The host maintains the flow-level fields and
// distributions on every launch/completion; patterns append to iteration_us
// (one sample per collective iteration / incast epoch / shuffle round).
struct WorkloadMetrics {
  int64_t started = 0;    // flows launched + closed-loop messages enqueued
  int64_t completed = 0;  // completion records observed
  int64_t skipped = 0;    // emissions suppressed by a pattern's own cap
  int64_t in_flight = 0;  // started - completed
  Cdf goodput_gbps;       // per-transfer goodput
  Cdf fct_us;             // per-transfer completion time
  Cdf slowdown;           // fct / (bytes at source line rate) — >= 1.0-ish
  Cdf iteration_us;       // collective iteration times (empty for flat
                          // patterns like poisson/pairs)
};

// Host-side services a pattern calls while emitting. Implemented by
// SimWorkloadHost (sim_host.h) against a live Network; tests may provide
// fakes.
class WorkloadHost {
 public:
  virtual ~WorkloadHost() = default;

  virtual Time Now() const = 0;
  virtual int num_hosts() const = 0;

  // Launches a sized flow. Returns the network flow id, or -1 once draining
  // started — the pattern must then stop emitting.
  virtual int LaunchFlow(const EmitSpec& spec) = 0;

  // Closed-loop follow-up: enqueues the next `bytes`-sized message on the
  // warm connection of a flow previously launched through this host (RoCE
  // applications reuse QPs across transfers, keeping rate-limiter state
  // warm). Returns false once draining started.
  virtual bool EnqueueOnFlow(int flow_id, Bytes bytes) = 0;

  // Schedules `cb` to run `delay` from now; dropped once draining started.
  virtual void ScheduleIn(Time delay, std::function<void()> cb) = 0;

  // The uniform metrics; patterns bump `skipped` and add iteration samples.
  virtual WorkloadMetrics& metrics() = 0;
};

class WorkloadPattern {
 public:
  virtual ~WorkloadPattern() = default;

  virtual const char* name() const = 0;

  // Starts emission at the current simulation time. Called exactly once.
  virtual void Begin(WorkloadHost& host) = 0;

  // A flow (or closed-loop message) this pattern launched completed. `tag`
  // is the EmitSpec cookie of the owning flow.
  virtual void OnFlowComplete(WorkloadHost& host, const FlowRecord& rec,
                              uint64_t tag) {
    (void)host;
    (void)rec;
    (void)tag;
  }
};

// --- configuration / CLI grammar -------------------------------------------

// Everything a pattern factory gets. `params` carries the key=val pairs of
// the CLI spec; factories validate keys against their known set (CheckKeys)
// and values against the pattern's preconditions (Require), so a typo'd
// `--workload=incast:fanout=8` fails loudly, not silently.
struct WorkloadConfig {
  uint64_t seed = 1;
  double size_scale = 1.0;
  std::map<std::string, std::string> params;
  // Host count of the topology the pattern will run on; 0 = unknown, which
  // skips the Require checks that depend on it.
  int num_hosts = 0;
  // Validation mode (WorkloadSpecError): when set, the first bad key or
  // value is recorded here, getters fall back to their default and the
  // factory returns nullptr. When null, a bad key or value CHECK-fails.
  std::string* error = nullptr;

  bool Has(const std::string& key) const { return params.count(key) != 0; }
  int64_t GetInt(const std::string& key, int64_t def) const;
  double GetDouble(const std::string& key, double def) const;
  std::string GetString(const std::string& key, std::string def) const;
  // Rejects any param key outside `known` (call from factories).
  void CheckKeys(std::initializer_list<const char*> known) const;
  // Rejects the value of `key` unless `ok`; `what` says what it must be.
  void Require(bool ok, const std::string& key, const std::string& what) const;
  bool Failed() const { return error != nullptr && !error->empty(); }

 private:
  void Reject(const std::string& message) const;
};

// Parsed form of `--workload=NAME[:key=val,...]`.
struct WorkloadSpec {
  std::string name;
  std::map<std::string, std::string> params;
  bool ok = true;
  std::string error;  // set when !ok
};

// Parses the grammar only (does not consult the registry): "incast",
// "incast:fanin=16,kb=512". Empty text, empty name, or a clause without '='
// yield ok=false.
WorkloadSpec ParseWorkloadSpec(const std::string& text);

// --- registry / factory -----------------------------------------------------

struct WorkloadPatternInfo {
  std::string name;
  std::function<std::unique_ptr<WorkloadPattern>(const WorkloadConfig&)> make;
};

// Registers a pattern; returns its id. Built-ins (poisson, pairs, incast,
// allreduce-ring, alltoall) are pre-registered.
int RegisterWorkloadPattern(WorkloadPatternInfo info);

// Name lookup; -1 if unknown.
int WorkloadPatternIdByName(const std::string& name);
const WorkloadPatternInfo& WorkloadPatternInfoById(int id);
// Registered names, in registration order (the `--workload=` domain).
std::vector<std::string> WorkloadPatternNames();

// Creates the pattern a parsed spec names, with the spec's params and the
// given seed / size scale. CHECKs the spec is ok and the name registered
// (CLI layers validate first).
std::unique_ptr<WorkloadPattern> CreateWorkloadPattern(
    const WorkloadSpec& spec, uint64_t seed, double size_scale = 1.0);

// The CLI layers' validation: "" if CreateWorkloadPattern(spec, ...) builds
// a pattern that can run on `num_hosts` hosts (0 = host count unknown),
// else a message naming the offending pattern name, key or value.
std::string WorkloadSpecError(const WorkloadSpec& spec, int num_hosts);

}  // namespace workload
}  // namespace dcqcn
