// Deterministic parallel experiment runner.
//
// Every paper figure is a matrix of independent simulation trials (a
// parameter sweep × seeds). Each trial owns a private EventQueue + Rng, so
// trials are embarrassingly parallel — no simulator code needs locking. The
// runner executes a declarative matrix of TrialSpecs on a work-stealing
// thread pool and collects structured TrialResults in *submission order*
// regardless of completion order, which is what makes `--jobs 8` bit-identical
// to the serial `--jobs 1` fallback.
//
// Determinism contract:
//  * A trial must derive all randomness from TrialContext::seed (splitmix64
//    over {base_seed, trial_index}; see DeriveTrialSeed) and must not touch
//    global mutable state.
//  * Results land in a pre-sized vector slot per trial index; serialized
//    output (see serialize.h) orders every map key lexicographically, so the
//    bytes written depend only on {matrix, base_seed}, never on thread
//    interleaving or job count.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "stats/stats.h"
#include "telemetry/event_trace.h"
#include "telemetry/metric_registry.h"

namespace dcqcn {
namespace runner {

// splitmix64 of {base_seed, trial_index}: statistically independent streams
// for every trial even when base seeds are small consecutive integers.
// Never returns 0 (mt19937_64 treats a 0 seed specially).
uint64_t DeriveTrialSeed(uint64_t base_seed, uint64_t trial_index);

// Handed to every trial body at execution time.
struct TrialContext {
  uint64_t base_seed = 0;   // the matrix-wide --seed
  size_t trial_index = 0;   // position in the submitted matrix
  uint64_t seed = 0;        // DeriveTrialSeed(base_seed, trial_index)
  // The spec's fault plan (never null while a trial runs; empty when the
  // trial injects no faults). Trial bodies hand it to a FaultInjector.
  const FaultPlan* faults = nullptr;
  // True when the spec carries a trace_path: the trial body should enable
  // tracing (Network::EnableTracing(trace_capacity)) and fill
  // TrialResult::trace_json with the exported Chrome trace.
  bool trace = false;
  size_t trace_capacity = telemetry::kDefaultTraceCapacity;
  // Intra-trial shards (the --shards axis). 0 = the default single-queue
  // engine; N >= 1 = the sharded engine with N shards, whose output is
  // byte-identical for every N. Trial bodies that support it build their
  // Network from a ShardPlan (net/shard.h); the value is never serialized,
  // so result bytes depend only on {matrix, base_seed} as before.
  int shards = 0;
  // The --hybrid axis: empty = plain packet engine (byte-identical to every
  // pre-hybrid binary); "on" or a "k=v,..." spec = wrap the trial's
  // Network::Run in a hybrid::HybridEngine (ParseHybridSpec validated it).
  // Mutually exclusive with shards and host (ParseCli enforces).
  std::string hybrid;
};

// Structured output of one trial. All maps are std::map so iteration (and
// therefore serialization) order is deterministic.
struct TrialResult {
  std::string name;                          // defaults to TrialSpec::name
  size_t trial_index = 0;                    // filled in by the runner
  uint64_t seed = 0;                         // filled in by the runner
  std::map<std::string, int64_t> counters;   // e.g. switch counters, CNPs
  std::map<std::string, double> metrics;     // scalar measurements
  std::map<std::string, Summary> summaries;  // distribution summaries
  std::map<std::string, TimeSeries> series;  // sampled traces
  // Copied from TrialSpec::faults by the runner so serialized results are
  // self-describing about what was injected. Serialization emits it only
  // when non-empty, keeping fault-free output byte-identical to before.
  FaultPlan faults;
  // Chrome trace-event JSON of the trial's run (filled by the trial body
  // when TrialContext::trace is set). The runner writes it to the spec's
  // trace_path after all trials complete, in submission order; it is never
  // embedded in the results JSON.
  std::string trace_json;
  // Metric-registry snapshot (telemetry::CollectNetworkMetrics or custom
  // metrics). Serialized as a "registry" key only when non-empty, keeping
  // registry-free output byte-identical to before.
  telemetry::RegistrySnapshot registry;
};

// One cell of the experiment matrix: a factory closure that builds and runs
// a private simulation from the per-trial seed.
struct TrialSpec {
  std::string name;
  std::function<TrialResult(const TrialContext&)> run;
  // Declarative fault schedule for this trial (empty = no faults). The
  // runner exposes it via TrialContext::faults and stamps it into the
  // TrialResult.
  FaultPlan faults;
  // When non-empty, the runner sets TrialContext::trace and writes the
  // trial's trace_json here after the matrix completes (submission order,
  // so file writes are deterministic regardless of --jobs).
  std::string trace_path;
};

struct RunnerOptions {
  // Worker threads. 1 = run inline on the calling thread (the serial
  // fallback the determinism tests compare against); >1 = work-stealing
  // pool of that many threads.
  int jobs = 1;
  uint64_t base_seed = 1;
  // Copied into every TrialContext (see TrialContext::shards).
  int shards = 0;
  // Copied into every TrialContext (see TrialContext::hybrid).
  std::string hybrid;
};

// Executes the matrix and returns results indexed by submission order.
// A trial that throws aborts the run by rethrowing on the calling thread.
std::vector<TrialResult> RunTrials(const std::vector<TrialSpec>& matrix,
                                   const RunnerOptions& options);

// ---------- bench-harness CLI ----------
//
// Shared flag parsing for the benches. Each bench names the flags it
// honors; any other runner flag is rejected by name, so no axis is dropped
// silently:
//   --jobs N      worker threads (default 1)
//   --seed S      matrix base seed (default 1)
//   --json PATH   write results as JSON (see serialize.h for the schema)
//   --csv PATH    write scalar results as CSV
//   --trace PREF  per-trial Chrome trace files PREF_<trial name>.json
//   --cc POLICY   congestion-control policy (a registered CcPolicy name);
//                 rejected with the registered names listed if unknown.
//                 Empty = the bench's default. Benches apply it with
//                 ResolveCc (below).
//   --workload SPEC  traffic pattern, `NAME[:key=val,...]` over the
//                 WorkloadPattern registry (src/workload/workload.h);
//                 rejected (WorkloadSpecError) when the name is unknown,
//                 the spec fails to parse, or a key or value is bad; the
//                 error names the offender. Host-count bounds are left to
//                 the bench, which knows its topology. Empty = the bench's
//                 default pattern matrix.
//   --host SPEC   host-path device model, `PROFILE[:key=val,...]` over the
//                 profiles in src/host/host_config.h; rejected with the
//                 profile list if unknown. Empty = no host-path model (the
//                 wire-only behavior every run had before the knob existed).
//   --shards N    intra-trial shards for benches whose trials support the
//                 sharded engine (N >= 1; byte-identical across N). Absent =
//                 the default single-queue engine.
//   --hybrid[:k=v,...]  hybrid flow-level fast-forward (src/hybrid): bare
//                 --hybrid takes the defaults; the optional spec tunes
//                 check=<us> eps=<f> queue_frac=<f> max_epoch=<us>
//                 guard=<us> release=<0|1>. Rejected when combined with
//                 --shards or --host (single-queue, wire-only engine only).
// Both `--flag value` and `--flag=value` are accepted; --hybrid's spec rides
// after a colon and never consumes the next argument. Benches print `error`
// and exit 2 when !ok.
//
// The flags as a set, one bit each: what a bench hands ParseCli.
enum CliFlag : unsigned {
  kCliJobs = 1u << 0,
  kCliSeed = 1u << 1,
  kCliJson = 1u << 2,
  kCliCsv = 1u << 3,
  kCliTrace = 1u << 4,
  kCliCc = 1u << 5,
  kCliWorkload = 1u << 6,
  kCliHost = 1u << 7,
  kCliShards = 1u << 8,
  kCliHybrid = 1u << 9,
  // --jobs --seed --json --csv: what every bench on the runner honors.
  kCliSweep = kCliJobs | kCliSeed | kCliJson | kCliCsv,
  kCliAll = (1u << 10) - 1,
};
struct CliOptions {
  int jobs = 1;
  uint64_t seed = 1;
  int shards = 0;  // 0 = default engine; >= 1 = sharded engine
  std::string json_path;      // empty = don't write
  std::string csv_path;       // empty = don't write
  std::string trace_prefix;   // empty = tracing off
  std::string cc;             // empty = bench default policy
  std::string workload;       // empty = bench default pattern matrix
  std::string host;           // empty = no host-path device model
  std::string hybrid;         // empty = packet engine; "on" or "k=v,..."
  bool ok = true;
  std::string error;  // set when !ok
};

// Parses argv[1..] honoring the flags in `honored` (a CliFlag set). A
// runner flag outside the set fails with "<flag> is not honored by
// <program>"; the usage suffix lists only the honored flags.
CliOptions ParseCli(int argc, char** argv, unsigned honored);

// What --cc resolves to for a bench whose flows default to
// `default_policy`: the CcPolicy id to stamp into FlowSpec::cc_policy. An
// empty --cc keeps the bench default.
int16_t ResolveCc(const std::string& cc_name, int16_t default_policy);

// "<prefix>_<name>.json" with filesystem-hostile characters in `name`
// ('/', spaces, ':') folded to '_'. What benches assign to
// TrialSpec::trace_path when --trace is given.
std::string TracePathFor(const std::string& prefix, const std::string& name);

// Applies --json / --csv from `cli` to `results` (no-op for empty paths).
// Returns false and prints to stderr on I/O failure.
bool WriteRequestedOutputs(const CliOptions& cli,
                           const std::vector<TrialResult>& results);

}  // namespace runner
}  // namespace dcqcn
