#include "runner/runner.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "cc/cc_policy.h"
#include "common/check.h"
#include "host/host_config.h"
#include "hybrid/engine.h"
#include "workload/workload.h"
#include "runner/serialize.h"

namespace dcqcn {
namespace runner {

uint64_t DeriveTrialSeed(uint64_t base_seed, uint64_t trial_index) {
  // splitmix64 (Vigna); two rounds fold base_seed and trial_index into one
  // well-mixed stream so that neighbouring {seed, index} pairs are unrelated.
  uint64_t z = base_seed + 0x9e3779b97f4a7c15ULL * (trial_index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z = z ^ (z >> 31);
  // mt19937_64 seeds identically from any value, but 0 is a degenerate
  // choice for other generators; keep the stream 0-free.
  return z == 0 ? 0x9e3779b97f4a7c15ULL : z;
}

namespace {

// Per-worker deques of trial indices with lock-per-deque stealing. Trials
// are coarse (whole simulations), so contention on these mutexes is noise;
// the deques exist to keep each worker on its own contiguous slice (cache-
// and NUMA-friendly) until imbalance forces a steal from a victim's tail.
class WorkStealingPool {
 public:
  WorkStealingPool(size_t num_workers, size_t num_trials)
      : queues_(num_workers) {
    // Round-robin initial distribution: worker w owns trials w, w+W, ...
    // keeping early (often cheapest) and late trials spread evenly.
    for (size_t i = 0; i < num_trials; ++i) {
      queues_[i % num_workers].indices.push_back(i);
    }
  }

  // Pops the next index for `worker`: own queue front first, then steal
  // from the back of the most loaded victim. Returns false when no work
  // remains anywhere.
  bool Next(size_t worker, size_t* out) {
    {
      LocalQueue& q = queues_[worker];
      std::lock_guard<std::mutex> lock(q.mu);
      if (!q.indices.empty()) {
        *out = q.indices.front();
        q.indices.pop_front();
        return true;
      }
    }
    // Steal: scan victims starting after `worker`, take from the tail so
    // the owner keeps its cache-warm front.
    const size_t n = queues_.size();
    for (size_t off = 1; off < n; ++off) {
      LocalQueue& v = queues_[(worker + off) % n];
      std::lock_guard<std::mutex> lock(v.mu);
      if (!v.indices.empty()) {
        *out = v.indices.back();
        v.indices.pop_back();
        return true;
      }
    }
    return false;
  }

 private:
  struct LocalQueue {
    std::mutex mu;
    std::deque<size_t> indices;
  };
  std::deque<LocalQueue> queues_;  // deque: LocalQueue is not movable
};

TrialResult RunOneTrial(const TrialSpec& spec, const RunnerOptions& options,
                        size_t index) {
  TrialContext ctx;
  ctx.base_seed = options.base_seed;
  ctx.trial_index = index;
  ctx.seed = DeriveTrialSeed(options.base_seed, index);
  ctx.faults = &spec.faults;
  ctx.trace = !spec.trace_path.empty();
  ctx.shards = options.shards;
  ctx.hybrid = options.hybrid;
  TrialResult r = spec.run(ctx);
  if (r.name.empty()) r.name = spec.name;
  r.trial_index = index;
  r.seed = ctx.seed;
  r.faults = spec.faults;
  return r;
}

// Trace files are written after every trial has completed, in submission
// order — worker threads never touch the filesystem, so file creation order
// and bytes are identical across --jobs counts.
void WriteTraceFiles(const std::vector<TrialSpec>& matrix,
                     const std::vector<TrialResult>& results) {
  for (size_t i = 0; i < matrix.size(); ++i) {
    if (matrix[i].trace_path.empty()) continue;
    if (!WriteFile(matrix[i].trace_path, results[i].trace_json)) {
      std::fprintf(stderr, "failed to write trace %s\n",
                   matrix[i].trace_path.c_str());
    }
  }
}

}  // namespace

std::vector<TrialResult> RunTrials(const std::vector<TrialSpec>& matrix,
                                   const RunnerOptions& options) {
  DCQCN_CHECK(options.jobs >= 1);
  std::vector<TrialResult> results(matrix.size());

  if (options.jobs == 1 || matrix.size() <= 1) {
    // Serial fallback: same per-trial seeds, same result slots, no threads.
    for (size_t i = 0; i < matrix.size(); ++i) {
      results[i] = RunOneTrial(matrix[i], options, i);
    }
    WriteTraceFiles(matrix, results);
    return results;
  }

  const size_t workers =
      std::min(static_cast<size_t>(options.jobs), matrix.size());
  WorkStealingPool pool(workers, matrix.size());
  std::mutex err_mu;
  std::exception_ptr first_error;

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      size_t idx;
      while (pool.Next(w, &idx)) {
        try {
          // Distinct slots: no synchronization needed on `results`.
          results[idx] = RunOneTrial(matrix[idx], options, idx);
        } catch (...) {
          std::lock_guard<std::mutex> lock(err_mu);
          if (!first_error) first_error = std::current_exception();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
  WriteTraceFiles(matrix, results);
  return results;
}

std::string TracePathFor(const std::string& prefix, const std::string& name) {
  std::string file = name;
  for (char& c : file) {
    if (c == '/' || c == ' ' || c == ':' || c == '\\') c = '_';
  }
  return prefix + "_" + file + ".json";
}

namespace {

// Every runner flag, in usage order, with its argument placeholder.
struct CliFlagInfo {
  unsigned bit;
  const char* name;
  const char* arg;
};
constexpr CliFlagInfo kCliFlagTable[] = {
    {kCliJobs, "--jobs", " N"},
    {kCliSeed, "--seed", " S"},
    {kCliJson, "--json", " PATH"},
    {kCliCsv, "--csv", " PATH"},
    {kCliTrace, "--trace", " PREFIX"},
    {kCliCc, "--cc", " POLICY"},
    {kCliWorkload, "--workload", " NAME[:k=v,...]"},
    {kCliHost, "--host", " PROFILE[:k=v,...]"},
    {kCliShards, "--shards", " N"},
    {kCliHybrid, "--hybrid", "[:k=v,...]"},
};

}  // namespace

CliOptions ParseCli(int argc, char** argv, unsigned honored) {
  CliOptions cli;
  std::string usage;
  for (const CliFlagInfo& f : kCliFlagTable) {
    if ((honored & f.bit) == 0) continue;
    usage += (usage.empty() ? "" : " ") + std::string(f.name) + f.arg;
  }
  auto fail = [&cli, &usage](const std::string& msg) {
    cli.ok = false;
    cli.error = msg + " (flags: " + (usage.empty() ? "none" : usage) + ")";
    return cli;
  };
  // The program name, for naming a flag this bench does not honor.
  std::string prog = argc > 0 ? argv[0] : "bench";
  prog = prog.substr(prog.find_last_of('/') + 1);

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // A flag outside the bench's honored set is rejected by name, before
    // its value is looked at.
    const bool hybrid_spec = arg.rfind("--hybrid:", 0) == 0;
    const std::string name =
        hybrid_spec ? "--hybrid" : arg.substr(0, arg.find('='));
    const CliFlagInfo* flag = nullptr;
    for (const CliFlagInfo& f : kCliFlagTable) {
      if (name == f.name) flag = &f;
    }
    if (flag == nullptr) return fail("unknown flag '" + name + "'");
    if ((honored & flag->bit) == 0) {
      return fail(name + " is not honored by " + prog);
    }
    // --hybrid[:k=v,...]: the spec rides after a colon (and may itself
    // contain '='), so peel it before the generic '=' split. Bare --hybrid
    // never consumes the next argument.
    if (arg == "--hybrid" || hybrid_spec) {
      const std::string spec =
          arg.size() > 9 ? arg.substr(9) : std::string("on");
      hybrid::HybridConfig parsed;
      if (!hybrid::ParseHybridSpec(spec == "on" ? "" : spec, &parsed)) {
        return fail("bad --hybrid spec '" + spec +
                    "' (keys: check eps queue_frac max_epoch guard release)");
      }
      cli.hybrid = spec;
      continue;
    }
    std::string value;
    // Accept --flag=value by splitting, --flag value by consuming argv[i+1].
    const size_t eq = arg.find('=');
    bool has_value = false;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    auto need_value = [&]() -> bool {
      if (has_value) return true;
      if (i + 1 >= argc) return false;
      value = argv[++i];
      return true;
    };

    if (arg == "--jobs") {
      if (!need_value()) return fail("--jobs requires a value");
      const long v = std::strtol(value.c_str(), nullptr, 10);
      if (v < 1) return fail("--jobs must be >= 1");
      cli.jobs = static_cast<int>(v);
    } else if (arg == "--seed") {
      if (!need_value()) return fail("--seed requires a value");
      cli.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--shards") {
      if (!need_value()) return fail("--shards requires a value");
      const long v = std::strtol(value.c_str(), nullptr, 10);
      if (v < 1) return fail("--shards must be >= 1");
      cli.shards = static_cast<int>(v);
    } else if (arg == "--json") {
      if (!need_value()) return fail("--json requires a path");
      cli.json_path = value;
    } else if (arg == "--csv") {
      if (!need_value()) return fail("--csv requires a path");
      cli.csv_path = value;
    } else if (arg == "--trace") {
      if (!need_value()) return fail("--trace requires a path prefix");
      cli.trace_prefix = value;
    } else if (arg == "--cc") {
      if (!need_value()) return fail("--cc requires a policy name");
      if (CcPolicyIdByName(value) < 0) {
        std::string names;
        for (const std::string& n : CcPolicyNames()) {
          if (!names.empty()) names += ", ";
          names += n;
        }
        return fail("unknown --cc policy '" + value + "' (registered: " +
                    names + ")");
      }
      cli.cc = value;
    } else if (arg == "--workload") {
      if (!need_value()) return fail("--workload requires a pattern spec");
      const std::string err = workload::WorkloadSpecError(
          workload::ParseWorkloadSpec(value), /*num_hosts=*/0);
      if (!err.empty()) return fail("bad --workload '" + value + "': " + err);
      cli.workload = value;
    } else if (arg == "--host") {
      if (!need_value()) return fail("--host requires a profile spec");
      const host::HostSpec spec = host::ParseHostSpec(value);
      const std::string err = host::CheckHostSpec(spec);
      if (!err.empty()) return fail(err);
      cli.host = value;
    } else {
      return fail("unknown flag '" + arg + "'");
    }
  }
  // The hybrid controller is written against the single-queue, wire-only
  // engine: suspension and analytic advance have no sharded or host-path
  // counterparts yet.
  if (!cli.hybrid.empty() && cli.shards >= 1)
    return fail("--hybrid cannot be combined with --shards");
  if (!cli.hybrid.empty() && !cli.host.empty())
    return fail("--hybrid cannot be combined with --host");
  return cli;
}

int16_t ResolveCc(const std::string& cc_name, int16_t default_policy) {
  if (cc_name.empty()) return default_policy;
  const int16_t policy = CcPolicyIdByName(cc_name);
  DCQCN_CHECK(policy >= 0);  // ParseCli validated the name
  return policy;
}

bool WriteRequestedOutputs(const CliOptions& cli,
                           const std::vector<TrialResult>& results) {
  bool ok = true;
  if (!cli.json_path.empty()) {
    if (WriteFile(cli.json_path, ResultsToJson(results))) {
      std::printf("wrote %s\n", cli.json_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", cli.json_path.c_str());
      ok = false;
    }
  }
  if (!cli.csv_path.empty()) {
    if (WriteFile(cli.csv_path, ResultsToCsv(results))) {
      std::printf("wrote %s\n", cli.csv_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", cli.csv_path.c_str());
      ok = false;
    }
  }
  return ok;
}

}  // namespace runner
}  // namespace dcqcn
