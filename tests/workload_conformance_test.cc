// Parameterized conformance suite: pattern-agnostic invariants every
// registered WorkloadPattern must satisfy, swept over the registry. The
// suite discovers patterns via WorkloadPatternNames() at INSTANTIATE time,
// so a pattern registered with RegisterWorkloadPattern — including the toy
// "pingpong" pattern this file registers to prove extensibility — is swept
// automatically with no test edits.
//
// Per-pattern invariants (mirroring the CcPolicy suite, PR 6):
//   * deterministic replay — same {seed, duration} => byte-identical
//     serialized TrialResult;
//   * accounting closes — after StopEmission plus a drain window,
//     started == completed and in_flight == 0 (every launch is matched by
//     exactly one observed completion);
//   * quiescence — once the workload drained, the event queue goes silent
//     (no pattern may leak a self-rescheduling timer past drain).
// Plus registry behaviour and the mixed --cc x --workload matrix riding the
// runner's jobs=1 == jobs=8 byte-identity contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cc/cc_policy.h"
#include "host/host_config.h"
#include "net/topology.h"
#include "runner/runner.h"
#include "runner/serialize.h"
#include "telemetry/metric_registry.h"
#include "workload/collective.h"
#include "workload/incast.h"
#include "workload/sim_host.h"
#include "workload/verbs_host.h"
#include "workload/workload.h"

namespace dcqcn {
namespace {

using workload::CreateWorkloadPattern;
using workload::EmitSpec;
using workload::ParseWorkloadSpec;
using workload::RegisterWorkloadPattern;
using workload::SimWorkloadHost;
using workload::WorkloadConfig;
using workload::WorkloadHost;
using workload::WorkloadMetrics;
using workload::WorkloadPattern;
using workload::WorkloadPatternIdByName;
using workload::WorkloadPatternNames;
using workload::WorkloadSpec;

// ---------------------------------------------------------------------------
// Toy pattern registered by this test binary: `count` sequential transfers
// ping-ponging between hosts 0 and 1. Registering it BEFORE the INSTANTIATE
// below puts it through the whole conformance sweep — which is the point: a
// third-party pattern gets the invariant checks for free.
class PingPongPattern : public WorkloadPattern {
 public:
  PingPongPattern(int64_t count, Bytes bytes) : count_(count), bytes_(bytes) {}

  const char* name() const override { return "pingpong"; }

  void Begin(WorkloadHost& host) override { Next(host); }

  void OnFlowComplete(WorkloadHost& host, const FlowRecord& rec,
                      uint64_t tag) override {
    (void)rec;
    (void)tag;
    Next(host);
  }

 private:
  void Next(WorkloadHost& host) {
    if (sent_ >= count_) return;
    EmitSpec e;
    e.src = static_cast<int>(sent_ % 2);
    e.dst = static_cast<int>(1 - sent_ % 2);
    e.size_bytes = bytes_;
    if (host.LaunchFlow(e) < 0) return;
    ++sent_;
  }

  const int64_t count_;
  const Bytes bytes_;
  int64_t sent_ = 0;
};

const int kPingPongId = RegisterWorkloadPattern(
    {"pingpong", [](const WorkloadConfig& c) -> std::unique_ptr<WorkloadPattern> {
       c.CheckKeys({"count", "kb"});
       return std::make_unique<PingPongPattern>(c.GetInt("count", 16),
                                                c.GetInt("kb", 64) * kKB);
     }});

// ---------------------------------------------------------------------------

// One pattern riding one paper-shape Clos (4 ToRs / 20 hosts) for
// `duration`, drained for `drain`, folded into a serializable TrialResult.
struct PatternRun {
  runner::TrialResult result;
  int64_t started = 0;
  int64_t completed = 0;
  int64_t in_flight = 0;
  uint64_t events_after_drain = 0;
};

PatternRun RunPattern(const std::string& name, uint64_t seed, Time duration,
                      Time drain) {
  Network net(seed);
  const ClosTopology topo = BuildClos(net, /*hosts_per_tor=*/5, TopologyOptions{});
  const std::vector<RdmaNic*> hosts = topo.AllHosts();
  SimWorkloadHost whost(net, hosts);
  WorkloadSpec spec;
  spec.name = name;
  std::unique_ptr<WorkloadPattern> pattern =
      CreateWorkloadPattern(spec, seed, /*size_scale=*/0.1);
  whost.Begin(*pattern);
  net.RunFor(duration);

  uint64_t events_after_drain = 0;
  if (drain > 0) {
    whost.StopEmission();
    net.RunFor(drain);
    events_after_drain = net.eq().RunUntil(net.eq().Now() + Milliseconds(5));
  }

  PatternRun run;
  run.result.name = name;
  workload::FillTrialResult(whost.metrics(), &run.result);
  run.started = whost.metrics().started;
  run.completed = whost.metrics().completed;
  run.in_flight = whost.metrics().in_flight;
  run.events_after_drain = events_after_drain;
  return run;
}

class WorkloadConformance : public ::testing::TestWithParam<std::string> {};

// Same {seed, duration} => byte-identical serialized results, and the
// pattern actually emits something in the window.
TEST_P(WorkloadConformance, DeterministicReplay) {
  const PatternRun a = RunPattern(GetParam(), 11, Microseconds(400), 0);
  const PatternRun b = RunPattern(GetParam(), 11, Microseconds(400), 0);
  EXPECT_GT(a.started, 0) << GetParam() << " emitted nothing";
  EXPECT_EQ(runner::ResultsToJson({a.result}), runner::ResultsToJson({b.result}));
}

// Every launch is matched by exactly one observed completion once emission
// stops and the fabric drains — and nothing keeps the event queue alive
// afterwards.
TEST_P(WorkloadConformance, AccountingClosesAndQuiescesAfterDrain) {
  const PatternRun run =
      RunPattern(GetParam(), 7, Microseconds(400), Milliseconds(250));
  EXPECT_GT(run.started, 0) << GetParam() << " emitted nothing";
  EXPECT_EQ(run.started, run.completed) << GetParam();
  EXPECT_EQ(run.in_flight, 0) << GetParam();
  EXPECT_EQ(run.events_after_drain, 0u)
      << GetParam() << " leaked events past drain";
}

std::string PatternName(const ::testing::TestParamInfo<std::string>& info) {
  std::string s = info.param;
  for (char& c : s) {
    if (c == '-') c = '_';
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(AllRegistered, WorkloadConformance,
                         ::testing::ValuesIn(WorkloadPatternNames()),
                         PatternName);

// ---------------------------------------------------------------------------
// Registry behaviour (not per-pattern).

TEST(WorkloadRegistry, TestRegisteredPatternIsLive) {
  EXPECT_GE(kPingPongId, 0);
  EXPECT_EQ(WorkloadPatternIdByName("pingpong"), kPingPongId);
  const std::vector<std::string> names = WorkloadPatternNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "pingpong"), names.end());
  WorkloadSpec spec = ParseWorkloadSpec("pingpong:count=4,kb=16");
  ASSERT_TRUE(spec.ok);
  auto p = CreateWorkloadPattern(spec, 1);
  ASSERT_NE(p, nullptr);
  EXPECT_STREQ(p->name(), "pingpong");
}

TEST(WorkloadRegistry, BuiltinsRegistered) {
  const std::vector<std::string> names = WorkloadPatternNames();
  for (const char* want : {"poisson", "pairs", "incast", "allreduce-ring",
                           "alltoall", "qpchurn"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), want), names.end())
        << want;
  }
}

TEST(WorkloadRegistry, UnknownNamesRejected) {
  EXPECT_EQ(WorkloadPatternIdByName("storage-mirror"), -1);
  EXPECT_EQ(WorkloadPatternIdByName(""), -1);
}

TEST(WorkloadRegistry, DuplicateAndUnknownDie) {
  EXPECT_DEATH(RegisterWorkloadPattern(
                   {"poisson", [](const WorkloadConfig&) {
                      return std::unique_ptr<WorkloadPattern>();
                    }}),
               "");
  WorkloadSpec spec;
  spec.name = "no-such-pattern";
  EXPECT_DEATH(CreateWorkloadPattern(spec, 1), "");
  // Unknown param keys fail loudly, not silently (the CheckKeys contract).
  const WorkloadSpec typo = ParseWorkloadSpec("incast:fanout=8");
  ASSERT_TRUE(typo.ok);
  EXPECT_DEATH(CreateWorkloadPattern(typo, 1), "");
}

TEST(WorkloadSpecGrammar, ParsesNamesAndParams) {
  WorkloadSpec s = ParseWorkloadSpec("incast");
  EXPECT_TRUE(s.ok);
  EXPECT_EQ(s.name, "incast");
  EXPECT_TRUE(s.params.empty());

  s = ParseWorkloadSpec("incast:fanin=16,kb=512,gap_us=20");
  EXPECT_TRUE(s.ok);
  EXPECT_EQ(s.name, "incast");
  EXPECT_EQ(s.params.at("fanin"), "16");
  EXPECT_EQ(s.params.at("kb"), "512");
  EXPECT_EQ(s.params.at("gap_us"), "20");
}

TEST(WorkloadSpecGrammar, RejectsMalformedSpecs) {
  EXPECT_FALSE(ParseWorkloadSpec("").ok);
  EXPECT_FALSE(ParseWorkloadSpec(":fanin=8").ok);
  EXPECT_FALSE(ParseWorkloadSpec("incast:fanin").ok);      // no '='
  EXPECT_FALSE(ParseWorkloadSpec("incast:=8").ok);         // empty key
  EXPECT_FALSE(ParseWorkloadSpec("incast:fanin=").ok);     // empty value
  EXPECT_FALSE(ParseWorkloadSpec("incast:fanin=8,").ok);   // trailing comma
}

// The CLI layers' validation names the offending key or value where
// CreateWorkloadPattern would CHECK-fail. These are the specs behind
// `scenario_cli --workload=pairs:foo=1`, `scenario_cli
// --workload=pairs:incast=30` (20 hosts) and `ext_workload --workload
// pairs:foo=1`, which exit 2 with these messages.
TEST(WorkloadSpecErrors, NameTheOffendingKeyOrValue) {
  auto error = [](const std::string& text, int hosts) {
    return workload::WorkloadSpecError(ParseWorkloadSpec(text), hosts);
  };
  EXPECT_EQ(error("pairs:pairs=12,incast=8", 20), "");
  EXPECT_EQ(error("pairs:foo=1", 20),
            "pattern 'pairs': unknown key 'foo' (keys: pairs, incast, "
            "incast_kb, think_us, cdf)");
  EXPECT_EQ(error("pairs:incast=30", 20),
            "pattern 'pairs': incast=30 must be < the host count (20)");
  EXPECT_EQ(error("pairs:incast=30", 0), "");  // host count unknown
  EXPECT_EQ(error("pairs:pairs=many", 20),
            "pattern 'pairs': pairs=many is not an integer");
  EXPECT_EQ(error("poisson:load_gbps=0", 20),
            "pattern 'poisson': load_gbps=0 must be > 0");
  EXPECT_NE(error("poisson:cdf=hadoop", 20).find("cdf=hadoop is not a size"),
            std::string::npos);
  // Defaults are checked too: incast's fan-in of 8 needs 9 hosts.
  EXPECT_EQ(error("incast", 5),
            "pattern 'incast': fanin (default) must be < the host count (5)");
  EXPECT_NE(error("storage-mirror", 20).find("unknown pattern"),
            std::string::npos);
  EXPECT_EQ(error("incast:fanin", 20),
            ParseWorkloadSpec("incast:fanin").error);
  // Every registered pattern's defaults fit a 64-host fabric.
  for (const std::string& name : WorkloadPatternNames()) {
    EXPECT_EQ(error(name, 64), "") << name;
  }
}

TEST(WorkloadSpecErrors, RunnerCliRejectsBadKeys) {
  std::vector<std::string> args = {"ext_workload", "--workload",
                                   "pairs:foo=1"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  const runner::CliOptions cli =
      runner::ParseCli(static_cast<int>(argv.size()), argv.data(),
                       runner::kCliAll);
  EXPECT_FALSE(cli.ok);
  EXPECT_NE(cli.error.find("unknown key 'foo'"), std::string::npos)
      << cli.error;
}

TEST(WorkloadConfigHelpers, TypedGettersAndDefaults) {
  WorkloadConfig c;
  c.params = {{"n", "12"}, {"x", "2.5"}, {"s", "websearch"}};
  EXPECT_EQ(c.GetInt("n", 3), 12);
  EXPECT_EQ(c.GetInt("missing", 3), 3);
  EXPECT_DOUBLE_EQ(c.GetDouble("x", 1.0), 2.5);
  EXPECT_DOUBLE_EQ(c.GetDouble("missing", 1.0), 1.0);
  EXPECT_EQ(c.GetString("s", "d"), "websearch");
  EXPECT_EQ(c.GetString("missing", "d"), "d");
  EXPECT_TRUE(c.Has("n"));
  EXPECT_FALSE(c.Has("missing"));
  EXPECT_DEATH(c.GetInt("s", 0), "");  // non-numeric value
  // Validation mode records the error and falls back to the default.
  std::string error;
  c.error = &error;
  EXPECT_EQ(c.GetInt("s", 7), 7);
  EXPECT_EQ(error, "s=websearch is not an integer");
  EXPECT_TRUE(c.Failed());
}

// The two metric export paths (runner TrialResult, telemetry registry)
// agree on the uniform counter set and only emit distributions that have
// samples.
TEST(WorkloadMetricsExport, TrialResultAndRegistryAgree) {
  WorkloadMetrics m;
  m.started = 5;
  m.completed = 4;
  m.skipped = 2;
  m.in_flight = 1;
  m.goodput_gbps.Add(12.0);
  m.fct_us.Add(10.0);
  m.fct_us.Add(30.0);
  m.slowdown.Add(1.5);
  // iteration_us left empty: flat patterns must not emit the summary.

  runner::TrialResult r;
  workload::FillTrialResult(m, &r);
  EXPECT_EQ(r.counters.at("wl_started"), 5);
  EXPECT_EQ(r.counters.at("wl_completed"), 4);
  EXPECT_EQ(r.counters.at("wl_skipped"), 2);
  EXPECT_EQ(r.counters.at("wl_in_flight"), 1);
  EXPECT_EQ(r.summaries.at("wl_fct_us").count, 2u);
  EXPECT_EQ(r.summaries.count("wl_iteration_us"), 0u);

  telemetry::MetricRegistry reg;
  workload::ExportMetrics(m, &reg);
  EXPECT_EQ(reg.Counter("wl.started"), 5);
  EXPECT_EQ(reg.Counter("wl.completed"), 4);
  EXPECT_EQ(reg.Counter("wl.skipped"), 2);
  EXPECT_EQ(reg.Gauge("wl.in_flight"), 1);
  const telemetry::RegistrySnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.histograms.count("wl.fct_us"), 1u);
  EXPECT_EQ(snap.histograms.count("wl.iteration_us"), 0u);
}

// ---------------------------------------------------------------------------
// Pattern-specific structure: barrier counts follow the configuration.

TEST(WorkloadPatterns, IncastRunsExactlyConfiguredEpochs) {
  Network net(3);
  const ClosTopology topo = BuildClos(net, 5, TopologyOptions{});
  const std::vector<RdmaNic*> hosts = topo.AllHosts();
  SimWorkloadHost whost(net, hosts);
  workload::IncastOptions opts;
  opts.fan_in = 6;
  opts.request_bytes = 32 * kKB;
  opts.epochs = 3;
  workload::IncastPattern pattern(opts);
  whost.Begin(pattern);
  net.RunFor(Milliseconds(20));
  EXPECT_EQ(pattern.epochs_completed(), 3);
  EXPECT_EQ(whost.metrics().iteration_us.size(), 3u);
  EXPECT_EQ(whost.metrics().started, 3 * 6);
  EXPECT_EQ(whost.metrics().completed, 3 * 6);
}

TEST(WorkloadPatterns, AllreduceRingIterationFlowCountMatchesAlgorithm) {
  Network net(5);
  const ClosTopology topo = BuildClos(net, 5, TopologyOptions{});
  const std::vector<RdmaNic*> hosts = topo.AllHosts();
  SimWorkloadHost whost(net, hosts);
  workload::AllreduceRingOptions opts;
  opts.nodes = 6;
  opts.vector_bytes = 120 * kKB;  // 20 KB chunks
  opts.iterations = 2;
  workload::AllreduceRingPattern pattern(opts);
  whost.Begin(pattern);
  net.RunFor(Milliseconds(40));
  EXPECT_EQ(pattern.iterations_completed(), 2);
  // 2 iterations x 2*(K-1) steps x K transfers per step.
  EXPECT_EQ(whost.metrics().started, 2 * 2 * (6 - 1) * 6);
  EXPECT_EQ(whost.metrics().completed, whost.metrics().started);
  EXPECT_EQ(whost.metrics().iteration_us.size(), 2u);
}

TEST(WorkloadPatterns, AllToAllRoundIsFullBipartiteExchange) {
  Network net(9);
  const ClosTopology topo = BuildClos(net, 5, TopologyOptions{});
  const std::vector<RdmaNic*> hosts = topo.AllHosts();
  SimWorkloadHost whost(net, hosts);
  workload::AllToAllOptions opts;
  opts.nodes = 5;
  opts.bytes_per_peer = 16 * kKB;
  opts.rounds = 2;
  workload::AllToAllPattern pattern(opts);
  whost.Begin(pattern);
  net.RunFor(Milliseconds(20));
  EXPECT_EQ(pattern.rounds_completed(), 2);
  EXPECT_EQ(whost.metrics().started, 2 * 5 * 4);
  EXPECT_EQ(whost.metrics().completed, whost.metrics().started);
  EXPECT_EQ(whost.metrics().iteration_us.size(), 2u);
}

// ---------------------------------------------------------------------------
// The --workload axis obeys the runner's determinism contract alongside
// --cc: a matrix mixing every registered pattern with several policies
// serializes to identical bytes under --jobs 1 and --jobs 8.

// The mode-taking host constructors forward to the policy-id ones and
// refuse a mode the policy did not register.
TEST(WorkloadHostModeForward, ForwardsTheRegisteredModeAndRejectsOthers) {
  Network net(1);
  TopologyOptions topt;
  topt.nic_config.host_path =
      host::MakeHostPathConfig(host::ParseHostSpec("default"));
  const std::vector<RdmaNic*> hosts = BuildStar(net, 3, topt).hosts;
  const int16_t dctcp = CcPolicyIdByName("dctcp");
  const TransportMode mode = CcPolicyInfoById(dctcp).mode;
  EXPECT_EQ(SimWorkloadHost(net, hosts, mode, dctcp).num_hosts(), 3);
  EXPECT_EQ(workload::VerbsWorkloadHost(net, hosts, mode, dctcp).num_hosts(),
            3);
  EXPECT_DEATH(SimWorkloadHost(net, hosts, mode, kDcqcnPolicyId), "");
  EXPECT_DEATH(workload::VerbsWorkloadHost(net, hosts, mode, kDcqcnPolicyId),
               "");
}

TEST(WorkloadRegistry, PatternCcMatrixIsJobsInvariant) {
  std::vector<runner::TrialSpec> matrix;
  for (const std::string& pattern_name : WorkloadPatternNames()) {
    for (const char* cc_name : {"dcqcn", "dctcp", "timely"}) {
      const int16_t cc_id = CcPolicyIdByName(cc_name);
      ASSERT_GE(cc_id, 0);
      runner::TrialSpec spec;
      spec.name = pattern_name + "/" + cc_name;
      spec.run = [pattern_name, cc_id](const runner::TrialContext& ctx) {
        Network net(ctx.seed);
        const ClosTopology topo = BuildClos(net, 5, TopologyOptions{});
        const std::vector<RdmaNic*> hosts = topo.AllHosts();
        SimWorkloadHost whost(net, hosts, cc_id);
        WorkloadSpec wspec;
        wspec.name = pattern_name;
        std::unique_ptr<WorkloadPattern> pattern =
            CreateWorkloadPattern(wspec, ctx.seed, /*size_scale=*/0.1);
        whost.Begin(*pattern);
        net.RunFor(Microseconds(300));
        runner::TrialResult r;
        r.name = pattern_name;
        workload::FillTrialResult(whost.metrics(), &r);
        r.counters["pause_frames"] = net.TotalPauseFramesSent();
        r.counters["drops"] = net.TotalDrops();
        return r;
      };
      matrix.push_back(std::move(spec));
    }
  }
  runner::RunnerOptions serial;
  serial.jobs = 1;
  serial.base_seed = 21;
  runner::RunnerOptions pooled;
  pooled.jobs = 8;
  pooled.base_seed = 21;
  const std::string a =
      runner::ResultsToJson(runner::RunTrials(matrix, serial));
  const std::string b =
      runner::ResultsToJson(runner::RunTrials(matrix, pooled));
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("pingpong"), std::string::npos);
}

}  // namespace
}  // namespace dcqcn
