// Determinism regression suite for the parallel experiment runner.
//
// The load-bearing guarantee: a trial matrix run with jobs=1 and jobs=8
// serializes to byte-identical JSON/CSV, and repeated same-seed runs match
// exactly. Each trial builds a private Network (own EventQueue + Rng) from
// its derived seed, so the only way the guarantee can break is a runner bug
// (result misordering, seed drift, shared state) — exactly what this suite
// exists to catch.
#include "runner/runner.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "fault/fault_injector.h"
#include "fluid/sweep.h"
#include "net/topology.h"
#include "runner/serialize.h"
#include "telemetry/probes.h"

namespace dcqcn {
namespace {

// A real (if tiny) packet simulation: 3:1 greedy DCQCN incast for 300 us.
// Exercises EventQueue, Rng-driven NIC jitter, the switch, and monitors.
runner::TrialSpec SmallIncastTrial(int trial) {
  runner::TrialSpec spec;
  spec.name = "incast3to1_t" + std::to_string(trial);
  spec.run = [](const runner::TrialContext& ctx) {
    Network net(ctx.seed);
    StarTopology topo = BuildStar(net, 4, TopologyOptions{});
    for (int i = 0; i < 3; ++i) {
      FlowSpec f;
      f.flow_id = i;
      f.src_host = topo.hosts[static_cast<size_t>(i)]->id();
      f.dst_host = topo.hosts[3]->id();
      f.size_bytes = 0;
      net.StartFlow(f);
    }
    telemetry::ProbeSet probes(&net.eq(), Microseconds(20));
    const size_t queue = probes.AddGauge("queue_bytes", [&] {
      return static_cast<double>(topo.sw->EgressQueueBytes(3, kDataPriority));
    });
    probes.Start();
    net.RunFor(Microseconds(300));

    runner::TrialResult r;
    const SwitchCounters& c = topo.sw->counters();
    r.counters["rx_packets"] = c.rx_packets;
    r.counters["ecn_marked"] = c.ecn_marked_packets;
    r.counters["pauses"] = c.pause_frames_sent;
    std::vector<double> delivered;
    for (int i = 0; i < 3; ++i) {
      const Bytes d = topo.hosts[3]->ReceiverDeliveredBytes(i);
      r.metrics["delivered_" + std::to_string(i)] =
          static_cast<double>(d);
      delivered.push_back(static_cast<double>(d));
    }
    r.summaries["delivered"] = Summarize(delivered);
    r.series["queue_bytes"] = probes.Series(queue);
    return r;
  };
  return spec;
}

// 16 packet-sim trials + 4 fluid trials: a mixed matrix like the real
// benches run, comfortably above the >= 16-trial bar.
std::vector<runner::TrialSpec> BuildMatrix() {
  std::vector<runner::TrialSpec> matrix;
  for (int t = 0; t < 16; ++t) matrix.push_back(SmallIncastTrial(t));
  for (int n : {2, 4, 8, 16}) {
    FluidParams p =
        FluidParams::FromDcqcn(DcqcnParams::Deployment(), Gbps(40), n);
    matrix.push_back(IncastQueueTrial("fluid_n" + std::to_string(n), p, n,
                                      /*sim_seconds=*/0.01));
  }
  return matrix;
}

runner::RunnerOptions Options(int jobs, uint64_t seed) {
  runner::RunnerOptions opt;
  opt.jobs = jobs;
  opt.base_seed = seed;
  return opt;
}

std::string RunToJson(int jobs, uint64_t seed) {
  return runner::ResultsToJson(
      runner::RunTrials(BuildMatrix(), Options(jobs, seed)));
}

// A trial that executes its spec's fault plan against a private network.
// Mirrors how the fault benches run: the injector draws from its own
// seed-derived stream, so fault randomness never perturbs network RNG state.
runner::TrialSpec FaultedIncastTrial(int trial, FaultPlan plan) {
  runner::TrialSpec spec;
  spec.name = "faulted_t" + std::to_string(trial);
  spec.faults = std::move(plan);
  spec.run = [](const runner::TrialContext& ctx) {
    Network net(ctx.seed);
    StarTopology topo = BuildStar(net, 4, TopologyOptions{});
    for (int i = 0; i < 3; ++i) {
      FlowSpec f;
      f.flow_id = i;
      f.src_host = topo.hosts[static_cast<size_t>(i)]->id();
      f.dst_host = topo.hosts[3]->id();
      f.size_bytes = 100 * kKB;
      net.StartFlow(f);
    }
    FaultInjector inj(&net, *ctx.faults, ctx.seed ^ 0xfa017ULL);
    inj.Arm();
    net.RunFor(Milliseconds(5));

    runner::TrialResult r;
    const SwitchCounters& c = topo.sw->counters();
    r.counters["rx_packets"] = c.rx_packets;
    r.counters["dropped"] = c.dropped_packets;
    r.counters["faults_started"] = inj.faults_started();
    r.counters["faults_healed"] = inj.faults_healed();
    r.metrics["paused_us"] =
        static_cast<double>(net.TotalPausedTime()) / kMicrosecond;
    return r;
  };
  return spec;
}

std::vector<runner::TrialSpec> BuildFaultMatrix() {
  std::vector<runner::TrialSpec> matrix;
  for (int t = 0; t < 6; ++t) {
    FaultPlan plan;
    // Vary the plan per trial so caching/misordering bugs can't hide.
    plan.Add(LinkFlap(0, 1 + (t % 3), Microseconds(100 + 10 * t),
                      Microseconds(300)));
    if (t % 2 == 0) {
      plan.Add(PacketLoss(0, 4, Microseconds(50), Microseconds(500),
                          0.01 * (1 + t)));
    }
    matrix.push_back(FaultedIncastTrial(t, std::move(plan)));
  }
  // One fault-free trial mixed in: its row must NOT grow a faults cell.
  matrix.push_back(SmallIncastTrial(99));
  return matrix;
}

TEST(Runner, FaultMatrixIsByteIdenticalAcrossJobCounts) {
  const runner::RunnerOptions serial = Options(1, 11);
  const runner::RunnerOptions parallel = Options(8, 11);
  const auto r1 = runner::RunTrials(BuildFaultMatrix(), serial);
  const auto r8 = runner::RunTrials(BuildFaultMatrix(), parallel);
  const std::string json1 = runner::ResultsToJson(r1);
  const std::string json8 = runner::ResultsToJson(r8);
  EXPECT_EQ(json1, json8);
  EXPECT_EQ(runner::ResultsToCsv(r1), runner::ResultsToCsv(r8));
  // The plan rides along in the output so a results file is self-describing.
  EXPECT_NE(json1.find("\"faults\":["), std::string::npos);
  EXPECT_NE(json1.find("\"kind\":\"link_flap\""), std::string::npos);
  EXPECT_NE(runner::ResultsToCsv(r1).find(",faults"), std::string::npos);
  // Every injector ran its full plan.
  for (size_t i = 0; i + 1 < r1.size(); ++i) {
    EXPECT_EQ(r1[i].counters.at("faults_started"),
              r1[i].counters.at("faults_healed"));
    EXPECT_GT(r1[i].counters.at("faults_started"), 0);
  }
}

TEST(Runner, FaultFreeMatrixOutputHasNoFaultsField) {
  // The faults field is emitted only when non-empty: adding the subsystem
  // must not change a single byte of existing fault-free results files.
  std::vector<runner::TrialSpec> matrix;
  for (int t = 0; t < 3; ++t) matrix.push_back(SmallIncastTrial(t));
  runner::RunnerOptions opt;
  opt.jobs = 2;
  const auto results = runner::RunTrials(matrix, opt);
  EXPECT_EQ(runner::ResultsToJson(results).find("faults"), std::string::npos);
  EXPECT_EQ(runner::ResultsToCsv(results).find("faults"), std::string::npos);
}

TEST(Runner, SerialAndParallelAreByteIdentical) {
  const std::string serial = RunToJson(/*jobs=*/1, /*seed=*/7);
  const std::string parallel = RunToJson(/*jobs=*/8, /*seed=*/7);
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_EQ(serial, parallel);  // bytes, not semantics
}

TEST(Runner, RepeatedRunsAreByteIdentical) {
  EXPECT_EQ(RunToJson(8, 7), RunToJson(8, 7));
  EXPECT_EQ(RunToJson(1, 7), RunToJson(1, 7));
}

TEST(Runner, DifferentBaseSeedChangesResults) {
  EXPECT_NE(RunToJson(1, 7), RunToJson(1, 8));
}

TEST(Runner, CsvIsByteIdenticalAcrossJobCounts) {
  const runner::RunnerOptions serial = Options(1, 7);
  const runner::RunnerOptions parallel = Options(8, 7);
  EXPECT_EQ(runner::ResultsToCsv(runner::RunTrials(BuildMatrix(), serial)),
            runner::ResultsToCsv(runner::RunTrials(BuildMatrix(), parallel)));
}

TEST(Runner, ResultsArriveInSubmissionOrder) {
  const std::vector<runner::TrialSpec> matrix = BuildMatrix();
  runner::RunnerOptions opt;
  opt.jobs = 8;
  const std::vector<runner::TrialResult> results =
      runner::RunTrials(matrix, opt);
  ASSERT_EQ(results.size(), matrix.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].trial_index, i);
    EXPECT_EQ(results[i].name, matrix[i].name);
    EXPECT_EQ(results[i].seed, runner::DeriveTrialSeed(opt.base_seed, i));
  }
}

TEST(Runner, MoreJobsThanTrialsWorks) {
  std::vector<runner::TrialSpec> matrix;
  for (int t = 0; t < 3; ++t) matrix.push_back(SmallIncastTrial(t));
  runner::RunnerOptions opt;
  opt.jobs = 16;
  const auto results = runner::RunTrials(matrix, opt);
  ASSERT_EQ(results.size(), 3u);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(results[i].trial_index, i);
}

TEST(Runner, EmptyMatrixIsFine) {
  runner::RunnerOptions opt;
  opt.jobs = 4;
  EXPECT_TRUE(runner::RunTrials({}, opt).empty());
}

TEST(Runner, TrialExceptionPropagatesFromWorkers) {
  std::vector<runner::TrialSpec> matrix;
  for (int t = 0; t < 4; ++t) matrix.push_back(SmallIncastTrial(t));
  runner::TrialSpec boom;
  boom.name = "boom";
  boom.run = [](const runner::TrialContext&) -> runner::TrialResult {
    throw std::runtime_error("trial failed");
  };
  matrix.push_back(boom);
  runner::RunnerOptions opt;
  opt.jobs = 4;
  EXPECT_THROW(runner::RunTrials(matrix, opt), std::runtime_error);
  opt.jobs = 1;
  EXPECT_THROW(runner::RunTrials(matrix, opt), std::runtime_error);
}

TEST(DeriveTrialSeed, DistinctAcrossIndicesAndBases) {
  std::set<uint64_t> seen;
  for (uint64_t base : {0ULL, 1ULL, 2ULL, 42ULL, ~0ULL}) {
    for (uint64_t i = 0; i < 1000; ++i) {
      const uint64_t s = runner::DeriveTrialSeed(base, i);
      EXPECT_NE(s, 0u);
      seen.insert(s);
    }
  }
  EXPECT_EQ(seen.size(), 5u * 1000u);  // no collisions across the grid
}

TEST(DeriveTrialSeed, StableContract) {
  // These exact values are part of the reproducibility contract: changing
  // the mix function re-seeds every published experiment.
  EXPECT_EQ(runner::DeriveTrialSeed(1, 0), runner::DeriveTrialSeed(1, 0));
  EXPECT_NE(runner::DeriveTrialSeed(1, 0), runner::DeriveTrialSeed(1, 1));
  EXPECT_NE(runner::DeriveTrialSeed(1, 0), runner::DeriveTrialSeed(2, 0));
}

TEST(Serialize, JsonShapeAndEscaping) {
  runner::TrialResult r;
  r.name = "with\"quote\nand newline";
  r.trial_index = 3;
  r.seed = 99;
  r.counters["b"] = 2;
  r.counters["a"] = 1;
  r.metrics["m"] = 0.5;
  r.series["s"].Add(Nanoseconds(5), 1.25);
  const std::string json = runner::ResultsToJson({r});
  EXPECT_NE(json.find("\"with\\\"quote\\nand newline\""), std::string::npos);
  // Map keys serialize in lexicographic order regardless of insertion.
  EXPECT_NE(json.find("\"counters\":{\"a\":1,\"b\":2}"), std::string::npos);
  EXPECT_NE(json.find("\"s\":[[5000,1.25]]"), std::string::npos);
  EXPECT_NE(json.find("\"index\":3"), std::string::npos);
  EXPECT_NE(json.find("\"seed\":99"), std::string::npos);
}

TEST(Serialize, CsvUnionsColumnsAcrossTrials) {
  runner::TrialResult a;
  a.name = "a";
  a.counters["c1"] = 1;
  a.metrics["m1"] = 1.5;
  runner::TrialResult b;
  b.name = "b";
  b.trial_index = 1;
  b.counters["c2"] = 2;
  const std::string csv = runner::ResultsToCsv({a, b});
  EXPECT_NE(csv.find("name,index,seed,c1,c2,m1\n"), std::string::npos);
  // Absent cells stay empty, preserving column alignment.
  EXPECT_NE(csv.find("a,0,0,1,,1.5\n"), std::string::npos);
  EXPECT_NE(csv.find("b,1,0,,2,\n"), std::string::npos);
}

TEST(Cli, ParsesBothFlagForms) {
  const char* argv[] = {"bench",      "--jobs", "4",   "--seed=9",
                        "--json",     "/tmp/x.json",   "--csv=/tmp/x.csv"};
  const runner::CliOptions cli =
      runner::ParseCli(7, const_cast<char**>(argv));
  ASSERT_TRUE(cli.ok) << cli.error;
  EXPECT_EQ(cli.jobs, 4);
  EXPECT_EQ(cli.seed, 9u);
  EXPECT_EQ(cli.json_path, "/tmp/x.json");
  EXPECT_EQ(cli.csv_path, "/tmp/x.csv");
}

TEST(Cli, RejectsBadInput) {
  {
    const char* argv[] = {"bench", "--jobs"};
    EXPECT_FALSE(runner::ParseCli(2, const_cast<char**>(argv)).ok);
  }
  {
    const char* argv[] = {"bench", "--jobs", "0"};
    EXPECT_FALSE(runner::ParseCli(3, const_cast<char**>(argv)).ok);
  }
  {
    const char* argv[] = {"bench", "--frobnicate"};
    EXPECT_FALSE(runner::ParseCli(2, const_cast<char**>(argv)).ok);
  }
}

}  // namespace
}  // namespace dcqcn
