// Determinism regression for the large-Clos scaling bench (bench/ext_scale):
// the full ScaleCases matrix — smoke durations, same shapes up to 32 ToRs /
// 512 hosts — run in-process through the experiment runner must serialize to
// byte-identical JSON at jobs=1 and jobs=8. This is the guarantee that lets
// ext_scale's --json output gate CI regardless of --jobs: every serialized
// number (events, delivered bytes, CNPs, goodput) is a pure function of
// {matrix, seed}, never of thread interleaving. Wall-clock stays in the
// side table and must not leak into the results.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/common.h"
#include "runner/runner.h"
#include "runner/serialize.h"

namespace dcqcn {
namespace {

std::string RunMatrixToJson(int jobs, uint64_t seed) {
  const std::vector<bench::ScaleCase> cases = bench::ScaleCases(/*smoke=*/true);
  std::vector<double> wall_seconds(cases.size(), 0.0);
  std::vector<runner::TrialSpec> matrix;
  matrix.reserve(cases.size());
  for (const bench::ScaleCase& c : cases) {
    bench::ScaleTrialOptions topt;
    topt.wall_seconds = &wall_seconds;
    matrix.push_back(bench::ScaleTrial(c, topt));
  }
  runner::RunnerOptions opt;
  opt.jobs = jobs;
  opt.base_seed = seed;
  const std::vector<runner::TrialResult> results =
      runner::RunTrials(matrix, opt);
  // Every trial must have recorded its wall time in the side table — and
  // nowhere else (TrialResult carries no wall-clock key; serialization below
  // being jobs-invariant depends on that).
  for (const double w : wall_seconds) EXPECT_GT(w, 0.0);
  return runner::ResultsToJson(results);
}

TEST(ScaleMatrix, SerialAndParallelRunsAreByteIdentical) {
  const std::string serial = RunMatrixToJson(/*jobs=*/1, /*seed=*/7);
  const std::string parallel = RunMatrixToJson(/*jobs=*/8, /*seed=*/7);
  EXPECT_EQ(serial, parallel);
  EXPECT_FALSE(serial.empty());
  // Wall-clock must never appear in serialized output.
  EXPECT_EQ(serial.find("wall"), std::string::npos);
}

TEST(ScaleMatrix, CasesCoverTheScaleTargets) {
  const std::vector<bench::ScaleCase> cases = bench::ScaleCases(/*smoke=*/true);
  ASSERT_FALSE(cases.empty());
  // The paper's testbed shape leads the sweep...
  EXPECT_EQ(cases.front().shape.num_tors(), 4);
  EXPECT_EQ(cases.front().shape.num_hosts(), 20);
  // ...and the sweep reaches the PR's scale floor: >= 32 ToRs, >= 512
  // hosts, >= 1000 concurrent flows.
  const bench::ScaleCase& xl = cases.back();
  EXPECT_GE(xl.shape.num_tors(), 32);
  EXPECT_GE(xl.shape.num_hosts(), 512);
  EXPECT_GE(xl.shape.num_hosts() * xl.flows_per_host, 1000);
}

// With a pattern, the trial's goodput is completed-transfer bytes over the
// window: a structured workload that completes flows must read above zero
// on every shape (the greedy mix's delivered-bytes readout sees no flows).
TEST(ScaleMatrix, PatternModeGoodputCountsCompletedTransfers) {
  std::vector<runner::TrialSpec> matrix;
  for (const bench::ScaleCase& c : bench::ScaleCases(/*smoke=*/true)) {
    bench::ScaleTrialOptions topt;
    topt.workload = "pairs:pairs=8,incast=4";
    ASSERT_TRUE(topt.retain_flow_records);
    matrix.push_back(bench::ScaleTrial(c, topt));
  }
  runner::RunnerOptions opt;
  opt.base_seed = 7;
  for (const runner::TrialResult& r : runner::RunTrials(matrix, opt)) {
    EXPECT_GT(r.counters.at("wl_completed"), 0) << r.name;
    EXPECT_GT(r.metrics.at("agg_goodput_gbps"), 0.0) << r.name;
    // The wl.* registry snapshot rides along with the wl_* counters.
    EXPECT_FALSE(r.registry.counters.empty()) << r.name;
  }
}

}  // namespace
}  // namespace dcqcn
