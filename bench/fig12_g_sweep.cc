// Figure 12 — choosing g for queue length and stability (§5.2).
//
// N:1 incast in the fluid model, all flows starting at line rate; queue
// length traces for g = 1/16 vs g = 1/256 at 2:1 and 16:1. Paper: "smaller
// g leads to lower queue length and lower variation" at the cost of
// slightly slower convergence.
//
// The (incast, g) grid runs as an experiment-runner matrix: `--jobs N`
// parallelizes the cells, `--seed` / `--json` / `--csv` follow the harness
// conventions documented in README "Running experiments".
#include <cstdio>
#include <vector>

#include "fluid/sweep.h"
#include "runner/runner.h"

using namespace dcqcn;

int main(int argc, char** argv) {
  const runner::CliOptions cli = runner::ParseCli(argc, argv);
  if (!cli.ok) {
    std::fprintf(stderr, "%s\n", cli.error.c_str());
    return 2;
  }

  // The 2x2 table grid, then the two plotted 2:1 traces at a finer sample
  // period — all independent cells of one matrix.
  struct Cell {
    int n;
    double g;
  };
  std::vector<Cell> cells;
  std::vector<runner::TrialSpec> matrix;
  for (int n : {2, 16}) {
    for (double g : {1.0 / 16.0, 1.0 / 256.0}) {
      FluidParams p =
          FluidParams::FromDcqcn(DcqcnParams::Deployment(), Gbps(40), n);
      p.g = g;
      char name[64];
      std::snprintf(name, sizeof(name), "incast%d_g1over%.0f", n, 1.0 / g);
      matrix.push_back(IncastQueueTrial(name, p, n, 0.1));
      cells.push_back({n, g});
    }
  }
  const size_t num_table_cells = matrix.size();
  for (double g : {1.0 / 16.0, 1.0 / 256.0}) {
    FluidParams p =
        FluidParams::FromDcqcn(DcqcnParams::Deployment(), Gbps(40), 2);
    p.g = g;
    char name[64];
    std::snprintf(name, sizeof(name), "trace_2to1_g1over%.0f", 1.0 / g);
    matrix.push_back(IncastQueueTrial(name, p, 2, 0.1, 5e-3));
  }

  runner::RunnerOptions opt;
  opt.jobs = cli.jobs;
  opt.base_seed = cli.seed;
  const std::vector<runner::TrialResult> results =
      runner::RunTrials(matrix, opt);

  std::printf("Figure 12: bottleneck queue (fluid model), settled tail "
              "[50ms, 100ms]  (jobs=%d)\n", cli.jobs);
  std::printf("%-10s %-8s %10s %10s %10s %10s\n", "incast", "g", "mean(KB)",
              "std(KB)", "min(KB)", "max(KB)");
  for (size_t i = 0; i < num_table_cells; ++i) {
    const runner::TrialResult& r = results[i];
    std::printf("%2d:1       1/%-6.0f %10.1f %10.1f %10.1f %10.1f\n",
                cells[i].n, 1.0 / cells[i].g,
                r.metrics.at("tail_mean_bytes") / 1e3,
                r.metrics.at("tail_stddev_bytes") / 1e3,
                r.metrics.at("tail_min_bytes") / 1e3,
                r.metrics.at("tail_max_bytes") / 1e3);
  }

  // Time series excerpt for the 2:1 case (the paper's plotted traces).
  std::printf("\n2:1 queue trace (KB):\n%8s %12s %12s\n", "t(ms)", "g=1/16",
              "g=1/256");
  const TimeSeries& qhi = results[num_table_cells].series.at("queue_bytes");
  const TimeSeries& qlo =
      results[num_table_cells + 1].series.at("queue_bytes");
  for (size_t i = 0; i < qhi.points.size() && i < qlo.points.size(); ++i) {
    std::printf("%8.1f %12.1f %12.1f\n",
                ToMilliseconds(qhi.points[i].first),
                qhi.points[i].second / 1e3, qlo.points[i].second / 1e3);
  }
  std::printf("\npaper shape: g = 1/256 gives a lower, visibly smoother "
              "queue than g = 1/16\n");

  return runner::WriteRequestedOutputs(cli, results) ? 0 : 1;
}
