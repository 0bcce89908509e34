// Regenerates the paper's figures, tables and ablations and checks their
// claims (bench/figures.h):
//
//   figures [--figure=NAME]... [--jobs N] [--seed S] [--json PATH]
//           [--csv PATH]
//
// No --figure runs all of them. Each figure runs its own trial matrix, so
// its numbers and seeds are those of the figure run alone; result names are
// prefixed "<figure>/". Exit 1 when a claim fails or a known deviation
// starts to hold (stderr names the figure, claim and measured value) or an
// output cannot be written; exit 2 on a usage error, including the runner
// axes no figure honors (--cc --workload --host --shards --hybrid --trace:
// each figure fixes its own policies, traffic and engine).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "bench/figures.h"

using namespace dcqcn;
using namespace dcqcn::bench;

int main(int argc, char** argv) {
  const BenchCli args =
      ParseBenchCli(argc, argv, runner::kCliSweep, {}, {"--figure"});
  if (!args.cli.ok) return 2;
  const runner::CliOptions& cli = args.cli;
  std::vector<const Figure*> selected;
  if (args.Has("--figure")) {
    for (const std::string& name : args.own.at("--figure")) {
      selected.push_back(FindFigure(name));
      if (selected.back() == nullptr) {
        std::fprintf(stderr, "figures: unknown figure '%s'; figures:",
                     name.c_str());
        for (const Figure& f : Figures()) std::fprintf(stderr, " %s", f.name);
        std::fprintf(stderr, "\n");
        return 2;
      }
    }
  }
  if (selected.empty()) {
    for (const Figure& f : Figures()) selected.push_back(&f);
  }

  runner::RunnerOptions opt;
  opt.jobs = cli.jobs;
  opt.base_seed = cli.seed;
  Results all;
  std::vector<std::string> failures;
  for (const Figure* f : selected) {
    if (selected.size() > 1) {
      std::printf("%s=== %s ===\n", f == selected.front() ? "" : "\n",
                  f->name);
    }
    Results results = runner::RunTrials(f->matrix(), opt);
    f->report(results);
    std::printf("\n");
    for (const Claim& c : f->claims(results)) {
      const char* verdict =
          c.known_deviation
              ? (c.holds ? "UNEXPECTED PASS (registered known deviation)"
                         : "known deviation")
              : (c.holds ? "pass" : "FAIL");
      const std::string line = std::string(verdict) + ": " + c.text +
                               "; measured " + c.measured;
      std::printf("claim %s\n", line.c_str());
      if (!c.expected()) failures.push_back(f->name + (": " + line));
    }
    std::fflush(stdout);
    for (runner::TrialResult& r : results) {
      r.name = f->name + ("/" + r.name);
      all.push_back(std::move(r));
    }
  }
  const bool wrote = runner::WriteRequestedOutputs(cli, all);
  for (const std::string& failure : failures) {
    std::fprintf(stderr, "figures: %s\n", failure.c_str());
  }
  return failures.empty() && wrote ? 0 : 1;
}
