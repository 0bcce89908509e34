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
// axes no figure honors (each fixes its own policies, traffic and engine).
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/figures.h"

using namespace dcqcn;
using namespace dcqcn::bench;

int main(int argc, char** argv) {
  // ParseCli rejects flags it does not know, so peel --figure first.
  std::vector<const Figure*> selected;
  std::vector<char*> args = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--figure=", 0) == 0 || arg == "--figure") {
      const std::string name =
          arg == "--figure" ? (i + 1 < argc ? argv[++i] : "") : arg.substr(9);
      selected.push_back(FindFigure(name));
      if (selected.back() == nullptr) {
        std::fprintf(stderr, "figures: unknown figure '%s'; figures:",
                     name.c_str());
        for (const Figure& f : Figures()) std::fprintf(stderr, " %s", f.name);
        std::fprintf(stderr, "\n");
        return 2;
      }
    } else {
      args.push_back(argv[i]);
    }
  }
  const runner::CliOptions cli =
      runner::ParseCli(static_cast<int>(args.size()), args.data());
  if (!cli.ok) {
    std::fprintf(stderr, "%s\n", cli.error.c_str());
    return 2;
  }
  const std::pair<bool, const char*> unsupported[] = {
      {!cli.cc.empty(), "--cc"},         {!cli.workload.empty(), "--workload"},
      {!cli.host.empty(), "--host"},     {cli.shards != 0, "--shards"},
      {!cli.hybrid.empty(), "--hybrid"}, {!cli.trace_prefix.empty(), "--trace"}};
  for (const auto& [given, flag] : unsupported) {
    if (given) {
      std::fprintf(stderr, "figures: %s is not supported: every figure fixes "
                   "its own policies, traffic and engine\n", flag);
      return 2;
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
