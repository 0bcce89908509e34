// The paper's evaluation as one table of runner figures.
//
// Each entry is one reproduced figure, table or ablation: a TrialSpec
// matrix for the experiment runner, a report that prints the figure's
// table from the TrialResults, and the paper's claims about it checked
// against the same results. bench/main_figures.cc drives the table.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "net/topology.h"
#include "runner/runner.h"

namespace dcqcn {
namespace bench {

using Results = std::vector<runner::TrialResult>;

// One checked predicate; `text` cites the source of any tolerance.
struct Claim {
  std::string text;
  bool holds = false;
  std::string measured;  // the values the predicate read
  // EXPERIMENTS.md records this predicate failing on our substrate; one
  // that starts to hold is as unexpected as a claim that fails.
  bool known_deviation = false;

  bool expected() const { return holds != known_deviation; }
};

struct Figure {
  const char* name;
  std::function<std::vector<runner::TrialSpec>()> matrix;
  std::function<void(const Results&)> report;
  std::function<std::vector<Claim>(const Results&)> claims;
};

// In the paper's order. An explicit list, not static registration: the
// linker would drop unreferenced registrations from the static library.
const std::vector<Figure>& Figures();
const Figure* FindFigure(const std::string& name);

// One §6.2 benchmark-traffic run (Figs. 15-18): `num_pairs` user pairs plus
// one `incast_degree`:1 disk rebuild for 40 ms under `policy`.
runner::TrialSpec BenchmarkTrafficTrial(std::string name, int16_t policy,
                                        int incast_degree, int num_pairs,
                                        uint64_t seed,
                                        const TopologyOptions& topo = {});

}  // namespace bench
}  // namespace dcqcn
