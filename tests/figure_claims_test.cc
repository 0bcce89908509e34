// The figure claims discriminate: each predicate, fed the results of a run
// that lacks the mechanism the paper credits, must fail. A claim that holds
// on the mutated run would be decoration, not a check.
#include <gtest/gtest.h>

#include <string>

#include "bench/figures.h"
#include "cc/cc_policy.h"

namespace dcqcn {
namespace bench {
namespace {

Results RunMatrix(const std::vector<runner::TrialSpec>& matrix) {
  runner::RunnerOptions opt;
  opt.jobs = 4;
  return runner::RunTrials(matrix, opt);
}

Results RunFigure(const char* name) {
  const Figure* f = FindFigure(name);
  EXPECT_NE(f, nullptr) << name;
  return RunMatrix(f->matrix());
}

// The claims of `figure` evaluated on `results`; none may be a known
// deviation, or a failure would be the expected outcome anyway.
std::vector<Claim> ClaimsOn(const char* figure, const Results& results) {
  const std::vector<Claim> claims = FindFigure(figure)->claims(results);
  for (const Claim& c : claims) EXPECT_FALSE(c.known_deviation) << c.text;
  return claims;
}

TEST(FigureClaims, TableListsEachFigureOnce) {
  EXPECT_EQ(Figures().size(), 20u);
  for (const Figure& f : Figures()) EXPECT_EQ(FindFigure(f.name), &f);
  EXPECT_EQ(FindFigure("fig02"), nullptr);
}

TEST(FigureClaims, KnownDeviationThatHoldsIsUnexpected) {
  EXPECT_TRUE((Claim{"c", true, "m"}).expected());
  EXPECT_FALSE((Claim{"c", false, "m"}).expected());
  EXPECT_TRUE((Claim{"c", false, "m", true}).expected());
  EXPECT_FALSE((Claim{"c", true, "m", true}).expected());
}

// Fig. 8's equal-share claims on Fig. 3's PFC-only run (DCQCN off).
TEST(FigureClaims, Fig08FairnessFailsWithoutDcqcn) {
  const std::vector<Claim> claims =
      ClaimsOn("fig08_dcqcn_fairness", RunFigure("fig03_pfc_unfairness"));
  ASSERT_EQ(claims.size(), 2u);
  for (const Claim& c : claims) {
    EXPECT_FALSE(c.holds) << c.text << "; measured " << c.measured;
  }
  EXPECT_NE(claims[1].text.find("Jain"), std::string::npos);
}

// Fig. 9's flat-victim claims on Fig. 4's PFC-only run.
TEST(FigureClaims, Fig09FlatVictimFailsWithoutDcqcn) {
  const std::vector<Claim> claims =
      ClaimsOn("fig09_dcqcn_victim", RunFigure("fig04_victim_flow"));
  ASSERT_EQ(claims.size(), 2u);
  for (const Claim& c : claims) {
    EXPECT_FALSE(c.holds) << c.text << "; measured " << c.measured;
  }
  EXPECT_NE(claims[1].text.find("flat"), std::string::npos);
}

// Fig. 15's pause-reduction claim when both arms run PFC only.
TEST(FigureClaims, Fig15PauseReductionFailsWhenBothArmsAreRaw) {
  const int16_t raw = CcPolicyIdByName("raw");
  const Results both_raw =
      RunMatrix({BenchmarkTrafficTrial("without_dcqcn", raw, 10, 20, 11),
                 BenchmarkTrafficTrial("with_dcqcn", raw, 10, 20, 11)});
  const std::vector<Claim> claims = ClaimsOn("fig15_pause_count", both_raw);
  ASSERT_EQ(claims.size(), 1u);
  EXPECT_FALSE(claims[0].holds) << claims[0].measured;
}

}  // namespace
}  // namespace bench
}  // namespace dcqcn
