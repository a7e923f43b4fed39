// Pins the figure reproductions: each of the paper's eight figures renders
// with the expected cluster-total flows and log writes, and the Figure 5
// hazard resolves to a consistent abort. The fig_flows bench prints these;
// this test keeps them from drifting.

#include <gtest/gtest.h>

#include <cstdint>

#include "harness/scenarios.h"

namespace tpc {
namespace {

struct FigureExpectation {
  // Eight bytes wide so the struct has no padding: gtest prints the param's
  // raw bytes into the test name, and padding bytes would make that name
  // differ from run to run.
  std::int64_t figure;
  const char* totals;  // the "--- totals:" line the scenario must print
};

class FigureTest : public ::testing::TestWithParam<FigureExpectation> {};

TEST_P(FigureTest, TotalsMatchThePaper) {
  const FigureExpectation& expected = GetParam();
  std::string rendered =
      harness::RunFigureScenario(static_cast<int>(expected.figure));
  EXPECT_NE(rendered.find(expected.totals), std::string::npos)
      << "figure " << expected.figure << " rendered:\n"
      << rendered;
  // Every figure draws a sequence diagram.
  EXPECT_NE(rendered.find("time(ms)"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    AllFigures, FigureTest,
    ::testing::Values(
        // Basic 2PC, two participants: 4 flows; coordinator (2,1f) +
        // subordinate (3,2f).
        FigureExpectation{1, "totals: 4 flows, 5 TM log writes (3 forced)"},
        // Basic 2PC with a cascaded coordinator: Table 3's n=3 point.
        FigureExpectation{2, "totals: 8 flows, 8 TM log writes (5 forced)"},
        // PN chain: commit-pending at both coordinators, forced ENDs.
        FigureExpectation{3, "totals: 8 flows, 12 TM log writes (9 forced)"},
        // Partial read-only: the reader contributes 1 flow and no writes.
        FigureExpectation{4, "totals: 6 flows, 5 TM log writes (3 forced)"},
        // Two initiators (PN): both trees abort with explicit, forced,
        // acknowledged aborts.
        FigureExpectation{5, "totals: 16 flows, 10 TM log writes (6 forced)"},
        // Last agent: the whole commit in two flows.
        FigureExpectation{6, "totals: 2 flows, 5 TM log writes (3 forced)"},
        // Long locks: three flows; the ack rides the next transaction.
        FigureExpectation{7, "totals: 3 flows, 5 TM log writes (3 forced)"},
        // Vote reliable chain: both acks elided (8 - 2 = 6 flows).
        FigureExpectation{8, "totals: 6 flows, 8 TM log writes (5 forced)"}),
    [](const auto& info) {
      return "Figure" + std::to_string(info.param.figure);
    });

TEST(FigureTest, Figure5ResolvesConsistently) {
  std::string rendered = harness::RunFigureScenario(5);
  EXPECT_NE(rendered.find("outcome at pd: aborted, at pe: aborted "
                          "(consistent: yes)"),
            std::string::npos)
      << rendered;
}

TEST(FigureTest, UnknownFigureIsReported) {
  EXPECT_NE(harness::RunFigureScenario(99).find("unknown figure"),
            std::string::npos);
}

}  // namespace
}  // namespace tpc
