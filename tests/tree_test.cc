// Multi-level commit trees: cascaded coordinators, damage-report
// propagation differences between PA and PN, the two-initiator (Figure 5)
// hazard, and the wait-for-outcome optimization.

#include <gtest/gtest.h>

#include "harness/cluster.h"

namespace tpc {
namespace {

using harness::Cluster;
using harness::NodeOptions;
using tm::HeuristicPolicy;
using tm::Outcome;
using tm::ProtocolKind;

NodeOptions Options(ProtocolKind protocol) {
  NodeOptions options;
  options.tm.protocol = protocol;
  return options;
}

// Builds root -> mid -> leaf, with updates everywhere, ready to commit.
uint64_t SetupChain(Cluster& c) {
  c.tm("mid").SetAppDataHandler(
      [&c](uint64_t txn, const net::NodeId& from, std::string_view) {
        if (from != "root") return;
        c.tm("mid").Write(txn, 0, "mid_key", "v",
                          [](Status st) { ASSERT_TRUE(st.ok()); });
        ASSERT_TRUE(c.tm("mid").SendWork(txn, "leaf").ok());
      });
  c.tm("leaf").SetAppDataHandler(
      [&c](uint64_t txn, const net::NodeId&, std::string_view) {
        c.tm("leaf").Write(txn, 0, "leaf_key", "v",
                           [](Status st) { ASSERT_TRUE(st.ok()); });
      });
  uint64_t txn = c.tm("root").Begin();
  c.tm("root").Write(txn, 0, "root_key", "v", [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  EXPECT_TRUE(c.tm("root").SendWork(txn, "mid").ok());
  c.RunFor(sim::kSecond);
  return txn;
}

class ChainCommitTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ChainCommitTest, CascadedCoordinatorPropagatesBothPhases) {
  Cluster c;
  c.AddNode("root", Options(GetParam()));
  c.AddNode("mid", Options(GetParam()));
  c.AddNode("leaf", Options(GetParam()));
  c.Connect("root", "mid");
  c.Connect("mid", "leaf");
  uint64_t txn = SetupChain(c);

  auto commit = c.CommitAndWait("root", txn);
  c.RunFor(sim::kSecond);
  ASSERT_TRUE(commit.completed);
  EXPECT_EQ(commit.result.outcome, Outcome::kCommitted);
  for (const char* node : {"root", "mid", "leaf"}) {
    EXPECT_EQ(c.tm(node).View(txn).outcome, Outcome::kCommitted) << node;
  }
  EXPECT_EQ(c.node("leaf").rm().Peek("leaf_key").value_or(""), "v");
  EXPECT_EQ(c.node("mid").rm().Peek("mid_key").value_or(""), "v");
  EXPECT_TRUE(c.Audit(txn).consistent);
  // All control blocks retired.
  EXPECT_FALSE(c.tm("root").Knows(txn));
  EXPECT_FALSE(c.tm("mid").Knows(txn));
  EXPECT_FALSE(c.tm("leaf").Knows(txn));
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ChainCommitTest,
                         ::testing::Values(ProtocolKind::kBasic2PC,
                                           ProtocolKind::kPresumedAbort,
                                           ProtocolKind::kPresumedNothing));

TEST(ChainAccountingTest, ThreeNodeChainMatchesTable3Formulas) {
  // n = 3 participants: 4(n-1) = 8 flows, 3n-1 = 8 writes, 2n-1 = 5 forced.
  Cluster c;
  c.AddNode("root", Options(ProtocolKind::kPresumedAbort));
  c.AddNode("mid", Options(ProtocolKind::kPresumedAbort));
  c.AddNode("leaf", Options(ProtocolKind::kPresumedAbort));
  c.Connect("root", "mid");
  c.Connect("mid", "leaf");
  uint64_t txn = SetupChain(c);
  auto commit = c.CommitAndWait("root", txn);
  c.RunFor(sim::kSecond);
  ASSERT_TRUE(commit.completed);

  tm::TxnCost total = c.TotalCost(txn);
  EXPECT_EQ(total.flows_sent, 8u);
  EXPECT_EQ(total.tm_log_writes, 8u);
  EXPECT_EQ(total.tm_log_forced, 5u);
}

// --- Damage reporting: PA vs PN -----------------------------------------------

// Leaf heuristically aborts while mid is down; the transaction commits.
// Under PN the damage report reaches the root; under PA it stops at mid.
struct DamageRun {
  std::unique_ptr<Cluster> cluster;
  uint64_t txn = 0;
  bool completed = false;
  tm::CommitResult result;
};

DamageRun RunDamageScenario(ProtocolKind protocol) {
  DamageRun run;
  run.cluster = std::make_unique<Cluster>();
  Cluster& c = *run.cluster;
  NodeOptions leaf_options = Options(protocol);
  leaf_options.tm.heuristic_policy = HeuristicPolicy::kAbort;
  leaf_options.tm.heuristic_delay = 20 * sim::kSecond;
  leaf_options.tm.inquiry_delay = 500 * sim::kSecond;
  c.AddNode("root", Options(protocol));
  c.AddNode("mid", Options(protocol));
  c.AddNode("leaf", leaf_options);
  c.Connect("root", "mid");
  c.Connect("mid", "leaf");
  run.txn = SetupChain(c);

  // Mid crashes right after forcing its commit record: the leaf is in
  // doubt, takes its heuristic abort at +20s, and the overall transaction
  // commits when mid recovers and re-drives.
  c.ctx().failures().ArmCrash("mid", "casc.after_commit_force");
  c.tm("root").Commit(run.txn, [&run](tm::CommitResult r) {
    run.completed = true;
    run.result = r;
  });
  c.RunFor(40 * sim::kSecond);
  EXPECT_EQ(c.ctx().failures().node_epoch("mid"), 1);  // the crash fired
  c.node("mid").Restart();
  c.RunFor(200 * sim::kSecond);
  return run;
}

TEST(DamageReportingTest, PnReportsDamageToRoot) {
  DamageRun run = RunDamageScenario(ProtocolKind::kPresumedNothing);
  Cluster& c = *run.cluster;
  ASSERT_TRUE(run.completed);
  EXPECT_EQ(run.result.outcome, Outcome::kCommitted);
  // Ground truth: damage happened.
  EXPECT_TRUE(c.Audit(run.txn).damage_ground_truth);
  // PN: the root was told.
  EXPECT_TRUE(run.result.heuristic_damage ||
              c.tm("root").View(run.txn).damage_reported_here);
}

TEST(DamageReportingTest, PaStopsDamageReportAtImmediateCoordinator) {
  DamageRun run = RunDamageScenario(ProtocolKind::kPresumedAbort);
  Cluster& c = *run.cluster;
  ASSERT_TRUE(run.completed);
  EXPECT_EQ(run.result.outcome, Outcome::kCommitted);
  // Ground truth: damage happened...
  EXPECT_TRUE(c.Audit(run.txn).damage_ground_truth);
  // ...but the root believes the transaction committed cleanly (the R*
  // behavior the paper criticizes for commercial use).
  EXPECT_FALSE(run.result.heuristic_damage);
  EXPECT_FALSE(c.tm("root").View(run.txn).damage_reported_here);
  // The report stopped at the immediate coordinator.
  EXPECT_TRUE(c.tm("mid").View(run.txn).damage_reported_here);
}

// --- Two initiators (the Figure 5 hazard class) ----------------------------------

TEST(TwoInitiatorsTest, ConcurrentInitiatorsAbortConsistently) {
  // Pd and Pe both initiate commit for the same distributed transaction
  // (the situation general leave-out would create): both trees must abort.
  Cluster c;
  for (const char* n : {"pd", "pa", "pe"})
    c.AddNode(n, Options(ProtocolKind::kPresumedNothing));
  c.Connect("pd", "pa");
  c.Connect("pa", "pe");

  // One shared transaction: pd works with pa, pe works with pa.
  uint64_t txn = c.tm("pd").Begin();
  c.tm("pd").Write(txn, 0, "d", "v", [](Status st) { ASSERT_TRUE(st.ok()); });
  ASSERT_TRUE(c.tm("pd").SendWork(txn, "pa").ok());
  c.RunFor(sim::kSecond);
  c.tm("pe").Write(txn, 0, "e", "v", [](Status st) { ASSERT_TRUE(st.ok()); });
  ASSERT_TRUE(c.tm("pe").SendWork(txn, "pa").ok());
  c.RunFor(sim::kSecond);

  bool pd_done = false, pe_done = false;
  tm::CommitResult pd_result, pe_result;
  c.tm("pd").Commit(txn, [&](tm::CommitResult r) {
    pd_done = true;
    pd_result = r;
  });
  c.tm("pe").Commit(txn, [&](tm::CommitResult r) {
    pe_done = true;
    pe_result = r;
  });
  c.RunFor(60 * sim::kSecond);

  ASSERT_TRUE(pd_done);
  ASSERT_TRUE(pe_done);
  EXPECT_EQ(pd_result.outcome, Outcome::kAborted);
  EXPECT_EQ(pe_result.outcome, Outcome::kAborted);
  EXPECT_TRUE(c.Audit(txn).consistent);
  EXPECT_TRUE(c.node("pd").rm().Peek("d").status().IsNotFound());
  EXPECT_TRUE(c.node("pe").rm().Peek("e").status().IsNotFound());
}

// --- Wait for outcome --------------------------------------------------------------

TEST(WaitForOutcomeTest, NonBlockingCommitReturnsPendingAndResolvesLater) {
  Cluster c;
  NodeOptions root_options = Options(ProtocolKind::kPresumedNothing);
  root_options.tm.wait_for_outcome_block = false;  // the optimization
  root_options.tm.ack_timeout = 2 * sim::kSecond;
  c.AddNode("root", root_options);
  c.AddNode("sub", Options(ProtocolKind::kPresumedNothing));
  c.Connect("root", "sub");
  c.tm("sub").SetAppDataHandler(
      [&c](uint64_t txn, const net::NodeId&, std::string_view) {
        c.tm("sub").Write(txn, 0, "s", "v",
                          [](Status st) { ASSERT_TRUE(st.ok()); });
      });
  uint64_t txn = c.tm("root").Begin();
  c.tm("root").Write(txn, 0, "r", "v", [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  ASSERT_TRUE(c.tm("root").SendWork(txn, "sub").ok());
  c.RunFor(sim::kSecond);

  // The sub crashes after committing (its ack never arrives).
  c.ctx().failures().ArmCrash("sub", "sub.after_commit_force");
  bool completed = false;
  tm::CommitResult result;
  c.tm("root").Commit(txn, [&](tm::CommitResult r) {
    completed = true;
    result = r;
  });
  // One attempt + one retry at 2s each, then the app gets control back.
  c.RunFor(10 * sim::kSecond);
  EXPECT_EQ(c.ctx().failures().node_epoch("sub"), 1);  // the crash fired
  ASSERT_TRUE(completed);
  EXPECT_EQ(result.outcome, Outcome::kCommitted);
  EXPECT_TRUE(result.outcome_pending);  // "recovery is in progress"

  // Background recovery finishes once the sub returns.
  c.node("sub").Restart();
  c.RunFor(120 * sim::kSecond);
  EXPECT_EQ(c.tm("sub").View(txn).outcome, Outcome::kCommitted);
  EXPECT_EQ(c.node("sub").rm().Peek("s").value_or(""), "v");
  EXPECT_TRUE(c.Audit(txn).consistent);
}

TEST(WaitForOutcomeTest, BlockingModeWaitsForRecovery) {
  Cluster c;
  NodeOptions root_options = Options(ProtocolKind::kPresumedNothing);
  root_options.tm.wait_for_outcome_block = true;  // classic late ack
  root_options.tm.ack_timeout = 2 * sim::kSecond;
  c.AddNode("root", root_options);
  c.AddNode("sub", Options(ProtocolKind::kPresumedNothing));
  c.Connect("root", "sub");
  c.tm("sub").SetAppDataHandler(
      [&c](uint64_t txn, const net::NodeId&, std::string_view) {
        c.tm("sub").Write(txn, 0, "s", "v",
                          [](Status st) { ASSERT_TRUE(st.ok()); });
      });
  uint64_t txn = c.tm("root").Begin();
  c.tm("root").Write(txn, 0, "r", "v", [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  ASSERT_TRUE(c.tm("root").SendWork(txn, "sub").ok());
  c.RunFor(sim::kSecond);

  c.ctx().failures().ArmCrash("sub", "sub.after_prepared_force");
  bool completed = false;
  c.tm("root").Commit(txn, [&](tm::CommitResult) { completed = true; });
  c.RunFor(60 * sim::kSecond);
  EXPECT_EQ(c.ctx().failures().node_epoch("sub"), 1);  // the crash fired
  EXPECT_FALSE(completed);  // blocked awaiting the crashed subordinate

  c.node("sub").Restart();
  c.RunFor(120 * sim::kSecond);
  EXPECT_TRUE(completed);
  EXPECT_TRUE(c.Audit(txn).consistent);
}

}  // namespace
}  // namespace tpc
