// Crash, recovery, blocking, and heuristic-decision behavior — the
// reliability half of the paper's analysis. Every scenario checks both the
// protocol outcome and the data effects rebuilt from the log.

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

void SubWritesOnData(Cluster& c, const std::string& node) {
  c.tm(node).SetAppDataHandler(
      [&c, node](uint64_t txn, const net::NodeId&, std::string_view) {
        c.tm(node).Write(txn, 0, node + "_key", "v",
                         [](Status st) { ASSERT_TRUE(st.ok()); });
      });
}

// Sets up coordinator+subordinate with work on both, returns txn id.
uint64_t SetupTwoNodeWork(Cluster& c) {
  SubWritesOnData(c, "sub");
  uint64_t txn = c.tm("coord").Begin();
  c.tm("coord").Write(txn, 0, "coord_key", "v", [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  EXPECT_TRUE(c.tm("coord").SendWork(txn, "sub").ok());
  c.RunFor(sim::kSecond);
  return txn;
}

// --- Subordinate crashes while in doubt -------------------------------------

TEST(RecoveryTest, PaSubordinateCrashInDoubtRecoversCommitViaInquiry) {
  Cluster c;
  c.AddNode("coord", Options(ProtocolKind::kPresumedAbort));
  c.AddNode("sub", Options(ProtocolKind::kPresumedAbort));
  c.Connect("coord", "sub");
  uint64_t txn = SetupTwoNodeWork(c);

  // The subordinate crashes right after its prepared record is durable
  // (its YES vote is never sent).
  c.ctx().failures().ArmCrash("sub", "sub.after_prepared_force");
  bool completed = false;
  tm::CommitResult result;
  c.tm("coord").Commit(txn, [&](tm::CommitResult r) {
    completed = true;
    result = r;
  });
  c.RunFor(5 * sim::kSecond);
  ASSERT_EQ(c.ctx().failures().node_epoch("sub"), 1);  // the crash fired
  EXPECT_FALSE(completed);  // coordinator is waiting for the vote

  // The subordinate restarts; its recovery inquiry finds a coordinator
  // that has not decided -> it stays in doubt; the coordinator's vote
  // timeout then aborts, and the next inquiry resolves abort.
  c.node("sub").Restart();
  c.RunFor(60 * sim::kSecond);
  EXPECT_TRUE(completed);
  EXPECT_EQ(result.outcome, Outcome::kAborted);
  harness::TxnAudit audit = c.Audit(txn);
  EXPECT_TRUE(audit.consistent);
  // Both sides undid the work.
  EXPECT_TRUE(c.node("coord").rm().Peek("coord_key").status().IsNotFound());
  EXPECT_TRUE(c.node("sub").rm().Peek("sub_key").status().IsNotFound());
}

TEST(RecoveryTest, PaSubordinateCrashAfterVoteLearnsCommitOnRestart) {
  Cluster c;
  c.AddNode("coord", Options(ProtocolKind::kPresumedAbort));
  c.AddNode("sub", Options(ProtocolKind::kPresumedAbort));
  c.Connect("coord", "sub");
  // 5ms link: Prepare lands at 5ms, the sub's two forces finish by ~9ms,
  // the vote lands at ~14ms, and the Commit lands at ~21ms — so a crash at
  // 12ms is strictly between "vote sent" and "Commit received".
  c.network().SetLinkLatency("coord", "sub", 5 * sim::kMillisecond);
  uint64_t txn = SetupTwoNodeWork(c);

  // Crash the subordinate after its vote is sent but before the Commit
  // message arrives.
  bool completed = false;
  tm::CommitResult result;
  c.tm("coord").Commit(txn, [&](tm::CommitResult r) {
    completed = true;
    result = r;
  });
  c.ctx().events().ScheduleAt(c.ctx().now() + 12 * sim::kMillisecond,
                              [&c] { c.ctx().failures().CrashNow("sub"); });
  c.RunFor(5 * sim::kSecond);
  EXPECT_FALSE(completed);  // ack outstanding; coordinator keeps retrying

  c.node("sub").Restart();
  // On restart the sub is in doubt and inquires; the coordinator replies
  // committed; the retried Commit also lands. Either path resolves.
  c.RunFor(60 * sim::kSecond);
  EXPECT_TRUE(completed);
  EXPECT_EQ(result.outcome, Outcome::kCommitted);
  EXPECT_EQ(c.node("sub").rm().Peek("sub_key").value_or(""), "v");
  EXPECT_EQ(c.node("coord").rm().Peek("coord_key").value_or(""), "v");
  EXPECT_TRUE(c.Audit(txn).consistent);
}

// --- Coordinator crashes ------------------------------------------------------

TEST(RecoveryTest, PaCoordinatorCrashBeforeDecisionPresumesAbort) {
  Cluster c;
  NodeOptions sub_options = Options(ProtocolKind::kPresumedAbort);
  sub_options.tm.inquiry_delay = 3 * sim::kSecond;
  c.AddNode("coord", Options(ProtocolKind::kPresumedAbort));
  c.AddNode("sub", sub_options);
  c.Connect("coord", "sub");
  uint64_t txn = SetupTwoNodeWork(c);

  // Coordinator crashes the moment all votes are in, before logging the
  // decision: there is no trace of the transaction at the coordinator.
  bool completed = false;
  c.tm("coord").Commit(txn, [&](tm::CommitResult) { completed = true; });
  c.ctx().events().ScheduleAt(c.ctx().now() + 4 * sim::kMillisecond,
                              [&c] { c.ctx().failures().CrashNow("coord"); });
  c.RunFor(sim::kSecond);
  EXPECT_FALSE(completed);
  EXPECT_EQ(c.tm("sub").InDoubtCount(), 1u);

  // Coordinator restarts with no record; the subordinate's inquiry gets
  // the presumed-abort answer and unblocks.
  c.node("coord").Restart();
  c.RunFor(30 * sim::kSecond);
  EXPECT_EQ(c.tm("sub").InDoubtCount(), 0u);
  EXPECT_EQ(c.tm("sub").View(txn).outcome, Outcome::kAborted);
  EXPECT_TRUE(c.node("sub").rm().Peek("sub_key").status().IsNotFound());
}

TEST(RecoveryTest, Basic2pcCoordinatorCrashBeforeDecisionBlocksSubordinate) {
  // The blocking weakness that motivates PA/PN: with no presumption, the
  // subordinate stays in doubt indefinitely holding its locks.
  Cluster c;
  NodeOptions sub_options = Options(ProtocolKind::kBasic2PC);
  sub_options.tm.inquiry_delay = 3 * sim::kSecond;
  c.AddNode("coord", Options(ProtocolKind::kBasic2PC));
  c.AddNode("sub", sub_options);
  c.Connect("coord", "sub");
  uint64_t txn = SetupTwoNodeWork(c);

  bool completed = false;
  c.tm("coord").Commit(txn, [&](tm::CommitResult) { completed = true; });
  c.ctx().events().ScheduleAt(c.ctx().now() + 4 * sim::kMillisecond,
                              [&c] { c.ctx().failures().CrashNow("coord"); });
  c.RunFor(sim::kSecond);
  c.node("coord").Restart();
  c.RunFor(10 * 60 * sim::kSecond);  // ten minutes of inquiries

  // Still blocked: inquiries keep answering "unknown".
  EXPECT_EQ(c.tm("sub").InDoubtCount(), 1u);
  EXPECT_EQ(c.tm("sub").View(txn).outcome, Outcome::kInDoubt);
  // And the subordinate's locks are still held: a new writer blocks.
  bool granted = false;
  uint64_t txn2 = c.tm("sub").Begin();
  c.tm("sub").Write(txn2, 0, "sub_key", "other",
                    [&](Status st) { granted = st.ok(); });
  c.RunFor(sim::kSecond);
  EXPECT_FALSE(granted);
}

TEST(RecoveryTest, PaCoordinatorCrashAfterCommitForceResendsOnRestart) {
  Cluster c;
  c.AddNode("coord", Options(ProtocolKind::kPresumedAbort));
  c.AddNode("sub", Options(ProtocolKind::kPresumedAbort));
  c.Connect("coord", "sub");
  uint64_t txn = SetupTwoNodeWork(c);

  c.ctx().failures().ArmCrash("coord", "root.after_commit_force");
  bool completed = false;
  c.tm("coord").Commit(txn, [&](tm::CommitResult) { completed = true; });
  c.RunFor(5 * sim::kSecond);
  ASSERT_EQ(c.ctx().failures().node_epoch("coord"), 1);  // the crash fired
  EXPECT_FALSE(completed);  // crashed mid-commit; app callback lost
  EXPECT_EQ(c.tm("sub").InDoubtCount(), 1u);

  c.node("coord").Restart();
  c.RunFor(60 * sim::kSecond);
  // Recovery re-sent the Commit; the whole tree is committed.
  EXPECT_EQ(c.tm("sub").View(txn).outcome, Outcome::kCommitted);
  EXPECT_EQ(c.tm("coord").View(txn).outcome, Outcome::kCommitted);
  EXPECT_EQ(c.node("sub").rm().Peek("sub_key").value_or(""), "v");
  // The coordinator's own RM redid its update from the log.
  EXPECT_EQ(c.node("coord").rm().Peek("coord_key").value_or(""), "v");
  EXPECT_TRUE(c.Audit(txn).consistent);
}

TEST(RecoveryTest, PnCoordinatorCrashBeforeDecisionDrivesAbort) {
  // PN's commit-pending record makes the coordinator responsible for
  // driving recovery: after the crash it aborts the subordinates itself —
  // no subordinate inquiry exists under PN.
  Cluster c;
  c.AddNode("coord", Options(ProtocolKind::kPresumedNothing));
  c.AddNode("sub", Options(ProtocolKind::kPresumedNothing));
  c.Connect("coord", "sub");
  uint64_t txn = SetupTwoNodeWork(c);

  bool completed = false;
  c.tm("coord").Commit(txn, [&](tm::CommitResult) { completed = true; });
  // Crash after commit-pending + prepares are out but before the decision:
  // commit-pending force (2ms) + prepare flight (1ms) + sub force (2ms)...
  // crash at 4ms: votes still in flight.
  c.ctx().events().ScheduleAt(c.ctx().now() + 4 * sim::kMillisecond,
                              [&c] { c.ctx().failures().CrashNow("coord"); });
  c.RunFor(sim::kSecond);
  EXPECT_EQ(c.tm("sub").InDoubtCount(), 1u);

  c.node("coord").Restart();
  c.RunFor(60 * sim::kSecond);
  EXPECT_EQ(c.tm("sub").InDoubtCount(), 0u);
  EXPECT_EQ(c.tm("sub").View(txn).outcome, Outcome::kAborted);
  EXPECT_TRUE(c.node("sub").rm().Peek("sub_key").status().IsNotFound());
  EXPECT_TRUE(c.Audit(txn).consistent);
}

// --- Data effects across crashes ------------------------------------------------

TEST(RecoveryTest, CommittedDataSurvivesCrashViaRedo) {
  Cluster c;
  c.AddNode("coord", Options(ProtocolKind::kPresumedAbort));
  c.AddNode("sub", Options(ProtocolKind::kPresumedAbort));
  c.Connect("coord", "sub");
  uint64_t txn = SetupTwoNodeWork(c);
  auto commit = c.CommitAndWait("coord", txn);
  ASSERT_TRUE(commit.completed);
  c.RunFor(sim::kSecond);

  // Crash both nodes; everything volatile is gone.
  c.ctx().failures().CrashNow("coord");
  c.ctx().failures().CrashNow("sub");
  c.node("coord").Restart();
  c.node("sub").Restart();
  c.RunFor(sim::kSecond);

  EXPECT_EQ(c.node("coord").rm().Peek("coord_key").value_or(""), "v");
  EXPECT_EQ(c.node("sub").rm().Peek("sub_key").value_or(""), "v");
}

TEST(RecoveryTest, UncommittedDataVanishesOnCrash) {
  Cluster c;
  c.AddNode("coord", Options(ProtocolKind::kPresumedAbort));
  c.AddNode("sub", Options(ProtocolKind::kPresumedAbort));
  c.Connect("coord", "sub");
  uint64_t txn = SetupTwoNodeWork(c);
  (void)txn;

  // No commit: updates are volatile (update records were never forced).
  c.ctx().failures().CrashNow("coord");
  c.node("coord").Restart();
  c.RunFor(sim::kSecond);
  EXPECT_TRUE(c.node("coord").rm().Peek("coord_key").status().IsNotFound());
}

// --- Heuristic decisions ----------------------------------------------------------

struct HeuristicRun {
  std::unique_ptr<Cluster> cluster;
  uint64_t txn = 0;
  bool completed = false;
  tm::CommitResult result;
};

// The subordinate heuristically commits/aborts while the coordinator is
// down; the coordinator then recovers and commits. If the heuristic was
// abort, damage occurred.
HeuristicRun RunHeuristicScenario(ProtocolKind protocol,
                                  HeuristicPolicy policy) {
  HeuristicRun run;
  run.cluster = std::make_unique<Cluster>();
  Cluster& c = *run.cluster;
  NodeOptions sub_options = Options(protocol);
  sub_options.tm.heuristic_policy = policy;
  sub_options.tm.heuristic_delay = 20 * sim::kSecond;
  sub_options.tm.inquiry_delay = 500 * sim::kSecond;  // heuristic fires first
  NodeOptions coord_options = Options(protocol);
  c.AddNode("coord", coord_options);
  c.AddNode("sub", sub_options);
  c.Connect("coord", "sub");
  run.txn = SetupTwoNodeWork(c);

  // Coordinator crashes right after forcing the commit record: the
  // subordinate is in doubt and the decision is not coming.
  c.ctx().failures().ArmCrash("coord", "root.after_commit_force");
  c.tm("coord").Commit(run.txn, [&run](tm::CommitResult r) {
    run.completed = true;
    run.result = r;
  });
  c.RunFor(30 * sim::kSecond);  // heuristic fires at +20s
  EXPECT_EQ(c.ctx().failures().node_epoch("coord"), 1);  // the crash fired

  // Coordinator restarts and re-drives the commit; the subordinate
  // compares it with its heuristic decision.
  c.node("coord").Restart();
  c.RunFor(120 * sim::kSecond);
  return run;
}

TEST(HeuristicTest, HeuristicAbortAgainstCommitIsDamage) {
  HeuristicRun run = RunHeuristicScenario(ProtocolKind::kPresumedNothing,
                                          HeuristicPolicy::kAbort);
  Cluster& c = *run.cluster;
  // Ground truth: coordinator committed, subordinate heuristically aborted.
  EXPECT_EQ(c.tm("sub").View(run.txn).outcome, Outcome::kHeuristicAborted);
  EXPECT_EQ(c.tm("coord").View(run.txn).outcome, Outcome::kCommitted);
  harness::TxnAudit audit = c.Audit(run.txn);
  EXPECT_TRUE(audit.damage_ground_truth);
  EXPECT_TRUE(audit.any_heuristic);
  // PN reliably reports the damage to the coordinator.
  EXPECT_TRUE(c.tm("coord").View(run.txn).damage_reported_here);
  // Data diverged: that is what heuristic damage means.
  EXPECT_EQ(c.node("coord").rm().Peek("coord_key").value_or(""), "v");
  EXPECT_TRUE(c.node("sub").rm().Peek("sub_key").status().IsNotFound());
}

TEST(HeuristicTest, HeuristicCommitMatchingOutcomeIsNotDamage) {
  HeuristicRun run = RunHeuristicScenario(ProtocolKind::kPresumedNothing,
                                          HeuristicPolicy::kCommit);
  Cluster& c = *run.cluster;
  EXPECT_EQ(c.tm("sub").View(run.txn).outcome, Outcome::kHeuristicCommitted);
  harness::TxnAudit audit = c.Audit(run.txn);
  EXPECT_FALSE(audit.damage_ground_truth);
  EXPECT_TRUE(audit.any_heuristic);
  EXPECT_FALSE(c.tm("coord").View(run.txn).damage_reported_here);
  // Both sides have the committed data.
  EXPECT_EQ(c.node("sub").rm().Peek("sub_key").value_or(""), "v");
}

TEST(HeuristicTest, HeuristicLocksAreReleased) {
  // The whole point of a heuristic decision: stop holding valuable locks.
  Cluster c;
  NodeOptions sub_options = Options(ProtocolKind::kPresumedNothing);
  sub_options.tm.heuristic_policy = HeuristicPolicy::kAbort;
  sub_options.tm.heuristic_delay = 20 * sim::kSecond;
  // The probe below must outwait the heuristic, not hit its own deadlock
  // timeout first.
  sub_options.rm_options.lock_timeout = 300 * sim::kSecond;
  c.AddNode("coord", Options(ProtocolKind::kPresumedNothing));
  c.AddNode("sub", sub_options);
  c.Connect("coord", "sub");
  uint64_t txn = SetupTwoNodeWork(c);

  c.ctx().failures().ArmCrash("coord", "root.after_commit_force");
  c.tm("coord").Commit(txn, [](tm::CommitResult) {});
  c.RunFor(10 * sim::kSecond);
  ASSERT_EQ(c.ctx().failures().node_epoch("coord"), 1);  // the crash fired

  // Before the heuristic fires, the lock is held.
  bool granted = false;
  uint64_t probe = c.tm("sub").Begin();
  c.tm("sub").Write(probe, 0, "sub_key", "probe",
                    [&](Status st) { granted = st.ok(); });
  c.RunFor(sim::kSecond);
  EXPECT_FALSE(granted);

  c.RunFor(30 * sim::kSecond);  // heuristic fires at +20s; waiter unblocks
  EXPECT_TRUE(granted);
}

}  // namespace
}  // namespace tpc
