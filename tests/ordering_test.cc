// Ordering and robustness invariants that the design document claims:
// PN's forced END strictly precedes its ack; repeated crashes during
// recovery still converge; Presumed Commit composes with the last-agent
// optimization.

#include <gtest/gtest.h>

#include "harness/cluster.h"

namespace tpc {
namespace {

using harness::Cluster;
using harness::NodeOptions;
using tm::Outcome;
using tm::ProtocolKind;

void Writer(Cluster& c, const std::string& node) {
  c.tm(node).SetAppDataHandler(
      [&c, node](uint64_t txn, const net::NodeId&, std::string_view) {
        c.tm(node).Write(txn, 0, node + "_key", "v",
                         [](Status st) { ASSERT_TRUE(st.ok()); });
      });
}

// --- PN: END is forced before the ack leaves --------------------------------

TEST(PnOrderingTest, EndForcedStrictlyBeforeAckSent) {
  Cluster c;
  NodeOptions options;
  options.tm.protocol = ProtocolKind::kPresumedNothing;
  c.AddNode("coord", options);
  c.AddNode("sub", options);
  c.Connect("coord", "sub");
  Writer(c, "sub");
  uint64_t txn = c.tm("coord").Begin();
  c.tm("coord").Write(txn, 0, "k", "v", [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  ASSERT_TRUE(c.tm("coord").SendWork(txn, "sub").ok());
  c.RunFor(sim::kSecond);
  auto commit = c.CommitAndWait("coord", txn);
  ASSERT_TRUE(commit.completed);
  c.RunFor(sim::kSecond);

  // Find the sub's END force and its ACK send in the trace: the END force
  // must complete no later than the ACK leaves (PN's "never re-ask after
  // acking" requirement — DESIGN.md §3).
  sim::Time end_forced_at = -1;
  sim::Time ack_sent_at = -1;
  for (const auto& entry : c.ctx().trace().entries()) {
    if (entry.txn != txn) continue;
    if (entry.kind == sim::TraceKind::kLogForce && entry.node == "sub" &&
        entry.detail == "tm.end") {
      end_forced_at = entry.at;
    }
    if (entry.kind == sim::TraceKind::kSend && entry.node == "sub" &&
        entry.detail.find("ACK") != std::string::npos) {
      ack_sent_at = entry.at;
    }
  }
  ASSERT_GE(end_forced_at, 0) << "PN subordinate never forced its END";
  ASSERT_GE(ack_sent_at, 0) << "PN subordinate never acked";
  // The force *request* is traced at append time; the ack goes out only
  // from the force-completion callback, i.e. after the device delay.
  EXPECT_GE(ack_sent_at, end_forced_at + 2 * sim::kMillisecond);
}

TEST(PaOrderingTest, AckPrecedesNonForcedEnd) {
  // The contrast: PA's END is non-forced and written after the ack — one
  // fewer force on the subordinate's critical path.
  Cluster c;
  c.AddNode("coord", {});
  c.AddNode("sub", {});
  c.Connect("coord", "sub");
  Writer(c, "sub");
  uint64_t txn = c.tm("coord").Begin();
  c.tm("coord").Write(txn, 0, "k", "v", [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  ASSERT_TRUE(c.tm("coord").SendWork(txn, "sub").ok());
  c.RunFor(sim::kSecond);
  auto commit = c.CommitAndWait("coord", txn);
  ASSERT_TRUE(commit.completed);
  c.RunFor(sim::kSecond);

  bool end_seen_forced = false;
  for (const auto& entry : c.ctx().trace().entries()) {
    if (entry.txn == txn && entry.node == "sub" &&
        entry.detail == "tm.end" &&
        entry.kind == sim::TraceKind::kLogForce) {
      end_seen_forced = true;
    }
  }
  EXPECT_FALSE(end_seen_forced);
}

// --- Repeated crashes during recovery -----------------------------------------

TEST(DoubleCrashTest, CrashDuringRecoveryStillConverges) {
  Cluster c;
  NodeOptions options;
  options.tm.inquiry_delay = 5 * sim::kSecond;
  c.AddNode("coord", options);
  c.AddNode("sub", options);
  c.Connect("coord", "sub");
  Writer(c, "sub");
  uint64_t txn = c.tm("coord").Begin();
  c.tm("coord").Write(txn, 0, "k", "v", [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  ASSERT_TRUE(c.tm("coord").SendWork(txn, "sub").ok());
  c.RunFor(sim::kSecond);

  c.ctx().failures().ArmCrash("coord", "root.after_commit_force");
  auto commit = c.StartCommit("coord", txn);
  c.RunFor(10 * sim::kSecond);
  ASSERT_EQ(c.ctx().failures().node_epoch("coord"), 1);  // the crash fired
  // First recovery attempt; crash again mid-recovery, twice.
  for (int i = 0; i < 2; ++i) {
    c.node("coord").Restart();
    c.RunFor(50 * sim::kMillisecond);  // recovery just began resending
    c.ctx().failures().CrashNow("coord");
    c.RunFor(5 * sim::kSecond);
  }
  c.node("coord").Restart();
  c.RunFor(300 * sim::kSecond);

  EXPECT_EQ(c.tm("coord").View(txn).outcome, Outcome::kCommitted);
  EXPECT_EQ(c.tm("sub").View(txn).outcome, Outcome::kCommitted);
  EXPECT_EQ(c.node("coord").rm().Peek("k").value_or(""), "v");
  EXPECT_EQ(c.node("sub").rm().Peek("sub_key").value_or(""), "v");
  EXPECT_TRUE(c.Audit(txn).consistent);
}

TEST(DoubleCrashTest, BothSidesCrashRepeatedlyAndConverge) {
  Cluster c;
  NodeOptions options;
  options.tm.inquiry_delay = 5 * sim::kSecond;
  options.tm.recovery_retry_interval = 10 * sim::kSecond;
  c.AddNode("coord", options);
  c.AddNode("sub", options);
  c.Connect("coord", "sub");
  Writer(c, "sub");
  uint64_t txn = c.tm("coord").Begin();
  c.tm("coord").Write(txn, 0, "k", "v", [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  ASSERT_TRUE(c.tm("coord").SendWork(txn, "sub").ok());
  c.RunFor(sim::kSecond);

  // The coordinator crashes the instant its commit record is durable (the
  // Commit message never leaves); the in-doubt subordinate then crashes
  // too, twice, before anyone recovers fully.
  c.ctx().failures().ArmCrash("coord", "root.after_commit_force");
  auto commit = c.StartCommit("coord", txn);
  c.RunFor(10 * sim::kSecond);
  ASSERT_EQ(c.ctx().failures().node_epoch("coord"), 1);  // the crash fired
  ASSERT_FALSE(c.tm("coord").IsUp());
  ASSERT_EQ(c.tm("sub").InDoubtCount(), 1u);
  c.ctx().failures().CrashNow("sub");
  c.RunFor(2 * sim::kSecond);
  c.node("sub").Restart();  // recovers in doubt, starts inquiring
  c.RunFor(7 * sim::kSecond);
  c.ctx().failures().CrashNow("sub");  // ...and dies again mid-inquiry
  c.RunFor(2 * sim::kSecond);
  c.node("sub").Restart();
  c.node("coord").Restart();
  c.RunFor(300 * sim::kSecond);

  EXPECT_TRUE(c.Audit(txn).consistent);
  EXPECT_FALSE(c.Audit(txn).any_in_doubt);
  // The coordinator's commit record was forced before its crash, so the
  // outcome is commit everywhere.
  EXPECT_EQ(c.tm("sub").View(txn).outcome, Outcome::kCommitted);
  EXPECT_EQ(c.node("sub").rm().Peek("sub_key").value_or(""), "v");
}

// --- Presumed Commit composes with last agent -----------------------------------

TEST(PcLastAgentTest, DelegatedDecisionUnderPc) {
  Cluster c;
  NodeOptions options;
  options.tm.protocol = ProtocolKind::kPresumedCommit;
  options.tm.last_agent_opt = true;
  c.AddNode("coord", options);
  c.AddNode("sub", options);
  c.Connect("coord", "sub", {.last_agent_candidate = true}, {});
  Writer(c, "sub");
  uint64_t txn = c.tm("coord").Begin();
  c.tm("coord").Write(txn, 0, "k", "v", [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  ASSERT_TRUE(c.tm("coord").SendWork(txn, "sub").ok());
  c.RunFor(sim::kSecond);
  auto commit = c.CommitAndWait("coord", txn);
  c.RunFor(sim::kSecond);
  ASSERT_TRUE(commit.completed);
  EXPECT_EQ(commit.result.outcome, Outcome::kCommitted);
  EXPECT_EQ(c.node("sub").rm().Peek("sub_key").value_or(""), "v");
  EXPECT_EQ(c.node("coord").rm().Peek("k").value_or(""), "v");
  EXPECT_TRUE(c.Audit(txn).consistent);
  // Still two flows: the delegation vote and the decision.
  EXPECT_EQ(c.TotalCost(txn).flows_sent, 2u);

  // And the PC safety net behind it: crash the initiator after everything;
  // its (non-forced under PC) commit record may be gone, and recovery must
  // still converge to commit via the last agent / presumption.
  c.ctx().failures().CrashNow("coord");
  c.node("coord").Restart();
  c.RunFor(120 * sim::kSecond);
  EXPECT_EQ(c.node("coord").rm().Peek("k").value_or(""), "v");
  EXPECT_TRUE(c.Audit(txn).consistent);
}

}  // namespace
}  // namespace tpc
