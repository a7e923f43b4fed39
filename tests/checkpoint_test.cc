// Checkpointing and log truncation: store snapshots supersede the log
// prefix, recovery replays only post-checkpoint records, and the safety
// preconditions hold.

#include <gtest/gtest.h>

#include <string>

#include "harness/cluster.h"

namespace tpc {
namespace {

using harness::Cluster;
using harness::NodeOptions;

void SubWritesOnData(Cluster& c, const std::string& node) {
  c.tm(node).SetAppDataHandler(
      [&c, node](uint64_t txn, const net::NodeId&, std::string_view v) {
        c.tm(node).Write(txn, 0, "k" + std::string(v), std::string(v),
                         [](Status st) { ASSERT_TRUE(st.ok()); });
      });
}

// Commits one two-node transaction writing key "k<v>" = v on both sides.
void CommitOne(Cluster& c, const std::string& v) {
  uint64_t txn = c.tm("a").Begin();
  c.tm("a").Write(txn, 0, "k" + v, v, [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  ASSERT_TRUE(c.tm("a").SendWork(txn, "b", v).ok());
  c.RunFor(100 * sim::kMillisecond);
  auto commit = c.CommitAndWait("a", txn);
  ASSERT_TRUE(commit.completed);
  ASSERT_EQ(commit.result.outcome, tm::Outcome::kCommitted);
  c.RunFor(100 * sim::kMillisecond);
}

TEST(CheckpointTest, StateSurvivesCrashViaSnapshotAlone) {
  Cluster c;
  c.AddNode("a", {});
  c.AddNode("b", {});
  c.Connect("a", "b");
  SubWritesOnData(c, "b");
  for (int i = 0; i < 5; ++i) CommitOne(c, std::to_string(i));

  bool done = false;
  ASSERT_TRUE(c.node("a").Checkpoint([&] { done = true; }).ok());
  c.RunFor(sim::kSecond);
  ASSERT_TRUE(done);

  // The pre-checkpoint log content is gone...
  EXPECT_GT(c.node("a").log().storage().base_offset(), 0u);
  // ...yet a crash+restart rebuilds the full store from the snapshot.
  c.ctx().failures().CrashNow("a");
  c.node("a").Restart();
  c.RunFor(sim::kSecond);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(c.node("a").rm().Peek("k" + std::to_string(i)).value_or(""),
              std::to_string(i));
  }
}

TEST(CheckpointTest, PostCheckpointTransactionsReplayOnTop) {
  Cluster c;
  c.AddNode("a", {});
  c.AddNode("b", {});
  c.Connect("a", "b");
  SubWritesOnData(c, "b");
  CommitOne(c, "old");

  bool done = false;
  ASSERT_TRUE(c.node("a").Checkpoint([&] { done = true; }).ok());
  c.RunFor(sim::kSecond);
  ASSERT_TRUE(done);

  CommitOne(c, "new");
  c.ctx().failures().CrashNow("a");
  c.node("a").Restart();
  c.RunFor(sim::kSecond);
  EXPECT_EQ(c.node("a").rm().Peek("kold").value_or(""), "old");
  EXPECT_EQ(c.node("a").rm().Peek("knew").value_or(""), "new");
}

TEST(CheckpointTest, RefusedWhileTransactionsInFlight) {
  Cluster c;
  c.AddNode("a", {});
  uint64_t txn = c.tm("a").Begin();
  c.tm("a").Write(txn, 0, "k", "v", [](Status st) { ASSERT_TRUE(st.ok()); });
  EXPECT_TRUE(c.node("a").Checkpoint(nullptr).IsFailedPrecondition());
  auto commit = c.CommitAndWait("a", txn);
  ASSERT_TRUE(commit.completed);
  c.RunFor(sim::kSecond);
  EXPECT_TRUE(c.node("a").Checkpoint(nullptr).ok());
}

// An acceptor-only paxos node runs no transaction of its own, yet the
// accept it forced for an undecided transaction lives only in its log.
// Repro: c0 crashes right after fanning out its vote, so a2 holds the
// accept; a checkpoint at a2 used to pass the in-flight check and discard
// the whole log (a2 has no RM to snapshot), and a crash then lost the
// forced accept.
TEST(CheckpointTest, RefusedWhileAcceptorHoldsLiveState) {
  Cluster c{1};
  NodeOptions base;
  base.tm.protocol = tm::ProtocolKind::kPaxosCommit;
  base.tm.acceptors = {"c0", "s1", "a2"};
  base.tm.vote_timeout = 5 * sim::kSecond;
  base.tm.inquiry_delay = 4 * sim::kSecond;
  for (const char* n : {"c0", "s1", "a2"}) {
    NodeOptions options = base;
    if (std::string(n) == "a2") options.num_rms = 0;
    c.AddNode(n, options);
  }
  c.Connect("c0", "s1");
  c.Connect("c0", "a2");
  c.Connect("s1", "a2");
  const uint64_t txn = c.tm("c0").Begin();
  c.tm("c0").Write(txn, 0, "k_c0", "v", [](Status) {});
  c.ctx().failures().ArmCrash("c0", "root.after_paxos_vote_send", 1);
  auto commit = c.StartCommit("c0", txn);
  c.RunFor(sim::kSecond);
  ASSERT_FALSE(c.tm("c0").IsUp());
  ASSERT_EQ(c.tm("a2").ActiveTxnCount(), 0u);
  ASSERT_EQ(c.tm("a2").AcceptorTxnCount(), 1u);

  EXPECT_TRUE(c.node("a2").Checkpoint(nullptr).IsFailedPrecondition());
  c.RunFor(sim::kSecond);
  c.ctx().failures().CrashNow("a2");
  c.node("a2").Restart();
  EXPECT_EQ(c.tm("a2").AcceptorTxnCount(), 1u);
}

TEST(CheckpointTest, RefusedOnSharedLogNodes) {
  Cluster c;
  c.AddNode("host", {});
  NodeOptions member_options;
  member_options.shared_log_host = "host";
  c.AddNode("member", member_options);
  EXPECT_TRUE(c.node("member").Checkpoint(nullptr).IsFailedPrecondition());
}

TEST(CheckpointTest, RepeatedCheckpointsKeepTruncating) {
  Cluster c;
  c.AddNode("a", {});
  c.AddNode("b", {});
  c.Connect("a", "b");
  SubWritesOnData(c, "b");
  uint64_t last_base = 0;
  for (int round = 0; round < 3; ++round) {
    CommitOne(c, "r" + std::to_string(round));
    bool done = false;
    ASSERT_TRUE(c.node("a").Checkpoint([&] { done = true; }).ok());
    c.RunFor(sim::kSecond);
    ASSERT_TRUE(done);
    uint64_t base = c.node("a").log().storage().base_offset();
    EXPECT_GT(base, last_base);
    last_base = base;
  }
  // Everything still recoverable.
  c.ctx().failures().CrashNow("a");
  c.node("a").Restart();
  c.RunFor(sim::kSecond);
  for (int round = 0; round < 3; ++round) {
    std::string v = "r" + std::to_string(round);
    EXPECT_EQ(c.node("a").rm().Peek("k" + v).value_or(""), v);
  }
}

TEST(CheckpointTest, MultipleRmsSnapshotTogether) {
  Cluster c;
  NodeOptions options;
  options.num_rms = 3;
  c.AddNode("a", options);
  uint64_t txn = c.tm("a").Begin();
  for (size_t i = 0; i < 3; ++i) {
    c.tm("a").Write(txn, i, "k", "v" + std::to_string(i),
                    [](Status st) { ASSERT_TRUE(st.ok()); });
  }
  auto commit = c.CommitAndWait("a", txn);
  ASSERT_TRUE(commit.completed);
  c.RunFor(sim::kSecond);

  bool done = false;
  ASSERT_TRUE(c.node("a").Checkpoint([&] { done = true; }).ok());
  c.RunFor(sim::kSecond);
  ASSERT_TRUE(done);
  c.ctx().failures().CrashNow("a");
  c.node("a").Restart();
  c.RunFor(sim::kSecond);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(c.node("a").rm(i).Peek("k").value_or(""),
              "v" + std::to_string(i));
  }
}

}  // namespace
}  // namespace tpc
