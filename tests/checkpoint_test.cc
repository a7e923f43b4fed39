// Checkpointing and log truncation: store snapshots supersede the log
// prefix, recovery replays only post-checkpoint records, and the safety
// preconditions hold.

#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <map>
#include <string>
#include <vector>

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

// A checkpoint no longer waits for quiescence: it copies the live state
// forward. Here both nodes checkpoint mid-transaction, and the subordinate
// checkpoints again while it is prepared and in doubt (the coordinator died
// right after its commit force). A crash and restart of the subordinate
// must keep the prepared transaction, and the coordinator's recovery then
// commits it on both sides.
TEST(CheckpointTest, SurvivesTransactionsInFlight) {
  Cluster c;
  c.AddNode("a", {});
  c.AddNode("b", {});
  c.Connect("a", "b");
  SubWritesOnData(c, "b");
  CommitOne(c, "old");
  const uint64_t txn = c.tm("a").Begin();
  c.tm("a").Write(txn, 0, "knew", "new", [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  ASSERT_TRUE(c.tm("a").SendWork(txn, "b", "new").ok());
  c.RunFor(100 * sim::kMillisecond);
  for (const char* n : {"a", "b"}) {
    ASSERT_GT(c.tm(n).ActiveTxnCount(), 0u);
    EXPECT_TRUE(c.node(n).Checkpoint(nullptr).ok());
  }
  sim::FailureInjector& fi = c.ctx().failures();
  fi.ArmCrash("a", "root.after_commit_force",
              static_cast<int>(fi.epoch_hits("a", "root.after_commit_force")) + 1);
  auto commit = c.StartCommit("a", txn);
  c.RunFor(sim::kSecond);
  ASSERT_FALSE(c.tm("a").IsUp());
  ASSERT_TRUE(c.node("b").rm().InDoubt(txn));

  bool done = false;
  ASSERT_TRUE(c.node("b").Checkpoint([&] { done = true; }).ok());
  c.RunFor(100 * sim::kMillisecond);
  ASSERT_TRUE(done);
  EXPECT_GT(c.node("b").log().storage().base_offset(), 0u);
  c.ctx().failures().CrashNow("b");
  c.node("b").Restart();
  EXPECT_TRUE(c.node("b").rm().InDoubt(txn));
  EXPECT_EQ(c.node("b").rm().Peek("kold").value_or(""), "old");
  EXPECT_FALSE(c.node("b").rm().Peek("knew").ok());

  c.node("a").Restart();
  c.RunFor(10 * sim::kSecond);
  for (const char* n : {"a", "b"}) {
    EXPECT_EQ(c.tm(n).View(txn).outcome, tm::Outcome::kCommitted) << n;
    EXPECT_EQ(c.node(n).rm().Peek("knew").value_or(""), "new") << n;
    EXPECT_EQ(c.node(n).rm().locks().HeldLockCount(), 0u) << n;
  }
  EXPECT_FALSE(commit->completed);  // the callback died with the crash
}

// A coordinator forgets an aborted transaction as soon as it appends the
// non-forced END. A checkpoint taken then drops the durable head of a
// transaction nobody tracks, while the buffered END stays past the
// truncation point; recovery reads an END with no decision as a commit.
// So the head of a transaction whose latest record is not yet durable is
// copied forward too.
TEST(CheckpointTest, BufferedEndKeepsItsDecision) {
  Cluster c;
  NodeOptions options;
  options.tm.protocol = tm::ProtocolKind::kPresumedNothing;
  c.AddNode("a", options);
  c.AddNode("b", options);
  c.Connect("a", "b");
  SubWritesOnData(c, "b");
  const uint64_t txn = c.tm("a").Begin();
  c.tm("a").Write(txn, 0, "ka", "v", [](Status st) { ASSERT_TRUE(st.ok()); });
  ASSERT_TRUE(c.tm("a").SendWork(txn, "b", "b").ok());
  c.RunFor(100 * sim::kMillisecond);
  c.node("b").rm().FailNextPrepare();
  auto commit = c.CommitAndWait("a", txn);
  ASSERT_TRUE(commit.completed);
  ASSERT_EQ(commit.result.outcome, tm::Outcome::kAborted);
  ASSERT_FALSE(c.tm("a").Knows(txn));
  ASSERT_LT(c.node("a").log().durable_lsn(), c.node("a").log().next_lsn());

  bool done = false;
  ASSERT_TRUE(c.node("a").Checkpoint([&] { done = true; }).ok());
  c.RunFor(100 * sim::kMillisecond);
  ASSERT_TRUE(done);
  c.ctx().failures().CrashNow("a");
  c.node("a").Restart();
  EXPECT_EQ(c.tm("a").View(txn).outcome, tm::Outcome::kAborted);
  EXPECT_FALSE(c.node("a").rm().Peek("ka").ok());
}

// An acceptor-only paxos node runs no transaction of its own, yet the
// accept it forced for an undecided transaction lives only in its log.
// c0 crashes right after fanning out its vote, so a2 holds the accept; a
// checkpoint at a2 (which has no RM to snapshot) must carry the accept
// across the truncation, so a crash of a2 keeps it, and the takeover after
// c0's restart ends the transaction the same way on both participants.
TEST(CheckpointTest, KeepsAcceptorStateThroughTruncation) {
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
  SubWritesOnData(c, "s1");
  const uint64_t txn = c.tm("c0").Begin();
  c.tm("c0").Write(txn, 0, "k_c0", "v", [](Status) {});
  ASSERT_TRUE(c.tm("c0").SendWork(txn, "s1", "_s1").ok());
  c.RunFor(100 * sim::kMillisecond);
  c.ctx().failures().ArmCrash("c0", "root.after_paxos_vote_send", 1);
  auto commit = c.StartCommit("c0", txn);
  c.RunFor(sim::kSecond);
  ASSERT_FALSE(c.tm("c0").IsUp());
  ASSERT_EQ(c.tm("a2").ActiveTxnCount(), 0u);
  ASSERT_EQ(c.tm("a2").AcceptorTxnCount(), 1u);

  bool done = false;
  ASSERT_TRUE(c.node("a2").Checkpoint([&] { done = true; }).ok());
  c.RunFor(sim::kSecond);
  ASSERT_TRUE(done);
  EXPECT_GT(c.node("a2").log().storage().base_offset(), 0u);
  c.ctx().failures().CrashNow("a2");
  c.node("a2").Restart();
  EXPECT_EQ(c.tm("a2").AcceptorTxnCount(), 1u);

  c.node("c0").Restart();
  c.RunFor(30 * sim::kSecond);
  const tm::Outcome outcome = c.tm("c0").View(txn).outcome;
  EXPECT_TRUE(outcome == tm::Outcome::kCommitted ||
              outcome == tm::Outcome::kAborted);
  EXPECT_EQ(c.tm("s1").View(txn).outcome, outcome);
  EXPECT_EQ(c.node("c0").rm().Peek("k_c0").ok(),
            outcome == tm::Outcome::kCommitted);
  EXPECT_EQ(c.node("s1").rm().Peek("k_s1").ok(),
            outcome == tm::Outcome::kCommitted);
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

// The paxos log stays bounded. Three nodes that are each other's acceptors
// run 300 transactions; every 10th loses s1's vote (s1 dies right after its
// RM's prepared record), which leaves the coordinator tracking the
// transaction, s2 in doubt and both acceptors holding it for good. Every 20
// transactions every node checkpoints: each call succeeds, the retained log
// stays under a fixed bound while the run grows, and a crash and restart of
// each node right after its checkpoint comes back to the same RM store, the
// same in-doubt set and the same acceptor transactions.
TEST(CheckpointTest, PaxosLogStaysBoundedWithStuckTransactions) {
  const std::vector<std::string> names = {"coord", "s1", "s2"};
  Cluster c{3};
  NodeOptions options;
  options.tm.protocol = tm::ProtocolKind::kPaxosCommit;
  options.tm.acceptors = names;
  for (const std::string& n : names) c.AddNode(n, options);
  c.Connect("coord", "s1");
  c.Connect("coord", "s2");
  c.Connect("s1", "s2");
  SubWritesOnData(c, "s1");
  SubWritesOnData(c, "s2");
  sim::FailureInjector& fi = c.ctx().failures();

  std::vector<uint64_t> txns;
  struct NodeState {
    std::map<std::string, std::string, std::less<>> store;
    std::vector<uint64_t> in_doubt;
    std::vector<uint64_t> acceptor;
  };
  auto state_of = [&](const std::string& n) {
    NodeState st;
    rm::KVResourceManager& rm = c.node(n).rm();
    st.store = rm.store();
    for (uint64_t t : txns) {
      if (!rm.InDoubt(t)) continue;
      st.in_doubt.push_back(t);
      // In place until the outcome is known: recovery leaves it out.
      st.store.erase("k" + std::to_string(t) + n);
      if (n == "coord") st.store.erase("k" + std::to_string(t));
    }
    for (uint64_t t : txns)
      if (c.tm(n).acceptor().Find(t) != nullptr) st.acceptor.push_back(t);
    return st;
  };

  uint64_t max_retained = 0;
  size_t checkpoints = 0;
  for (int i = 1; i <= 300; ++i) {
    const uint64_t txn = c.tm("coord").Begin();
    txns.push_back(txn);
    const std::string v = std::to_string(txn);
    c.tm("coord").Write(txn, 0, "k" + v, v, [](Status) {});
    for (const char* sub : {"s1", "s2"})
      ASSERT_TRUE(c.tm("coord").SendWork(txn, sub, v + sub).ok());
    c.RunFor(100 * sim::kMillisecond);
    if (i % 10 == 0) {
      fi.ArmCrash("s1", "rm.after_prepared_log",
                  static_cast<int>(fi.epoch_hits("s1", "rm.after_prepared_log")) + 1);
    }
    c.StartCommit("coord", txn);
    c.RunFor(sim::kSecond);
    if (!c.tm("s1").IsUp()) {
      c.node("s1").Restart();
      c.RunFor(sim::kSecond);
    }
    if (i % 20 != 0) continue;
    // The lost votes leave live state behind at every checkpoint: tracked
    // at the coordinator, in doubt at s2, held by both acceptors.
    ASSERT_GT(c.tm("coord").ActiveTxnCount(), 0u) << i;
    ASSERT_GT(c.tm("s2").InDoubtCount(), 0u) << i;
    ASSERT_GT(c.tm("s2").AcceptorTxnCount(), 0u) << i;
    for (const std::string& n : names) {
      harness::Node& node = c.node(n);
      bool done = false;
      ASSERT_TRUE(node.Checkpoint([&done] { done = true; }).ok()) << n;
      c.RunFor(100 * sim::kMillisecond);
      ASSERT_TRUE(done) << n;
      ++checkpoints;
      const wal::StorageBackend& log = node.log().storage();
      max_retained =
          std::max(max_retained, log.durable_bytes() - log.base_offset());
      const NodeState before = state_of(n);
      fi.CrashNow(n);
      node.Restart();
      const NodeState after = state_of(n);
      EXPECT_EQ(after.store, before.store) << n << " after txn " << i;
      EXPECT_EQ(after.in_doubt, before.in_doubt) << n << " after txn " << i;
      EXPECT_EQ(after.acceptor, before.acceptor) << n << " after txn " << i;
      c.RunFor(sim::kSecond);
    }
  }
  EXPECT_EQ(checkpoints, 45u);
  // Deterministic: the largest retained log is 3532 bytes. Without
  // truncation a node's log grows past 100 KB over this run.
  EXPECT_LT(max_retained, 4096u);
  std::cerr << "[checkpoint] max retained log after a checkpoint: "
            << max_retained << " bytes\n";
}

}  // namespace
}  // namespace tpc
