// KV resource manager: transactional reads/writes, undo/redo, votes,
// crash recovery, in-doubt resolution.

#include <gtest/gtest.h>

#include "rm/kv_resource_manager.h"
#include "sim/sim_context.h"
#include "wal/log_manager.h"

namespace tpc::rm {
namespace {

class KvRmTest : public ::testing::Test {
 protected:
  KvRmTest() : log_(&ctx_, "node"), rm_(&ctx_, "node.rm0", &log_) {}

  void Write(uint64_t txn, const std::string& key, const std::string& value) {
    bool done = false;
    rm_.Write(txn, key, value, [&](Status st) {
      ASSERT_TRUE(st.ok());
      done = true;
    });
    ctx_.events().Run();
    ASSERT_TRUE(done);
  }

  VoteInfo Prepare(uint64_t txn) {
    VoteInfo out;
    bool done = false;
    rm_.Prepare(txn, [&](VoteInfo info) {
      out = info;
      done = true;
    });
    ctx_.events().Run();
    EXPECT_TRUE(done);
    return out;
  }

  void Commit(uint64_t txn) {
    bool done = false;
    rm_.Commit(txn, [&](Status st) {
      ASSERT_TRUE(st.ok());
      done = true;
    });
    ctx_.events().Run();
    ASSERT_TRUE(done);
  }

  void Abort(uint64_t txn) {
    bool done = false;
    rm_.Abort(txn, [&](Status st) {
      ASSERT_TRUE(st.ok());
      done = true;
    });
    ctx_.events().Run();
    ASSERT_TRUE(done);
  }

  sim::SimContext ctx_;
  wal::LogManager log_;
  KVResourceManager rm_;
};

TEST_F(KvRmTest, WriteCommitPersists) {
  Write(1, "k", "v1");
  EXPECT_EQ(Prepare(1).vote, Vote::kYes);
  Commit(1);
  EXPECT_EQ(rm_.Peek("k").value_or(""), "v1");
}

TEST_F(KvRmTest, AbortUndoesInReverseOrder) {
  Write(1, "k", "original");
  EXPECT_EQ(Prepare(1).vote, Vote::kYes);
  Commit(1);
  Write(2, "k", "second");
  Write(2, "k", "third");
  Abort(2);
  EXPECT_EQ(rm_.Peek("k").value_or(""), "original");
}

TEST_F(KvRmTest, AbortOfInsertRemovesKey) {
  Write(1, "fresh", "v");
  Abort(1);
  EXPECT_TRUE(rm_.Peek("fresh").status().IsNotFound());
}

TEST_F(KvRmTest, ReadOnlyTxnVotesReadOnly) {
  bool read_done = false;
  rm_.Read(1, "absent", [&](Result<std::string> r) {
    EXPECT_TRUE(r.status().IsNotFound());
    read_done = true;
  });
  ctx_.events().Run();
  ASSERT_TRUE(read_done);
  EXPECT_EQ(Prepare(1).vote, Vote::kReadOnly);
  EXPECT_FALSE(rm_.HasUpdates(1));
}

TEST_F(KvRmTest, VoteCarriesConfiguredAttributes) {
  KVOptions options;
  options.reliable = true;
  options.ok_to_leave_out = true;
  KVResourceManager reliable_rm(&ctx_, "node.rm1", &log_, options);
  bool done = false;
  reliable_rm.Write(1, "k", "v", [&](Status st) {
    ASSERT_TRUE(st.ok());
    done = true;
  });
  ctx_.events().Run();
  ASSERT_TRUE(done);
  VoteInfo info;
  reliable_rm.Prepare(1, [&](VoteInfo v) { info = v; });
  ctx_.events().Run();
  EXPECT_EQ(info.vote, Vote::kYes);
  EXPECT_TRUE(info.reliable);
  EXPECT_TRUE(info.ok_to_leave_out);
}

TEST_F(KvRmTest, ReadsSeeOwnUncommittedWrites) {
  Write(1, "k", "mine");
  std::string seen;
  rm_.Read(1, "k", [&](Result<std::string> r) {
    ASSERT_TRUE(r.ok());
    seen = *r;
  });
  ctx_.events().Run();
  EXPECT_EQ(seen, "mine");
}

TEST_F(KvRmTest, WriteConflictBlocksUntilRelease) {
  Write(1, "k", "v1");
  bool granted = false;
  rm_.Write(2, "k", "v2", [&](Status st) { granted = st.ok(); });
  ctx_.events().RunUntil(ctx_.now() + 10 * sim::kMillisecond);
  EXPECT_FALSE(granted);
  // Prepare + commit without draining the queue past the waiter's
  // deadlock timeout.
  rm_.Prepare(1, [this](VoteInfo info) {
    EXPECT_EQ(info.vote, Vote::kYes);
    rm_.Commit(1, [](Status st) { ASSERT_TRUE(st.ok()); });
  });
  ctx_.events().RunUntil(ctx_.now() + sim::kSecond);
  EXPECT_TRUE(granted);
}

TEST_F(KvRmTest, CommittedStateRebuiltFromLogAfterCrash) {
  Write(1, "a", "1");
  Write(1, "b", "2");
  Prepare(1);
  Commit(1);
  rm_.Crash();
  EXPECT_TRUE(rm_.Peek("a").status().IsNotFound());  // volatile image gone
  std::vector<uint64_t> in_doubt = rm_.Recover(log_.RecoverViews());
  EXPECT_TRUE(in_doubt.empty());
  EXPECT_EQ(rm_.Peek("a").value_or(""), "1");
  EXPECT_EQ(rm_.Peek("b").value_or(""), "2");
}

TEST_F(KvRmTest, CrashCancelsQueuedWaitersTimeouts) {
  Write(1, "k", "v1");
  bool called = false;
  rm_.Write(2, "k", "v2", [&](Status) { called = true; });
  ctx_.events().RunUntil(ctx_.now() + 10 * sim::kMillisecond);
  ASSERT_FALSE(called);
  ASSERT_EQ(rm_.locks().WaiterCount(), 1u);
  ASSERT_GT(ctx_.events().pending(), 0u);  // txn 2's wait timeout

  rm_.Crash();
  // Nothing is left armed for a transaction the crash discarded.
  EXPECT_EQ(ctx_.events().pending(), 0u);
  log_.Crash();
  EXPECT_TRUE(rm_.Recover(log_.RecoverViews()).empty());
  // Past the old waiter's deadline: its timeout must not run against the
  // rebuilt lock table.
  ctx_.events().RunUntil(ctx_.now() + KVOptions{}.lock_timeout + sim::kSecond);
  EXPECT_FALSE(called);
  EXPECT_EQ(rm_.locks().stats().timeouts, 0u);
  Write(3, "k", "v3");  // the key is free again
}

TEST_F(KvRmTest, PreparedTxnRecoversInDoubtAndResolvesCommit) {
  Write(1, "k", "v");
  Prepare(1);
  rm_.Crash();
  std::vector<uint64_t> in_doubt = rm_.Recover(log_.RecoverViews());
  ASSERT_EQ(in_doubt, (std::vector<uint64_t>{1}));
  EXPECT_TRUE(rm_.InDoubt(1));
  // The in-doubt data is invisible and its locks are held.
  EXPECT_TRUE(rm_.Peek("k").status().IsNotFound());
  bool blocked_granted = false;
  rm_.Write(2, "k", "other", [&](Status st) { blocked_granted = st.ok(); });
  ctx_.events().RunUntil(sim::kSecond);
  EXPECT_FALSE(blocked_granted);

  rm_.ResolveRecovered(1, /*commit=*/true);
  ctx_.events().Run();
  EXPECT_EQ(rm_.Peek("k").value_or(""), "other");  // waiter wrote after us
  EXPECT_FALSE(rm_.InDoubt(1));
}

TEST_F(KvRmTest, PreparedTxnResolvesAbortWithoutEffects) {
  Write(1, "k", "v");
  Prepare(1);
  rm_.Crash();
  std::vector<uint64_t> in_doubt = rm_.Recover(log_.RecoverViews());
  ASSERT_EQ(in_doubt.size(), 1u);
  rm_.ResolveRecovered(1, /*commit=*/false);
  ctx_.events().Run();
  EXPECT_TRUE(rm_.Peek("k").status().IsNotFound());
}

TEST_F(KvRmTest, UnpreparedTxnLostOnCrash) {
  Write(1, "k", "v");  // update record non-forced, nothing durable
  rm_.Crash();
  log_.Crash();
  EXPECT_TRUE(rm_.Recover(log_.RecoverViews()).empty());
  EXPECT_TRUE(rm_.Peek("k").status().IsNotFound());
}

TEST_F(KvRmTest, CommitViaRecoveredFlagAppliesUpdates) {
  // TM-style resolution: Commit() on a recovered in-doubt transaction must
  // apply the redo images.
  Write(1, "k", "v");
  Prepare(1);
  rm_.Crash();
  ASSERT_EQ(rm_.Recover(log_.RecoverViews()).size(), 1u);
  Commit(1);
  EXPECT_EQ(rm_.Peek("k").value_or(""), "v");
}

TEST_F(KvRmTest, EndReadOnlyReleasesLocks) {
  bool read_done = false;
  rm_.Read(1, "k", [&](Result<std::string>) { read_done = true; });
  ctx_.events().Run();
  ASSERT_TRUE(read_done);
  rm_.EndReadOnly(1);
  bool granted = false;
  rm_.Write(2, "k", "v", [&](Status st) { granted = st.ok(); });
  ctx_.events().Run();
  EXPECT_TRUE(granted);
}

TEST_F(KvRmTest, SharedLogOptionSkipsForces) {
  KVOptions options;
  options.shared_log_with_tm = true;
  KVResourceManager shared_rm(&ctx_, "node.rm1", &log_, options);
  bool done = false;
  shared_rm.Write(1, "k", "v", [&](Status st) {
    ASSERT_TRUE(st.ok());
    done = true;
  });
  ctx_.events().Run();
  ASSERT_TRUE(done);
  shared_rm.Prepare(1, [](VoteInfo) {});
  bool committed = false;
  shared_rm.Commit(1, [&](Status) { committed = true; });
  ctx_.events().Run();
  EXPECT_TRUE(committed);
  EXPECT_EQ(log_.StatsForOwner("node.rm1").forced_writes, 0u);
  EXPECT_GE(log_.StatsForOwner("node.rm1").writes, 3u);
}

}  // namespace
}  // namespace tpc::rm
