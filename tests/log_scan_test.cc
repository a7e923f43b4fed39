// The recovery scan against torn and corrupted logs.
//
// A real multi-owner image (a paxos participant's log after a checkpoint:
// checkpoint, RM, TM and acceptor records from two owners) is damaged in
// every way a crash or a bad sector can: cut at every byte, and every byte
// flipped. Each damaged image must scan to exactly the intact records
// before the damage, with no crash and no record invented, both from the
// simulated device's image and from a real log file read back by
// FileStorage.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "harness/cluster.h"
#include "wal/file_storage.h"
#include "wal/log_record.h"

namespace tpc::wal {
namespace {

using harness::Cluster;
using harness::NodeOptions;

/// s1's log in a three-node paxos cluster: a checkpoint, a commit, then a
/// transaction left undecided by a coordinator crash, so live acceptor
/// snapshots sit beside the TM and RM records.
std::string RecordImage() {
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
  c.tm("s1").SetAppDataHandler(
      [&c](uint64_t t, const net::NodeId&, std::string_view v) {
        c.tm("s1").Write(t, 0, "k_s1_" + std::string(v), "v", [](Status) {});
      });
  auto run = [&c](const std::string& key) {
    const uint64_t txn = c.tm("c0").Begin();
    c.tm("c0").Write(txn, 0, "k_c0_" + key, "v", [](Status) {});
    EXPECT_TRUE(c.tm("c0").SendWork(txn, "s1", key).ok());
    c.RunFor(sim::kSecond);
    return txn;
  };
  // s1 roots a local transaction first: a root reclaims its own acceptor
  // state when it finishes, so s1 can then checkpoint a non-empty store.
  // Values past 127 bytes give the checkpoint two-byte length varints.
  const uint64_t local = c.tm("s1").Begin();
  for (int i = 0; i < 4; ++i) {
    c.tm("s1").Write(local, 0, "k_s1_local" + std::to_string(i),
                     std::string(60 + 40 * i, 'x'), [](Status) {});
  }
  EXPECT_TRUE(c.CommitAndWait("s1", local).completed);
  c.RunFor(5 * sim::kSecond);
  EXPECT_TRUE(c.node("s1").Checkpoint(nullptr).ok());
  c.RunFor(sim::kSecond);
  const uint64_t second = run("2");
  EXPECT_TRUE(c.CommitAndWait("c0", second).completed);
  c.RunFor(5 * sim::kSecond);
  const uint64_t third = run("3");
  c.ctx().failures().ArmCrash("c0", "root.after_paxos_vote_send", 1);
  c.StartCommit("c0", third);
  c.RunFor(sim::kSecond);
  return c.node("s1").log().storage().durable();
}

/// The clean image's records and the offset each one ends at.
struct Layout {
  std::vector<LogRecord> records;
  std::vector<size_t> ends;

  explicit Layout(std::string_view image) {
    LogScanner scan(image);
    for (LogRecordView rec; scan.Next(&rec);) {
      records.push_back(rec.ToRecord());
      ends.push_back(scan.offset());
    }
  }

  /// Records that end at or before `offset`.
  size_t IntactBefore(size_t offset) const {
    size_t n = 0;
    while (n < ends.size() && ends[n] <= offset) ++n;
    return n;
  }
};

/// Scans `damaged` and expects exactly the first `n` clean records.
void ExpectScanStopsAt(std::string_view damaged, const Layout& clean, size_t n,
                       const std::string& what) {
  const std::vector<LogRecord> got = ScanLog(damaged);
  ASSERT_EQ(got.size(), n) << what;
  for (size_t i = 0; i < n; ++i) {
    const LogRecord& want = clean.records[i];
    ASSERT_TRUE(got[i].type == want.type && got[i].txn == want.txn &&
                got[i].owner == want.owner && got[i].body == want.body)
        << what << ": record " << i << " differs";
  }
}

class LogScanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { image_ = new std::string(RecordImage()); }
  static void TearDownTestSuite() { delete image_; }
  static std::string* image_;
};

std::string* LogScanTest::image_ = nullptr;

TEST_F(LogScanTest, ImageHoldsEveryRecordFamily) {
  const Layout clean(*image_);
  ASSERT_FALSE(clean.records.empty());
  EXPECT_EQ(clean.ends.back(), image_->size());
  std::set<std::string> owners;
  std::set<RecordType> types;
  for (const LogRecord& rec : clean.records) {
    owners.insert(rec.owner);
    types.insert(rec.type);
  }
  EXPECT_EQ(owners, (std::set<std::string>{"s1.rm0", "s1.tm"}));
  for (RecordType t : {RecordType::kCheckpoint, RecordType::kRmUpdate,
                       RecordType::kRmCommitted, RecordType::kTmPrepared,
                       RecordType::kTmAccept}) {
    EXPECT_TRUE(types.count(t)) << RecordTypeToString(t);
  }
}

TEST_F(LogScanTest, EveryTruncationKeepsTheIntactPrefix) {
  const std::string& image = *image_;
  const Layout clean(image);
  for (size_t len = 0; len <= image.size(); ++len) {
    const std::string_view torn(image.data(), len);
    const size_t n = clean.IntactBefore(len);
    ExpectScanStopsAt(torn, clean, n, "cut at " + std::to_string(len));
    // A cut on a record boundary is a clean end, anything else is torn.
    LogScanner scan(torn);
    for (LogRecordView rec; scan.Next(&rec);) {
    }
    const bool on_boundary = len == 0 || (n > 0 && clean.ends[n - 1] == len);
    EXPECT_EQ(scan.error() == nullptr, on_boundary) << "cut at " << len;
  }
}

TEST_F(LogScanTest, EveryByteFlipStopsAtTheDamagedRecord) {
  const Layout clean(*image_);
  for (size_t at = 0; at < image_->size(); ++at) {
    for (unsigned char mask : {0x01, 0x80, 0xff}) {
      std::string damaged = *image_;
      damaged[at] = static_cast<char>(damaged[at] ^ mask);
      ExpectScanStopsAt(damaged, clean, clean.IntactBefore(at),
                        "byte " + std::to_string(at) + " ^ " +
                            std::to_string(mask));
    }
  }
}

/// A log file written by FileStorage, damaged on disk and read back by a
/// fresh FileStorage (what a restarted live node scans).
TEST_F(LogScanTest, FileStorageImageSurvivesTruncationAndFlips) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("tpc_scan_" + std::to_string(::getpid()) + ".log"))
          .string();
  std::filesystem::remove(path);
  {
    std::mutex mu;
    std::vector<StorageBackend::WriteCallback> posted;
    FileStorage storage(path, [&](StorageBackend::WriteCallback&& task) {
      std::lock_guard<std::mutex> lock(mu);
      posted.push_back(std::move(task));
    });
    bool durable = false;
    storage.Write(*image_, [&durable] { durable = true; });
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!durable && std::chrono::steady_clock::now() < give_up) {
      std::vector<StorageBackend::WriteCallback> tasks;
      {
        std::lock_guard<std::mutex> lock(mu);
        tasks.swap(posted);
      }
      for (auto& task : tasks) task();
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    ASSERT_TRUE(durable);
  }
  auto read_back = [&path](const std::string& bytes) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    FileStorage reopened(path, [](StorageBackend::WriteCallback&&) {});
    return reopened.durable();
  };
  {
    FileStorage reopened(path, [](StorageBackend::WriteCallback&&) {});
    ASSERT_EQ(reopened.durable(), *image_);
  }
  const Layout clean(*image_);
  for (size_t len = 0; len <= image_->size(); ++len) {
    ExpectScanStopsAt(read_back(image_->substr(0, len)), clean,
                      clean.IntactBefore(len), "file cut at " + std::to_string(len));
  }
  for (size_t at = 0; at < image_->size(); ++at) {
    std::string damaged = *image_;
    damaged[at] = static_cast<char>(damaged[at] ^ 0xff);
    ExpectScanStopsAt(read_back(damaged), clean, clean.IntactBefore(at),
                      "file byte " + std::to_string(at));
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace tpc::wal
