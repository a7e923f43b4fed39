// FileStorage's device thread: group commit at the device.
//
//  - Completions run in submission order, on the context that runs the
//    posted drain tasks (here: the test thread), never inside Write.
//  - Writes queued behind an in-service write retire as one physical write
//    with one floor, and so does a write a completion submits.
//  - Crash waits out the in-service write, keeps it, drops queued writes
//    and runs no callbacks: durable() equals the file's synced prefix.
//  - Destroying a storage with writes queued neither hangs nor posts.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "wal/file_storage.h"

namespace tpc::wal {
namespace {

using Callback = StorageBackend::WriteCallback;

/// Stands in for a node's mailbox: the device thread posts drain tasks
/// here and the test thread runs them.
class Mailbox {
 public:
  FileStorage::PostFn Poster() {
    return [this](Callback&& task) {
      std::lock_guard<std::mutex> lock(mu_);
      tasks_.push_back(std::move(task));
      ++posted_;
    };
  }

  /// Runs posted tasks until `until()` holds (or 10 s pass).
  template <typename Pred>
  bool RunUntil(Pred until) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!until()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      Callback task;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (!tasks_.empty()) {
          task = std::move(tasks_.front());
          tasks_.pop_front();
        }
      }
      if (task) {
        task();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    return true;
  }

  /// Runs every task posted so far.
  void RunPosted() {
    std::deque<Callback> tasks;
    {
      std::lock_guard<std::mutex> lock(mu_);
      tasks.swap(tasks_);
    }
    for (Callback& t : tasks) t();
  }

  size_t posted() {
    std::lock_guard<std::mutex> lock(mu_);
    return posted_;
  }

 private:
  std::mutex mu_;
  std::deque<Callback> tasks_;
  size_t posted_ = 0;
};

std::string FreshPath(const std::string& tag) {
  std::filesystem::path p =
      std::filesystem::temp_directory_path() /
      ("tpc_fs_" + tag + "_" + std::to_string(::getpid()) + ".log");
  std::filesystem::remove(p);
  return p.string();
}

uint64_t FileSize(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

std::string FileContents(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Spins until the device has written `bytes` to the file: the write is in
/// service (in its floor) and later writes queue behind it.
void WaitForFileSize(const std::string& path, uint64_t bytes) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (FileSize(path) < bytes) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

TEST(FileStorageTest, CompletionsRunInOrderOnThePostingContext) {
  const std::string path = FreshPath("order");
  Mailbox mailbox;
  std::vector<int> order;
  const std::thread::id self = std::this_thread::get_id();
  bool all_on_self = true;
  {
    FileStorage storage(path, mailbox.Poster());
    constexpr int kWrites = 20;
    for (int i = 0; i < kWrites; ++i) {
      storage.Write(std::string(1, static_cast<char>('a' + i)),
                    [&order, &all_on_self, self, i] {
                      order.push_back(i);
                      all_on_self =
                          all_on_self && std::this_thread::get_id() == self;
                    });
    }
    EXPECT_TRUE(order.empty());  // never re-entrantly from Write
    EXPECT_EQ(storage.writes_outstanding(), static_cast<size_t>(kWrites));
    ASSERT_TRUE(mailbox.RunUntil([&] { return order.size() == kWrites; }));
    for (int i = 0; i < kWrites; ++i) EXPECT_EQ(order[i], i);
    EXPECT_TRUE(all_on_self);
    EXPECT_EQ(storage.writes_outstanding(), 0u);
    EXPECT_EQ(storage.durable_bytes(), static_cast<uint64_t>(kWrites));
    EXPECT_EQ(storage.bytes_written(), static_cast<uint64_t>(kWrites));
    EXPECT_EQ(storage.durable(), "abcdefghijklmnopqrst");
    EXPECT_LE(storage.completed_writes(), static_cast<uint64_t>(kWrites));
  }
  std::filesystem::remove(path);
}

TEST(FileStorageTest, WritesQueuedBehindAServiceShareOnePhysicalWrite) {
  const std::string path = FreshPath("batch");
  constexpr int64_t kFloorUs = 200'000;
  Mailbox mailbox;
  std::vector<std::string> acked;
  {
    FileStorage storage(path, mailbox.Poster(), {true, kFloorUs});
    storage.Write("first", [&acked] { acked.push_back("first"); });
    WaitForFileSize(path, 5);
    // Queued behind the in-service write: one batch, one write pass, one
    // fdatasync, one floor.
    for (const char* s : {"q1", "q2", "q3"}) {
      std::string name = s;
      storage.Write(name, [&acked, name] { acked.push_back(name); });
    }
    ASSERT_TRUE(mailbox.RunUntil([&] { return acked.size() == 4; }));
    EXPECT_EQ(acked, (std::vector<std::string>{"first", "q1", "q2", "q3"}));
    EXPECT_EQ(storage.completed_writes(), 2u);
    EXPECT_GE(storage.sync_wall_us(), 2 * kFloorUs);
    EXPECT_LT(storage.sync_wall_us(), 3 * kFloorUs);
    EXPECT_EQ(storage.durable(), "firstq1q2q3");
  }
  std::filesystem::remove(path);
}

// A write submitted from a completion (a pipelined flush policy's next
// flush) joins the writes queued during the service: the device waits for
// the drain before it takes its next batch.
TEST(FileStorageTest, WriteFromACompletionJoinsTheNextBatch) {
  const std::string path = FreshPath("chain");
  Mailbox mailbox;
  std::vector<std::string> acked;
  {
    FileStorage storage(path, mailbox.Poster(), {true, 100'000});
    storage.Write("first", [&storage, &acked] {
      acked.push_back("first");
      storage.Write("chained", [&acked] { acked.push_back("chained"); });
    });
    WaitForFileSize(path, 5);
    storage.Write("queued", [&acked] { acked.push_back("queued"); });
    ASSERT_TRUE(mailbox.RunUntil([&] { return acked.size() == 3; }));
    EXPECT_EQ(acked,
              (std::vector<std::string>{"first", "queued", "chained"}));
    EXPECT_EQ(storage.completed_writes(), 2u);
    EXPECT_EQ(storage.durable(), "firstqueuedchained");
  }
  std::filesystem::remove(path);
}

TEST(FileStorageTest, CrashDropsQueuedWritesAndKeepsTheSyncedPrefix) {
  const std::string path = FreshPath("crash");
  Mailbox mailbox;
  int callbacks = 0;
  {
    FileStorage storage(path, mailbox.Poster(), {true, 100'000});
    storage.Write("synced", [&callbacks] { ++callbacks; });
    WaitForFileSize(path, 6);
    storage.Write("queued", [&callbacks] { ++callbacks; });
    storage.Crash();  // waits out "synced"; "queued" never reaches the file
    EXPECT_EQ(storage.writes_outstanding(), 0u);
    EXPECT_EQ(storage.durable_bytes(), 6u);
    EXPECT_EQ(storage.durable(), "synced");
    EXPECT_EQ(FileContents(path), "synced");
    // The drain task posted before the crash is stale: it counts the
    // physical write but runs no callback.
    mailbox.RunPosted();
    EXPECT_EQ(callbacks, 0);
    EXPECT_EQ(storage.completed_writes(), 1u);

    // The log continues from the synced prefix.
    bool acked = false;
    storage.Write("after", [&acked] { acked = true; });
    ASSERT_TRUE(mailbox.RunUntil([&] { return acked; }));
    EXPECT_EQ(storage.durable(), "syncedafter");
    EXPECT_EQ(FileContents(path), "syncedafter");
    EXPECT_EQ(callbacks, 0);
  }
  // A new incarnation on the file starts with exactly that prefix durable.
  {
    FileStorage reopened(path, mailbox.Poster());
    EXPECT_EQ(reopened.durable_bytes(), 11u);
    EXPECT_EQ(reopened.durable(), "syncedafter");
  }
  std::filesystem::remove(path);
}

TEST(FileStorageTest, TruncateAdvancesTheBaseOffsetOnly) {
  const std::string path = FreshPath("truncate");
  Mailbox mailbox;
  {
    FileStorage storage(path, mailbox.Poster());
    bool acked = false;
    storage.Write("0123456789", [&acked] { acked = true; });
    ASSERT_TRUE(mailbox.RunUntil([&] { return acked; }));
    storage.Truncate(4);
    EXPECT_EQ(storage.base_offset(), 4u);
    EXPECT_EQ(storage.durable_bytes(), 10u);
    EXPECT_EQ(storage.durable(), "456789");
    EXPECT_EQ(FileContents(path), "0123456789");
  }
  std::filesystem::remove(path);
}

TEST(FileStorageTest, DestroyWithWritesQueuedNeitherHangsNorPosts) {
  const std::string path = FreshPath("destroy");
  Mailbox mailbox;
  int callbacks = 0;
  const auto start = std::chrono::steady_clock::now();
  {
    FileStorage storage(path, mailbox.Poster(), {true, 200'000});
    storage.Write("in-service", [&callbacks] { ++callbacks; });
    WaitForFileSize(path, 10);
    storage.Write("queued1", [&callbacks] { ++callbacks; });
    storage.Write("queued2", [&callbacks] { ++callbacks; });
  }
  const auto took = std::chrono::steady_clock::now() - start;
  EXPECT_LT(took, std::chrono::seconds(5));
  // The destructor stopped the device mid-floor: nothing was posted, then
  // or later.
  const size_t posted = mailbox.posted();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(mailbox.posted(), posted);
  EXPECT_EQ(posted, 0u);
  mailbox.RunPosted();
  EXPECT_EQ(callbacks, 0);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace tpc::wal
