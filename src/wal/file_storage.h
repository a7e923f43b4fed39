// FileStorage: the real-disk StorageBackend — an append-only file with
// fdatasync durability, served by its own device thread.
//
// Write() only enqueues: the calling thread (the owning node's worker)
// never blocks on I/O. The device thread takes *every* queued write at
// once, issues one write pass and one fdatasync for the batch, pads the
// batch to the service floor once, and posts one drain task to the node's
// mailbox. The drain retires the batch in submission order and runs its
// completion callbacks there — group commit at the device: writes that
// queued behind an in-service write share the next physical write, so
// completed_writes() counts physical writes and writes_outstanding() is
// the real queue. The device takes its next batch only once the drain
// ran: a pipelined flush policy submits its next flush from a completion,
// and that flush then joins everything queued during the service instead
// of waiting behind it as a physical write of its own (the drain is a
// mailbox hop, tens of microseconds against a millisecond-scale force).
// Completions never run re-entrantly from Write, which is the
// submit-now/ack-later shape LogManager's flush policies are written
// against; every ack follows the fdatasync that covers it.
//
// An optional service-time floor (`floor_us`) pads each physical write to
// a minimum wall-clock duration. On a filesystem whose fsync is
// microseconds (tmpfs, battery-backed cache) the floor restores a
// realistic device cost, which the contended live_bench cells rely on.
//
// fdatasync over O_DIRECT: the write path appends variable-length records,
// so O_DIRECT's alignment contract would force a block-sized staging layer;
// fdatasync on an O_APPEND fd gives the same durability statement (data +
// size are on stable media when the call returns) without it.
//
// Threading: every public call except the constructor and destructor comes
// from the owning node's serialized execution context. The device thread
// touches only the write queue (under a mutex) and the file; the counters
// belong to the node context and change only in the drain task and Crash.
// The device thread allocates nothing of its own: it services writes in
// place in the queue (a deque, whose references survive push_back).
//
// No in-memory copy of the log is kept: durable_bytes() counts the synced
// length, and durable() reads the synced bytes back from the file (only
// recovery and tests call it). A new FileStorage on an existing path starts
// with the file's contents durable, which is how the kill-and-recover test
// proves the bytes actually reached the file.
//
// Truncate() only advances base_offset(); the file keeps its full contents
// (a reopened instance sees base offset 0 with the full log — an equivalent
// image, since truncation only ever discards records recovery no longer
// needs).
//
// Destruction stops the device thread after its in-service batch and drops
// queued writes without posting anything. A drain task posted earlier
// refers to the storage, so the owner runs it before destroying the
// storage (LiveCluster does: its Stop waits until every write retired).

#ifndef TPC_WAL_FILE_STORAGE_H_
#define TPC_WAL_FILE_STORAGE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "wal/storage_backend.h"

namespace tpc::wal {

/// Namespace-scope (not nested) so it can be a defaulted constructor
/// argument — GCC rejects brace-defaulting a nested aggregate with member
/// initializers inside the enclosing class.
struct FileStorageOptions {
  /// fdatasync after every write (the durability point). Tests may turn
  /// it off to measure the sync cost itself; a real deployment never does.
  bool sync = true;
  /// Minimum wall-clock service time per physical write, microseconds
  /// (0 = none).
  int64_t floor_us = 0;
};

class FileStorage final : public StorageBackend {
 public:
  using FileOptions = FileStorageOptions;

  /// Hands a drain task to the owning node's execution context. Called on
  /// the device thread.
  using PostFn = std::function<void(WriteCallback&&)>;
  /// Told, on the node's context, when the storage turns busy (a write
  /// submitted while none was unretired) and idle again (the last one
  /// retired or dropped). A live cluster uses it to quiesce on its logs.
  using BusyFn = std::function<void(bool busy)>;

  /// Opens (creating if absent) the append-only file at `path`; any
  /// existing contents are durable. Starts the device thread.
  FileStorage(std::string path, PostFn post, FileOptions options = {},
              BusyFn busy = nullptr);
  ~FileStorage() override;

  FileStorage(const FileStorage&) = delete;
  FileStorage& operator=(const FileStorage&) = delete;

  void Write(std::string data, WriteCallback done) override;
  /// Waits out the in-service batch, retires the synced writes without
  /// running their callbacks and drops the queued ones: afterwards
  /// durable() is exactly the file's synced prefix.
  void Crash() override;
  const std::string& durable() const override;
  void Truncate(uint64_t bytes) override;
  uint64_t base_offset() const override { return base_offset_; }
  uint64_t completed_writes() const override { return completed_writes_; }
  uint64_t bytes_written() const override { return bytes_written_; }
  uint64_t durable_bytes() const override { return durable_bytes_; }
  size_t writes_outstanding() const override { return outstanding_; }
  void set_buffer_recycler(BufferRecycler recycler) override {
    recycler_ = std::move(recycler);
  }

  const std::string& path() const { return path_; }
  /// Cumulative wall-clock service time of the retired physical writes
  /// (write pass + fdatasync, padded to the floor), microseconds —
  /// live_bench reports it as the real device cost.
  int64_t sync_wall_us() const { return sync_wall_us_; }

 private:
  struct Op {
    std::string data;
    WriteCallback done;
  };

  void DeviceLoop();
  /// The drain task: retires the oldest `n` writes (one physical write
  /// that took `service_us`) unless a Crash in between already did, then
  /// lets the device take its next batch.
  void Retire(size_t n, int64_t service_us, uint64_t epoch);
  /// Folds a synced write's payload into the durable counters.
  void FoldSynced(std::string& data);

  const std::string path_;
  const PostFn post_;
  const FileOptions options_;
  const BusyFn busy_;
  int fd_ = -1;

  // Node context only.
  uint64_t base_offset_ = 0;
  uint64_t durable_bytes_ = 0;  ///< synced length in LSN space
  uint64_t completed_writes_ = 0;
  uint64_t bytes_written_ = 0;
  int64_t sync_wall_us_ = 0;
  size_t outstanding_ = 0;  ///< submitted, not yet retired or dropped
  BufferRecycler recycler_;
  mutable std::string image_;  ///< durable()'s read-back buffer

  // Shared with the device thread, under mu_. ops_ holds every unretired
  // write: the first synced_ are on the file awaiting their drain task, the
  // next in_service_ are in the device's current batch, the rest queue.
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Op> ops_;
  size_t synced_ = 0;
  size_t in_service_ = 0;
  uint64_t epoch_ = 0;  ///< bumped by Crash; stale drain tasks skip
  bool crashing_ = false;  ///< Crash is waiting out the in-service batch
  bool draining_ = false;  ///< a batch's drain task has not finished yet
  bool stop_ = false;
  std::thread device_;  ///< last: starts once every field is initialised
};

}  // namespace tpc::wal

#endif  // TPC_WAL_FILE_STORAGE_H_
