#include "wal/file_storage.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <utility>

#include "util/logging.h"

namespace tpc::wal {

namespace {
int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void WriteAll(int fd, const std::string& data) {
  size_t written = 0;
  while (written < data.size()) {
    ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0 && errno == EINTR) continue;
    TPC_CHECK(n >= 0);
    written += static_cast<size_t>(n);
  }
}
}  // namespace

FileStorage::FileStorage(std::string path, PostFn post, FileOptions options,
                         BusyFn busy)
    : path_(std::move(path)),
      post_(std::move(post)),
      options_(options),
      busy_(std::move(busy)) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  TPC_CHECK(fd_ >= 0);
  // Whatever a previous incarnation synced is this one's recovery image.
  struct stat st;
  TPC_CHECK(::fstat(fd_, &st) == 0);
  durable_bytes_ = static_cast<uint64_t>(st.st_size);
  device_ = std::thread([this] { DeviceLoop(); });
}

FileStorage::~FileStorage() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  device_.join();
  ::close(fd_);
}

void FileStorage::Write(std::string data, WriteCallback done) {
  if (outstanding_++ == 0 && busy_) busy_(true);
  std::lock_guard<std::mutex> lock(mu_);
  ops_.push_back(Op{std::move(data), std::move(done)});
  cv_.notify_one();
}

void FileStorage::DeviceLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] {
      return stop_ || (!crashing_ && !draining_ && ops_.size() > synced_);
    });
    if (stop_) return;
    const size_t n = ops_.size() - synced_;
    in_service_ = n;
    lock.unlock();
    // One write pass over the batch. Each op is fetched under the lock
    // (the node may push_back meanwhile), then written outside it: a deque
    // element does not move.
    const int64_t start = NowUs();
    bool any_bytes = false;
    for (size_t i = 0; i < n; ++i) {
      const std::string* data;
      {
        std::lock_guard<std::mutex> fetch(mu_);
        data = &ops_[synced_ + i].data;
      }
      WriteAll(fd_, *data);
      any_bytes = any_bytes || !data->empty();
    }
    if (options_.sync && any_bytes) TPC_CHECK(::fdatasync(fd_) == 0);
    const int64_t elapsed = NowUs() - start;
    if (elapsed < options_.floor_us)
      std::this_thread::sleep_for(
          std::chrono::microseconds(options_.floor_us - elapsed));
    const int64_t service_us = std::max(elapsed, options_.floor_us);
    lock.lock();
    synced_ += n;
    in_service_ = 0;
    cv_.notify_all();  // a Crash may be waiting out this batch
    // Posted under the lock, so a destructor that set stop_ first never
    // sees a post after it.
    if (!stop_) {
      draining_ = true;
      const uint64_t epoch = epoch_;
      post_([this, n, service_us, epoch] { Retire(n, service_us, epoch); });
    }
  }
}

void FileStorage::Retire(size_t n, int64_t service_us, uint64_t epoch) {
  ++completed_writes_;
  sync_wall_us_ += service_us;
  // Crash already retired these writes, or a callback crashed the node.
  for (size_t i = 0; i < n && epoch == epoch_; ++i) {
    Op op;
    {
      std::lock_guard<std::mutex> lock(mu_);
      op = std::move(ops_.front());
      ops_.pop_front();
      --synced_;
    }
    FoldSynced(op.data);
    if (--outstanding_ == 0 && busy_) busy_(false);
    // Ack later, on the node's context — never re-entrantly from Write.
    if (op.done) op.done();
  }
  // The callbacks' follow-up writes (a pipelined flush policy submits its
  // next flush from a completion) are queued now: the device takes them
  // together with everything queued during the service.
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = false;
  if (ops_.size() > synced_) cv_.notify_all();
}

void FileStorage::FoldSynced(std::string& data) {
  durable_bytes_ += data.size();
  bytes_written_ += data.size();
  if (recycler_) recycler_(std::move(data));
}

void FileStorage::Crash() {
  std::deque<Op> unretired;
  size_t synced;
  {
    std::unique_lock<std::mutex> lock(mu_);
    crashing_ = true;  // the device takes no new batch meanwhile
    cv_.wait(lock, [this] { return in_service_ == 0; });
    unretired.swap(ops_);
    synced = synced_;
    synced_ = 0;
    ++epoch_;
    crashing_ = false;
  }
  // Synced writes survive the crash; their callbacks do not run (the log
  // manager's epoch ignores them anyway). Queued writes never reached the
  // file and are dropped.
  for (size_t i = 0; i < synced; ++i) FoldSynced(unretired[i].data);
  if (outstanding_ != 0) {
    outstanding_ = 0;
    if (busy_) busy_(false);
  }
}

const std::string& FileStorage::durable() const {
  image_.resize(durable_bytes_ - base_offset_);
  size_t done = 0;
  while (done < image_.size()) {
    ssize_t n = ::pread(fd_, image_.data() + done, image_.size() - done,
                        static_cast<off_t>(base_offset_ + done));
    if (n < 0 && errno == EINTR) continue;
    TPC_CHECK(n > 0);
    done += static_cast<size_t>(n);
  }
  return image_;
}

void FileStorage::Truncate(uint64_t bytes) {
  TPC_CHECK(bytes <= durable_bytes_ - base_offset_);
  base_offset_ += bytes;
}

}  // namespace tpc::wal
