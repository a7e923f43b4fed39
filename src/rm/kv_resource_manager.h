// Key-value resource manager: a small transactional store that plays the
// LRM role — strict 2PL through a LockManager, undo/redo logging through a
// LogManager, real prepare/commit/abort/recovery.
//
// Logging policy (the shared-log optimization, Section 4 "Sharing the Log"):
// when `shared_log_with_tm` is set, the RM writes its prepared and committed
// records *non-forced*. This is sound because the records go to the same log
// the TM forces: the TM's forced prepared/committed records are appended
// after the RM's and a log force covers every earlier record. Recovery then
// reasons exactly as the paper describes — a lost RM prepared record implies
// the TM never voted/committed, a lost RM committed record is re-derivable
// from the TM's committed record.

#ifndef TPC_RM_KV_RESOURCE_MANAGER_H_
#define TPC_RM_KV_RESOURCE_MANAGER_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "lock/lock_manager.h"
#include "rm/resource_manager.h"
#include "runtime/runtime.h"
#include "sim/sim_context.h"
#include "util/result.h"
#include "wal/log_manager.h"

namespace tpc::rm {

/// Construction options.
struct KVOptions {
  /// Advertised on YES votes: heuristic decisions effectively impossible.
  bool reliable = false;
  /// Advertised on YES votes: may be suspended / left out of later 2PCs.
  bool ok_to_leave_out = false;
  /// Shared-log optimization: prepared/committed records are not forced.
  bool shared_log_with_tm = false;
  /// Lock-wait deadlock timeout.
  sim::Time lock_timeout = 10 * sim::kSecond;
};

/// Transactional key-value store.
class KVResourceManager : public ResourceManager {
 public:
  using ReadCallback = std::function<void(Result<std::string>)>;
  using WriteCallback = std::function<void(Status)>;

  /// `log` is the node's WAL (shared with the TM when the shared-log
  /// optimization is on, which is also the common single-log deployment).
  /// The sim-path compatibility constructor owns a SimRuntime over `ctx`
  /// and builds the lock manager on it.
  KVResourceManager(sim::SimContext* ctx, std::string name,
                    wal::LogManager* log, KVOptions options = {});

  /// Backend-explicit constructor: `rt` drives the lock manager's clock and
  /// wait-timeout timers; `ctx` supplies the trace and failure injector.
  KVResourceManager(runtime::Runtime* rt, sim::SimContext* ctx,
                    std::string name, wal::LogManager* log,
                    KVOptions options = {});

  const std::string& name() const override { return name_; }

  // --- transactional data operations -------------------------------------
  // Keys are views so callers can address bytes parsed straight out of a
  // delivered network payload; the RM copies a key exactly once (into the
  // deferred lock-grant capture), never per call layer.

  /// Reads `key` under a shared lock. NotFound if absent.
  void Read(uint64_t txn, std::string_view key, ReadCallback done);

  /// Writes `key` under an exclusive lock; undo/redo is logged (non-forced).
  void Write(uint64_t txn, std::string_view key, std::string value,
             WriteCallback done);

  /// Scans every key with the given prefix under a store-level shared lock
  /// (hierarchical locking: readers/writers of individual keys take IS/IX
  /// on the store, so a scan waits out all writers and blocks new ones
  /// until the transaction ends).
  using ScanCallback =
      std::function<void(Result<std::vector<std::pair<std::string, std::string>>>)>;
  void Scan(uint64_t txn, std::string_view prefix, ScanCallback done);

  // --- commit protocol ----------------------------------------------------

  void Prepare(uint64_t txn, VoteCallback done) override;
  void Commit(uint64_t txn, DoneCallback done) override;
  void Abort(uint64_t txn, DoneCallback done) override;
  void EndReadOnly(uint64_t txn) override;
  bool HasUpdates(uint64_t txn) const override;

  // --- failure & recovery --------------------------------------------------

  /// Wipes volatile state (store image, active transactions, locks).
  void Crash();

  /// Rebuilds the store from the durable log's records (the node's
  /// recovery pass hands every RM the same scan; each picks the records it
  /// owns). The views need only live for the call. Returns the transactions
  /// left in doubt (prepared, outcome unknown): the TM must resolve each
  /// via ResolveRecovered().
  std::vector<uint64_t> Recover(std::span<const wal::LogRecordView> records);

  /// Applies the outcome for a transaction reported in doubt by Recover().
  void ResolveRecovered(uint64_t txn, bool commit);

  // --- introspection -------------------------------------------------------

  /// Committed value lookup outside any transaction (tests/verification).
  Result<std::string> Peek(std::string_view key) const;

  /// Full committed-store snapshot (oracle/verification use only).
  const std::map<std::string, std::string, std::less<>>& store() const {
    return store_;
  }

  /// Writes a checkpoint record to the log, forced: the store as the
  /// transactions closed so far left it, plus the updates and prepared flag
  /// of every transaction still open. Recovery loads the last checkpoint and
  /// replays only what follows it, so `done` (run once the record is
  /// durable) marks every earlier record of this RM as no longer needed.
  void Checkpoint(std::function<void()> done);

  /// Number of transactions with live state.
  size_t ActiveCount() const { return active_.size(); }
  /// True while `txn` has live state here (updates, or prepared state).
  bool IsActive(uint64_t txn) const { return active_.count(txn) != 0; }

  /// Makes the next Prepare() vote NO (fault injection for abort paths).
  void FailNextPrepare() { fail_next_prepare_ = true; }

  /// Registers this RM's crash points (`rm.before_prepared_log` etc., see
  /// tm/crash_points.h) with the failure injector under `node`'s identity:
  /// an armed point crashes the whole node mid-call, exactly as a machine
  /// failure between two log writes would. Called by the harness; until
  /// then the points are never consulted.
  void EnableCrashPoints(const std::string& node);

  lock::LockManager& locks() { return locks_; }
  const KVOptions& options() const { return options_; }
  /// True while the RM holds prepared state for `txn`.
  bool InDoubt(uint64_t txn) const;

 private:
  struct Update {
    std::string key;
    std::string old_value;
    bool had_old = false;
    std::string new_value;
  };
  struct TxnState {
    std::vector<Update> updates;
    bool prepared = false;
    /// Rebuilt by Recover(): updates are redo images not yet applied to the
    /// store, so Commit must apply them and Abort must not undo them.
    bool recovered = false;
    /// The committed record is appended (its force may still be pending):
    /// a checkpoint counts the transaction as closed.
    bool commit_logged = false;
  };

  void DoWrite(uint64_t txn, std::string_view key, std::string value,
               WriteCallback done);
  void LogUpdate(uint64_t txn, const Update& update);
  void ApplyUndo(const TxnState& state);

  /// True means the node crashed inside this call: unwind without invoking
  /// any callback. `point` indexes tm::kRmCrashPoints.
  bool CrashHere(size_t point);

  std::unique_ptr<runtime::Runtime> owned_rt_;  ///< compat-ctor SimRuntime
  runtime::Runtime* rt_;  ///< the lock manager's clock and timers
  sim::SimContext* ctx_;
  std::string name_;
  wal::LogManager* log_;
  KVOptions options_;
  lock::LockManager locks_;
  lock::KeyId store_lock_id_;  ///< interned once; refreshed on Crash()
  // Transparent comparator: lookups by string_view probe without building a
  // temporary key string.
  std::map<std::string, std::string, std::less<>> store_;
  std::unordered_map<uint64_t, TxnState> active_;
  bool fail_next_prepare_ = false;

  // Crash-point interning (EnableCrashPoints); disabled by default.
  bool fi_armed_ = false;
  uint32_t fi_node_ = 0;
  std::array<uint32_t, 6> fi_points_{};
};

}  // namespace tpc::rm

#endif  // TPC_RM_KV_RESOURCE_MANAGER_H_
