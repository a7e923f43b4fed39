// Lock manager: strict two-phase locking over named resources.
//
// The paper's third performance metric is *resource lock time* — how long a
// transaction holds locks, which bounds the throughput other transactions
// can achieve. Locks here are therefore real: conflicting requests queue,
// grants happen when holders release at commit/abort, and the manager keeps
// a hold-time histogram that the benches report.
//
// Hot-path layout (see DESIGN.md §7): resource names are interned to dense
// uint32 KeyIds by a per-node StringInterner, the lock table is a flat
// vector indexed by KeyId (the interner is the open-addressed part), grant
// callbacks live in InlineFunction small-buffer storage, and each
// transaction's held locks form a singly linked list through a shared slab
// with free-list reuse. Callers that already know the KeyId (the resource
// manager interns each key once per operation) use the KeyId overloads and
// skip string hashing entirely; ReleaseAll walks the per-txn list in
// acquisition order and performs no hashing at all.
//
// Upgrade policy: a transaction holding S (or any weaker mode) that requests
// a stronger mode waits only for the *current* holders to drain — the
// upgrade is placed at the front of the wait queue, ahead of any queued
// later arrivals, because queueing an upgrade behind an incompatible waiter
// would deadlock that waiter against the upgrader's own hold (and starve
// the upgrader behind traffic that arrived after it). Two transactions
// upgrading the same key concurrently still deadlock against each other's
// S holds; the wait timeout resolves that, as it does all deadlocks here.

#ifndef TPC_LOCK_LOCK_MANAGER_H_
#define TPC_LOCK_LOCK_MANAGER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include <memory>

#include "runtime/runtime.h"
#include "sim/inline_function.h"
#include "sim/sim_context.h"
#include "util/histogram.h"
#include "util/interner.h"
#include "util/status.h"

namespace tpc::lock {

/// Lock modes, in increasing strength: intent-shared and intent-exclusive
/// (taken on a container, e.g. a table, before locking items inside it),
/// then shared and exclusive. Standard hierarchical compatibility:
///
///        IS   IX   S    X
///   IS   ok   ok   ok   -
///   IX   ok   ok   -    -
///   S    ok   -    ok   -
///   X    -    -    -    -
enum class LockMode : uint8_t {
  kIntentShared,
  kIntentExclusive,
  kShared,
  kExclusive,
};

std::string_view LockModeToString(LockMode mode);

/// True when a holder in `held` does not conflict with a request for
/// `requested` from another transaction.
bool LockModesCompatible(LockMode held, LockMode requested);

/// True when holding `held` already satisfies a request for `requested`
/// (same transaction): X covers everything, S covers S/IS, IX covers IX/IS.
bool LockModeCovers(LockMode held, LockMode requested);

/// The weakest single mode at least as strong as both (S+IX escalates to X;
/// this manager does not implement SIX).
LockMode LockModeSupremum(LockMode a, LockMode b);

/// Aggregate lock statistics.
struct LockStats {
  uint64_t acquisitions = 0;   ///< granted requests
  uint64_t waits = 0;          ///< requests that had to queue
  uint64_t timeouts = 0;       ///< requests abandoned after wait_timeout
  Histogram hold_time;         ///< grant -> release, per lock (microseconds)
  Histogram wait_time;         ///< request -> grant, waiters only
};

/// Dense id of an interned resource name, index into the flat lock table.
using KeyId = uint32_t;

/// One node's lock table.
class LockManager {
 public:
  /// Grant callbacks are move-only small-buffer functions; the resource
  /// manager's largest grant closure (write path: this + txn + key + value +
  /// done) is 112 bytes, so that is the inline capacity.
  using GrantCallback = sim::InlineFunction<112, void(Status)>;

  /// Compatibility constructor for the sim path: owns a SimRuntime adapter
  /// over `ctx`.
  explicit LockManager(sim::SimContext* ctx, std::string node,
                       sim::Time wait_timeout = 10 * sim::kSecond);

  /// Backend-explicit constructor: `rt` supplies the clock and wait-timeout
  /// timers; `ctx` supplies the trace.
  LockManager(runtime::Runtime* rt, sim::SimContext* ctx, std::string node,
              sim::Time wait_timeout = 10 * sim::kSecond);

  /// Interns `key`, returning its dense id. Callers performing several
  /// operations against one key intern once and use the KeyId overloads.
  KeyId InternKey(std::string_view key) {
    ++string_lookups_;
    return interner_.Intern(key);
  }

  /// Requests `mode` on `key` for `txn`. The callback fires with OK on
  /// grant (possibly synchronously, if there is no conflict), or TimedOut
  /// if the wait exceeds the timeout (the caller should abort — this is the
  /// deadlock-resolution policy). Re-requesting a held lock in the same or
  /// weaker mode is a no-op grant; kShared -> kExclusive upgrades wait for
  /// current holders only (see the policy note above).
  void Acquire(uint64_t txn, const std::string& key, LockMode mode,
               GrantCallback done) {
    Acquire(txn, InternKey(key), mode, std::move(done));
  }
  void Acquire(uint64_t txn, KeyId key, LockMode mode, GrantCallback done);

  /// Releases every lock `txn` holds and grants unblocked waiters.
  /// Strict 2PL: called only at transaction end. Walks the per-txn held
  /// list in acquisition order — O(locks held), no hashing.
  void ReleaseAll(uint64_t txn);

  /// True if `txn` currently holds `key` in at least `mode`.
  bool Holds(uint64_t txn, const std::string& key, LockMode mode) const {
    ++string_lookups_;
    KeyId id = interner_.Find(key);
    return id != StringInterner::kNotFound && Holds(txn, id, mode);
  }
  bool Holds(uint64_t txn, KeyId key, LockMode mode) const;

  /// Number of transactions currently waiting (for blocked-work metrics).
  size_t WaiterCount() const;

  /// Cancels every queued waiter's timeout timer without running its
  /// callback. A crash calls it before discarding the table: a timeout
  /// left armed would run OnTimeout against whatever table replaced it.
  void CancelWaitTimeouts();

  /// Number of (txn, key) holds currently granted, across all transactions.
  /// Zero at quiescence — the torture oracle's leaked-lock check.
  size_t HeldLockCount() const {
    size_t n = 0;
    for (const auto& entry : table_) n += entry.holders.size();
    return n;
  }

  const LockStats& stats() const { return stats_; }
  void ResetStats() { stats_ = LockStats{}; }

  const StringInterner& interner() const { return interner_; }

  /// Instrumentation: string->id hash lookups performed (Acquire/Holds by
  /// name, InternKey). The O(held) regression test asserts ReleaseAll adds
  /// none — releases never touch the interner.
  uint64_t string_lookups() const { return string_lookups_; }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;
  // Txn ids below this index a flat vector directly; the simulation hands
  // out dense ids from 1, so the overflow map is for synthetic ids only.
  static constexpr uint64_t kDenseTxnIds = 1ull << 22;

  struct Holder {
    uint64_t txn;
    LockMode mode;
    sim::Time granted_at;
  };
  struct Waiter {
    uint64_t txn;
    LockMode mode;
    GrantCallback done;
    sim::Time queued_at;
    sim::EventId timeout_event;
  };
  struct Entry {
    std::vector<Holder> holders;
    // FIFO: front is index 0. Queues are short (a handful of conflicting
    // txns), so vector beats deque on locality; upgrades insert at front.
    std::vector<Waiter> waiters;
  };
  /// Slab node: one held lock, linked in acquisition order.
  struct HeldNode {
    KeyId key;
    uint32_t next;
  };
  struct HeldList {
    uint32_t head = kNil;
    uint32_t tail = kNil;
    uint32_t count = 0;
  };

  static bool Compatible(LockMode held, LockMode requested) {
    return LockModesCompatible(held, requested);
  }

  Entry& EntryFor(KeyId key) {
    if (key >= table_.size()) {
      size_t want = key + 1;
      if (want < table_.size() * 2) want = table_.size() * 2;
      table_.resize(want);
    }
    return table_[key];
  }
  HeldList& ListFor(uint64_t txn);
  HeldList* FindList(uint64_t txn);

  void AppendHeld(uint64_t txn, KeyId key);
  void TraceGrant(uint64_t txn, KeyId key, LockMode mode);

  /// Grants as many queued waiters as compatibility allows. Re-fetches the
  /// entry after every grant callback — callbacks may re-enter Acquire and
  /// grow the table.
  void PumpWaiters(KeyId key);
  void Grant(KeyId key, Waiter waiter);
  void OnTimeout(uint64_t txn, KeyId key);

  std::unique_ptr<runtime::Runtime> owned_rt_;  ///< compat-ctor SimRuntime
  runtime::Runtime* rt_;
  sim::SimContext* ctx_;  ///< trace only
  std::string node_;
  sim::Time wait_timeout_;
  StringInterner interner_;
  std::vector<Entry> table_;  // indexed by KeyId
  // Per-txn held-lock lists through a shared slab with free-list reuse.
  std::vector<HeldNode> held_slab_;
  std::vector<uint32_t> free_nodes_;
  std::vector<HeldList> held_by_txn_;  // indexed by txn id
  std::unordered_map<uint64_t, HeldList> held_overflow_;
  LockStats stats_;
  mutable uint64_t string_lookups_ = 0;
};

}  // namespace tpc::lock

#endif  // TPC_LOCK_LOCK_MANAGER_H_
