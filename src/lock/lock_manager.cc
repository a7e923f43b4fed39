#include "lock/lock_manager.h"

#include <algorithm>

#include "runtime/sim_runtime.h"

#include "util/format.h"
#include "util/logging.h"

namespace tpc::lock {

LockManager::LockManager(sim::SimContext* ctx, std::string node,
                         sim::Time wait_timeout)
    : owned_rt_(std::make_unique<runtime::SimRuntime>(ctx)),
      rt_(owned_rt_.get()),
      ctx_(ctx),
      node_(std::move(node)),
      wait_timeout_(wait_timeout) {}

LockManager::LockManager(runtime::Runtime* rt, sim::SimContext* ctx,
                         std::string node, sim::Time wait_timeout)
    : rt_(rt), ctx_(ctx), node_(std::move(node)), wait_timeout_(wait_timeout) {}

std::string_view LockModeToString(LockMode mode) {
  switch (mode) {
    case LockMode::kIntentShared: return "IS";
    case LockMode::kIntentExclusive: return "IX";
    case LockMode::kShared: return "S";
    case LockMode::kExclusive: return "X";
  }
  return "?";
}

bool LockModesCompatible(LockMode held, LockMode requested) {
  // Standard hierarchical matrix (see the header). Indexed
  // [held][requested]; symmetric.
  static constexpr bool kCompatible[4][4] = {
      /* IS */ {true, true, true, false},
      /* IX */ {true, true, false, false},
      /* S  */ {true, false, true, false},
      /* X  */ {false, false, false, false},
  };
  return kCompatible[static_cast<int>(held)][static_cast<int>(requested)];
}

bool LockModeCovers(LockMode held, LockMode requested) {
  if (held == requested) return true;
  switch (held) {
    case LockMode::kExclusive:
      return true;  // X covers everything
    case LockMode::kShared:
      return requested == LockMode::kIntentShared;
    case LockMode::kIntentExclusive:
      return requested == LockMode::kIntentShared;
    case LockMode::kIntentShared:
      return false;
  }
  return false;
}

LockMode LockModeSupremum(LockMode a, LockMode b) {
  if (LockModeCovers(a, b)) return a;
  if (LockModeCovers(b, a)) return b;
  // The only incomparable pairs are {S, IX} and {S, IS}/{IX, IS} which are
  // ordered; S+IX has no single supremum short of X (no SIX here).
  return LockMode::kExclusive;
}

LockManager::HeldList& LockManager::ListFor(uint64_t txn) {
  if (txn < kDenseTxnIds) {
    if (txn >= held_by_txn_.size()) {
      size_t want = static_cast<size_t>(txn) + 1;
      if (want < held_by_txn_.size() * 2) want = held_by_txn_.size() * 2;
      held_by_txn_.resize(want);
    }
    return held_by_txn_[txn];
  }
  return held_overflow_[txn];
}

LockManager::HeldList* LockManager::FindList(uint64_t txn) {
  if (txn < kDenseTxnIds) {
    return txn < held_by_txn_.size() ? &held_by_txn_[txn] : nullptr;
  }
  auto it = held_overflow_.find(txn);
  return it == held_overflow_.end() ? nullptr : &it->second;
}

void LockManager::AppendHeld(uint64_t txn, KeyId key) {
  uint32_t idx;
  if (!free_nodes_.empty()) {
    idx = free_nodes_.back();
    free_nodes_.pop_back();
  } else {
    idx = static_cast<uint32_t>(held_slab_.size());
    held_slab_.emplace_back();
  }
  held_slab_[idx] = HeldNode{key, kNil};
  HeldList& list = ListFor(txn);
  if (list.tail == kNil) {
    list.head = idx;
  } else {
    held_slab_[list.tail].next = idx;
  }
  list.tail = idx;
  ++list.count;
}

void LockManager::TraceGrant(uint64_t txn, KeyId key, LockMode mode) {
  if (!ctx_->trace().capturing()) return;
  ctx_->trace().Add(
      {rt_->Now(), sim::TraceKind::kLock, node_, "", txn,
       interner_.NameOf(key) + ":" + std::string(LockModeToString(mode))});
}

void LockManager::Acquire(uint64_t txn, KeyId key, LockMode mode,
                          GrantCallback done) {
  Entry& entry = EntryFor(key);

  // Re-entrant requests: covered modes return immediately; otherwise try
  // an in-place upgrade to the supremum of held and requested.
  bool is_upgrade = false;
  for (auto& h : entry.holders) {
    if (h.txn == txn) {
      if (LockModeCovers(h.mode, mode)) {
        done(Status::OK());  // already held strongly enough
        return;
      }
      is_upgrade = true;
      break;
    }
  }
  const LockMode wanted =
      is_upgrade ? [&] {
        for (const auto& h : entry.holders)
          if (h.txn == txn) return LockModeSupremum(h.mode, mode);
        return mode;
      }()
                 : mode;

  const bool no_queue = entry.waiters.empty();
  bool compatible = true;
  for (const auto& h : entry.holders) {
    if (h.txn == txn) continue;  // upgrade: only others matter
    if (!Compatible(h.mode, wanted)) {
      compatible = false;
      break;
    }
  }

  // Grant immediately when compatible with all holders and (to stay fair)
  // nobody is already queued. Upgrades jump the queue — queueing behind a
  // conflicting waiter would deadlock against our own hold.
  if (compatible && (no_queue || is_upgrade)) {
    if (is_upgrade) {
      for (auto& h : entry.holders)
        if (h.txn == txn) h.mode = wanted;
    } else {
      entry.holders.push_back(Holder{txn, mode, rt_->Now()});
      AppendHeld(txn, key);
      TraceGrant(txn, key, mode);
    }
    ++stats_.acquisitions;
    done(Status::OK());
    return;
  }

  // Queue. Upgrades go to the front: they wait only for current holders.
  ++stats_.waits;
  Waiter w;
  w.txn = txn;
  w.mode = wanted;
  w.done = std::move(done);
  w.queued_at = rt_->Now();
  w.timeout_event = rt_->ArmTimer(
      wait_timeout_, [this, key, txn] { OnTimeout(txn, key); });
  if (is_upgrade) {
    entry.waiters.insert(entry.waiters.begin(), std::move(w));
  } else {
    entry.waiters.push_back(std::move(w));
  }
}

void LockManager::OnTimeout(uint64_t txn, KeyId key) {
  Entry& entry = table_[key];
  for (auto it = entry.waiters.begin(); it != entry.waiters.end(); ++it) {
    if (it->txn == txn) {
      GrantCallback cb = std::move(it->done);
      entry.waiters.erase(it);
      ++stats_.timeouts;
      cb(Status::TimedOut("lock wait timeout on " + interner_.NameOf(key)));
      PumpWaiters(key);
      return;
    }
  }
}

void LockManager::Grant(KeyId key, Waiter waiter) {
  rt_->CancelTimer(waiter.timeout_event);
  stats_.wait_time.Add(static_cast<double>(rt_->Now() - waiter.queued_at));
  ++stats_.acquisitions;

  Entry& entry = table_[key];
  bool upgraded = false;
  for (auto& h : entry.holders) {
    if (h.txn == waiter.txn) {
      h.mode = LockModeSupremum(h.mode, waiter.mode);  // queued upgrade
      upgraded = true;
      break;
    }
  }
  if (!upgraded) {
    entry.holders.push_back(Holder{waiter.txn, waiter.mode, rt_->Now()});
    AppendHeld(waiter.txn, key);
    TraceGrant(waiter.txn, key, waiter.mode);
  }
  // Callback last: it may re-enter Acquire and invalidate `entry`.
  waiter.done(Status::OK());
}

void LockManager::PumpWaiters(KeyId key) {
  if (key >= table_.size()) return;
  while (true) {
    // Re-fetch each round: grant callbacks can re-enter Acquire and grow
    // the table, moving entries.
    Entry& entry = table_[key];
    if (entry.waiters.empty()) break;
    Waiter& next = entry.waiters.front();
    bool compatible = true;
    for (const auto& h : entry.holders) {
      if (h.txn == next.txn) continue;
      if (!Compatible(h.mode, next.mode)) {
        compatible = false;
        break;
      }
    }
    if (!compatible) break;
    Waiter w = std::move(next);
    entry.waiters.erase(entry.waiters.begin());
    Grant(key, std::move(w));
  }
}

void LockManager::ReleaseAll(uint64_t txn) {
  HeldList* list_slot = FindList(txn);
  if (list_slot == nullptr || list_slot->head == kNil) return;
  // Detach the list up front so re-entrant releases (from grant callbacks)
  // see it empty, mirroring the map-erase in the seed implementation.
  HeldList list = *list_slot;
  *list_slot = HeldList{};

  if (ctx_->trace().capturing()) {
    ctx_->trace().Add({rt_->Now(), sim::TraceKind::kUnlock, node_, "", txn,
                       StringPrintf("%zu locks", size_t{list.count})});
  }
  uint32_t idx = list.head;
  while (idx != kNil) {
    // Copy the node and recycle its slot before any callback runs: grant
    // callbacks may Acquire and take nodes from the free list.
    HeldNode node = held_slab_[idx];
    free_nodes_.push_back(idx);
    Entry& entry = table_[node.key];
    for (auto h = entry.holders.begin(); h != entry.holders.end(); ++h) {
      if (h->txn == txn) {
        stats_.hold_time.Add(static_cast<double>(rt_->Now() - h->granted_at));
        entry.holders.erase(h);
        break;
      }
    }
    PumpWaiters(node.key);
    idx = node.next;
  }
}

bool LockManager::Holds(uint64_t txn, KeyId key, LockMode mode) const {
  if (key >= table_.size()) return false;
  for (const auto& h : table_[key].holders) {
    if (h.txn == txn) return LockModeCovers(h.mode, mode);
  }
  return false;
}

size_t LockManager::WaiterCount() const {
  size_t n = 0;
  for (const auto& entry : table_) n += entry.waiters.size();
  return n;
}

void LockManager::CancelWaitTimeouts() {
  for (Entry& entry : table_)
    for (const Waiter& w : entry.waiters) rt_->CancelTimer(w.timeout_event);
}

}  // namespace tpc::lock
