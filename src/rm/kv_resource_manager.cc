#include "rm/kv_resource_manager.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "runtime/sim_runtime.h"
#include "tm/crash_points.h"
#include "util/binary_io.h"
#include "util/flat_map.h"
#include "util/logging.h"

namespace tpc::rm {
namespace {

// Indices into tm::kRmCrashPoints (and fi_points_).
enum RmCrashIdx : size_t {
  kBeforePreparedLog = 0,
  kAfterPreparedLog = 1,
  kBeforeCommittedLog = 2,
  kAfterCommittedLog = 3,
  kBeforeAbortLog = 4,
  kAfterAbortLog = 5,
};

void PutUpdate(Encoder& enc, std::string_view key, std::string_view old_value,
               bool had_old, std::string_view new_value) {
  enc.PutString(key);
  enc.PutString(old_value);
  enc.PutBool(had_old);
  enc.PutString(new_value);
}

Status GetUpdate(Decoder& dec, std::string_view* key,
                 std::string_view* old_value, bool* had_old,
                 std::string_view* new_value) {
  TPC_RETURN_IF_ERROR(dec.GetStringView(key));
  TPC_RETURN_IF_ERROR(dec.GetStringView(old_value));
  TPC_RETURN_IF_ERROR(dec.GetBool(had_old));
  return dec.GetStringView(new_value);
}

// The container resource for hierarchical (intent) locking. The name uses
// a control character so it cannot collide with user keys.
const char kStoreLock[] = "\x01store";

}  // namespace

std::string_view VoteToString(Vote vote) {
  switch (vote) {
    case Vote::kYes: return "YES";
    case Vote::kNo: return "NO";
    case Vote::kReadOnly: return "READ-ONLY";
  }
  return "?";
}

KVResourceManager::KVResourceManager(sim::SimContext* ctx, std::string name,
                                     wal::LogManager* log, KVOptions options)
    : owned_rt_(std::make_unique<runtime::SimRuntime>(ctx)),
      rt_(owned_rt_.get()),
      ctx_(ctx),
      name_(std::move(name)),
      log_(log),
      options_(options),
      locks_(rt_, ctx, name_, options.lock_timeout),
      store_lock_id_(locks_.InternKey(kStoreLock)) {}

KVResourceManager::KVResourceManager(runtime::Runtime* rt,
                                     sim::SimContext* ctx, std::string name,
                                     wal::LogManager* log, KVOptions options)
    : rt_(rt),
      ctx_(ctx),
      name_(std::move(name)),
      log_(log),
      options_(options),
      locks_(rt, ctx, name_, options.lock_timeout),
      store_lock_id_(locks_.InternKey(kStoreLock)) {}

void KVResourceManager::EnableCrashPoints(const std::string& node) {
  fi_node_ = ctx_->failures().InternNode(node);
  for (size_t i = 0; i < tm::kRmCrashPointCount; ++i)
    fi_points_[i] = ctx_->failures().InternPoint(tm::kRmCrashPoints[i]);
  fi_armed_ = true;
}

bool KVResourceManager::CrashHere(size_t point) {
  if (!fi_armed_) return false;
  return ctx_->failures().CrashPoint(fi_node_, fi_points_[point]);
}

void KVResourceManager::Read(uint64_t txn, std::string_view key,
                             ReadCallback done) {
  // Lock grants can be deferred (waits), so the capture owns the key.
  locks_.Acquire(txn, store_lock_id_, lock::LockMode::kIntentShared,
                 [this, txn, key = std::string(key),
                  done = std::move(done)](Status st) mutable {
    if (!st.ok()) {
      done(std::move(st));
      return;
    }
    // Intern once; the grant path then works entirely in dense ids.
    locks_.Acquire(txn, locks_.InternKey(key), lock::LockMode::kShared,
                   [this, key = std::move(key), done = std::move(done)](Status st) {
      if (!st.ok()) {
        done(std::move(st));
        return;
      }
      auto it = store_.find(key);
      if (it == store_.end()) {
        done(Status::NotFound("no such key: " + key));
      } else {
        done(it->second);
      }
    });
  });
}

void KVResourceManager::Scan(uint64_t txn, std::string_view prefix,
                             ScanCallback done) {
  locks_.Acquire(txn, store_lock_id_, lock::LockMode::kShared,
                 [this, prefix = std::string(prefix),
                  done = std::move(done)](Status st) {
    if (!st.ok()) {
      done(std::move(st));
      return;
    }
    std::vector<std::pair<std::string, std::string>> rows;
    for (auto it = store_.lower_bound(prefix); it != store_.end(); ++it) {
      if (it->first.compare(0, prefix.size(), prefix) != 0) break;
      rows.emplace_back(it->first, it->second);
    }
    done(std::move(rows));
  });
}

void KVResourceManager::Write(uint64_t txn, std::string_view key,
                              std::string value, WriteCallback done) {
  locks_.Acquire(txn, store_lock_id_, lock::LockMode::kIntentExclusive,
                 [this, txn, key = std::string(key), value = std::move(value),
                  done = std::move(done)](Status st) mutable {
    if (!st.ok()) {
      done(std::move(st));
      return;
    }
    DoWrite(txn, key, std::move(value), std::move(done));
  });
}

void KVResourceManager::DoWrite(uint64_t txn, std::string_view key,
                                std::string value, WriteCallback done) {
  locks_.Acquire(txn, locks_.InternKey(key), lock::LockMode::kExclusive,
                 [this, txn, key = std::string(key), value = std::move(value),
                  done = std::move(done)](Status st) mutable {
    if (!st.ok()) {
      done(std::move(st));
      return;
    }
    TxnState& state = active_[txn];
    TPC_CHECK(!state.prepared);  // strict 2PC: no updates after prepare
    Update update;
    update.key = key;
    auto it = store_.find(key);
    update.had_old = it != store_.end();
    if (update.had_old) update.old_value = it->second;
    update.new_value = value;
    LogUpdate(txn, update);
    store_[key] = std::move(value);
    state.updates.push_back(std::move(update));
    done(Status::OK());
  });
}

void KVResourceManager::LogUpdate(uint64_t txn, const Update& update) {
  Encoder enc;
  PutUpdate(enc, update.key, update.old_value, update.had_old,
            update.new_value);
  wal::LogRecord rec;
  rec.type = wal::RecordType::kRmUpdate;
  rec.txn = txn;
  rec.owner = name_;
  rec.body = enc.Release();
  log_->Append(rec, /*force=*/false);
}

void KVResourceManager::Prepare(uint64_t txn, VoteCallback done) {
  if (fail_next_prepare_) {
    fail_next_prepare_ = false;
    VoteInfo info;
    info.vote = Vote::kNo;
    done(info);
    return;
  }
  auto it = active_.find(txn);
  if (it == active_.end() || it->second.updates.empty()) {
    // No updates: read-only vote. (Early lock release — the serialization
    // hazard the paper warns about — is the caller's decision via
    // EndReadOnly.)
    VoteInfo info;
    info.vote = Vote::kReadOnly;
    info.reliable = options_.reliable;
    info.ok_to_leave_out = options_.ok_to_leave_out;
    done(info);
    return;
  }
  if (CrashHere(kBeforePreparedLog)) return;
  it->second.prepared = true;
  wal::LogRecord rec;
  rec.type = wal::RecordType::kRmPrepared;
  rec.txn = txn;
  rec.owner = name_;
  const bool force = !options_.shared_log_with_tm;
  log_->Append(rec, force, [this, done = std::move(done)] {
    if (CrashHere(kAfterPreparedLog)) return;
    VoteInfo info;
    info.vote = Vote::kYes;
    info.reliable = options_.reliable;
    info.ok_to_leave_out = options_.ok_to_leave_out;
    done(info);
  });
}

void KVResourceManager::Commit(uint64_t txn, DoneCallback done) {
  auto it = active_.find(txn);
  if (it == active_.end()) {
    done(Status::OK());  // nothing local (e.g. read-only already ended)
    return;
  }
  if (CrashHere(kBeforeCommittedLog)) return;
  if (it->second.recovered) {
    // Recovered in-doubt transaction: the redo phase skipped its updates
    // because the outcome was unknown; apply them now.
    for (const auto& u : it->second.updates) store_[u.key] = u.new_value;
  }
  it->second.commit_logged = true;
  wal::LogRecord rec;
  rec.type = wal::RecordType::kRmCommitted;
  rec.txn = txn;
  rec.owner = name_;
  const bool force = !options_.shared_log_with_tm;
  log_->Append(rec, force, [this, txn, done = std::move(done)] {
    if (CrashHere(kAfterCommittedLog)) return;
    active_.erase(txn);
    locks_.ReleaseAll(txn);
    done(Status::OK());
  });
}

void KVResourceManager::Abort(uint64_t txn, DoneCallback done) {
  auto it = active_.find(txn);
  if (it == active_.end()) {
    done(Status::OK());
    return;
  }
  if (CrashHere(kBeforeAbortLog)) return;
  if (!it->second.recovered) ApplyUndo(it->second);
  wal::LogRecord rec;
  rec.type = wal::RecordType::kRmAborted;
  rec.txn = txn;
  rec.owner = name_;
  // Presumed-abort reasoning: losing an abort record is harmless (recovery
  // re-derives abort), so it is never forced.
  log_->Append(rec, /*force=*/false);
  if (CrashHere(kAfterAbortLog)) return;
  active_.erase(it);
  locks_.ReleaseAll(txn);
  done(Status::OK());
}

void KVResourceManager::EndReadOnly(uint64_t txn) {
  active_.erase(txn);
  locks_.ReleaseAll(txn);
}

bool KVResourceManager::HasUpdates(uint64_t txn) const {
  auto it = active_.find(txn);
  return it != active_.end() && !it->second.updates.empty();
}

void KVResourceManager::ApplyUndo(const TxnState& state) {
  for (auto it = state.updates.rbegin(); it != state.updates.rend(); ++it) {
    if (it->had_old) {
      store_[it->key] = it->old_value;
    } else {
      store_.erase(it->key);
    }
  }
}

void KVResourceManager::Crash() {
  store_.clear();
  active_.clear();
  // A queued waiter's timeout would otherwise fire into the new table.
  locks_.CancelWaitTimeouts();
  locks_ = lock::LockManager(rt_, ctx_, name_, options_.lock_timeout);
  store_lock_id_ = locks_.InternKey(kStoreLock);
}

std::vector<uint64_t> KVResourceManager::Recover(
    std::span<const wal::LogRecordView> records) {
  // Everything here views the durable image; bytes are copied only into
  // the store and into the in-doubt transactions' redo images.
  struct UpdateView {
    std::string_view key;
    std::string_view old_value;
    std::string_view new_value;
    bool had_old = false;
    uint32_t next = 0;  ///< 1-based position of the txn's next update
  };
  struct RecoveredTxn {
    uint64_t id = 0;
    uint32_t first = 0;  ///< 1-based position of the first update
    uint32_t last = 0;
    bool prepared = false;
    bool committed = false;
    bool aborted = false;
  };
  std::vector<UpdateView> updates;  // log order
  std::vector<RecoveredTxn> txns;   // first-appearance (log) order
  FlatId64Map<uint32_t> txn_pos;    // txn id -> 1-based position in txns
  auto txn_of = [&](uint64_t id) -> RecoveredTxn& {
    uint32_t& pos = txn_pos.GetOrCreate(id);
    if (pos == 0) {
      txns.emplace_back().id = id;
      pos = static_cast<uint32_t>(txns.size());
    }
    return txns[pos - 1];
  };
  auto add_update = [&updates](RecoveredTxn& t, Decoder& dec) {
    UpdateView u;
    TPC_CHECK_OK(GetUpdate(dec, &u.key, &u.old_value, &u.had_old,
                           &u.new_value));
    updates.push_back(u);
    const auto at = static_cast<uint32_t>(updates.size());
    if (t.last == 0) {
      t.first = at;
    } else {
      updates[t.last - 1].next = at;
    }
    t.last = at;
  };

  // The last checkpoint holds the store and every transaction still open
  // when it was taken, so it supersedes everything before it — including
  // the originals of what it carries, which survive when a crash falls
  // between its force and the truncation. Replay starts there.
  size_t first = 0;
  for (size_t i = records.size(); i-- > 0;) {
    if (records[i].type == wal::RecordType::kCheckpoint &&
        records[i].owner == name_) {
      first = i;
      break;
    }
  }
  for (size_t i = first; i < records.size(); ++i) {
    const wal::LogRecordView& rec = records[i];
    if (rec.owner != name_) continue;
    Decoder dec(rec.body);
    switch (rec.type) {
      case wal::RecordType::kCheckpoint: {
        // Only the last checkpoint is reached (replay starts at it).
        store_.clear();
        uint64_t n = 0;
        TPC_CHECK_OK(dec.GetVarint(&n));
        for (uint64_t k = 0; k < n; ++k) {
          std::string_view key, value;
          TPC_CHECK_OK(dec.GetStringView(&key));
          TPC_CHECK_OK(dec.GetStringView(&value));
          // Keys arrive sorted, so each insert goes at the end.
          store_.emplace_hint(store_.end(), key, value);
        }
        TPC_CHECK_OK(dec.GetVarint(&n));
        for (uint64_t k = 0; k < n; ++k) {
          uint64_t id = 0, count = 0;
          bool prepared = false;
          TPC_CHECK_OK(dec.GetVarint(&id));
          TPC_CHECK_OK(dec.GetBool(&prepared));
          TPC_CHECK_OK(dec.GetVarint(&count));
          RecoveredTxn& t = txn_of(id);
          t.prepared = prepared;
          for (uint64_t u = 0; u < count; ++u) add_update(t, dec);
        }
        break;
      }
      case wal::RecordType::kRmUpdate: add_update(txn_of(rec.txn), dec); break;
      case wal::RecordType::kRmPrepared: txn_of(rec.txn).prepared = true; break;
      case wal::RecordType::kRmCommitted: txn_of(rec.txn).committed = true; break;
      case wal::RecordType::kRmAborted: txn_of(rec.txn).aborted = true; break;
      default: break;
    }
  }

  // Redo phase: committed transactions' updates, in log order.
  for (const RecoveredTxn& t : txns) {
    if (!t.committed) continue;
    for (uint32_t u = t.first; u != 0; u = updates[u - 1].next) {
      const UpdateView& up = updates[u - 1];
      auto it = store_.lower_bound(up.key);
      if (it != store_.end() && it->first == up.key) {
        it->second.assign(up.new_value);
      } else {
        store_.emplace_hint(it, up.key, up.new_value);
      }
    }
  }

  // In-doubt: prepared, unresolved. Re-acquire exclusive locks and keep the
  // redo images until the TM resolves the outcome.
  std::vector<uint64_t> in_doubt;
  for (const RecoveredTxn& t : txns) {
    if (!t.prepared || t.committed || t.aborted) continue;
    in_doubt.push_back(t.id);
    TxnState state;
    state.prepared = true;
    state.recovered = true;
    for (uint32_t u = t.first; u != 0; u = updates[u - 1].next) {
      const UpdateView& up = updates[u - 1];
      state.updates.push_back(Update{std::string(up.key),
                                     std::string(up.old_value), up.had_old,
                                     std::string(up.new_value)});
    }
    for (const auto& u : state.updates) {
      locks_.Acquire(t.id, u.key, lock::LockMode::kExclusive, [](Status st) {
        TPC_CHECK(st.ok());  // fresh lock table: grants are immediate
      });
    }
    active_[t.id] = std::move(state);
  }
  return in_doubt;
}

void KVResourceManager::ResolveRecovered(uint64_t txn, bool commit) {
  auto it = active_.find(txn);
  TPC_CHECK(it != active_.end());
  if (commit) {
    // Updates were not re-applied during redo (outcome was unknown): apply
    // them now, then write the committed record.
    for (const auto& u : it->second.updates) store_[u.key] = u.new_value;
    wal::LogRecord rec;
    rec.type = wal::RecordType::kRmCommitted;
    rec.txn = txn;
    rec.owner = name_;
    log_->Append(rec, !options_.shared_log_with_tm);
  } else {
    wal::LogRecord rec;
    rec.type = wal::RecordType::kRmAborted;
    rec.txn = txn;
    rec.owner = name_;
    log_->Append(rec, /*force=*/false);
  }
  active_.erase(it);
  locks_.ReleaseAll(txn);
}

void KVResourceManager::Checkpoint(std::function<void()> done) {
  // Open transactions: still active, committed record not yet appended.
  // Sorted by id so the record is a function of the state alone.
  std::vector<std::pair<uint64_t, const TxnState*>> open;
  for (const auto& [id, state] : active_)
    if (!state.commit_logged) open.emplace_back(id, &state);
  std::sort(open.begin(), open.end());
  // The store holds open transactions' writes in place (a recovered one's
  // are not applied yet); the snapshot takes each key's value from before
  // its open writer's first update.
  std::unordered_map<std::string_view, const Update*> before;
  for (const auto& [id, state] : open) {
    if (state->recovered) continue;
    for (const Update& u : state->updates) before.emplace(u.key, &u);
  }
  std::vector<std::pair<std::string_view, std::string_view>> image;
  image.reserve(store_.size());
  for (const auto& [key, value] : store_) {
    auto it = before.find(key);
    if (it == before.end()) {
      image.emplace_back(key, value);
    } else if (it->second->had_old) {
      image.emplace_back(key, it->second->old_value);
    }
  }
  Encoder enc;
  enc.PutVarint(image.size());
  for (const auto& [key, value] : image) {
    enc.PutString(key);
    enc.PutString(value);
  }
  enc.PutVarint(open.size());
  for (const auto& [id, state] : open) {
    enc.PutVarint(id);
    enc.PutBool(state->prepared);
    enc.PutVarint(state->updates.size());
    for (const Update& u : state->updates)
      PutUpdate(enc, u.key, u.old_value, u.had_old, u.new_value);
  }
  wal::LogRecord rec;
  rec.type = wal::RecordType::kCheckpoint;
  rec.txn = 0;
  rec.owner = name_;
  rec.body = enc.Release();
  log_->Append(rec, /*force=*/true, std::move(done));
}

Result<std::string> KVResourceManager::Peek(std::string_view key) const {
  auto it = store_.find(key);
  if (it == store_.end())
    return Status::NotFound("no such key: " + std::string(key));
  return it->second;
}

bool KVResourceManager::InDoubt(uint64_t txn) const {
  auto it = active_.find(txn);
  return it != active_.end() && it->second.prepared;
}

}  // namespace tpc::rm
