#include "tm/paxos_acceptor.h"

#include <algorithm>

#include "util/binary_io.h"

namespace tpc::tm {

const AcceptorInstance* AcceptorTxn::Find(std::string_view instance) const {
  for (const AcceptorInstance& a : accepted)
    if (a.name == instance) return &a;
  return nullptr;
}

bool PaxosAcceptor::Promise(uint64_t txn, uint64_t ballot) {
  AcceptorTxn& state = txns_[txn];
  if (ballot < state.promised) return false;
  state.promised = ballot;
  return true;
}

bool PaxosAcceptor::Accept(uint64_t txn, std::string_view instance,
                           uint64_t ballot, bool prepared,
                           const std::vector<std::string>& cohort,
                           std::string_view leader) {
  AcceptorTxn& state = txns_[txn];
  if (ballot < state.promised) return false;
  state.promised = ballot;
  AcceptorInstance* slot = nullptr;
  for (AcceptorInstance& a : state.accepted)
    if (a.name == instance) slot = &a;
  if (slot == nullptr) {
    state.accepted.emplace_back();
    slot = &state.accepted.back();
    slot->name.assign(instance);
  }
  // ballot >= promised >= any previously accepted ballot, so overwriting is
  // always the classic acceptor rule.
  slot->ballot = ballot;
  slot->prepared = prepared;
  if (state.cohort.size() < cohort.size()) state.cohort = cohort;
  if (ballot == 0 && !leader.empty() && state.leader0.empty())
    state.leader0.assign(leader);
  return true;
}

const AcceptorTxn* PaxosAcceptor::Find(uint64_t txn) const {
  auto it = txns_.find(txn);
  return it == txns_.end() ? nullptr : &it->second;
}

uint64_t PaxosAcceptor::Promised(uint64_t txn) const {
  const AcceptorTxn* state = Find(txn);
  return state == nullptr ? 0 : state->promised;
}

bool PaxosAcceptor::HasAllInstances(uint64_t txn) const {
  const AcceptorTxn* state = Find(txn);
  if (state == nullptr || state->cohort.empty()) return false;
  for (const std::string& member : state->cohort)
    if (state->Find(member) == nullptr) return false;
  return true;
}

std::vector<uint64_t> PaxosAcceptor::Held() const {
  std::vector<uint64_t> ids;
  ids.reserve(txns_.size());
  for (const auto& [id, state] : txns_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

uint64_t PaxosAcceptor::ApproxBytes() const {
  // Bucket-array estimate plus per-entry heap: the unordered_map's nodes
  // and every string/vector the entries own.
  uint64_t bytes = txns_.bucket_count() * sizeof(void*);
  for (const auto& [id, state] : txns_) {
    bytes += sizeof(id) + sizeof(state) + 2 * sizeof(void*);
    bytes += state.leader0.capacity();
    bytes += state.cohort.capacity() * sizeof(std::string);
    for (const std::string& n : state.cohort) bytes += n.capacity();
    bytes += state.accepted.capacity() * sizeof(AcceptorInstance);
    for (const AcceptorInstance& a : state.accepted) bytes += a.name.capacity();
  }
  return bytes;
}

void PaxosAcceptor::EncodeSnapshot(uint64_t txn, std::string* out) const {
  static const AcceptorTxn kEmpty;
  const AcceptorTxn* state = Find(txn);
  if (state == nullptr) state = &kEmpty;
  AppendVarint(*out, state->promised);
  AppendLengthPrefixed(*out, state->leader0);
  AppendVarint(*out, state->cohort.size());
  for (const std::string& n : state->cohort) AppendLengthPrefixed(*out, n);
  AppendVarint(*out, state->accepted.size());
  for (const AcceptorInstance& a : state->accepted) {
    AppendLengthPrefixed(*out, a.name);
    AppendVarint(*out, a.ballot);
    AppendU8(*out, a.prepared ? 1 : 0);
  }
}

namespace {

// The one snapshot parser. With `out` null it only validates, reading the
// names as views, so it allocates nothing.
Status ParseSnapshot(std::string_view body, AcceptorTxn* out) {
  Decoder dec(body);
  AcceptorTxn scratch;
  AcceptorTxn& state = out != nullptr ? *out : scratch;
  std::string_view name;
  TPC_RETURN_IF_ERROR(dec.GetVarint(&state.promised));
  TPC_RETURN_IF_ERROR(dec.GetStringView(&name));
  if (out != nullptr) state.leader0.assign(name);
  uint64_t n = 0;
  TPC_RETURN_IF_ERROR(dec.GetVarint(&n));
  if (n > 4096) return Status::Corruption("acceptor cohort implausible");
  for (uint64_t i = 0; i < n; ++i) {
    TPC_RETURN_IF_ERROR(dec.GetStringView(&name));
    if (out != nullptr) state.cohort.emplace_back(name);
  }
  TPC_RETURN_IF_ERROR(dec.GetVarint(&n));
  if (n > 4096) return Status::Corruption("acceptor instances implausible");
  for (uint64_t i = 0; i < n; ++i) {
    AcceptorInstance a;
    TPC_RETURN_IF_ERROR(dec.GetStringView(&name));
    TPC_RETURN_IF_ERROR(dec.GetVarint(&a.ballot));
    uint8_t prepared = 0;
    TPC_RETURN_IF_ERROR(dec.GetU8(&prepared));
    if (prepared > 1) return Status::Corruption("bad acceptor value");
    if (out == nullptr) continue;
    a.name.assign(name);
    a.prepared = prepared != 0;
    state.accepted.push_back(std::move(a));
  }
  if (!dec.empty()) return Status::Corruption("trailing acceptor bytes");
  return Status::OK();
}

}  // namespace

Status PaxosAcceptor::ValidateSnapshot(std::string_view body) {
  return ParseSnapshot(body, nullptr);
}

Status PaxosAcceptor::RestoreSnapshot(uint64_t txn, std::string_view body) {
  AcceptorTxn state;
  TPC_RETURN_IF_ERROR(ParseSnapshot(body, &state));
  if (state.promised == 0 && state.accepted.empty() && state.cohort.empty() &&
      state.leader0.empty()) {
    // An empty snapshot is the END tombstone: last-record-wins replay must
    // end with the entry reclaimed, not resurrected as empty state.
    txns_.erase(txn);
    return Status::OK();
  }
  txns_[txn] = std::move(state);
  return Status::OK();
}

}  // namespace tpc::tm
