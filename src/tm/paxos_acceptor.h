// Paxos Commit acceptor state machine (Gray & Lamport, "Consensus on
// Transaction Commit").
//
// One acceptor participates in every instance of a transaction's commit
// consensus: instance = one participant's vote, proposed at ballot 0 by the
// participant itself and at ballots >= 1 by a takeover leader. The class is
// pure state — no I/O, no timers — so ballot safety and majority
// intersection are unit-testable in isolation; the TransactionManager owns
// durability (a forced kTmAccept snapshot before every reply) and the wire
// plumbing.
//
// Ballot discipline (single promise ballot per transaction, shared by all
// of its instances, as in the paper's coordinator-failure protocol):
//   - Promise(b) grants iff b >= promised, and raises promised to b.
//   - Accept(b) accepts iff b >= promised, raises promised to b, and
//     overwrites the instance's accepted (ballot, value) pair.
// Distinct leaders always use distinct ballots (see
// TransactionManager::PaxosBallot), so two leaders can never both assemble
// accepted majorities for conflicting values: the later ballot's 1a round
// either sees the earlier value at a majority member and must re-propose
// it, or revokes the earlier ballot's unfinished majority.

#ifndef TPC_TM_PAXOS_ACCEPTOR_H_
#define TPC_TM_PAXOS_ACCEPTOR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace tpc::tm {

/// One instance's accepted state at this acceptor.
struct AcceptorInstance {
  std::string name;       ///< the participant whose vote this instance is
  uint64_t ballot = 0;    ///< ballot the value was accepted at
  bool prepared = false;  ///< accepted value: Prepared (true) or Aborted
};

/// All consensus state one acceptor holds for one transaction.
struct AcceptorTxn {
  uint64_t promised = 0;  ///< highest ballot promised or accepted
  std::vector<AcceptorInstance> accepted;
  /// Instance set, learned from 2a traffic — a takeover leader that knows
  /// nothing recovers the cohort from any acceptor's promise.
  std::vector<std::string> cohort;
  /// Ballot-0 leader (the root), learned from 2a traffic.
  std::string leader0;

  const AcceptorInstance* Find(std::string_view instance) const;
};

class PaxosAcceptor {
 public:
  /// Phase 1a: grants when `ballot` >= the transaction's promised ballot
  /// (idempotent re-grant for the same leader), raising the promise.
  /// Returns false — a nack — when a higher ballot was already promised.
  bool Promise(uint64_t txn, uint64_t ballot);

  /// Phase 2a: accepts when `ballot` >= promised, recording (ballot, value)
  /// for the instance and merging the cohort/ballot-0-leader metadata.
  /// Returns false when a higher ballot was promised (stale proposer).
  bool Accept(uint64_t txn, std::string_view instance, uint64_t ballot,
              bool prepared, const std::vector<std::string>& cohort,
              std::string_view leader);

  /// nullptr when this acceptor holds nothing for `txn`.
  const AcceptorTxn* Find(uint64_t txn) const;

  /// promised ballot, 0 when the transaction is unknown.
  uint64_t Promised(uint64_t txn) const;

  /// True when every cohort member's instance holds an accepted value —
  /// the point where an acceptor can answer the whole transaction with one
  /// bundled 2b (and one covering force) instead of per-instance replies.
  bool HasAllInstances(uint64_t txn) const;

  /// Reclaims one transaction's state (END-driven garbage collection once
  /// the decision is stable at every cohort member). Returns true when
  /// state existed. Pair with an empty-snapshot tombstone so recovery's
  /// last-record-wins replay does not resurrect the entry.
  bool Erase(uint64_t txn) { return txns_.erase(txn) > 0; }

  /// True when `count` voters out of `acceptors` form a majority.
  static bool IsMajority(size_t count, size_t acceptors) {
    return count * 2 > acceptors;
  }

  /// Appends a durable snapshot of one transaction's state (the kTmAccept
  /// record body). Snapshot-restore is idempotent: the last record wins.
  void EncodeSnapshot(uint64_t txn, std::string* out) const;

  /// Replaces the transaction's state from a snapshot body.
  Status RestoreSnapshot(uint64_t txn, std::string_view body);

  /// Checks a snapshot body as RestoreSnapshot would, restoring nothing and
  /// allocating nothing (recovery validates superseded snapshots with it).
  static Status ValidateSnapshot(std::string_view body);

  /// Volatile loss (crash). Durable state comes back via RestoreSnapshot.
  void Clear() { txns_.clear(); }

  size_t txn_count() const { return txns_.size(); }
  /// Ids of the transactions held, ascending.
  std::vector<uint64_t> Held() const;

  /// Heap bytes held for live transactions (cluster memory budgets; the
  /// bounded-memory torture assertions watch this through the TM).
  uint64_t ApproxBytes() const;

 private:
  std::unordered_map<uint64_t, AcceptorTxn> txns_;
};

}  // namespace tpc::tm

#endif  // TPC_TM_PAXOS_ACCEPTOR_H_
