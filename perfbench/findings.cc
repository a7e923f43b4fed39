// Reproductions of the seed-state findings README.md lists, one command
// each (`perfbench --finding <name>`). They print plain text, no result
// line; none is part of a measured workload.

#include <cstdio>
#include <string>

#include "common.h"
#include "util/format.h"
#include "util/logging.h"

namespace perfbench {
namespace {

using tpc::harness::Cluster;
namespace tm = tpc::tm;

/// The `conversation` cell under `config`, engine tracing off.
std::unique_ptr<Cluster> ThreeNodes(const tm::TmConfig& config) {
  auto c = std::make_unique<Cluster>(1);
  tpc::harness::NodeOptions node;
  node.tm = config;
  static SpanLog no_spans;
  static uint64_t write_failures = 0;
  AddThreeNodes(c.get(), node, &no_spans, &write_failures);
  c->network().set_tracing(false);
  c->ctx().trace().set_capture(false);
  return c;
}

/// Ships one transaction's work: a write at coord and s1, a read at s2,
/// `flows` 64-byte flows to each subordinate.
uint64_t ShipWork(Cluster& c, int flows) {
  tm::TransactionManager& coord = c.tm("coord");
  const uint64_t txn = coord.Begin();
  const std::string key = tpc::StringPrintf("k%llu", static_cast<unsigned long long>(txn));
  coord.Write(txn, 0, key, "v", [](tpc::Status) {});
  TPC_CHECK_OK(coord.SendWork(txn, "s1", "w" + key));
  TPC_CHECK_OK(coord.SendWork(txn, "s2", "r" + key));
  const std::string bulk(64, 'd');
  for (int f = 0; f < flows; ++f) {
    TPC_CHECK_OK(coord.SendWork(txn, "s1", bulk));
    TPC_CHECK_OK(coord.SendWork(txn, "s2", bulk));
  }
  return txn;
}

void PaxosReadLeak(uint64_t txns) {
  tm::TmConfig cfg;
  cfg.protocol = tm::ProtocolKind::kPaxosCommit;
  cfg.acceptors = {"coord", "s1", "s2"};
  auto c = ThreeNodes(cfg);
  const uint64_t window = 10'000;
  std::printf("paxos_commit, s2 reads only, 4 x 64 B flows per subordinate\n");
  std::printf("%10s %18s %14s %14s\n", "txns", "commits/cpu-s", "events/txn",
              "s2 locks held");
  uint64_t done = 0;
  while (done < txns) {
    const uint64_t n = std::min(window, txns - done);
    const int64_t cpu0 = ThreadCpuNs();
    const uint64_t ev0 = c->ctx().events().executed();
    for (uint64_t i = 0; i < n; ++i) {
      const uint64_t txn = ShipWork(*c, 4);
      bool fired = false;
      c->tm("coord").Commit(txn, [&fired](tm::CommitResult) { fired = true; });
      c->Drain();
      TPC_CHECK(fired);
    }
    done += n;
    const double cpu_s = static_cast<double>(ThreadCpuNs() - cpu0) * 1e-9;
    std::printf("%10llu %18.0f %14.1f %14zu\n", static_cast<unsigned long long>(done),
                static_cast<double>(n) / cpu_s,
                static_cast<double>(c->ctx().events().executed() - ev0) / static_cast<double>(n),
                c->node("s2").rm().locks().HeldLockCount());
  }
  c->RunFor(120 * tpc::sim::kSecond);
  std::printf("after 120 simulated seconds of quiesce: s2 holds %zu locks, "
              "%zu active and %zu in-doubt txns\n",
              c->node("s2").rm().locks().HeldLockCount(),
              c->tm("s2").ActiveTxnCount(), c->tm("s2").InDoubtCount());
}

void OnePhaseThinkTime() {
  for (tm::ProtocolKind kind :
       {tm::ProtocolKind::kOnePhase, tm::ProtocolKind::kOnePhaseLogless}) {
    tm::TmConfig cfg;
    cfg.protocol = kind;
    for (tpc::sim::Time think : {20 * tpc::sim::kMillisecond, 20 * tpc::sim::kSecond}) {
      auto c = ThreeNodes(cfg);
      const uint64_t txn = ShipWork(*c, 1);
      // 20 ms > early_prepare_delay: s1 votes before Commit. 20 s > also
      // inquiry_delay: the prepared s1 asks the coordinator, which has not
      // decided yet.
      c->RunFor(think);
      const tpc::harness::DrivenCommit r = c->CommitAndWait("coord", txn);
      c->Drain();
      const tpc::harness::TxnAudit audit = c->Audit(txn);
      std::printf("%-20s pause %8lld us before Commit: client %s, coord %s, s1 %s, "
                  "audit %s\n",
                  std::string(tm::ProtocolKindToString(kind)).c_str(),
                  static_cast<long long>(think),
                  std::string(tm::OutcomeToString(r.result.outcome)).c_str(),
                  std::string(tm::OutcomeToString(c->tm("coord").View(txn).outcome)).c_str(),
                  std::string(tm::OutcomeToString(c->tm("s1").View(txn).outcome)).c_str(),
                  audit.damage_ground_truth ? "DAMAGE (atomicity lost)" : "consistent");
    }
  }
}

void PaxosLostVote() {
  tm::TmConfig cfg;
  cfg.protocol = tm::ProtocolKind::kPaxosCommit;
  cfg.acceptors = {"coord", "s1", "s2"};
  for (const char* point : {"rm.after_prepared_log", "rm.before_prepared_log"}) {
    auto c = ThreeNodes(cfg);
    c->ctx().failures().RegisterNode("s1", [&c] { c->node("s1").Crash(); },
                                     [&c] { c->node("s1").Restart(); });
    c->ctx().failures().ArmCrash("s1", point);
    const uint64_t txn = ShipWork(*c, 0);
    bool fired = false;
    c->tm("coord").Commit(txn, [&fired](tm::CommitResult) { fired = true; });
    c->RunFor(tpc::sim::kSecond);
    c->ctx().failures().RestartNow("s1");
    c->RunFor(600 * tpc::sim::kSecond);
    std::printf("paxos_commit, s1 crashes at %s and restarts 1 s later: after 600 "
                "simulated seconds the commit callback %s; coord tracks %zu txn(s), "
                "%zu event(s) pending\n",
                point, fired ? "fired" : "NEVER FIRED", c->tm("coord").ActiveTxnCount(),
                c->ctx().events().pending());
  }
}

/// A lock waiter is queued at s1 when s1 crashes. With `step` set, runs on
/// to the waiter's timeout.
void CrashLockWaiter(bool step) {
  auto c = ThreeNodes(tm::TmConfig());
  tpc::rm::KVResourceManager& rm = c->node("s1").rm();
  rm.Write(1, "k", "a", [](tpc::Status) {});
  bool timed_out = false;
  rm.Write(2, "k", "b", [&timed_out](tpc::Status st) { timed_out = !st.ok(); });
  c->RunFor(tpc::sim::kMillisecond);
  const size_t waiting = c->ctx().events().pending();
  c->node("s1").Crash();
  c->node("s1").Restart();
  c->RunFor(tpc::sim::kSecond);
  std::printf("s1: txn 2 waits for txn 1's lock on \"k\" (%zu event(s) pending); s1 "
              "crashes and restarts; 1 s later %zu event(s) are pending, none of them "
              "for a live transaction\n",
              waiting, c->ctx().events().pending());
  std::fflush(stdout);
  if (!step) return;
  c->RunFor(10 * tpc::sim::kSecond);
  std::printf("the discarded waiter's timeout ran on the rebuilt lock manager; its "
              "callback %s\n", timed_out ? "fired" : "did not fire");
}

}  // namespace

int RunFinding(const std::string& name, uint64_t txns) {
  if (name == "paxos-read-leak") {
    PaxosReadLeak(txns == 0 ? 50'000 : txns);
  } else if (name == "tree-history") {
    TreeHistoryFinding();
  } else if (name == "one-phase-think-time") {
    OnePhaseThinkTime();
  } else if (name == "paxos-lost-vote") {
    PaxosLostVote();
  } else if (name == "crash-lock-waiter") {
    CrashLockWaiter(txns > 0);
  } else {
    std::fprintf(stderr, "unknown finding %s\n", name.c_str());
    return 2;
  }
  return 0;
}

}  // namespace perfbench
