// Workload `crash-recovery`: three 3-node clusters (presumed abort,
// presumed nothing, paxos commit with F = 1), one closed-loop client,
// transactions dealt round-robin. Every 5th transaction arms a seeded
// crash point from the tm/crash_points.h catalogue (TM and RM points) on
// a seeded node of its cluster; the node restarts 500 ms of
// simulated time later and recovers from its log. Each node checkpoints
// every 20 of its cluster's transactions when it is quiescent.
//
// Why: the only workload that reads the log back (the wal recovery scan,
// tm recovery, inquiry and paxos takeover), the opposite direction of wal
// use from the other three, and the only one that measures service after
// a failure, across the three recovery styles: subordinate-driven (PA),
// coordinator-driven (PN) and takeover (paxos).
//
// The candidate points of each (family, node) are the catalogue points a
// clean transaction of that family reaches on that node, found by a
// calibration run before the plan is drawn. The client resubmits a
// transaction that did not commit (aborted, or its callback was lost with
// the coordinator) as a new transaction without a crash point, up to
// kMaxAttempts attempts in all, so every planned transaction ends
// committed; the attempts that did not commit still count against
// committed_frac. A resubmission writes its own key (the planned key with
// the attempt number appended): the planned attempt may still hold the
// planned key's locks, in doubt or, under paxos, for good (README.md,
// "Paxos Commit has no vote timeout"). Device as in `conversation`
// (2 ms + 64 MB/s per force); network 1 ms plus a seeded per-transaction
// delay of 0-1 ms per link, which spreads each family's latencies into a
// continuum so percentiles do not sit on the edge between two families.

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "tm/crash_points.h"
#include "util/format.h"
#include "util/logging.h"
#include "util/random.h"

namespace perfbench {
namespace {

using tpc::harness::Cluster;
using tpc::harness::NodeOptions;
namespace tm = tpc::tm;
using tpc::sim::Time;

constexpr size_t kClusters = 3;
constexpr uint64_t kTimedTxns = 1500;
constexpr uint64_t kChunkTxns = 75;  // CPU timing granularity
constexpr uint64_t kWarmupTxns = 60;
/// One crash in five transactions puts the p99 commit latency inside the
/// ~1 s cluster of crash-delayed commits; one in ten left it on the edge
/// between the 0.5 s and 1 s clusters, where it flipped with the seed.
constexpr uint64_t kCrashEvery = 5;
constexpr uint64_t kCheckpointEvery = 20;  // per cluster
/// Attempts per planned transaction: the planned one and its resubmissions.
constexpr size_t kMaxAttempts = 4;
constexpr Time kRestartDelay = 500 * tpc::sim::kMillisecond;
constexpr Time kSettle = 50 * tpc::sim::kMillisecond;
/// The client gives up on a commit callback after this long.
constexpr Time kClientTimeout = 5 * tpc::sim::kSecond;
constexpr Time kFinalQuiesce = 300 * tpc::sim::kSecond;

const std::array<std::string, 3> kNodes = {kCoord, kS1, kS2};
const std::vector<std::string> kLabels = {"presumed_abort", "presumed_nothing",
                                          "paxos_commit"};
constexpr Time kMaxJitter = tpc::sim::kMillisecond;  // per link

tm::TmConfig ConfigFor(size_t cluster) {
  tm::TmConfig c;
  c.protocol = cluster == 0   ? tm::ProtocolKind::kPresumedAbort
               : cluster == 1 ? tm::ProtocolKind::kPresumedNothing
                              : tm::ProtocolKind::kPaxosCommit;
  if (cluster == 2) c.acceptors = {kCoord, kS1, kS2};
  // Recovery timers scaled to the restart delay, so one crash costs
  // seconds, not minutes, of simulated service and a round's figures
  // average over hundreds of crashes instead of following a few.
  c.vote_timeout = 2 * tpc::sim::kSecond;
  c.ack_timeout = tpc::sim::kSecond;
  c.inquiry_delay = tpc::sim::kSecond;
  c.recovery_retry_interval = 2 * tpc::sim::kSecond;
  return c;
}

/// Catalogue points reachable per (cluster, node).
using Reachable = std::array<std::array<std::vector<std::string>, 3>, kClusters>;

/// One cluster with its client-side bookkeeping.
struct Cell {
  std::unique_ptr<Cluster> cluster;
  std::array<tpc::harness::Node*, 3> nodes{};
  uint64_t txns_done = 0;
  uint64_t write_failures = 0;
  std::vector<Time> crashes_awaiting_commit;
};

class Runner {
 public:
  explicit Runner(SpanLog* spans) : spans_(spans), client_(spans) {}
  // Engine callbacks hold `this`.
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  void Build() {
    for (size_t k = 0; k < kClusters; ++k) {
      Cell& cell = cells_[k];
      cell.cluster = std::make_unique<Cluster>(/*seed=*/11 + k);
      Cluster& c = *cell.cluster;
      NodeOptions node;
      node.tm = ConfigFor(k);
      node.log_force_latency = 2 * tpc::sim::kMillisecond;
      node.log_bandwidth_bytes_per_sec = 64ull << 20;
      AddThreeNodes(&c, node, spans_, &cell.write_failures);
      for (size_t n = 0; n < kNodes.size(); ++n) cell.nodes[n] = &c.node(kNodes[n]);
      Cell* cp = &cell;
      // Crashes restart the node after a fixed delay; restarts are timed.
      for (size_t n = 0; n < kNodes.size(); ++n) {
        tpc::harness::Node* nd = cell.nodes[n];
        const std::string name = kNodes[n];
        c.ctx().failures().RegisterNode(
            name,
            [this, cp, nd, name] {
              // A crash rebuilds the RM's lock manager, stats included:
              // keep what the lost one counted.
              const tpc::lock::LockStats& ls = nd->rm().locks().stats();
              lost_locks_.lock_acquires += ls.acquisitions;
              lost_locks_.lock_waits += ls.waits;
              lost_locks_.lock_timeouts += ls.timeouts;
              lost_locks_.lock_hold.Merge(ls.hold_time);
              lost_locks_.lock_wait.Merge(ls.wait_time);
              nd->Crash();
              cp->crashes_awaiting_commit.push_back(cp->cluster->ctx().now());
              ++crashes_;
              cp->cluster->ctx().failures().ScheduleRestartAfter(name, kRestartDelay);
            },
            [this, nd] {
              recovery_bytes_ += nd->log().storage().durable().size();
              const int64_t t0 = WallNs();
              {
                Scope s(spans_, SpanKind::kRestart, 0);
                nd->Restart();
              }
              restart_us_.push_back(static_cast<double>(WallNs() - t0) * 1e-3);
            });
      }
      clusters_.push_back(&c);
    }
  }

  /// Runs one transaction to its client-visible end: the commit callback,
  /// the coordinator's restart when it crashed, or the point where nothing
  /// is left to run (a callback that never fires). Only the callback counts
  /// as done.
  void Run(const ThreeNodeTxn& plan, TxnResult* r) {
    Cell& cell = cells_[plan.cell];
    Cluster& c = *cell.cluster;
    tm::TransactionManager& coord = c.tm(kCoord);
    StepUntil(c, [&] { return coord.IsUp(); });
    TPC_CHECK(coord.IsUp());
    tpc::sim::FailureInjector& fi = c.ctx().failures();
    fi.DisarmAll();
    if (plan.crash_node >= 0) {
      const std::string& node = kNodes[static_cast<size_t>(plan.crash_node)];
      fi.ArmCrash(node, plan.crash_point,
                  static_cast<int>(fi.epoch_hits(node, plan.crash_point)) + 1);
    }
    const int epoch = fi.node_epoch(kCoord);
    r->txn = client_.Start(c, plan, &cell.write_failures);
    const Time sim_start = c.ctx().now();
    const int64_t commit_start = spans_->on() ? WallNs() : 0;
    auto result = std::make_shared<TxnResult>(*r);
    coord.Commit(r->txn, [this, result, &cell, sim_start, commit_start](tm::CommitResult res) {
      result->done = true;
      result->outcome = res.outcome;
      result->damage = res.heuristic_damage;
      const Time now = cell.cluster->ctx().now();
      result->latency = now - sim_start;
      if (spans_->on()) spans_->Add(SpanKind::kCommit, result->txn, commit_start, WallNs());
      if (res.outcome == tm::Outcome::kCommitted) {
        for (Time t : cell.crashes_awaiting_commit) outages_.Add(static_cast<double>(now - t));
        cell.crashes_awaiting_commit.clear();
      }
    });
    StepUntil(c, [&] {
      return result->done || (fi.node_epoch(kCoord) != epoch && coord.IsUp());
    });
    *r = *result;
    if (!r->done) ++never_completed_;
    if (++cell.txns_done % kCheckpointEvery == 0) Checkpoint(cell);
  }

  /// Lets every cluster resolve what is left (inquiries, takeovers,
  /// redrives) before the checks.
  void Quiesce() {
    for (Cell& cell : cells_) {
      cell.cluster->ctx().failures().DisarmAll();
      cell.cluster->RunFor(kFinalQuiesce);
    }
  }

  std::array<Cell, kClusters>& cells() { return cells_; }
  const std::vector<Cluster*>& clusters() const { return clusters_; }
  const tpc::Histogram& outages() const { return outages_; }
  uint64_t crashes() const { return crashes_; }
  /// Lock stats of lock managers that crashes discarded since the last
  /// ResetLostLocks.
  const LayerTotals& lost_locks() const { return lost_locks_; }
  void ResetLostLocks() { lost_locks_ = LayerTotals(); }
  uint64_t never_completed() const { return never_completed_; }
  uint64_t recovery_bytes() const { return recovery_bytes_; }
  const std::vector<double>& restart_us() const { return restart_us_; }

 private:
  /// Steps the kernel until `done`, the queue empties or the client
  /// timeout passes.
  template <typename Pred>
  void StepUntil(Cluster& c, Pred&& done) {
    Scope s(spans_, SpanKind::kDrain, 0);
    const Time limit = c.ctx().now() + kClientTimeout;
    while (!done() && c.ctx().now() <= limit && c.ctx().events().Step()) {
    }
  }

  void Checkpoint(Cell& cell) {
    cell.cluster->RunFor(kSettle);
    for (tpc::harness::Node* n : cell.nodes) {
      if (!n->tm().IsUp()) continue;
      const int64_t t0 = spans_->on() ? WallNs() : 0;
      SpanLog* spans = spans_;
      // Refused (FailedPrecondition) while the node is not quiescent.
      (void)n->Checkpoint([spans, t0] {
        if (spans->on()) spans->Add(SpanKind::kCheckpoint, 0, t0, WallNs());
      });
    }
  }

  SpanLog* spans_;
  ThreeNodeClient client_;
  std::array<Cell, kClusters> cells_;
  std::vector<Cluster*> clusters_;
  tpc::Histogram outages_;
  LayerTotals lost_locks_;
  uint64_t crashes_ = 0;
  uint64_t never_completed_ = 0;
  uint64_t recovery_bytes_ = 0;
  std::vector<double> restart_us_;
};

Reachable Calibrate() {
  SpanLog off;
  Runner runner(&off);
  runner.Build();
  for (uint32_t i = 0; i < 2 * kClusters; ++i) {
    ThreeNodeTxn p;
    p.cell = i % kClusters;
    p.key = tpc::StringPrintf("cal%u", i);
    p.delay_s1 = p.delay_s2 = tpc::sim::kMillisecond;
    TxnResult r;
    runner.Run(p, &r);
    TPC_CHECK(r.done);
  }
  runner.Quiesce();
  Reachable reachable;
  std::vector<std::string> catalogue(tm::kCrashPointNames,
                                     tm::kCrashPointNames + tm::kCrashPointCount);
  catalogue.insert(catalogue.end(), tm::kRmCrashPoints,
                   tm::kRmCrashPoints + tm::kRmCrashPointCount);
  for (size_t k = 0; k < kClusters; ++k)
    for (size_t n = 0; n < kNodes.size(); ++n)
      for (const std::string& point : catalogue)
        if (runner.cells()[k].cluster->ctx().failures().hits(kNodes[n], point) > 0)
          reachable[k][n].push_back(point);
  return reachable;
}

/// Deals seeded draws from a fixed set so that every member comes up
/// equally often: each pass is a fresh seeded shuffle.
class Deck {
 public:
  explicit Deck(size_t size) : size_(size) {}
  size_t Draw(tpc::Random& rng) {
    if (next_ == order_.size()) {
      order_.resize(size_);
      for (size_t i = 0; i < size_; ++i) order_[i] = i;
      for (size_t i = size_; i > 1; --i) std::swap(order_[i - 1], order_[rng.Uniform(i)]);
      next_ = 0;
    }
    return order_[next_++];
  }

 private:
  size_t size_;
  std::vector<size_t> order_;
  size_t next_ = 0;
};

/// Crash targets are dealt, not drawn independently: every (cluster, node)
/// and every reachable point of it crashes equally often, and the seed
/// decides the order. Independent draws let a seed crash one paxos node a
/// tenth more often than another, and a restart replays that node's whole
/// log, so CPU per commit followed the draw (spread 27% over ten seeds).
std::vector<ThreeNodeTxn> MakePlan(uint64_t seed, uint64_t salt, uint64_t n,
                                   const Reachable* reachable) {
  tpc::Random rng(seed * 0x9E3779B97F4A7C15ull + salt);
  std::vector<ThreeNodeTxn> plan;
  plan.reserve(n);
  std::vector<Deck> node_decks(kClusters, Deck(kNodes.size()));
  std::vector<std::vector<Deck>> point_decks(kClusters);
  if (reachable != nullptr)
    for (size_t k = 0; k < kClusters; ++k)
      for (size_t nd = 0; nd < kNodes.size(); ++nd) {
        TPC_CHECK(!(*reachable)[k][nd].empty());
        point_decks[k].emplace_back((*reachable)[k][nd].size());
      }
  for (uint64_t i = 0; i < n; ++i) {
    ThreeNodeTxn t = DrawThreeNodeTxn(rng, static_cast<uint32_t>(i % kClusters), kMaxJitter);
    if (reachable != nullptr && i % kCrashEvery == kCrashEvery - 1) {
      const size_t node = node_decks[t.cell].Draw(rng);
      t.crash_node = static_cast<int>(node);
      t.crash_point = (*reachable)[t.cell][node][point_decks[t.cell][node].Draw(rng)];
    }
    plan.push_back(std::move(t));
  }
  return plan;
}

/// Attempt `attempt` (> 0) of planned transaction `t`: the same work on its
/// own key, without a crash point.
ThreeNodeTxn Resubmission(const ThreeNodeTxn& t, size_t attempt) {
  ThreeNodeTxn r = t;
  r.key += tpc::StringPrintf("~%zu", attempt);
  r.crash_node = -1;
  r.crash_point.clear();
  return r;
}

Round RunRound(const std::vector<ThreeNodeTxn>& warmup,
               const std::vector<ThreeNodeTxn>& timed, bool traced, SpanLog* spans,
               Outcome* outcome) {
  Round round;
  round.traced = traced;
  const double setup_start = WallSeconds();
  spans->set_on(false);
  Runner runner(spans);
  runner.Build();
  const std::vector<Cluster*>& clusters = runner.clusters();
  SetEngineTracing(clusters, false);
  for (const ThreeNodeTxn& p : warmup) {
    TxnResult r;
    runner.Run(p, &r);
    if (!r.done) outcome->Fail("a warm-up transaction did not complete");
  }
  ResetLayerStats(clusters);
  runner.ResetLostLocks();
  SetEngineTracing(clusters, traced);
  const LayerTotals before = CollectLayerTotals(clusters);
  std::array<Time, kClusters> sim_start{};
  for (size_t k = 0; k < kClusters; ++k) sim_start[k] = clusters[k]->ctx().now();
  round.setup_s = WallSeconds() - setup_start;

  // Every transaction run, resubmissions included, as (planned index,
  // attempt), and its result.
  std::vector<std::pair<size_t, size_t>> attempts;
  std::vector<TxnResult> results;
  attempts.reserve(2 * timed.size());
  results.reserve(2 * timed.size());
  spans->set_on(traced);
  const double cpu0 = ProcessCpuSeconds();
  const double wall0 = WallSeconds();
  const uint64_t allocs0 = AllocCount();
  ChunkClock chunks(&round);
  for (size_t i = 0; i < timed.size(); ++i) {
    for (size_t attempt = 0; attempt < kMaxAttempts; ++attempt) {
      results.emplace_back();
      attempts.emplace_back(i, attempt);
      if (attempt == 0) {
        runner.Run(timed[i], &results.back());
      } else {
        runner.Run(Resubmission(timed[i], attempt), &results.back());
      }
      if (results.back().done && results.back().outcome == tm::Outcome::kCommitted) break;
    }
    if ((i + 1) % kChunkTxns == 0) chunks.Mark();
  }
  round.allocs = AllocCount() - allocs0;
  round.wall_s = WallSeconds() - wall0;
  round.cpu_s = ProcessCpuSeconds() - cpu0;
  spans->set_on(false);
  Time sim_elapsed = 0;
  for (size_t k = 0; k < kClusters; ++k)
    sim_elapsed += clusters[k]->ctx().now() - sim_start[k];
  LayerTotals after = CollectLayerTotals(clusters);
  const LayerTotals& lost = runner.lost_locks();
  after.lock_acquires += lost.lock_acquires;
  after.lock_waits += lost.lock_waits;
  after.lock_timeouts += lost.lock_timeouts;
  after.lock_hold.Merge(lost.lock_hold);
  after.lock_wait.Merge(lost.lock_wait);

  // --- correctness -----------------------------------------------------------
  runner.Quiesce();
  const std::string busy = InDoubtReport(clusters);
  if (!busy.empty()) outcome->Fail("in doubt after the final restart: " + busy);
  std::vector<ThreeNodeTxn> ran;
  ran.reserve(attempts.size());
  for (const auto& [i, attempt] : attempts)
    ran.push_back(attempt == 0 ? timed[i] : Resubmission(timed[i], attempt));
  const tpc::Histogram latency =
      CheckThreeNodeRound(ran, results, clusters, kLabels, &round, outcome);
  round.retries = ran.size() - timed.size();
  for (Cell& cell : runner.cells())
    if (cell.write_failures > 0) outcome->Fail("a write was refused");

  // --- metrics ------------------------------------------------------------------
  AddRoundFigures(before, after, CollectLayerTotals(clusters), latency, sim_elapsed, *spans,
                  &round);
  auto& x = round.exact;
  x["recovery.outage_us"] = runner.outages().Percentile(50);
  x["recovery.outage_us#n"] = static_cast<double>(runner.outages().count());
  x["recovery.crashes#n"] = static_cast<double>(runner.crashes());
  x["recovery.callbacks_never_fired#n"] = static_cast<double>(runner.never_completed());
  x["wal.recovery_bytes_scanned"] =
      static_cast<double>(runner.recovery_bytes()) /
      static_cast<double>(std::max<size_t>(1, runner.restart_us().size()));
  const double committed = static_cast<double>(std::max<uint64_t>(1, round.committed));
  x["recovery.retries#n"] = static_cast<double>(round.retries);
  x["_app_flows_per_commit"] = 2.0 * static_cast<double>(ran.size()) / committed;
  double app_bytes = 0;
  for (const ThreeNodeTxn& p : ran) app_bytes += 2.0 * (1 + static_cast<double>(p.key.size()));
  x["_app_bytes_per_commit"] = app_bytes / committed;
  round.timed["tm.restart_us"] = Median(runner.restart_us());
  return round;
}

}  // namespace

Outcome RunCrashRecovery(const Options& options, Sheet* sheet) {
  Outcome outcome;
  const Reachable reachable = Calibrate();
  const std::vector<ThreeNodeTxn> warmup = MakePlan(options.seed, 1, kWarmupTxns, nullptr);
  const std::vector<ThreeNodeTxn> timed = MakePlan(options.seed, 2, kTimedTxns, &reachable);
  if (options.plan_only) {
    std::printf("plan_digest %016llx\n",
                static_cast<unsigned long long>(DigestThreeNodePlan(warmup) ^
                                                (DigestThreeNodePlan(timed) << 1)));
    return outcome;
  }
  SpanLog spans;
  const double budget = options.seconds - (options.trace ? 1.5 : 0.0);
  std::vector<Round> rounds =
      RunRounds(options, budget, options.trace ? 4 : 3, [&](size_t, bool traced) {
        if (traced) spans = SpanLog();
        return RunRound(warmup, timed, traced, &spans, &outcome);
      });
  AggregateRounds(rounds, sheet, &outcome);
  if (options.trace) {
    AddReplays(sheet, sheet->Get("cpu_us_per_commit"), true, true);
    if (!spans.Write(options.work_dir + "/spans-crash-recovery.txt"))
      outcome.Fail("cannot write the span log");
  }
  return outcome;
}

}  // namespace perfbench
