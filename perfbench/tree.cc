// Workload `tree`: a 256-server commit tree (fanout 8) fronted by four
// closed-loop coordinators; PA with the read-only and last-agent
// optimizations.
//
// Why: the event kernel, lock waits and group-commit batching do most of
// the work and payload copying almost none, the opposite balance to
// `conversation`. Each transaction Zipf-picks (theta 0.5) three target
// leaves and one of 64 hot keys, routes a tiny work payload down the tree
// hop by hop, writes the key at every target, and commits once the acks
// have come back up. Concurrent transactions overlap at the root and on
// hot (leaf, key) locks.
//
// Device: 2 ms per force, queue depth 2, kFlushPipelining group commit
// (two flushes in flight). Network: 1 ms per message plus a seeded
// per-link delay of 0-1 ms, so simulated latencies follow the seed and
// spread over a continuum instead of whole milliseconds.

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "util/format.h"
#include "util/logging.h"
#include "util/random.h"

namespace perfbench {
namespace {

using tpc::harness::Cluster;
namespace tm = tpc::tm;

constexpr size_t kServers = 256;
constexpr size_t kFanout = 8;
constexpr size_t kCoordinators = 4;
constexpr uint64_t kTimedTxns = 2000;
constexpr uint64_t kChunkTxns = 200;  // CPU timing granularity
constexpr uint64_t kWarmupTxns = 200;
constexpr size_t kTargetsPerTxn = 3;
constexpr uint64_t kHotKeys = 64;
constexpr double kTheta = 0.5;

struct TxnPlan {
  std::vector<uint32_t> targets;  ///< leaf ordinals, unique, ascending
  uint64_t key = 0;
};

std::vector<TxnPlan> MakePlan(uint64_t seed, uint64_t salt, uint64_t n,
                              size_t leaves) {
  tpc::Random rng(seed * 0x9E3779B97F4A7C15ull + salt);
  std::vector<TxnPlan> plan(n);
  for (TxnPlan& t : plan) {
    t.key = rng.Skewed(kHotKeys, kTheta);
    for (size_t j = 0; j < kTargetsPerTxn; ++j) {
      const auto leaf = static_cast<uint32_t>(rng.Skewed(leaves, kTheta));
      auto it = std::lower_bound(t.targets.begin(), t.targets.end(), leaf);
      if (it == t.targets.end() || *it != leaf) t.targets.insert(it, leaf);
    }
  }
  return plan;
}

/// Seeded extra delay of each server's uplink (index = server; the root's
/// entry is the coordinators' link to it).
std::vector<tpc::sim::Time> MakeJitter(uint64_t seed) {
  tpc::Random rng(seed * 0x9E3779B97F4A7C15ull + 3);
  std::vector<tpc::sim::Time> jitter(kServers);
  for (tpc::sim::Time& j : jitter) j = static_cast<tpc::sim::Time>(rng.Uniform(1001));
  return jitter;
}

uint64_t Digest(const std::vector<TxnPlan>& plan) {
  uint64_t h = 1469598103934665603ull;
  for (const TxnPlan& t : plan) {
    h = FnvU64(h, t.key);
    for (uint32_t l : t.targets) h = FnvU64(h, l);
    h = FnvU64(h, ~0ull);
  }
  return h;
}

// Work payloads: "w<key>|<server>,<server>,..." down the tree; acks up are
// "a" (done) or "x" (a write failed in the subtree).
uint64_t ParseDecimal(std::string_view s, size_t* pos) {
  uint64_t v = 0;
  while (*pos < s.size() && s[*pos] >= '0' && s[*pos] <= '9')
    v = v * 10 + static_cast<uint64_t>(s[(*pos)++] - '0');
  return v;
}

std::string WorkPayload(uint64_t key, const std::vector<uint32_t>& servers) {
  std::string p = tpc::StringPrintf("w%llu|", static_cast<unsigned long long>(key));
  for (size_t i = 0; i < servers.size(); ++i)
    tpc::StringAppendF(&p, "%s%u", i ? "," : "", servers[i]);
  return p;
}

std::string HotKey(uint64_t key) {
  return tpc::StringPrintf("h%llu", static_cast<unsigned long long>(key));
}

/// Drives the closed loops of one round over a built topology.
class TreeRun {
 public:
  TreeRun(Cluster* cluster, const tpc::harness::Topology& topo, SpanLog* spans)
      : c_(cluster), topo_(topo), spans_(spans), pending_(topo.servers.size()) {
    for (const std::string& n : topo.servers) server_tm_.push_back(&c_->tm(n));
    for (const std::string& n : topo.coordinators) coord_tm_.push_back(&c_->tm(n));
    for (uint32_t i = 0; i < topo.servers.size(); ++i)
      server_tm_[i]->SetAppDataHandler(
          [this, i](uint64_t txn, const tpc::net::NodeId& from, std::string_view d) {
            OnServerData(i, txn, from, d);
          });
    for (size_t k = 0; k < coord_tm_.size(); ++k)
      coord_tm_[k]->SetAppDataHandler(
          [this, k](uint64_t txn, const tpc::net::NodeId&, std::string_view d) {
            OnCoordinatorAck(k, txn, d);
          });
  }
  // Engine callbacks hold `this`.
  TreeRun(const TreeRun&) = delete;
  TreeRun& operator=(const TreeRun&) = delete;

  /// Runs `plan` to completion; returns per-transaction results in plan
  /// order and the simulated time it took. `chunks`, when given, is marked
  /// after every kChunkTxns completions.
  std::vector<TxnResult> Run(const std::vector<TxnPlan>& plan,
                             tpc::sim::Time* elapsed, ChunkClock* chunks = nullptr) {
    plan_ = &plan;
    app_flows_ = 0;
    app_bytes_ = 0;
    results_.assign(plan.size(), TxnResult{});
    next_ = 0;
    finished_ = 0;
    inflight_.assign(coord_tm_.size(), Inflight{});
    const tpc::sim::Time start = c_->ctx().now();
    for (size_t k = 0; k < coord_tm_.size(); ++k) StartNext(k);
    {
      Scope s(spans_, SpanKind::kDrain, 0);
      size_t next_mark = kChunkTxns;
      while (finished_ < plan.size() && c_->ctx().events().Step()) {
        if (chunks != nullptr && finished_ >= next_mark) {
          chunks->Mark();
          next_mark += kChunkTxns;
        }
      }
    }
    *elapsed = c_->ctx().now() - start;
    c_->Drain();  // trailing acks and END records
    return results_;
  }

  uint64_t app_flows() const { return app_flows_; }
  uint64_t app_bytes() const { return app_bytes_; }

 private:
  struct Inflight {
    size_t index = SIZE_MAX;
    uint64_t txn = 0;
    tpc::sim::Time start = 0;
    int64_t wall_start = 0;
  };
  struct PendingWork {
    tpc::net::NodeId requester;
    size_t outstanding = 0;
    bool failed = false;
  };

  void Send(tm::TransactionManager& from, uint64_t txn,
            const tpc::net::NodeId& to, std::string_view payload) {
    Scope s(spans_, SpanKind::kSendWork, txn);
    ++app_flows_;
    app_bytes_ += payload.size();
    TPC_CHECK_OK(from.SendWork(txn, to, payload));
  }

  void StartNext(size_t k) {
    if (next_ >= plan_->size()) return;
    const size_t index = next_++;
    const TxnPlan& p = (*plan_)[index];
    Inflight& f = inflight_[k];
    f.index = index;
    f.start = c_->ctx().now();
    f.wall_start = spans_->on() ? WallNs() : 0;
    {
      Scope s(spans_, SpanKind::kBegin, 0);
      f.txn = coord_tm_[k]->Begin();
    }
    results_[index].txn = f.txn;
    std::vector<uint32_t> servers;
    for (uint32_t leaf : p.targets) servers.push_back(topo_.leaves[leaf]);
    Send(*coord_tm_[k], f.txn, topo_.servers[0], WorkPayload(p.key, servers));
  }

  void OnServerData(uint32_t server, uint64_t txn, const tpc::net::NodeId& from,
                    std::string_view data) {
    if (data.empty()) return;
    Scope span(spans_, SpanKind::kHandler, txn);
    if (data[0] != 'w') {  // ack from a child subtree
      auto it = pending_[server].find(txn);
      if (it == pending_[server].end()) return;
      if (data == "x") it->second.failed = true;
      FinishOne(server, txn);
      return;
    }
    size_t pos = 1;
    const uint64_t key = ParseDecimal(data, &pos);
    TPC_CHECK(pos < data.size() && data[pos] == '|');
    ++pos;
    bool self = false;
    std::map<uint32_t, std::vector<uint32_t>> by_hop;  // ascending child order
    while (pos < data.size()) {
      const auto target = static_cast<uint32_t>(ParseDecimal(data, &pos));
      if (pos < data.size() && data[pos] == ',') ++pos;
      if (target == server) {
        self = true;
      } else {
        by_hop[topo_.NextHop(server, target)].push_back(target);
      }
    }
    PendingWork& work = pending_[server][txn];
    work.requester = from;
    work.outstanding = by_hop.size() + (self ? 1 : 0);
    work.failed = false;
    tm::TransactionManager& stm = *server_tm_[server];
    for (const auto& [hop, targets] : by_hop)
      Send(stm, txn, topo_.servers[hop], WorkPayload(key, targets));
    if (self) {
      Scope s(spans_, SpanKind::kWrite, txn);
      stm.Write(txn, 0, HotKey(key), std::to_string(txn),
                [this, server, txn](tpc::Status st) {
                  auto it = pending_[server].find(txn);
                  if (it == pending_[server].end()) return;
                  if (!st.ok()) it->second.failed = true;  // lock timeout
                  FinishOne(server, txn);
                });
    }
  }

  void FinishOne(uint32_t server, uint64_t txn) {
    auto it = pending_[server].find(txn);
    TPC_CHECK(it != pending_[server].end() && it->second.outstanding > 0);
    if (--it->second.outstanding > 0) return;
    const tpc::net::NodeId requester = it->second.requester;
    const bool failed = it->second.failed;
    pending_[server].erase(it);
    Send(*server_tm_[server], txn, requester, failed ? "x" : "a");
  }

  void OnCoordinatorAck(size_t k, uint64_t txn, std::string_view data) {
    Inflight& f = inflight_[k];
    if (f.txn != txn) return;
    const size_t index = f.index;
    tm::TransactionManager& ctm = *coord_tm_[k];
    if (spans_->on()) spans_->Add(SpanKind::kWorkPhase, txn, f.wall_start, WallNs());
    f.txn = 0;
    if (data == "x") {  // a lock timeout broke a deadlock below
      ctm.AbortTxn(txn);
      results_[index].done = true;
      ++finished_;
      StartNext(k);
      return;
    }
    const tpc::sim::Time start = f.start;
    const int64_t commit_start = spans_->on() ? WallNs() : 0;
    ctm.Commit(txn, [this, k, index, start, commit_start, txn](tm::CommitResult r) {
      TxnResult& res = results_[index];
      res.done = true;
      res.outcome = r.outcome;
      res.latency = c_->ctx().now() - start;
      if (spans_->on()) spans_->Add(SpanKind::kCommit, txn, commit_start, WallNs());
      ++finished_;
      StartNext(k);
    });
  }

  Cluster* c_;
  const tpc::harness::Topology& topo_;
  SpanLog* spans_;
  std::vector<tm::TransactionManager*> server_tm_;
  std::vector<tm::TransactionManager*> coord_tm_;
  std::vector<std::unordered_map<uint64_t, PendingWork>> pending_;
  const std::vector<TxnPlan>* plan_ = nullptr;
  std::vector<TxnResult> results_;
  std::vector<Inflight> inflight_;
  size_t next_ = 0;
  size_t finished_ = 0;
  uint64_t app_flows_ = 0;
  uint64_t app_bytes_ = 0;
};

tpc::harness::TopologyOptions TopologyFor() {
  tpc::harness::TopologyOptions t;
  t.servers = kServers;
  t.fanout = kFanout;
  t.coordinators = kCoordinators;
  tm::TmConfig& cfg = t.node_options.tm;
  cfg.protocol = tm::ProtocolKind::kPresumedAbort;
  cfg.read_only_opt = true;
  cfg.last_agent_opt = true;
  t.node_options.log_force_latency = 2 * tpc::sim::kMillisecond;
  t.node_options.log_queue_depth = 2;
  t.node_options.group_commit.enabled = true;
  t.node_options.group_commit.policy = tpc::wal::FlushPolicy::kFlushPipelining;
  t.node_options.group_commit.max_pipeline_depth = 2;
  return t;
}

size_t LeafCount() {
  Cluster probe;
  return probe.BuildTopology(TopologyFor()).leaves.size();
}

Round RunRound(const std::vector<TxnPlan>& warmup,
               const std::vector<TxnPlan>& timed,
               const std::vector<tpc::sim::Time>& jitter, bool traced,
               SpanLog* spans, Outcome* outcome) {
  Round round;
  round.traced = traced;
  const double setup_start = WallSeconds();
  spans->set_on(false);
  Cluster cluster(/*seed=*/1);
  const tpc::harness::Topology topo = cluster.BuildTopology(TopologyFor());
  for (uint32_t i = 1; i < topo.servers.size(); ++i)
    cluster.network().SetLinkLatency(topo.servers[topo.parent[i]], topo.servers[i],
                                     tpc::sim::kMillisecond + jitter[i]);
  for (const std::string& coord : topo.coordinators)
    cluster.network().SetLinkLatency(coord, topo.servers[0],
                                     tpc::sim::kMillisecond + jitter[0]);
  const std::vector<Cluster*> clusters = {&cluster};
  SetEngineTracing(clusters, false);
  TreeRun run(&cluster, topo, spans);
  tpc::sim::Time elapsed = 0;
  run.Run(warmup, &elapsed);
  ResetLayerStats(clusters);
  SetEngineTracing(clusters, traced);
  const LayerTotals before = CollectLayerTotals(clusters);
  round.setup_s = WallSeconds() - setup_start;

  spans->set_on(traced);
  const double cpu0 = ProcessCpuSeconds();
  const double wall0 = WallSeconds();
  const uint64_t allocs0 = AllocCount();
  ChunkClock chunks(&round);
  const std::vector<TxnResult> results = run.Run(timed, &elapsed, &chunks);
  chunks.Mark();  // the trailing drain
  round.allocs = AllocCount() - allocs0;
  round.wall_s = WallSeconds() - wall0;
  round.cpu_s = ProcessCpuSeconds() - cpu0;
  spans->set_on(false);

  // --- correctness -----------------------------------------------------------
  // Final value of every (leaf, hot key) must come from a committed writer,
  // and every key a committed transaction wrote must exist.
  std::map<std::pair<uint32_t, uint64_t>, std::vector<uint64_t>> committed_writers;
  tpc::Histogram latency;
  round.attempted = timed.size();
  for (size_t i = 0; i < timed.size(); ++i) {
    const TxnResult& r = results[i];
    if (!r.done) outcome->Fail(tpc::StringPrintf("txn %llu never completed",
                                                 static_cast<unsigned long long>(r.txn)));
    if (r.done && r.outcome == tm::Outcome::kCommitted) {
      ++round.committed;
      latency.Add(static_cast<double>(r.latency));
      for (uint32_t leaf : timed[i].targets)
        committed_writers[{topo.leaves[leaf], timed[i].key}].push_back(r.txn);
    }
    const tpc::harness::TxnAudit audit = cluster.Audit(r.txn);
    if (!audit.consistent || audit.damage_ground_truth || audit.any_heuristic ||
        audit.any_in_doubt)
      outcome->Fail(tpc::StringPrintf("txn %llu fails the audit",
                                      static_cast<unsigned long long>(r.txn)));
  }
  for (const auto& [where, writers] : committed_writers) {
    const auto value =
        cluster.node(topo.servers[where.first]).rm().Peek(HotKey(where.second));
    const uint64_t holder = value.ok() ? std::strtoull(value.value().c_str(), nullptr, 10) : 0;
    if (std::find(writers.begin(), writers.end(), holder) == writers.end())
      outcome->Fail(tpc::StringPrintf("server %u key %llu: committed write missing",
                                      where.first,
                                      static_cast<unsigned long long>(where.second)));
  }
  const std::string busy = InDoubtReport(clusters);
  if (!busy.empty()) outcome->Fail("in doubt after the final drain: " + busy);

  // --- metrics ------------------------------------------------------------------
  const LayerTotals after = CollectLayerTotals(clusters);
  AddRoundFigures(before, after, after, latency, elapsed, *spans, &round);
  auto& x = round.exact;
  const double committed = static_cast<double>(std::max<uint64_t>(1, round.committed));
  x["_app_flows_per_commit"] = static_cast<double>(run.app_flows()) / committed;
  x["_app_bytes_per_commit"] = static_cast<double>(run.app_bytes()) / committed;
  return round;
}

}  // namespace

void TreeHistoryFinding() {
  const size_t leaves = LeafCount();
  const std::vector<tpc::sim::Time> jitter = MakeJitter(1);
  std::printf("tree workload (seed 1), one fresh cluster per stream length\n");
  std::printf("%8s %18s %12s %16s\n", "txns", "commits/cpu-s", "events/txn",
              "txns tracked");
  for (uint64_t txns : {2'000ull, 10'000ull, 30'000ull}) {
    const std::vector<TxnPlan> plan = MakePlan(1, 9, txns, leaves);
    Cluster cluster(/*seed=*/1);
    const tpc::harness::Topology topo = cluster.BuildTopology(TopologyFor());
    for (uint32_t i = 1; i < topo.servers.size(); ++i)
      cluster.network().SetLinkLatency(topo.servers[topo.parent[i]], topo.servers[i],
                                       tpc::sim::kMillisecond + jitter[i]);
    SetEngineTracing({&cluster}, false);
    SpanLog off;
    TreeRun run(&cluster, topo, &off);
    tpc::sim::Time elapsed = 0;
    const int64_t cpu0 = ThreadCpuNs();
    const uint64_t ev0 = cluster.ctx().events().executed();
    run.Run(plan, &elapsed);
    const double cpu_s = static_cast<double>(ThreadCpuNs() - cpu0) * 1e-9;
    std::printf("%8llu %18.0f %12.1f %16llu\n", static_cast<unsigned long long>(txns),
                static_cast<double>(txns) / cpu_s,
                static_cast<double>(cluster.ctx().events().executed() - ev0) /
                    static_cast<double>(txns),
                static_cast<unsigned long long>(CollectLayerTotals({&cluster}).txns_tracked));
  }
}

Outcome RunTree(const Options& options, Sheet* sheet) {
  Outcome outcome;
  const size_t leaves = LeafCount();
  const std::vector<TxnPlan> warmup = MakePlan(options.seed, 1, kWarmupTxns, leaves);
  const std::vector<TxnPlan> timed = MakePlan(options.seed, 2, kTimedTxns, leaves);
  const std::vector<tpc::sim::Time> jitter = MakeJitter(options.seed);
  if (options.plan_only) {
    uint64_t h = Digest(warmup) ^ (Digest(timed) << 1);
    for (tpc::sim::Time j : jitter) h = FnvU64(h, static_cast<uint64_t>(j));
    std::printf("plan_digest %016llx\n", static_cast<unsigned long long>(h));
    return outcome;
  }
  SpanLog spans;
  const double budget = options.seconds - (options.trace ? 1.5 : 0.0);
  std::vector<Round> rounds =
      RunRounds(options, budget, options.trace ? 4 : 3, [&](size_t, bool traced) {
        if (traced) spans = SpanLog();
        return RunRound(warmup, timed, jitter, traced, &spans, &outcome);
      });
  AggregateRounds(rounds, sheet, &outcome);
  if (options.trace) {
    AddReplays(sheet, sheet->Get("cpu_us_per_commit"), true, true);
    if (!spans.Write(options.work_dir + "/spans-tree.txt"))
      outcome.Fail("cannot write the span log");
  }
  return outcome;
}

}  // namespace perfbench
