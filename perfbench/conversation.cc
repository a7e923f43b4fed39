// Workload `conversation`: one closed-loop client over seven 3-node
// clusters, one per protocol family, transactions dealt round-robin.
//
// Why: it measures engine CPU per commit for every family with the PDU
// codec and payload copying prominent. Each transaction ships a seeded
// number of work flows (64 B - 16 KiB, log-uniform, mean ~2.9 KiB) to each
// subordinate; `s1` writes and `s2` only reads, so a read-only participant
// sits beside a writing one. Nothing contends: keys are unique per
// transaction and one transaction runs at a time. Flows stay cache-sized on
// purpose; a 32 x 16 KiB cell is memory-bandwidth-bound and noisy here.
//
// Device: 2 ms per force plus 64 MB/s streaming (so a force's service time
// follows the bytes it carries), queue depth 1, group commit off. Network:
// 1 ms per message plus a seeded per-transaction jitter of 0-100 us per
// link, so simulated latencies are a function of the seed.
//
// The client calls Commit right after shipping the work (per-pair FIFO
// delivers the work first). With a pause between the last work flow and
// Commit longer than the one-phase early-prepare delay, the seed engine
// commits at the coordinator and aborts at the writer; README.md has the
// reproduction.

#include <array>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "util/random.h"

namespace perfbench {
namespace {

using tpc::harness::Cluster;
using tpc::harness::NodeOptions;
namespace tm = tpc::tm;

constexpr uint64_t kTimedTxns = 2100;   // 300 per family per round
constexpr uint64_t kChunkTxns = 210;    // CPU timing granularity
constexpr uint64_t kWarmupTxns = 140;
constexpr size_t kFamilies = 7;
constexpr tpc::sim::Time kMaxJitter = 100;  // us per link

std::array<tm::TmConfig, kFamilies> FamilyConfigs() {
  std::array<tm::TmConfig, kFamilies> c{};
  c[0].protocol = tm::ProtocolKind::kBasic2PC;
  c[1].protocol = tm::ProtocolKind::kPresumedAbort;
  c[2].protocol = tm::ProtocolKind::kPresumedNothing;
  c[3].protocol = tm::ProtocolKind::kPresumedCommit;
  c[4].protocol = tm::ProtocolKind::kPaxosCommit;
  c[4].acceptors = {kCoord, kS1, kS2};  // F = 1, co-located
  c[5].protocol = tm::ProtocolKind::kOnePhase;
  c[6].protocol = tm::ProtocolKind::kOnePhaseLogless;
  return c;
}

std::vector<uint32_t> Flows(tpc::Random& rng) {
  std::vector<uint32_t> flows(1 + rng.Uniform(8));
  for (uint32_t& f : flows)  // log-uniform over [64, 16384]
    f = static_cast<uint32_t>(64.0 * std::pow(256.0, rng.NextDouble()));
  return flows;
}

std::vector<ThreeNodeTxn> MakePlan(uint64_t seed, uint64_t salt, uint64_t n) {
  tpc::Random rng(seed * 0x9E3779B97F4A7C15ull + salt);
  std::vector<ThreeNodeTxn> plan;
  plan.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    ThreeNodeTxn t = DrawThreeNodeTxn(rng, static_cast<uint32_t>(i % kFamilies), kMaxJitter);
    t.flows_s1 = Flows(rng);
    t.flows_s2 = Flows(rng);
    plan.push_back(std::move(t));
  }
  return plan;
}

class Runner {
 public:
  explicit Runner(SpanLog* spans) : spans_(spans), client_(spans) {}
  // Engine callbacks hold `this`.
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  void Build() {
    const auto configs = FamilyConfigs();
    for (size_t f = 0; f < kFamilies; ++f) {
      cells_[f] = std::make_unique<Cluster>(/*seed=*/1 + f);
      NodeOptions node;
      node.tm = configs[f];
      node.log_force_latency = 2 * tpc::sim::kMillisecond;
      node.log_bandwidth_bytes_per_sec = 64ull << 20;
      AddThreeNodes(cells_[f].get(), node, spans_, &write_failures_);
      clusters_.push_back(cells_[f].get());
    }
  }

  TxnResult Run(const ThreeNodeTxn& plan) {
    Cluster& c = *cells_[plan.cell];
    TxnResult r;
    // Commit follows the work at once; per-pair FIFO delivers the work
    // before any commit traffic.
    r.txn = client_.Start(c, plan, &write_failures_);
    const tpc::sim::Time sim_start = c.ctx().now();
    const int64_t commit_start = spans_->on() ? WallNs() : 0;
    c.tm(kCoord).Commit(r.txn, [&](tm::CommitResult res) {
      r.done = true;
      r.outcome = res.outcome;
      r.damage = res.heuristic_damage;
      r.latency = c.ctx().now() - sim_start;
      if (spans_->on()) spans_->Add(SpanKind::kCommit, r.txn, commit_start, WallNs());
    });
    {
      Scope s(spans_, SpanKind::kDrain, r.txn);
      c.Drain();
    }
    return r;
  }

  const std::vector<Cluster*>& clusters() const { return clusters_; }
  uint64_t write_failures() const { return write_failures_; }

 private:
  SpanLog* spans_;
  ThreeNodeClient client_;
  std::array<std::unique_ptr<Cluster>, kFamilies> cells_;
  std::vector<Cluster*> clusters_;
  uint64_t write_failures_ = 0;
};

// `family_cpu`: time each transaction's thread CPU for the per-family
// split (the untraced rounds of a traced run do this; the clock reads cost
// about 1 us per transaction, so the end-to-end run does not).
Round RunRound(const std::vector<ThreeNodeTxn>& warmup,
               const std::vector<ThreeNodeTxn>& timed, bool traced, bool family_cpu,
               SpanLog* spans, Outcome* outcome) {
  Round round;
  round.traced = traced;
  const double setup_start = WallSeconds();
  spans->set_on(false);
  Runner runner(spans);
  runner.Build();
  const std::vector<Cluster*>& clusters = runner.clusters();
  SetEngineTracing(clusters, false);
  for (const ThreeNodeTxn& p : warmup) runner.Run(p);
  ResetLayerStats(clusters);
  SetEngineTracing(clusters, traced);
  const LayerTotals before = CollectLayerTotals(clusters);
  std::array<tpc::sim::Time, kFamilies> sim_start{};
  for (size_t f = 0; f < kFamilies; ++f) sim_start[f] = clusters[f]->ctx().now();
  round.setup_s = WallSeconds() - setup_start;

  std::vector<TxnResult> results;
  results.reserve(timed.size());
  std::array<int64_t, kFamilies> family_cpu_ns{};
  spans->set_on(traced);
  const double cpu0 = ProcessCpuSeconds();
  const double wall0 = WallSeconds();
  const uint64_t allocs0 = AllocCount();
  ChunkClock chunks(&round);
  for (const ThreeNodeTxn& p : timed) {
    const int64_t c0 = family_cpu ? ThreadCpuNs() : 0;
    results.push_back(runner.Run(p));
    if (family_cpu) family_cpu_ns[p.cell] += ThreadCpuNs() - c0;
    if (results.size() % kChunkTxns == 0) chunks.Mark();
  }
  round.allocs = AllocCount() - allocs0;
  round.wall_s = WallSeconds() - wall0;
  round.cpu_s = ProcessCpuSeconds() - cpu0;
  spans->set_on(false);

  // --- correctness -----------------------------------------------------------
  tpc::sim::Time sim_elapsed = 0;
  for (size_t f = 0; f < kFamilies; ++f)
    sim_elapsed += clusters[f]->ctx().now() - sim_start[f];
  const tpc::Histogram latency =
      CheckThreeNodeRound(timed, results, clusters, FamilyLabels(), &round, outcome);
  if (runner.write_failures() > 0) outcome->Fail("a write was refused");
  const std::string busy = InDoubtReport(clusters);
  if (!busy.empty()) outcome->Fail("in doubt after the final drain: " + busy);

  // --- metrics ------------------------------------------------------------------
  const LayerTotals after = CollectLayerTotals(clusters);
  AddRoundFigures(before, after, after, latency, sim_elapsed, *spans, &round);
  auto& x = round.exact;
  double flows = 0, flow_bytes = 0;
  for (const ThreeNodeTxn& p : timed) {
    flows += 2 + static_cast<double>(p.flows_s1.size() + p.flows_s2.size());
    flow_bytes += 2.0 * (1 + static_cast<double>(p.key.size()));
    for (uint32_t b : p.flows_s1) flow_bytes += b;
    for (uint32_t b : p.flows_s2) flow_bytes += b;
  }
  const double committed = static_cast<double>(std::max<uint64_t>(1, round.committed));
  x["_app_flows_per_commit"] = flows / committed;
  x["_app_bytes_per_commit"] = flow_bytes / committed;

  if (family_cpu) {
    auto& t = round.timed;
    std::array<uint64_t, kFamilies> family_commits{};
    for (size_t i = 0; i < timed.size(); ++i)
      family_commits[timed[i].cell] +=
          results[i].done && results[i].outcome == tm::Outcome::kCommitted;
    for (size_t f = 0; f < kFamilies; ++f)
      t["tm.cpu_us_per_commit." + FamilyLabels()[f]] =
          static_cast<double>(family_cpu_ns[f]) * 1e-3 /
          static_cast<double>(std::max<uint64_t>(1, family_commits[f]));
  }
  return round;
}

}  // namespace

Outcome RunConversation(const Options& options, Sheet* sheet) {
  Outcome outcome;
  const std::vector<ThreeNodeTxn> warmup = MakePlan(options.seed, 1, kWarmupTxns);
  const std::vector<ThreeNodeTxn> timed = MakePlan(options.seed, 2, kTimedTxns);
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
        return RunRound(warmup, timed, traced, options.trace && !traced, &spans,
                        &outcome);
      });
  AggregateRounds(rounds, sheet, &outcome);
  if (options.trace) {
    AddReplays(sheet, sheet->Get("cpu_us_per_commit"), true, true);
    if (!spans.Write(options.work_dir + "/spans-conversation.txt"))
      outcome.Fail("cannot write the span log");
  }
  return outcome;
}

}  // namespace perfbench
