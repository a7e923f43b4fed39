// Live wall-clock commit throughput: the same protocol engines the
// simulation runs, on real threads with real fsync'd logs (LiveRuntime +
// LiveTransport + FileStorage), measured in commits per wall-clock second.
//
// Three groups of cells, all report-only (every metric is `~`-prefixed so
// tools/bench_diff.py prints it but never gates on it — wall-clock numbers
// are machine property, not protocol property):
//
//   - Per-protocol-family raw cells (coordinator + 2 subordinates, no
//     device floor): commits/sec and client-observed p50/p99 commit
//     latency for basic 2PC, PA, PA+RO+last-agent, and PN.
//   - A contended worker-scaling curve: 4 coordinator/subordinate pairs
//     whose log forces carry a 2ms service floor, driven closed-loop at
//     worker counts 1 -> hardware_concurrency. Every node's log has its
//     own device thread, so a force never parks a worker: one worker
//     already overlaps every node's forces, and the curve is expected to
//     be flat (speedup ~1x). It stays as a report-only check that adding
//     workers costs nothing.
//   - A gated smoke cell: small run that TPC_CHECKs completion and
//     atomicity (every committed transaction's writes present at every
//     participant). The check crashing is the gate; its numbers are not.
//
// Emits BENCH_live.json. Usage: live_bench [txns_per_cell]

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness/bench_report.h"
#include "harness/live_cluster.h"
#include "util/logging.h"

namespace {

using namespace tpc;
using harness::LiveCluster;
using harness::LiveClusterOptions;
using harness::LiveNodeOptions;

struct FamilyConfig {
  const char* name;
  LiveNodeOptions options;
};

std::vector<FamilyConfig> Families() {
  std::vector<FamilyConfig> configs;

  FamilyConfig basic;
  basic.name = "basic2pc";
  basic.options.tm.protocol = tm::ProtocolKind::kBasic2PC;
  configs.push_back(basic);

  FamilyConfig pa;
  pa.name = "presumed_abort";
  pa.options.tm.protocol = tm::ProtocolKind::kPresumedAbort;
  configs.push_back(pa);

  FamilyConfig combo;
  combo.name = "pa_last_agent_ro";
  combo.options.tm.protocol = tm::ProtocolKind::kPresumedAbort;
  combo.options.tm.last_agent_opt = true;
  combo.options.tm.read_only_opt = true;
  configs.push_back(combo);

  FamilyConfig pn;
  pn.name = "presumed_nothing";
  pn.options.tm.protocol = tm::ProtocolKind::kPresumedNothing;
  configs.push_back(pn);

  return configs;
}

struct LiveRunResult {
  uint64_t txns = 0;
  double wall_seconds = 0;
  double commits_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
};

double Percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(samples.size()));
  if (idx >= samples.size()) idx = samples.size() - 1;
  return samples[idx];
}

// One closed-loop transaction against `coord`: conversation work shipped to
// each subordinate, then the full distributed commit. Returns the commit
// latency in microseconds and checks the outcome.
double OneTxn(LiveCluster& c, const std::string& coord,
              const std::vector<std::string>& subs) {
  const auto t0 = std::chrono::steady_clock::now();
  uint64_t txn = 0;
  c.RunOn(coord, [&] {
    txn = c.tm(coord).Begin();
    c.tm(coord).Write(txn, 0, "k" + std::to_string(txn), "v",
                      [](Status st) { TPC_CHECK(st.ok()); });
    // s1-style subs write, s2-style subs read (exercises the RO vote path
    // in the combo family). FIFO per pair guarantees the work flow is
    // processed before the PREPARE that follows it.
    for (size_t i = 0; i < subs.size(); ++i) {
      TPC_CHECK(c.tm(coord).SendWork(txn, subs[i], i == 1 ? "r" : "w").ok());
    }
  });
  std::promise<tm::CommitResult> done;
  c.Post(coord, [&c, &coord, txn, &done] {
    c.tm(coord).Commit(txn, [&done](tm::CommitResult r) {
      done.set_value(r);
    });
  });
  tm::CommitResult r = done.get_future().get();
  TPC_CHECK(r.outcome == tm::Outcome::kCommitted);
  TPC_CHECK(!r.heuristic_damage);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

void InstallHandlers(LiveCluster& c, const std::string& writer_sub,
                     const std::string& reader_sub) {
  std::string w = writer_sub;
  c.tm(w).SetAppDataHandler(
      [&c, w](uint64_t txn, const net::NodeId&, std::string_view op) {
        if (op == "w") {
          c.tm(w).Write(txn, 0, "s" + std::to_string(txn), "v",
                        [](Status st) { TPC_CHECK(st.ok()); });
        }
      });
  if (!reader_sub.empty()) {
    std::string rd = reader_sub;
    c.tm(rd).SetAppDataHandler(
        [&c, rd](uint64_t txn, const net::NodeId&, std::string_view op) {
          if (op == "r") c.tm(rd).Read(txn, 0, "s", [](Result<std::string>) {});
        });
  }
}

// Coordinator + 2 subordinates, `clients` closed-loop client threads.
LiveRunResult RunFamily(const LiveNodeOptions& options, uint64_t txns,
                        int clients, int workers, int64_t floor_us,
                        const std::string& dir) {
  LiveClusterOptions copts;
  copts.worker_threads = workers;
  copts.dir = dir;
  copts.log_force_floor_us = floor_us;
  LiveCluster c(copts);
  c.AddNode("coord", options);
  c.AddNode("s1", options);
  c.AddNode("s2", options);
  c.Connect("coord", "s1");
  c.Connect("coord", "s2");
  InstallHandlers(c, "s1", "s2");
  c.Start();

  std::atomic<uint64_t> issued{0};
  std::mutex lat_mu;
  std::vector<double> latencies;
  const std::vector<std::string> subs = {"s1", "s2"};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> client_threads;
  for (int i = 0; i < clients; ++i) {
    client_threads.emplace_back([&] {
      std::vector<double> local;
      while (issued.fetch_add(1) < txns) {
        local.push_back(OneTxn(c, "coord", subs));
      }
      std::lock_guard<std::mutex> lock(lat_mu);
      latencies.insert(latencies.end(), local.begin(), local.end());
    });
  }
  for (auto& t : client_threads) t.join();
  const auto end = std::chrono::steady_clock::now();
  c.Stop();

  LiveRunResult result;
  result.txns = latencies.size();
  result.wall_seconds = std::chrono::duration<double>(end - start).count();
  result.commits_per_sec =
      result.wall_seconds > 0
          ? static_cast<double>(result.txns) / result.wall_seconds
          : 0;
  result.p50_us = Percentile(latencies, 0.50);
  result.p99_us = Percentile(latencies, 0.99);
  return result;
}

// The contended cell: `pairs` independent coordinator/subordinate pairs,
// every log force padded to a 2ms service floor. The floors run on the
// logs' device threads, overlapped across pairs at any worker count, so
// throughput is bounded by each pair's own force chain, not by workers.
LiveRunResult RunContended(const LiveNodeOptions& options, size_t pairs,
                           uint64_t txns_per_pair, int workers,
                           const std::string& dir) {
  LiveClusterOptions copts;
  copts.worker_threads = workers;
  copts.dir = dir;
  copts.log_force_floor_us = 2000;
  LiveCluster c(copts);
  std::vector<std::string> coords, subs;
  for (size_t p = 0; p < pairs; ++p) {
    coords.push_back("c" + std::to_string(p));
    subs.push_back("s" + std::to_string(p));
    c.AddNode(coords[p], options);
    c.AddNode(subs[p], options);
    c.Connect(coords[p], subs[p]);
    InstallHandlers(c, subs[p], "");
  }
  c.Start();

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> client_threads;
  for (size_t p = 0; p < pairs; ++p) {
    client_threads.emplace_back([&c, &coords, &subs, p, txns_per_pair] {
      const std::vector<std::string> my_subs = {subs[p]};
      for (uint64_t i = 0; i < txns_per_pair; ++i)
        OneTxn(c, coords[p], my_subs);
    });
  }
  for (auto& t : client_threads) t.join();
  const auto end = std::chrono::steady_clock::now();
  c.Stop();

  LiveRunResult result;
  result.txns = pairs * txns_per_pair;
  result.wall_seconds = std::chrono::duration<double>(end - start).count();
  result.commits_per_sec =
      result.wall_seconds > 0
          ? static_cast<double>(result.txns) / result.wall_seconds
          : 0;
  return result;
}

// Gated smoke: completion + atomicity, checked with TPC_CHECK (a failure
// crashes the bench; the numbers themselves are never gated).
void RunSmoke(const std::string& dir, harness::BenchReport* report) {
  LiveClusterOptions copts;
  copts.worker_threads = 2;
  copts.dir = dir;
  LiveCluster c(copts);
  LiveNodeOptions options;
  options.tm.protocol = tm::ProtocolKind::kPresumedAbort;
  c.AddNode("coord", options);
  c.AddNode("s1", options);
  c.AddNode("s2", options);
  c.Connect("coord", "s1");
  c.Connect("coord", "s2");
  InstallHandlers(c, "s1", "s2");
  c.Start();

  constexpr uint64_t kTxns = 10;
  std::vector<uint64_t> committed;
  const std::vector<std::string> subs = {"s1", "s2"};
  for (uint64_t i = 0; i < kTxns; ++i) {
    uint64_t txn = 0;
    c.RunOn("coord", [&] {
      txn = c.tm("coord").Begin();
      c.tm("coord").Write(txn, 0, "k" + std::to_string(txn), "v",
                          [](Status st) { TPC_CHECK(st.ok()); });
      TPC_CHECK(c.tm("coord").SendWork(txn, "s1", "w").ok());
      TPC_CHECK(c.tm("coord").SendWork(txn, "s2", "r").ok());
    });
    std::promise<tm::CommitResult> done;
    c.Post("coord", [&c, txn, &done] {
      c.tm("coord").Commit(txn, [&done](tm::CommitResult r) {
        done.set_value(r);
      });
    });
    tm::CommitResult r = done.get_future().get();
    TPC_CHECK(r.outcome == tm::Outcome::kCommitted);  // completion
    committed.push_back(txn);
  }
  // Atomicity: every committed transaction's effects are present at both
  // the coordinator and the writing subordinate.
  for (uint64_t txn : committed) {
    c.RunOn("coord", [&c, txn] {
      TPC_CHECK(c.node("coord").rm().Peek("k" + std::to_string(txn)).ok());
    });
    c.RunOn("s1", [&c, txn] {
      TPC_CHECK(c.node("s1").rm().Peek("s" + std::to_string(txn)).ok());
    });
  }
  c.Stop();

  harness::SweepCell cell;
  cell.label = "smoke (gated: completion + atomicity)";
  cell.txns = kTxns;
  cell.Add("~completed", static_cast<double>(committed.size()));
  report->AddCell(cell);
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t txns = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 400;

  const std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      ("tpc_live_bench_" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);

  harness::BenchReport report("live");
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf(
      "live runtime: wall-clock commits/sec on real threads + fsync'd logs\n"
      "(%llu txns per family cell, hardware_concurrency=%u)\n\n",
      static_cast<unsigned long long>(txns), hw);

  RunSmoke((root / "smoke").string(), &report);
  std::printf("smoke: completion + atomicity checks passed\n\n");

  std::printf("%-20s %12s %10s %10s\n", "family", "commits/s", "p50 us",
              "p99 us");
  for (const FamilyConfig& family : Families()) {
    LiveRunResult r =
        RunFamily(family.options, txns, /*clients=*/4, /*workers=*/4,
                  /*floor_us=*/0, (root / family.name).string());
    std::printf("%-20s %12.0f %10.0f %10.0f\n", family.name,
                r.commits_per_sec, r.p50_us, r.p99_us);
    harness::SweepCell cell;
    cell.label = std::string("family ") + family.name;
    cell.txns = r.txns;
    cell.Add("~live_commits_per_sec", r.commits_per_sec);
    cell.Add("~p50_commit_us", r.p50_us);
    cell.Add("~p99_commit_us", r.p99_us);
    cell.Add("~wall_seconds", r.wall_seconds);
    report.AddCell(cell);
  }

  // Worker-scaling curve on the contended cell (expected flat: the forces
  // overlap on the device threads whatever the worker count).
  std::printf("\ncontended scaling (4 pairs, 2ms force floor):\n");
  std::printf("%-10s %12s %10s\n", "workers", "commits/s", "speedup");
  LiveNodeOptions pa;
  pa.tm.protocol = tm::ProtocolKind::kPresumedAbort;
  std::vector<int> worker_counts = {1, 2, 4};
  if (hw > 4) worker_counts.push_back(static_cast<int>(hw));
  const uint64_t per_pair = std::max<uint64_t>(10, txns / 16);
  double base_cps = 0;
  double best_speedup = 0;
  for (int workers : worker_counts) {
    LiveRunResult r = RunContended(
        pa, /*pairs=*/4, per_pair, workers,
        (root / ("scaling_w" + std::to_string(workers))).string());
    if (workers == 1) base_cps = r.commits_per_sec;
    const double speedup = base_cps > 0 ? r.commits_per_sec / base_cps : 0;
    best_speedup = std::max(best_speedup, speedup);
    std::printf("%-10d %12.0f %9.2fx\n", workers, r.commits_per_sec, speedup);
    harness::SweepCell cell;
    cell.label = "contended workers=" + std::to_string(workers);
    cell.txns = r.txns;
    cell.Add("~live_commits_per_sec", r.commits_per_sec);
    cell.Add("~scaling_vs_1_worker", speedup);
    report.AddCell(cell);
  }
  std::printf("\nbest scaling vs 1 worker: %.2fx\n", best_speedup);

  std::filesystem::remove_all(root);
  report.set_threads(hw);
  std::string path = report.WriteJson();
  std::printf("\n%s\nwrote %s\n", report.Summary().c_str(), path.c_str());
  return 0;
}
