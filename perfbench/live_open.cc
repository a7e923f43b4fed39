// Workload `live-open`: the live runtime (worker pool, mailboxes, timer
// wheel, in-process transport) with real log files.
//
// Why: the only workload on `runtime` and on a real file log, and it uses
// no sim kernel. Cluster: coord, `s1` writer, `s2` reader; presumed abort
// with kFlushPipelining group commit (two flushes in flight). Every log
// write goes to the node's file and is padded to a 1 ms service floor. A
// force runs inline on the node's worker, so a node serves its forces one
// at a time. Threads: nproc - 2 workers, the timer thread and the driving
// thread (this one), never more than nproc.
//
// End-to-end figures come from closed-loop phases: kClients clients, each
// issuing its next transaction when the commit callback of its last one
// fired, latency counted from the Commit() call. There are kRepeats
// phases, each on a fresh cluster; the sheet takes the median of their
// p50s and rates and the least of their p99s, CPU per commit and set-up
// times. The phases do the same work, and other tenants of a shared
// machine only ever lengthen a tail: within one run the phases' p99 ranged
// 21.4-28.3 ms while the least of each run's six stayed within 21-22 ms
// over five seeds, against 22-27 ms for the median. These phases write without fdatasync, so the floor alone is the
// device: with fdatasync on every write, commit_p99_us and
// lock_hold_p99_us spread by 13-18% over five seeds (quartiles over
// median), following the fdatasync tail of a shared disk (one phase's
// force p99.9 ranged 4-11 ms), against 1-6% without it in the same hour.
// An open loop was tried first and was worse: with latency counted from
// the intended arrival, one stall charges every arrival queued behind it
// (p99 spread 26-47% over ten seeds).
//
// The traced run fdatasyncs every write: an untraced and a traced
// closed-loop phase give the per-layer figures (wal.file_sync_us_per_force
// is the real write + fdatasync + floor time), and a seeded Poisson ladder
// of offered rates gives the load.* figures: load.slo_rate_per_s is the
// commit rate of the highest step whose p99 (from the intended arrival)
// stays under kSloUs with no growing backlog.

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "harness/live_cluster.h"
#include "util/format.h"
#include "util/logging.h"
#include "util/random.h"

namespace perfbench {
namespace {

using tpc::harness::LiveCluster;
namespace tm = tpc::tm;

constexpr int64_t kFloorUs = 1000;
constexpr size_t kClients = 8;
constexpr size_t kRepeats = 6;
/// Seed-independent closed-loop transactions before a phase's timed part.
constexpr uint64_t kWarmupTxns = 40;
/// Open-loop offered rates of the traced run's ladder, txns/s.
constexpr std::array<double, 4> kLadder = {200, 400, 800, 1600};
constexpr double kSloUs = 40'000;
/// Share of --seconds the timed parts span (the rest is set-up and drain).
constexpr double kLoadShare = 0.8;
/// Plan entries per closed-loop second, above what the floor lets the
/// cluster commit; a phase that runs out of plan stops issuing.
constexpr double kPlanPerSecond = 3000;

struct TxnPlan {
  std::string key;
  uint32_t value_bytes = 0;
};

std::vector<TxnPlan> MakePlan(uint64_t seed, size_t n) {
  tpc::Random rng(seed * 0x9E3779B97F4A7C15ull + 7);
  std::vector<TxnPlan> plan(n);
  for (TxnPlan& t : plan) {
    t.key = tpc::StringPrintf("k%016llx", static_cast<unsigned long long>(rng.Next()));
    t.value_bytes = static_cast<uint32_t>(16 + rng.Uniform(1009));
  }
  return plan;
}

/// Arrival offsets (ns from the step start) of one ladder step: a pure
/// function of (seed, step).
std::vector<int64_t> Schedule(uint64_t seed, size_t step, double rate, size_t n) {
  tpc::Random rng(seed * 0x9E3779B97F4A7C15ull + 101 + step);
  std::vector<int64_t> at(n);
  double t = 0;
  for (int64_t& a : at) {
    t += rng.Exponential(1e9 / rate);
    a = static_cast<int64_t>(t);
  }
  return at;
}

/// How a phase drives its cluster: a closed loop of kClients clients for
/// `seconds`, or, with `schedule`, an open loop of those arrivals. `sync`
/// fdatasyncs every log write (always padded to the floor).
struct Drive {
  bool sync = true;
  bool traced = false;
  double seconds = 0;
  const std::vector<int64_t>* schedule = nullptr;
};

/// One phase on a fresh cluster.
struct Phase {
  double setup_s = 0;
  uint64_t attempted = 0;
  uint64_t committed = 0;
  double wall_s = 0;
  double cpu_s = 0;
  uint64_t allocs = 0;
  tpc::Histogram latency;  ///< closed: Commit() -> callback; open: arrival -> callback, us
  tpc::Histogram lag;      ///< open loop: generator lateness, us
  bool growing_backlog = false;
  // Layer figures, read after the cluster stopped.
  tpc::Histogram lock_hold, lock_wait, force_latency, mailbox, timer_late;
  uint64_t messages = 0, message_bytes = 0;
  uint64_t appends = 0, forced = 0, device_forces = 0, log_bytes = 0;
  uint64_t lock_acquires = 0, lock_waits = 0, lock_timeouts = 0, locks_held = 0;
  uint64_t txns_tracked = 0;
  int64_t sync_us = 0;
  uint64_t tm_bytes = 0, wal_bytes = 0;
  double handler_us = 0, work_us = 0, commit_us = 0;
  SpanLog spans;  ///< traced phase only

  double Rate() const { return static_cast<double>(committed) / wall_s; }
  double CpuUsPerCommit() const {
    return cpu_s * 1e6 / static_cast<double>(std::max<uint64_t>(1, committed));
  }
};

/// What the commit callback of plan entry i recorded.
struct TxnRecord {
  uint64_t txn = 0;
  int64_t issued_ns = 0;  ///< closure start on the coordinator
  int64_t commit_ns = 0;  ///< Commit() call
  int64_t done_ns = 0;    ///< callback
  bool committed = false;
};

int Workers() {
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<int>(std::max<long>(1, cpus - 2));
}

Phase RunPhase(const Options& options, const std::vector<TxnPlan>& plan,
               const Drive& drive, size_t index, Outcome* outcome) {
  Phase res;
  const double setup_start = WallSeconds();
  const std::string dir = tpc::StringPrintf(
      "%s/live-%d-%zu", options.work_dir.c_str(), static_cast<int>(getpid()), index);
  std::filesystem::remove_all(dir);

  std::vector<TxnRecord> rec(plan.size());
  std::atomic<uint64_t> issued{0};
  std::atomic<uint64_t> completed{0};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> write_failures{0};
  std::atomic<uint64_t> probes_posted{0};
  std::atomic<uint64_t> timers_fired{0};
  // Spans of the traced phase, one log per node: only that node's context
  // appends (client calls and callbacks run on coord, handlers and probes
  // on their node).
  std::array<SpanLog, 3> node_spans;
  for (SpanLog& log : node_spans) log.set_on(drive.traced);
  const std::array<std::string, 3> names = {kCoord, kS1, kS2};

  tpc::harness::LiveClusterOptions copts;
  copts.worker_threads = Workers();
  copts.dir = dir;
  copts.log_force_floor_us = kFloorUs;
  copts.file_sync = drive.sync;
  {
    LiveCluster c(copts);
    tpc::harness::LiveNodeOptions node;
    node.tm.protocol = tm::ProtocolKind::kPresumedAbort;
    node.group_commit.enabled = true;
    node.group_commit.policy = tpc::wal::FlushPolicy::kFlushPipelining;
    node.group_commit.max_pipeline_depth = 2;
    for (const std::string& name : names) c.AddNode(name, node);
    c.Connect(kCoord, kS1);
    c.Connect(kCoord, kS2);
    tm::TransactionManager* s1 = &c.tm(kS1);
    tm::TransactionManager* s2 = &c.tm(kS2);
    SpanLog* h1 = &node_spans[1];
    SpanLog* h2 = &node_spans[2];
    s1->SetAppDataHandler([s1, h1, &write_failures](uint64_t txn, const tpc::net::NodeId&,
                                                    std::string_view data) {
      if (data.empty() || data[0] != 'w') return;
      Scope s(h1, SpanKind::kHandler, txn);
      s1->Write(txn, 0, data.substr(1), std::to_string(txn),
                [&write_failures](tpc::Status st) { write_failures += !st.ok(); });
    });
    s2->SetAppDataHandler([s2, h2](uint64_t txn, const tpc::net::NodeId&,
                                   std::string_view data) {
      if (data.empty() || data[0] != 'r') return;
      Scope s(h2, SpanKind::kHandler, txn);
      s2->Read(txn, 0, data.substr(1), [](tpc::Result<std::string>) {});
    });
    c.Start();

    // One transaction, run on the coordinator's context: a write there,
    // work that makes s1 write and s2 read the same key, then Commit.
    SpanLog* cs = &node_spans[0];
    auto run_txn = [&c, &write_failures, cs](const std::string& key, uint32_t value_bytes,
                                             std::function<void(uint64_t, int64_t, int64_t,
                                                                tm::CommitResult)> done) {
      tm::TransactionManager& coord = c.tm(kCoord);
      const int64_t t0 = WallNs();
      uint64_t txn;
      {
        Scope s(cs, SpanKind::kBegin, 0);
        txn = coord.Begin();
      }
      {
        Scope s(cs, SpanKind::kWrite, txn);
        coord.Write(txn, 0, key, CoordValue(txn, value_bytes),
                    [&write_failures](tpc::Status st) { write_failures += !st.ok(); });
      }
      {
        Scope s(cs, SpanKind::kSendWork, txn);
        TPC_CHECK_OK(coord.SendWork(txn, kS1, "w" + key));
        TPC_CHECK_OK(coord.SendWork(txn, kS2, "r" + key));
      }
      const int64_t t1 = WallNs();
      cs->Add(SpanKind::kWorkPhase, txn, t0, t1);
      coord.Commit(txn, [txn, t0, t1, cs, done = std::move(done)](tm::CommitResult r) {
        cs->Add(SpanKind::kCommit, txn, t1, WallNs());
        done(txn, t0, t1, r);
      });
    };

    // Warm-up: one client, fixed keys, so files, pools and the allocator
    // are warm and the set-up does not depend on the seed.
    std::atomic<uint64_t> warm{0};
    for (uint64_t w = 0; w < kWarmupTxns; ++w) {
      c.Post(kCoord, [&run_txn, &warm, w] {
        run_txn(tpc::StringPrintf("warm%llu", static_cast<unsigned long long>(w)), 64,
                [&warm](uint64_t, int64_t, int64_t, tm::CommitResult) { warm.fetch_add(1); });
      });
      while (warm.load() <= w) std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    c.WaitIdle();
    for (const std::string& name : names)
      c.RunOn(name, [&c, &name, &drive] {
        c.node(name).log().ResetStats();
        c.node(name).log().set_collect_force_latency(drive.traced);
        c.node(name).rm().locks().ResetStats();
      });
    const tpc::runtime::LiveTransport::Stats net0 = c.transport().stats();
    uint64_t forces0 = 0, bytes0 = 0;
    int64_t sync0 = 0;
    for (const std::string& name : names)
      c.RunOn(name, [&] {
        forces0 += c.node(name).log().device_forces();
        bytes0 += c.node(name).storage().bytes_written();
        sync0 += c.node(name).storage().sync_wall_us();
      });
    res.setup_s = WallSeconds() - setup_start;

    // --- timed part ------------------------------------------------------------
    // Entry i of the plan, issued on the coordinator. A closed-loop client
    // issues its next entry from the callback.
    std::function<void(size_t)> issue = [&](size_t i) {
      c.Post(kCoord, [&, i] {
        run_txn(plan[i].key, plan[i].value_bytes,
                [&, i](uint64_t txn, int64_t t0, int64_t t1, tm::CommitResult r) {
                  TxnRecord& x = rec[i];
                  x.txn = txn;
                  x.issued_ns = t0;
                  x.commit_ns = t1;
                  x.done_ns = WallNs();
                  x.committed = r.outcome == tm::Outcome::kCommitted && !r.heuristic_damage;
                  if (drive.schedule == nullptr && !stop.load(std::memory_order_acquire)) {
                    const uint64_t next = issued.fetch_add(1);
                    if (next < plan.size()) {
                      issue(next);
                    } else {
                      issued.fetch_sub(1);
                    }
                  }
                  completed.fetch_add(1, std::memory_order_release);
                });
      });
    };
    const uint64_t allocs0 = AllocCount();
    const double cpu0 = ProcessCpuSeconds();
    const int64_t t0 = WallNs() + 2'000'000;
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(t0)));
    // Probe of the traced phase: the mailbox delay of a rotating node, and
    // a 1 ms timer's lateness armed from that node's own context.
    size_t probe = 0;
    auto post_probe = [&] {
      const size_t k = probe++ % 3;
      SpanLog* log = &node_spans[k];
      tpc::runtime::LiveNodeRuntime* rt = c.node(names[k]).node_runtime();
      probes_posted.fetch_add(1);
      std::atomic<uint64_t>* fired = &timers_fired;
      c.Post(names[k], [log, rt, fired, posted = WallNs()] {
        log->Add(SpanKind::kPost, 0, posted, WallNs());
        const int64_t deadline = WallNs() + 1'000'000;
        rt->ArmTimer(1000, [log, fired, deadline] {
          log->Add(SpanKind::kTimer, 0, deadline, WallNs());
          fired->fetch_add(1, std::memory_order_release);
        });
      });
    };
    if (drive.schedule != nullptr) {
      const std::vector<int64_t>& schedule = *drive.schedule;
      for (size_t i = 0; i < schedule.size(); ++i) {
        const int64_t due = t0 + schedule[i];
        std::this_thread::sleep_until(
            std::chrono::steady_clock::time_point(std::chrono::nanoseconds(due)));
        res.lag.Add(static_cast<double>(std::max<int64_t>(0, WallNs() - due)) * 1e-3);
        if (drive.traced) post_probe();
        issued.fetch_add(1);
        issue(i);
      }
    } else {
      issued.store(kClients);
      for (size_t i = 0; i < kClients; ++i) issue(i);
      const int64_t end = t0 + static_cast<int64_t>(drive.seconds * 1e9);
      while (WallNs() < end) {
        if (drive.traced) post_probe();
        std::this_thread::sleep_for(std::chrono::milliseconds(drive.traced ? 1 : 5));
      }
      stop.store(true, std::memory_order_release);
    }
    // A callback issues its successor before it counts itself, so reading
    // `completed` before `issued` sees them equal only once nothing runs.
    const int64_t give_up = WallNs() + 60'000'000'000;
    for (;;) {
      const uint64_t done = completed.load(std::memory_order_acquire);
      if (done == issued.load(std::memory_order_acquire)) break;
      if (WallNs() > give_up) {
        // Workers still reference this frame, so it cannot unwind.
        std::fprintf(stderr, "live-open: commit callbacks missing after 60 s\n");
        std::_Exit(3);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const size_t n = issued.load();
    int64_t last = t0;
    for (size_t i = 0; i < n; ++i) last = std::max(last, rec[i].done_ns);
    res.wall_s = static_cast<double>(last - t0) * 1e-9;
    res.cpu_s = ProcessCpuSeconds() - cpu0;
    res.allocs = AllocCount() - allocs0;
    // Late probe timers are the point of the probe: wait for all of them.
    const int64_t timers_deadline = WallNs() + 2'000'000'000;
    while (timers_fired.load(std::memory_order_acquire) < probes_posted.load() &&
           WallNs() < timers_deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    c.WaitIdle();

    // --- correctness -----------------------------------------------------------
    res.attempted = n;
    std::vector<double> latency_us(n);
    for (size_t i = 0; i < n; ++i) {
      const TxnRecord& x = rec[i];
      const int64_t from =
          drive.schedule != nullptr ? t0 + (*drive.schedule)[i] : x.commit_ns;
      latency_us[i] = static_cast<double>(x.done_ns - from) * 1e-3;
      res.latency.Add(latency_us[i]);
      res.committed += x.committed;
      res.work_us += static_cast<double>(x.commit_ns - x.issued_ns) * 1e-3;
      res.commit_us += static_cast<double>(x.done_ns - x.commit_ns) * 1e-3;
    }
    // A backlog that grows shows as latency rising across the step.
    const auto quarter = static_cast<std::ptrdiff_t>(n / 4);
    res.growing_backlog =
        drive.schedule != nullptr &&
        Median({latency_us.end() - quarter, latency_us.end()}) >
            2 * Median({latency_us.begin(), latency_us.begin() + quarter}) + 1000;
    c.RunOn(kCoord, [&] {
      for (size_t i = 0; i < n; ++i)
        if (rec[i].committed && c.node(kCoord).rm().Peek(plan[i].key).value_or("") !=
                                    CoordValue(rec[i].txn, plan[i].value_bytes))
          outcome->Fail("live-open: committed write missing at coord");
    });
    c.RunOn(kS1, [&] {
      for (size_t i = 0; i < n; ++i)
        if (rec[i].committed &&
            c.node(kS1).rm().Peek(plan[i].key).value_or("") != std::to_string(rec[i].txn))
          outcome->Fail("live-open: committed write missing at s1");
    });
    for (const std::string& name : names)
      c.RunOn(name, [&] {
        if (c.tm(name).InDoubtCount() > 0) outcome->Fail("live-open: " + name + " in doubt");
      });
    if (write_failures.load() > 0) outcome->Fail("live-open: a write was refused");
    const tpc::runtime::LiveTransport::Stats net1 = c.transport().stats();
    res.messages = net1.messages_sent - net0.messages_sent;
    res.message_bytes = net1.bytes_sent - net0.bytes_sent;
    c.Stop();
    // Workers are joined: the layers can be read from this thread.
    for (const std::string& name : names) {
      tpc::harness::LiveNode& nd = c.node(name);
      res.appends += nd.log().stats().writes;
      res.forced += nd.log().stats().forced_writes;
      res.device_forces += nd.log().device_forces();
      res.log_bytes += nd.storage().bytes_written();
      res.sync_us += nd.storage().sync_wall_us();
      res.force_latency.Merge(nd.log().force_latency());
      const tpc::lock::LockStats& ls = nd.rm().locks().stats();
      res.lock_acquires += ls.acquisitions;
      res.lock_waits += ls.waits;
      res.lock_timeouts += ls.timeouts;
      res.lock_hold.Merge(ls.hold_time);
      res.lock_wait.Merge(ls.wait_time);
      res.locks_held += nd.rm().locks().HeldLockCount();
      res.txns_tracked += nd.tm().ActiveTxnCount();
      res.tm_bytes += nd.tm().ApproxBytes();
      res.wal_bytes += nd.log().ApproxBytes();
    }
    res.device_forces -= forces0;
    res.log_bytes -= bytes0;
    res.sync_us -= sync0;
  }
  std::filesystem::remove_all(dir);
  for (const SpanLog& log : node_spans) res.spans.Append(log);
  for (double v : res.spans.DurationsUs(SpanKind::kPost)) res.mailbox.Add(v);
  for (double v : res.spans.DurationsUs(SpanKind::kTimer)) res.timer_late.Add(v);
  res.handler_us = res.spans.TotalUs(SpanKind::kHandler);
  return res;
}

double Least(const std::vector<double>& v) { return *std::min_element(v.begin(), v.end()); }

}  // namespace

Outcome RunLiveOpen(const Options& options, Sheet* sheet) {
  Outcome outcome;
  const double load_s = options.seconds * kLoadShare;
  // Untraced: kRepeats closed-loop phases share the load time. Traced: an
  // untraced and a traced closed-loop phase take a quarter each, the
  // ladder the other half, with every step getting the same arrivals.
  const double closed_s = options.trace ? load_s / 4 : load_s / kRepeats;
  double period_sum = 0;
  for (double rate : kLadder) period_sum += 1.0 / rate;
  const size_t arrivals = std::max<size_t>(100, static_cast<size_t>(load_s / 2 / period_sum));
  std::vector<std::vector<int64_t>> schedules;
  for (size_t k = 0; k < kLadder.size(); ++k)
    schedules.push_back(Schedule(options.seed, k, kLadder[k], arrivals));
  const std::vector<TxnPlan> plan = MakePlan(
      options.seed, std::max(arrivals, static_cast<size_t>(closed_s * kPlanPerSecond)));
  if (options.plan_only) {
    uint64_t h = 1469598103934665603ull;
    for (const TxnPlan& t : plan) {
      h = Fnv(h, t.key.data(), t.key.size());
      h = FnvU64(h, t.value_bytes);
    }
    for (const auto& sched : schedules)
      for (int64_t a : sched) h = FnvU64(h, static_cast<uint64_t>(a));
    std::printf("plan_digest %016llx\n", static_cast<unsigned long long>(h));
    return outcome;
  }
  auto count = [&outcome](const Phase& p) {
    outcome.attempted += p.attempted;
    outcome.failed += p.attempted - p.committed;
  };

  if (!options.trace) {
    std::vector<double> setup, rate, cpu, p50, p99, hold50, hold99;
    uint64_t attempted = 0, committed = 0, samples = 0, hold_samples = 0;
    for (size_t r = 0; r < kRepeats; ++r) {
      const Phase p = RunPhase(options, plan, Drive{false, false, closed_s, nullptr}, r, &outcome);
      count(p);
      setup.push_back(p.setup_s);
      rate.push_back(p.Rate());
      cpu.push_back(p.CpuUsPerCommit());
      p50.push_back(p.latency.Percentile(50));
      p99.push_back(p.latency.Percentile(99));
      hold50.push_back(p.lock_hold.Percentile(50));
      hold99.push_back(p.lock_hold.Percentile(99));
      attempted += p.attempted;
      committed += p.committed;
      samples = samples == 0 ? p.latency.count() : std::min(samples, p.latency.count());
      hold_samples =
          hold_samples == 0 ? p.lock_hold.count() : std::min(hold_samples, p.lock_hold.count());
    }
    sheet->Set("setup_s", Least(setup));
    sheet->Set("commits_per_s", Median(rate));
    sheet->Set("commits_per_clock_s", Median(rate));
    sheet->Set("cpu_us_per_commit", Least(cpu));
    sheet->Set("committed_frac",
               static_cast<double>(committed) / static_cast<double>(std::max<uint64_t>(1, attempted)));
    sheet->Set("commit_p50_us", Median(p50));
    sheet->Set("commit_p99_us", Least(p99));
    sheet->Set("lock_hold_p50_us", Median(hold50));
    sheet->Set("lock_hold_p99_us", Least(hold99));
    sheet->Note(tpc::StringPrintf(
        "closed loop, %zu clients, %zu phases (p50s and rates: median; p99s, CPU and "
        "set-up: least): commit_p99_us samples>=%llu, lock_hold_p99_us samples>=%llu "
        "per phase",
        kClients, kRepeats, static_cast<unsigned long long>(samples),
        static_cast<unsigned long long>(hold_samples)));
    return outcome;
  }

  // --- traced run ----------------------------------------------------------------
  const Phase un = RunPhase(options, plan, Drive{true, false, closed_s, nullptr}, 0, &outcome);
  const Phase tr = RunPhase(options, plan, Drive{true, true, closed_s, nullptr}, 1, &outcome);
  count(un);
  count(tr);
  double slo_rate = 0;
  tpc::Histogram lag;
  for (size_t k = 0; k < kLadder.size(); ++k) {
    const Phase st =
        RunPhase(options, plan, Drive{true, false, 0, &schedules[k]}, 2 + k, &outcome);
    count(st);
    lag.Merge(st.lag);
    const bool meets = st.latency.Percentile(99) < kSloUs && !st.growing_backlog &&
                       st.committed == st.attempted;
    sheet->Note(tpc::StringPrintf(
        "open loop %.0f/s: p50 %.0f us p99 %.0f us (samples=%llu) achieved %.1f/s "
        "lag_p99 %.0f us backlog=%s slo=%s",
        kLadder[k], st.latency.Percentile(50), st.latency.Percentile(99),
        static_cast<unsigned long long>(st.latency.count()), st.Rate(),
        st.lag.Percentile(99), st.growing_backlog ? "growing" : "steady",
        meets ? "met" : "missed"));
    if (meets) slo_rate = st.Rate();
  }
  const double committed = static_cast<double>(std::max<uint64_t>(1, un.committed));
  auto per = [committed](double v) { return v / committed; };
  sheet->Set("load.slo_rate_per_s", slo_rate);
  sheet->Set("load.arrival_lag_p99_us", lag.Percentile(99));
  sheet->Set("net.messages_per_commit", per(static_cast<double>(un.messages)));
  sheet->Set("net.bytes_per_commit", per(static_cast<double>(un.message_bytes)));
  sheet->Set("wal.appends_per_commit", per(static_cast<double>(un.appends)));
  sheet->Set("wal.forced_appends_per_commit", per(static_cast<double>(un.forced)));
  sheet->Set("wal.device_forces_per_commit", per(static_cast<double>(un.device_forces)));
  sheet->Set("wal.records_per_device_force",
             static_cast<double>(un.appends) /
                 static_cast<double>(std::max<uint64_t>(1, un.device_forces)));
  sheet->Set("wal.bytes_per_commit", per(static_cast<double>(un.log_bytes)));
  sheet->Set("wal.file_sync_us_per_force",
             static_cast<double>(un.sync_us) /
                 static_cast<double>(std::max<uint64_t>(1, un.device_forces)));
  sheet->Set("wal.force_p50_us", tr.force_latency.Percentile(50));
  sheet->Set("wal.force_p99_us", tr.force_latency.Percentile(99));
  sheet->Set("lock.acquires_per_commit", per(static_cast<double>(un.lock_acquires)));
  sheet->Set("lock.waits_per_commit", per(static_cast<double>(un.lock_waits)));
  sheet->Set("lock.wait_p99_us", un.lock_wait.Percentile(99));
  sheet->Set("lock.timeouts", static_cast<double>(un.lock_timeouts));
  sheet->Set("lock.held_after_quiesce", static_cast<double>(un.locks_held));
  sheet->Set("tm.txns_tracked_after_quiesce", static_cast<double>(un.txns_tracked));
  sheet->Set("tm.allocs_per_commit", per(static_cast<double>(un.allocs)));
  const double tr_committed = static_cast<double>(std::max<uint64_t>(1, tr.committed));
  sheet->Set("tm.work_phase_us", tr.work_us / tr_committed);
  sheet->Set("tm.commit_phase_us", tr.commit_us / tr_committed);
  sheet->Set("rm.handler_us_per_commit", tr.handler_us / tr_committed);
  sheet->Set("runtime.mailbox_delay_p50_us", tr.mailbox.Percentile(50));
  sheet->Set("runtime.mailbox_delay_p99_us", tr.mailbox.Percentile(99));
  sheet->Set("runtime.timer_late_p99_us", tr.timer_late.Percentile(99));
  const long cpus = std::max<long>(1, sysconf(_SC_NPROCESSORS_ONLN));
  sheet->Set("runtime.cpu_util", un.cpu_s / (un.wall_s * static_cast<double>(cpus)));
  sheet->Set("mem.tm_bytes_per_commit", per(static_cast<double>(un.tm_bytes)));
  sheet->Set("mem.wal_bytes_per_commit", per(static_cast<double>(un.wal_bytes)));
  sheet->Set("sim.trace_overhead_frac", tr.CpuUsPerCommit() / un.CpuUsPerCommit() - 1.0);
  sheet->Set("_commits_per_round", static_cast<double>(un.committed));
  sheet->Set("_app_flows_per_commit", 2.0 * static_cast<double>(un.attempted) / committed);
  double app_bytes = 0;
  for (size_t i = 0; i < un.attempted; ++i) app_bytes += 2.0 * (2 + plan[i].key.size());
  sheet->Set("_app_bytes_per_commit", app_bytes / committed);
  sheet->Note(tpc::StringPrintf(
      "closed loop, %zu clients: %llu commits untraced, %llu traced; mailbox probes=%llu "
      "timer probes=%llu force samples=%llu",
      kClients, static_cast<unsigned long long>(un.committed),
      static_cast<unsigned long long>(tr.committed),
      static_cast<unsigned long long>(tr.mailbox.count()),
      static_cast<unsigned long long>(tr.timer_late.count()),
      static_cast<unsigned long long>(tr.force_latency.count())));
  AddReplays(sheet, un.CpuUsPerCommit(), /*sim_kernel=*/false, /*sim_network=*/false);
  if (!tr.spans.Write(options.work_dir + "/spans-live-open.txt"))
    outcome.Fail("cannot write the span log");
  return outcome;
}

}  // namespace perfbench
