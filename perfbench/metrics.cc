// Metric catalogue, result printing, clocks, spans, layer counters and the
// aggregation of simulated rounds.

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common.h"
#include "util/format.h"

namespace perfbench {

using tpc::harness::Cluster;

// --- catalogue ----------------------------------------------------------------
// BENCHMARK.json lists the same names and units; selftest.py checks that
// the two agree.

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"commits_per_s", "1/s"},
      {"cpu_us_per_commit", "us"},
      {"committed_frac", "ratio"},
      {"peak_rss_mib", "MiB"},
      {"commit_p50_us", "us"},
      {"commit_p99_us", "us"},
      {"commits_per_clock_s", "1/s"},
      {"lock_hold_p50_us", "us"},
      {"lock_hold_p99_us", "us"},
  };
  return defs;
}

const std::vector<std::string>& FamilyLabels() {
  static const std::vector<std::string> labels = {
      "basic2pc",     "presumed_abort", "presumed_nothing", "presumed_commit",
      "paxos_commit", "one_phase",      "one_phase_logless"};
  return labels;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"sim.events_per_commit", "count"},
        {"sim.kernel_ns_per_event", "ns"},
        {"sim.replayed_us_per_commit", "us"},
        {"sim.trace_overhead_frac", "ratio"},
        {"net.messages_per_commit", "count"},
        {"net.bytes_per_commit", "bytes"},
        {"net.ns_per_message", "ns"},
        {"net.replayed_us_per_commit", "us"},
        {"tm.work_phase_us", "us"},
        {"tm.commit_phase_us", "us"},
        {"tm.allocs_per_commit", "count"},
        {"tm.codec_ns_per_pdu", "ns"},
        {"tm.codec_replayed_us_per_commit", "us"},
        {"tm.restart_us", "us"},
        {"tm.unattributed_us_per_commit", "us"},
        {"wal.appends_per_commit", "count"},
        {"wal.forced_appends_per_commit", "count"},
        {"wal.device_forces_per_commit", "count"},
        {"wal.records_per_device_force", "count"},
        {"wal.bytes_per_commit", "bytes"},
        {"wal.force_p50_us", "us"},
        {"wal.force_p99_us", "us"},
        {"wal.append_ns", "ns"},
        {"wal.replayed_us_per_commit", "us"},
        {"wal.file_sync_us_per_force", "us"},
        {"wal.recovery_bytes_scanned", "bytes"},
        {"lock.acquires_per_commit", "count"},
        {"lock.waits_per_commit", "count"},
        {"lock.wait_p99_us", "us"},
        {"lock.timeouts", "count"},
        {"lock.held_after_quiesce", "count"},
        {"tm.txns_tracked_after_quiesce", "count"},
        {"lock.ns_per_acquire_release", "ns"},
        {"lock.replayed_us_per_commit", "us"},
        {"rm.handler_us_per_commit", "us"},
        {"runtime.mailbox_delay_p50_us", "us"},
        {"runtime.mailbox_delay_p99_us", "us"},
        {"runtime.timer_late_p99_us", "us"},
        {"runtime.cpu_util", "ratio"},
        {"mem.tm_bytes_per_commit", "bytes"},
        {"mem.wal_bytes_per_commit", "bytes"},
        {"mem.net_bytes", "bytes"},
        {"recovery.outage_us", "us"},
        {"load.arrival_lag_p99_us", "us"},
        {"load.slo_rate_per_s", "1/s"},
    };
    // Family labels are static strings, so the c_str pointers stay valid.
    static std::vector<std::string> family_names;
    for (const std::string& f : FamilyLabels())
      family_names.push_back("tm.cpu_us_per_commit." + f);
    for (const std::string& n : family_names) d.push_back({n.c_str(), "us"});
    return d;
  }();
  return defs;
}

// --- outcome / sheet --------------------------------------------------------------

void Outcome::Fail(const std::string& why) {
  correct = false;
  if (errors.size() < 20) errors.push_back(why);
}

void Sheet::Set(const std::string& name, double value) { values_[name] = value; }

double Sheet::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Sheet::Note(const std::string& line) { notes_.push_back(line); }

void Sheet::Print(const Options& options, Outcome outcome) const {
  for (const std::string& n : notes_) std::printf("# %s\n", n.c_str());
  const std::vector<MetricDef>& defs =
      options.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string json;
  for (const MetricDef& d : defs) {
    double v = Get(d.name);
    if (!std::isfinite(v)) {
      outcome.Fail(std::string("metric ") + d.name + " is not finite");
      v = 0;
    }
    if (!options.trace && v == 0)
      outcome.Fail(std::string("end-to-end metric ") + d.name + " is 0");
    std::printf("%-34s %18.6f %s\n", d.name, v, d.unit);
    tpc::StringAppendF(&json, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                       json.empty() ? "" : ", ", d.name, v, d.unit);
  }
  for (const std::string& e : outcome.errors)
    std::printf("# CHECK FAILED: %s\n", e.c_str());
  if (outcome.attempted == 0) outcome.attempted = 1;  // contract: >= 1
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      outcome.correct ? "true" : "false",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed), json.c_str());
  std::fflush(stdout);
}

// --- clocks -----------------------------------------------------------------------

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double WallSeconds() { return static_cast<double>(WallNs()) * 1e-9; }

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// --- statistics ---------------------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

// --- spans ------------------------------------------------------------------------------

const char* SpanKindName(SpanKind kind) {
  static const char* names[] = {"begin",     "write",      "handler",
                                "send_work", "work_phase", "commit",
                                "drain",     "restart",    "checkpoint",
                                "post",      "timer"};
  static_assert(sizeof(names) / sizeof(names[0]) ==
                static_cast<size_t>(SpanKind::kCount));
  return names[static_cast<size_t>(kind)];
}

double SpanLog::TotalUs(SpanKind kind) const {
  int64_t ns = 0;
  for (const Span& s : spans_)
    if (s.kind == kind) ns += s.end_ns - s.start_ns;
  return static_cast<double>(ns) * 1e-3;
}

std::vector<double> SpanLog::DurationsUs(SpanKind kind) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.kind == kind) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
  return out;
}

bool SpanLog::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_)
    out << SpanKindName(s.kind) << ' ' << s.txn << ' ' << s.start_ns << ' '
        << s.end_ns << '\n';
  return static_cast<bool>(out);
}

// --- layer counters -----------------------------------------------------------------

void ResetLayerStats(const std::vector<Cluster*>& clusters) {
  for (Cluster* c : clusters) {
    c->network().ResetStats();
    for (const std::string& name : c->NodeNames()) {
      tpc::harness::Node& n = c->node(name);
      n.log().ResetStats();
      for (size_t i = 0; i < n.rm_count(); ++i) n.rm(i).locks().ResetStats();
    }
  }
}

LayerTotals CollectLayerTotals(const std::vector<Cluster*>& clusters) {
  LayerTotals t;
  for (Cluster* c : clusters) {
    t.events += c->ctx().events().executed();
    t.messages += c->network().stats().messages_sent;
    t.message_bytes += c->network().stats().bytes_sent;
    const tpc::harness::MemoryStats mem = c->MemoryUsage();
    t.memory.network_bytes += mem.network_bytes;
    t.memory.tm_bytes += mem.tm_bytes;
    t.memory.wal_bytes += mem.wal_bytes;
    t.memory.nodes += mem.nodes;
    for (const std::string& name : c->NodeNames()) {
      tpc::harness::Node& n = c->node(name);
      if (n.owns_log()) {
        t.appends += n.log().stats().writes;
        t.forced_appends += n.log().stats().forced_writes;
        t.device_forces += n.log().device_forces();
        t.log_bytes += n.log().storage().bytes_written();
        t.force_latency.Merge(n.log().force_latency());
      }
      for (size_t i = 0; i < n.rm_count(); ++i) {
        const tpc::lock::LockStats& ls = n.rm(i).locks().stats();
        t.lock_acquires += ls.acquisitions;
        t.lock_waits += ls.waits;
        t.lock_timeouts += ls.timeouts;
        t.lock_hold.Merge(ls.hold_time);
        t.lock_wait.Merge(ls.wait_time);
        t.locks_held += n.rm(i).locks().HeldLockCount();
      }
      t.txns_tracked += n.tm().ActiveTxnCount();
    }
  }
  return t;
}

void SetEngineTracing(const std::vector<Cluster*>& clusters, bool on) {
  for (Cluster* c : clusters) {
    c->ctx().trace().set_capture(on);
    c->network().set_tracing(on);
    for (const std::string& name : c->NodeNames())
      c->node(name).log().set_collect_force_latency(on);
  }
}

std::string InDoubtReport(const std::vector<Cluster*>& clusters) {
  std::string out;
  for (Cluster* c : clusters) {
    for (const std::string& name : c->NodeNames()) {
      tpc::tm::TransactionManager& tm = c->tm(name);
      if (!tm.IsUp() || tm.InDoubtCount() > 0)
        tpc::StringAppendF(&out, "%s%s(up=%d in_doubt=%zu)",
                           out.empty() ? "" : " ", name.c_str(), tm.IsUp(),
                           tm.InDoubtCount());
    }
  }
  return out;
}

void AddRoundFigures(const LayerTotals& before, const LayerTotals& after,
                     const LayerTotals& quiesced, const tpc::Histogram& latency,
                     tpc::sim::Time sim_elapsed, const SpanLog& spans, Round* round) {
  const uint64_t committed = round->committed;
  const double c = static_cast<double>(std::max<uint64_t>(1, committed));
  auto per = [c](uint64_t a, uint64_t b) { return static_cast<double>(a - b) / c; };
  std::map<std::string, double>& x = round->exact;
  x["sim.events_per_commit"] = per(after.events, before.events);
  x["net.messages_per_commit"] = per(after.messages, before.messages);
  x["net.bytes_per_commit"] = per(after.message_bytes, before.message_bytes);
  x["wal.appends_per_commit"] = per(after.appends, before.appends);
  x["wal.forced_appends_per_commit"] =
      per(after.forced_appends, before.forced_appends);
  x["wal.device_forces_per_commit"] =
      per(after.device_forces, before.device_forces);
  const uint64_t forces = after.device_forces - before.device_forces;
  x["wal.records_per_device_force"] =
      forces == 0 ? 0
                  : static_cast<double>(after.appends - before.appends) /
                        static_cast<double>(forces);
  x["wal.bytes_per_commit"] = per(after.log_bytes, before.log_bytes);
  x["lock.acquires_per_commit"] = per(after.lock_acquires, before.lock_acquires);
  x["lock.waits_per_commit"] = per(after.lock_waits, before.lock_waits);
  x["lock.timeouts"] = static_cast<double>(after.lock_timeouts - before.lock_timeouts);
  x["lock.wait_p99_us"] = after.lock_wait.Percentile(99);
  x["lock.wait_p99_us#n"] = static_cast<double>(after.lock_wait.count());
  x["lock_hold_p50_us"] = after.lock_hold.Percentile(50);
  x["lock_hold_p99_us"] = after.lock_hold.Percentile(99);
  x["lock_hold_p99_us#n"] = static_cast<double>(after.lock_hold.count());
  x["mem.tm_bytes_per_commit"] = static_cast<double>(after.memory.tm_bytes) / c;
  x["mem.wal_bytes_per_commit"] = static_cast<double>(after.memory.wal_bytes) / c;
  x["mem.net_bytes"] = static_cast<double>(after.memory.network_bytes);
  x["_commits_per_round"] = static_cast<double>(committed);
  x["commit_p50_us"] = latency.Percentile(50);
  x["commit_p99_us"] = latency.Percentile(99);
  x["commit_p99_us#n"] = static_cast<double>(latency.count());
  x["commits_per_clock_s"] =
      static_cast<double>(committed) / (static_cast<double>(sim_elapsed) * 1e-6);
  x["committed_frac"] =
      static_cast<double>(committed) / static_cast<double>(round->attempted);
  x["lock.held_after_quiesce"] = static_cast<double>(quiesced.locks_held);
  x["tm.txns_tracked_after_quiesce"] = static_cast<double>(quiesced.txns_tracked);
  if (round->traced) {
    std::map<std::string, double>& t = round->timed;
    t["tm.work_phase_us"] = spans.TotalUs(SpanKind::kWorkPhase) / c;
    t["tm.commit_phase_us"] = spans.TotalUs(SpanKind::kCommit) / c;
    t["rm.handler_us_per_commit"] = spans.TotalUs(SpanKind::kHandler) / c;
    t["wal.force_p50_us"] = after.force_latency.Percentile(50);
    t["wal.force_p99_us"] = after.force_latency.Percentile(99);
  }
}

// --- rounds -------------------------------------------------------------------------------

void AggregateRounds(const std::vector<Round>& rounds, Sheet* sheet,
                     Outcome* outcome) {
  std::vector<double> setup, cps, cpu, traced_cpu;
  std::map<std::string, std::vector<double>> timed;
  const Round& first = rounds.front();
  // Tracing changes memory (force-latency samples), never simulated time:
  // each round is compared with the first round of its own kind.
  const Round* first_of_kind[2] = {nullptr, nullptr};
  std::vector<const Round*> untraced;
  for (size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    // An operation is a planned transaction: it fails when none of its
    // attempts commits.
    outcome->attempted += r.attempted - r.retries;
    outcome->failed += r.attempted - r.retries - r.committed;
    setup.push_back(r.setup_s);
    const double committed = static_cast<double>(std::max<uint64_t>(1, r.committed));
    for (const auto& [k, v] : r.timed) timed[k].push_back(v);
    if (r.traced) {
      traced_cpu.push_back(r.cpu_s * 1e6 / committed);
    } else {
      untraced.push_back(&r);
      cps.push_back(static_cast<double>(r.committed) / r.wall_s);
      cpu.push_back(r.cpu_s * 1e6 / committed);
    }
    const Round& ref = first_of_kind[r.traced] ? *first_of_kind[r.traced] : r;
    first_of_kind[r.traced] = &ref;
    if (r.exact != ref.exact) {
      for (const auto& [k, v] : ref.exact) {
        auto it = r.exact.find(k);
        if (it == r.exact.end() || it->second != v) {
          outcome->Fail(tpc::StringPrintf(
              "round %zu is not deterministic: %s %.17g vs %.17g", i, k.c_str(),
              it == r.exact.end() ? NAN : it->second, v));
          break;
        }
      }
    }
  }
  sheet->Set("setup_s", *std::min_element(setup.begin(), setup.end()));
  sheet->Set("commits_per_s", *std::max_element(cps.begin(), cps.end()));
  sheet->Set("cpu_us_per_commit", *std::min_element(cpu.begin(), cpu.end()));
  // Every round does the same work chunk by chunk (the exact figures are
  // checked equal), so each chunk's fastest run is comparable.
  const size_t chunks = untraced.front()->chunk_cpu_s.size();
  bool chunked = chunks > 0;
  for (const Round* r : untraced) chunked = chunked && r->chunk_cpu_s.size() == chunks;
  if (chunked) {
    double cpu_s = 0, wall_s = 0;
    for (size_t k = 0; k < chunks; ++k) {
      double c = INFINITY, w = INFINITY;
      for (const Round* r : untraced) {
        c = std::min(c, r->chunk_cpu_s[k]);
        w = std::min(w, r->chunk_wall_s[k]);
      }
      cpu_s += c;
      wall_s += w;
    }
    const double committed = static_cast<double>(untraced.front()->committed);
    sheet->Set("commits_per_s", committed / wall_s);
    sheet->Set("cpu_us_per_commit", cpu_s * 1e6 / std::max(1.0, committed));
  }
  for (const auto& [k, v] : first.exact) {
    const size_t hash = k.find('#');
    if (hash == std::string::npos) {
      sheet->Set(k, v);
    } else {
      sheet->Note(tpc::StringPrintf("%s samples=%.0f", k.substr(0, hash).c_str(), v));
    }
  }
  // One-time static initialisation lands in the first round; the second
  // untraced round is the steady state.
  const Round& alloc_round = untraced.size() > 1 ? *untraced[1] : *untraced[0];
  sheet->Set("tm.allocs_per_commit",
             static_cast<double>(alloc_round.allocs) /
                 static_cast<double>(std::max<uint64_t>(1, alloc_round.committed)));
  for (const auto& [k, v] : timed) sheet->Set(k, Median(v));
  if (!traced_cpu.empty())
    sheet->Set("sim.trace_overhead_frac",
               *std::min_element(traced_cpu.begin(), traced_cpu.end()) /
                   *std::min_element(cpu.begin(), cpu.end()) - 1.0);
  sheet->Note(tpc::StringPrintf(
      "rounds=%zu (traced %zu) txns_per_round=%llu", rounds.size(),
      traced_cpu.size(), static_cast<unsigned long long>(first.attempted)));
}

}  // namespace perfbench
