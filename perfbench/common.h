// Shared plumbing for the commit-engine benchmark: options, clocks, the
// metric sheet every workload fills, the span log of the traced run, and
// the per-layer counters read from the engine's public stats.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/cluster.h"
#include "util/histogram.h"
#include "util/random.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for live log files and the span dump.
  std::string work_dir = ".";
  /// Print the digest of the seeded plan and exit (self-tests).
  bool plan_only = false;
};

/// What a workload reports besides its metrics.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Fail(const std::string& why);
};

// --- clocks ---------------------------------------------------------------

int64_t WallNs();
double WallSeconds();
/// User+system CPU of the whole process (all threads), seconds.
double ProcessCpuSeconds();
/// CPU of the calling thread, nanoseconds.
int64_t ThreadCpuNs();
/// Heap allocations made by the process so far (counting operator new).
uint64_t AllocCount();

// --- statistics -------------------------------------------------------------

double Median(std::vector<double> values);


/// FNV-1a over a byte string, folded into `h` (plan digests).
uint64_t Fnv(uint64_t h, const void* data, size_t n);
inline uint64_t FnvU64(uint64_t h, uint64_t v) { return Fnv(h, &v, sizeof v); }

// --- metric sheet -------------------------------------------------------------

/// Collects named metrics and prints the result line. The benchmark's
/// metric catalogue (names, units) lives in metrics.cc; Print emits exactly
/// the end-to-end set (untraced run) or the per-layer set (traced run).
class Sheet {
 public:
  void Set(const std::string& name, double value);
  double Get(const std::string& name) const;
  /// A human-readable line printed before the result (sample counts etc.).
  void Note(const std::string& line);
  void Print(const Options& options, Outcome outcome) const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> notes_;
};

/// Catalogue entry (shared with BENCHMARK.json; the self-test compares).
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();
/// The protocol-family labels used in tm.cpu_us_per_commit.<family>.
const std::vector<std::string>& FamilyLabels();

// --- spans (traced run only) -----------------------------------------------

enum class SpanKind : uint8_t {
  kBegin,
  kWrite,
  kHandler,     ///< app-data handler body (the RM work a subordinate does)
  kSendWork,
  kWorkPhase,   ///< Begin -> Commit call
  kCommit,      ///< Commit call -> callback
  kDrain,       ///< Drain / RunFor / Step loops driving the event kernel
  kRestart,
  kCheckpoint,
  kPost,        ///< live: Post -> probe closure start (mailbox delay)
  kTimer,       ///< live: timer deadline -> callback start (lateness)
  kCount,
};
const char* SpanKindName(SpanKind kind);

struct Span {
  uint64_t txn;
  int64_t start_ns;
  int64_t end_ns;
  SpanKind kind;
};

/// In-memory span log, written out when the run ends. Recording is a
/// vector append when on and a branch when off.
class SpanLog {
 public:
  void set_on(bool on) { on_ = on; }
  bool on() const { return on_; }
  void Add(SpanKind kind, uint64_t txn, int64_t start_ns, int64_t end_ns) {
    if (on_) spans_.push_back(Span{txn, start_ns, end_ns, kind});
  }
  /// Sum of durations of one kind, microseconds.
  double TotalUs(SpanKind kind) const;
  std::vector<double> DurationsUs(SpanKind kind) const;
  void Append(const SpanLog& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }
  /// Writes "kind txn start_ns end_ns" lines; returns false on I/O error.
  bool Write(const std::string& path) const;
  size_t size() const { return spans_.size(); }

 private:
  bool on_ = false;
  std::vector<Span> spans_;
};

/// RAII span around one public call.
class Scope {
 public:
  Scope(SpanLog* log, SpanKind kind, uint64_t txn)
      : log_(log), kind_(kind), txn_(txn), start_(log->on() ? WallNs() : 0) {}
  ~Scope() {
    if (log_->on()) log_->Add(kind_, txn_, start_, WallNs());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  SpanKind kind_;
  uint64_t txn_;
  int64_t start_;
};

// --- per-layer counters of simulated clusters ---------------------------------

/// Layer totals summed over every node of a set of clusters, read from the
/// layers' public stats. Histograms are since the last ResetLayerStats.
struct LayerTotals {
  uint64_t events = 0;
  uint64_t messages = 0;
  uint64_t message_bytes = 0;
  uint64_t appends = 0;
  uint64_t forced_appends = 0;
  uint64_t device_forces = 0;
  uint64_t log_bytes = 0;
  uint64_t lock_acquires = 0;
  uint64_t lock_waits = 0;
  uint64_t lock_timeouts = 0;
  uint64_t locks_held = 0;
  uint64_t txns_tracked = 0;  ///< TransactionManager::ActiveTxnCount, summed
  tpc::Histogram lock_hold;   ///< grant -> release, runtime-clock us
  tpc::Histogram lock_wait;   ///< request -> grant, waiters only
  tpc::Histogram force_latency;
  tpc::harness::MemoryStats memory;
};

/// Resets the resettable stats (network, log, lock) of every node.
void ResetLayerStats(const std::vector<tpc::harness::Cluster*>& clusters);
LayerTotals CollectLayerTotals(
    const std::vector<tpc::harness::Cluster*>& clusters);
/// Turns the program's own tracing switches on or off in every cluster:
/// trace capture, network tracing and force-latency collection.
void SetEngineTracing(const std::vector<tpc::harness::Cluster*>& clusters,
                      bool on);
/// Nodes of `clusters` that are down or hold an in-doubt transaction, as
/// text; empty when none is.
std::string InDoubtReport(const std::vector<tpc::harness::Cluster*>& clusters);

// --- sim rounds ----------------------------------------------------------------

/// One round of a simulated workload: a fresh cluster set, warm-up, then
/// the timed replay of the seeded plan.
struct Round {
  bool traced = false;
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  /// Transactions run in the timed phase and how many of them committed.
  uint64_t attempted = 0;
  uint64_t committed = 0;
  /// Of `attempted`, the client's resubmissions of planned transactions
  /// that did not commit; the planned ones are `attempted - retries`.
  uint64_t retries = 0;
  uint64_t allocs = 0;
  /// Deterministic values (counts and simulated times): identical in every
  /// round of one seed, which the aggregation checks.
  std::map<std::string, double> exact;
  /// Wall-clock per-layer figures; the sheet gets their median over the
  /// rounds that report them.
  std::map<std::string, double> timed;
  /// Process CPU and wall seconds of consecutive chunks of the timed phase,
  /// when the workload records them (ChunkClock).
  std::vector<double> chunk_cpu_s;
  std::vector<double> chunk_wall_s;
};

/// Records the CPU and wall time of consecutive chunks of a round's timed
/// phase: construct it where the phase starts, Mark() at each chunk's end.
class ChunkClock {
 public:
  explicit ChunkClock(Round* round)
      : round_(round), cpu_(ProcessCpuSeconds()), wall_(WallSeconds()) {}
  void Mark() {
    const double cpu = ProcessCpuSeconds();
    const double wall = WallSeconds();
    round_->chunk_cpu_s.push_back(cpu - cpu_);
    round_->chunk_wall_s.push_back(wall - wall_);
    cpu_ = cpu;
    wall_ = wall;
  }

 private:
  Round* round_;
  double cpu_;
  double wall_;
};

/// Runs `round(index, traced)` until `seconds` of wall time are used (at
/// least `min_rounds`). Traced runs alternate untraced and traced rounds.
template <typename Fn>
std::vector<Round> RunRounds(const Options& options, double seconds,
                             size_t min_rounds, Fn&& round) {
  std::vector<Round> rounds;
  const double start = WallSeconds();
  for (size_t i = 0;; ++i) {
    const bool traced = options.trace && (i % 2 == 1);
    rounds.push_back(round(i, traced));
    const double used = WallSeconds() - start;
    const double per_round = used / static_cast<double>(i + 1);
    if (rounds.size() >= min_rounds && used + per_round > seconds) break;
  }
  return rounds;
}

/// The figures every simulated round reports: the per-commit layer counts
/// of the timed phase (`before` read after the warm-up's stats reset,
/// `after` at its end), the simulated commit latency of the committed
/// transactions, the commits per simulated second over `sim_elapsed`, the
/// committed share, what stayed held or tracked in `quiesced` (the totals
/// once the clusters went quiet), and in a traced round the span-derived
/// phase times and the force latencies.
void AddRoundFigures(const LayerTotals& before, const LayerTotals& after,
                     const LayerTotals& quiesced, const tpc::Histogram& latency,
                     tpc::sim::Time sim_elapsed, const SpanLog& spans, Round* round);

/// Fills the sheet from sim rounds: set-up time, CPU per commit and
/// commits/s from the fastest round (untraced for the latter two), not the
/// median: other tenants of the machine (a busy SMT sibling, a shared
/// cache) come and go within a run and only ever slow a round down, so the
/// fastest round is what the code itself costs. When the rounds record
/// chunks, CPU per commit and commits/s come from the sum over chunks of
/// each chunk's fastest run instead, which catches quiet moments shorter
/// than a round. Across six 15 s runs of
/// `conversation` on a shared 4-vCPU machine the median round spread by
/// 15% (quartiles over median), the fastest round by 2.5%. Then the exact
/// values (checked equal across rounds) and the medians of `timed`.
void AggregateRounds(const std::vector<Round>& rounds, Sheet* sheet,
                     Outcome* outcome);

/// Replays the op mix the run recorded (the per-commit counts already on
/// the sheet) through each layer's public API in isolation, and sets the
/// per-op times, each layer's replayed µs/commit and what they leave of
/// `untraced_cpu_us_per_commit` (tm.unattributed_us_per_commit).
void AddReplays(Sheet* sheet, double untraced_cpu_us_per_commit,
                bool sim_kernel, bool sim_network);

// --- the 3-node cell --------------------------------------------------------------

// Inline, so namespace-scope users in other files are initialized after
// them.
inline const std::string kCoord = "coord";
inline const std::string kS1 = "s1";
inline const std::string kS2 = "s2";

/// Adds coord, `s1` and `s2` with `node` options to `c` and connects the
/// coordinator to both. `s1` writes the key a "w<key>" flow names (value:
/// its txn id, refusals counted in `*write_failures`), `s2` reads the key
/// an "r<key>" flow names; handler bodies are spans in `spans`.
void AddThreeNodes(tpc::harness::Cluster* c, const tpc::harness::NodeOptions& node,
                   SpanLog* spans, uint64_t* write_failures);

/// The value the coordinator writes for `txn`: "<txn>:" and `bytes` of fill.
std::string CoordValue(uint64_t txn, uint32_t bytes);

/// One seeded transaction of a 3-node workload (`conversation`,
/// `crash-recovery`): on cluster `cell`, a write of `key` at the
/// coordinator, "w<key>" to `s1` and "r<key>" to `s2`, then work flows of
/// the listed sizes, then Commit.
struct ThreeNodeTxn {
  uint32_t cell = 0;
  std::string key;
  uint32_t value_bytes = 0;
  /// Per-link network delay for this transaction (1 ms + seeded jitter).
  tpc::sim::Time delay_s1 = 0;
  tpc::sim::Time delay_s2 = 0;
  std::vector<uint32_t> flows_s1;  ///< sizes, at most 16 KiB each
  std::vector<uint32_t> flows_s2;
  int crash_node = -1;  ///< crash-recovery: 0 coord, 1 s1, 2 s2; -1 none
  std::string crash_point;
};

/// Draws key, value size (16 B - 1 KiB) and link delays (1 ms plus up to
/// `max_jitter`); the caller draws the rest from the same stream.
ThreeNodeTxn DrawThreeNodeTxn(tpc::Random& rng, uint32_t cell, tpc::sim::Time max_jitter);
uint64_t DigestThreeNodePlan(const std::vector<ThreeNodeTxn>& plan);

/// What the client saw of one transaction.
struct TxnResult {
  uint64_t txn = 0;
  bool done = false;  ///< the commit callback fired
  tpc::tm::Outcome outcome = tpc::tm::Outcome::kUnknown;
  bool damage = false;
  tpc::sim::Time latency = 0;  ///< Commit() -> callback, simulated
};

/// The client side of the 3-node cell: runs a transaction's work phase,
/// with a span around each public call.
class ThreeNodeClient {
 public:
  explicit ThreeNodeClient(SpanLog* spans);
  /// Sets the links' delays, then Begin, the coordinator's write and the
  /// work flows. Returns the txn id.
  uint64_t Start(tpc::harness::Cluster& c, const ThreeNodeTxn& t, uint64_t* write_failures);

 private:
  void Send(tpc::tm::TransactionManager& coord, uint64_t txn, const std::string& peer,
            std::string_view payload);

  SpanLog* spans_;
  const std::string bulk_;  ///< fill of the work flows
  std::string op_;          ///< "w<key>" / "r<key>", reused
};

/// The checks of a 3-node round: for every committed transaction the
/// writes are present at coord and `s1`, and every transaction passes the
/// audit with no heuristic damage (`clusters` and `labels` indexed by
/// ThreeNodeTxn::cell). Counts round->attempted and ->committed and returns
/// the commit latencies of the committed ones.
tpc::Histogram CheckThreeNodeRound(const std::vector<ThreeNodeTxn>& timed,
                                   const std::vector<TxnResult>& results,
                                   const std::vector<tpc::harness::Cluster*>& clusters,
                                   const std::vector<std::string>& labels, Round* round,
                                   Outcome* outcome);

// --- workloads -------------------------------------------------------------------

Outcome RunConversation(const Options& options, Sheet* sheet);
Outcome RunTree(const Options& options, Sheet* sheet);
Outcome RunCrashRecovery(const Options& options, Sheet* sheet);
Outcome RunLiveOpen(const Options& options, Sheet* sheet);

/// Seed-state reproductions (`perfbench --finding <name>`); see README.md.
int RunFinding(const std::string& name, uint64_t txns);
void TreeHistoryFinding();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
