// Cluster harness: assembles simulated nodes (TM + WAL + RMs + network
// port), drives transactions to completion, and audits cluster-wide
// consistency. Tests, benches, and examples all build on this.

#ifndef TPC_HARNESS_CLUSTER_H_
#define TPC_HARNESS_CLUSTER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/network.h"
#include "rm/kv_resource_manager.h"
#include "sim/sim_context.h"
#include "tm/transaction_manager.h"
#include "wal/log_manager.h"

namespace tpc::harness {

/// Per-node construction options.
struct NodeOptions {
  tm::TmConfig tm;
  size_t num_rms = 1;
  rm::KVOptions rm_options;
  /// Log device service time per physical force.
  sim::Time log_force_latency = 2 * sim::kMillisecond;
  /// Log device streaming bandwidth (0 = infinite) and service concurrency;
  /// together with log_force_latency these form the node's DeviceOptions.
  uint64_t log_bandwidth_bytes_per_sec = 0;
  uint32_t log_queue_depth = 1;
  wal::GroupCommitOptions group_commit;
  /// Non-empty: this node appends to the named host node's log instead of
  /// owning one (the shared-logs configuration). The host must exist.
  std::string shared_log_host;
};

/// One simulated machine.
class Node {
 public:
  Node(sim::SimContext* ctx, net::Network* network, std::string name,
       const NodeOptions& options, wal::LogManager* host_log);

  const std::string& name() const { return name_; }
  tm::TransactionManager& tm() { return *tm_; }
  wal::LogManager& log() { return *log_; }
  rm::KVResourceManager& rm(size_t index = 0) { return *rms_.at(index); }
  size_t rm_count() const { return rms_.size(); }
  bool owns_log() const { return owned_log_ != nullptr; }

  /// Whole-machine crash: TM, RMs, and (if owned) the log lose volatile
  /// state.
  void Crash();

  /// Checkpoint: truncates the log to what recovery still needs, whatever
  /// is in flight. From the durable prefix it copies forward, byte for
  /// byte, the TM's records of every transaction the TM tracks, an RM
  /// holds, or whose latest record is still buffered. It re-logs the paxos
  /// acceptor's live state and snapshots every RM (store plus open
  /// transactions); once the snapshots are durable it discards the prefix.
  /// Restart work then follows the live state and the records since the
  /// last checkpoint, not the length of the run. Only log-owning nodes may
  /// checkpoint (FailedPrecondition otherwise). `done` runs once the log is
  /// truncated; a crash first drops it. Truncation also drops the archived
  /// verdicts of forgotten transactions, so a later restart answers
  /// inquiries about them by presumption only.
  Status Checkpoint(std::function<void()> done);

  /// Restart and run log-driven recovery.
  void Restart();

 private:
  std::string name_;
  std::unique_ptr<wal::LogManager> owned_log_;  // null when sharing
  wal::LogManager* log_;
  std::vector<std::unique_ptr<rm::KVResourceManager>> rms_;
  std::unique_ptr<tm::TransactionManager> tm_;
};

/// Shape of a bulk-built cluster topology.
enum class TopologyShape {
  kTree,          ///< complete fanout-ary tree rooted at server 0
  kStar,          ///< every server a direct child of server 0
  kRandomSparse,  ///< seeded random tree with per-node degree <= fanout
};

/// Parameters for BuildTopology.
struct TopologyOptions {
  TopologyShape shape = TopologyShape::kTree;
  /// Server (subordinate) node count, excluding coordinators.
  size_t servers = 64;
  /// Tree/random-sparse: maximum children per server.
  size_t fanout = 8;
  /// Coordinator nodes fronting the root; each owns its own session to
  /// server 0 so concurrent commit trees overlap from the first hop down.
  size_t coordinators = 1;
  /// Seed for random-sparse wiring (independent of the simulation seed, so
  /// the same topology can be replayed under different event seeds).
  uint64_t wiring_seed = 1;
  /// Applied to every node (coordinators and servers alike).
  NodeOptions node_options;
};

/// The wiring BuildTopology produced. Server names sort in index order
/// ("s0000" < "s0001" < ...), so name-lexicographic session iteration —
/// which is trace-visible — matches index arithmetic.
struct Topology {
  static constexpr uint32_t kNoParent = UINT32_MAX;

  std::vector<std::string> coordinators;
  std::vector<std::string> servers;           ///< index-aligned with parent/children
  std::vector<uint32_t> parent;               ///< per server; kNoParent at the root
  std::vector<std::vector<uint32_t>> children;  ///< per server
  std::vector<uint32_t> leaves;               ///< servers with no children
  size_t depth = 1;  ///< root-to-deepest-leaf node count

  /// The child of `node` whose subtree contains `target` (walks parent
  /// links: O(depth), independent of cluster size). Requires `target` to
  /// be a strict descendant of `node`.
  uint32_t NextHop(uint32_t node, uint32_t target) const;
};

/// Heap footprint of the cluster's own tables, by layer. The property the
/// cluster bench gates: per-node cost stays O(fanout + local work) as the
/// cluster grows, because link state, sessions, and per-txn side tables are
/// all sparse.
struct MemoryStats {
  uint64_t network_bytes = 0;  ///< interning, link map, payload pool, slab
  uint64_t tm_bytes = 0;       ///< sessions, txn slab, per-txn meta (all TMs)
  uint64_t wal_bytes = 0;      ///< log buffers + stats (owned logs only)
  size_t nodes = 0;

  uint64_t total_bytes() const { return network_bytes + tm_bytes + wal_bytes; }
  double bytes_per_node() const {
    return nodes == 0 ? 0.0
                      : static_cast<double>(total_bytes()) /
                            static_cast<double>(nodes);
  }
};

/// Result of driving a commit through the event loop.
struct DrivenCommit {
  bool completed = false;  ///< the commit callback fired
  tm::CommitResult result;
  sim::Time latency = 0;  ///< commit call -> callback, simulated time
};

/// Cluster-wide ground truth for one transaction.
struct TxnAudit {
  /// Every participant with a recorded outcome has the same effects
  /// (commit everywhere or abort everywhere). In-doubt nodes make this
  /// false (undecided), as do heuristic mismatches.
  bool consistent = true;
  /// Some participant's effects disagree with the root's outcome (the
  /// definition of heuristic damage).
  bool damage_ground_truth = false;
  bool any_heuristic = false;
  bool any_in_doubt = false;
  size_t participants = 0;
};

/// The simulated cluster.
class Cluster {
 public:
  explicit Cluster(uint64_t seed = 42);

  sim::SimContext& ctx() { return ctx_; }
  net::Network& network() { return network_; }

  /// Adds a node. Nodes sharing a log must be added after their host.
  Node& AddNode(const std::string& name, const NodeOptions& options = {});

  /// Declares a session between two nodes (both directions).
  void Connect(const std::string& a, const std::string& b,
               tm::SessionOptions a_options = {},
               tm::SessionOptions b_options = {});

  /// Bulk-constructs a cluster: `servers` server nodes wired per the shape,
  /// plus `coordinators` coordinator nodes each connected to the root
  /// server. Node creation and wiring are deterministic (names in index
  /// order, sessions along tree edges only), so a 2048-node cell costs
  /// O(nodes + links), not O(nodes²).
  Topology BuildTopology(const TopologyOptions& options);

  /// Sums the heap held by the network, every TM, and every owned log.
  MemoryStats MemoryUsage() const;

  Node& node(const std::string& name);
  const Node& node(const std::string& name) const;
  tm::TransactionManager& tm(const std::string& name) {
    return node(name).tm();
  }

  /// Node names in deterministic (sorted) order.
  std::vector<std::string> NodeNames() const;

  /// Runs the event loop until it drains (only safe without armed
  /// retry-forever timers). Returns events executed.
  uint64_t Drain(uint64_t max_events = 2'000'000);

  /// Advances simulated time by `duration`.
  void RunFor(sim::Time duration);

  /// Initiates Commit at `node_name`; the returned state fills in when the
  /// commit callback eventually fires (safe across later event-loop runs).
  std::shared_ptr<DrivenCommit> StartCommit(const std::string& node_name,
                                            uint64_t txn);

  /// Initiates Commit at `node_name` and runs the loop until the commit
  /// callback fires (or `timeout` simulated time passes).
  DrivenCommit CommitAndWait(const std::string& node_name, uint64_t txn,
                             sim::Time timeout = 10 * 60 * sim::kSecond);

  /// Audits one transaction across every node.
  TxnAudit Audit(uint64_t txn) const;

  /// Sum of per-node TM costs for a transaction (total flows and TM log
  /// writes across the cluster — the quantities of Tables 2-4).
  tm::TxnCost TotalCost(uint64_t txn) const;

  /// Formatted cluster-wide metrics: network traffic, per-node log writes
  /// (logical and physical), and lock statistics. For operators, examples,
  /// and bench footers.
  std::string ReportMetrics() const;

 private:
  sim::SimContext ctx_;
  net::Network network_;
  std::map<std::string, std::unique_ptr<Node>> nodes_;
};

}  // namespace tpc::harness

#endif  // TPC_HARNESS_CLUSTER_H_
