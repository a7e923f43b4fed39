// The 3-node cell shared by `conversation`, `crash-recovery` and the
// findings: a coordinator, a writing and a reading subordinate, and the
// client side the two workloads share.

#include <string>

#include "common.h"
#include "util/format.h"
#include "util/logging.h"

namespace perfbench {

void AddThreeNodes(tpc::harness::Cluster* c, const tpc::harness::NodeOptions& node,
                   SpanLog* spans, uint64_t* write_failures) {
  for (const std::string& n : {kCoord, kS1, kS2}) c->AddNode(n, node);
  c->Connect(kCoord, kS1);
  c->Connect(kCoord, kS2);
  tpc::tm::TransactionManager* s1 = &c->tm(kS1);
  tpc::tm::TransactionManager* s2 = &c->tm(kS2);
  // "w<key>" / "r<key>" open the conversation and pick the role; any other
  // flow models the rest of the exchange and needs no action.
  s1->SetAppDataHandler([s1, spans, write_failures](
                            uint64_t txn, const tpc::net::NodeId&, std::string_view data) {
    if (data.empty() || data[0] != 'w') return;
    Scope s(spans, SpanKind::kHandler, txn);
    s1->Write(txn, 0, data.substr(1), std::to_string(txn),
              [write_failures](tpc::Status st) { *write_failures += !st.ok(); });
  });
  s2->SetAppDataHandler([s2, spans](uint64_t txn, const tpc::net::NodeId&,
                                    std::string_view data) {
    if (data.empty() || data[0] != 'r') return;
    Scope s(spans, SpanKind::kHandler, txn);
    s2->Read(txn, 0, data.substr(1), [](tpc::Result<std::string>) {});
  });
}

std::string CoordValue(uint64_t txn, uint32_t bytes) {
  std::string v = tpc::StringPrintf("%llu:", static_cast<unsigned long long>(txn));
  v.append(bytes, 'v');
  return v;
}

ThreeNodeTxn DrawThreeNodeTxn(tpc::Random& rng, uint32_t cell, tpc::sim::Time max_jitter) {
  ThreeNodeTxn t;
  t.cell = cell;
  t.key = tpc::StringPrintf("k%016llx", static_cast<unsigned long long>(rng.Next()));
  t.value_bytes = static_cast<uint32_t>(16 + rng.Uniform(1009));
  const uint64_t span = static_cast<uint64_t>(max_jitter) + 1;
  t.delay_s1 = tpc::sim::kMillisecond + static_cast<tpc::sim::Time>(rng.Uniform(span));
  t.delay_s2 = tpc::sim::kMillisecond + static_cast<tpc::sim::Time>(rng.Uniform(span));
  return t;
}

uint64_t DigestThreeNodePlan(const std::vector<ThreeNodeTxn>& plan) {
  uint64_t h = 1469598103934665603ull;
  for (const ThreeNodeTxn& t : plan) {
    h = FnvU64(h, t.cell);
    h = Fnv(h, t.key.data(), t.key.size());
    h = FnvU64(h, t.value_bytes);
    h = FnvU64(h, static_cast<uint64_t>(t.delay_s1 * 1000 + t.delay_s2));
    for (uint32_t f : t.flows_s1) h = FnvU64(h, f);
    h = FnvU64(h, ~0ull);
    for (uint32_t f : t.flows_s2) h = FnvU64(h, f);
    h = FnvU64(h, static_cast<uint64_t>(t.crash_node + 1));
    h = Fnv(h, t.crash_point.data(), t.crash_point.size());
  }
  return h;
}

ThreeNodeClient::ThreeNodeClient(SpanLog* spans) : spans_(spans), bulk_(16384, 'd') {}

uint64_t ThreeNodeClient::Start(tpc::harness::Cluster& c, const ThreeNodeTxn& t,
                                uint64_t* write_failures) {
  tpc::tm::TransactionManager& coord = c.tm(kCoord);
  c.network().SetLinkLatency(kCoord, kS1, t.delay_s1);
  c.network().SetLinkLatency(kCoord, kS2, t.delay_s2);
  const int64_t t0 = spans_->on() ? WallNs() : 0;
  uint64_t txn = 0;
  {
    Scope s(spans_, SpanKind::kBegin, 0);
    txn = coord.Begin();
  }
  {
    Scope s(spans_, SpanKind::kWrite, txn);
    coord.Write(txn, 0, t.key, CoordValue(txn, t.value_bytes),
                [write_failures](tpc::Status st) { *write_failures += !st.ok(); });
  }
  op_.resize(1 + t.key.size());
  t.key.copy(op_.data() + 1, t.key.size());
  op_[0] = 'w';
  Send(coord, txn, kS1, op_);
  op_[0] = 'r';
  Send(coord, txn, kS2, op_);
  for (uint32_t bytes : t.flows_s1) Send(coord, txn, kS1, std::string_view(bulk_.data(), bytes));
  for (uint32_t bytes : t.flows_s2) Send(coord, txn, kS2, std::string_view(bulk_.data(), bytes));
  if (spans_->on()) spans_->Add(SpanKind::kWorkPhase, txn, t0, WallNs());
  return txn;
}

void ThreeNodeClient::Send(tpc::tm::TransactionManager& coord, uint64_t txn,
                           const std::string& peer, std::string_view payload) {
  Scope s(spans_, SpanKind::kSendWork, txn);
  TPC_CHECK_OK(coord.SendWork(txn, peer, payload));
}

tpc::Histogram CheckThreeNodeRound(const std::vector<ThreeNodeTxn>& timed,
                                   const std::vector<TxnResult>& results,
                                   const std::vector<tpc::harness::Cluster*>& clusters,
                                   const std::vector<std::string>& labels, Round* round,
                                   Outcome* outcome) {
  tpc::Histogram latency;
  round->attempted = timed.size();
  for (size_t i = 0; i < timed.size(); ++i) {
    const ThreeNodeTxn& t = timed[i];
    const TxnResult& r = results[i];
    tpc::harness::Cluster& c = *clusters[t.cell];
    const char* label = labels[t.cell].c_str();
    if (r.done && r.outcome == tpc::tm::Outcome::kCommitted) {
      ++round->committed;
      latency.Add(static_cast<double>(r.latency));
      if (c.node(kCoord).rm().Peek(t.key).value_or("") != CoordValue(r.txn, t.value_bytes) ||
          c.node(kS1).rm().Peek(t.key).value_or("") != std::to_string(r.txn))
        outcome->Fail(tpc::StringPrintf("%s txn %llu: committed write missing", label,
                                        static_cast<unsigned long long>(r.txn)));
    }
    const tpc::harness::TxnAudit audit = c.Audit(r.txn);
    if (!audit.consistent || audit.damage_ground_truth || audit.any_heuristic ||
        audit.any_in_doubt || r.damage)
      outcome->Fail(tpc::StringPrintf("%s txn %llu fails the audit", label,
                                      static_cast<unsigned long long>(r.txn)));
  }
  return latency;
}

}  // namespace perfbench
