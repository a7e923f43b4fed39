#include "net/network.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace tpc::net {

uint32_t Network::Intern(const NodeId& name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(names_.size());
  ids_.emplace(name, id);
  names_.push_back(name);
  endpoints_.push_back(nullptr);
  sent_by_.push_back(0);
  return id;
}

uint32_t Network::Find(const NodeId& name) const {
  auto it = ids_.find(name);
  return it == ids_.end() ? kNoNode : it->second;
}

void Network::Register(const NodeId& id, Endpoint* endpoint) {
  TPC_CHECK(endpoint != nullptr);
  const uint32_t node = Intern(id);
  TPC_CHECK(endpoints_[node] == nullptr);  // names must be unique
  endpoints_[node] = endpoint;
}

void Network::SetLinkLatency(const NodeId& a, const NodeId& b,
                             sim::Time latency) {
  const uint32_t ia = Intern(a), ib = Intern(b);
  // Sequential GetOrCreate calls: the second may rehash, so never hold the
  // first reference across it.
  links_.GetOrCreate(PairKey(ia, ib)).latency = latency;
  links_.GetOrCreate(PairKey(ib, ia)).latency = latency;
}

void Network::SetLinkDown(const NodeId& a, const NodeId& b, bool down) {
  const uint32_t ia = Intern(a), ib = Intern(b);
  links_.GetOrCreate(PairKey(ia, ib)).down = down;
  links_.GetOrCreate(PairKey(ib, ia)).down = down;
}

bool Network::IsLinkDown(const NodeId& a, const NodeId& b) const {
  const uint32_t ia = Find(a), ib = Find(b);
  if (ia == kNoNode || ib == kNoNode) return false;
  const LinkState* link = links_.Find(PairKey(ia, ib));
  return link != nullptr && link->down;
}

void Network::SetLinkLossRate(const NodeId& a, const NodeId& b, double p) {
  TPC_CHECK(p >= 0.0 && p <= 1.0);
  const uint32_t ia = Intern(a), ib = Intern(b);
  links_.GetOrCreate(PairKey(ia, ib)).loss = p;
  links_.GetOrCreate(PairKey(ib, ia)).loss = p;
}

double Network::LinkLossRate(const NodeId& a, const NodeId& b) const {
  const uint32_t ia = Find(a), ib = Find(b);
  if (ia == kNoNode || ib == kNoNode) return 0.0;
  const LinkState* link = links_.Find(PairKey(ia, ib));
  return link == nullptr ? 0.0 : link->loss;
}

sim::Time Network::LatencyBetween(const NodeId& a, const NodeId& b) const {
  const uint32_t ia = Find(a), ib = Find(b);
  if (ia == kNoNode || ib == kNoNode) return default_latency_;
  const LinkState* link = links_.Find(PairKey(ia, ib));
  if (link == nullptr || link->latency == kDefaultLatency)
    return default_latency_;
  return link->latency;
}

PayloadRef Network::AcquirePayload() {
  if (!payload_free_.empty()) {
    const uint32_t idx = payload_free_.back();
    payload_free_.pop_back();
    payload_pool_[idx].clear();  // capacity survives, bytes do not
    return PayloadRef{idx};
  }
  payload_pool_.emplace_back();
  return PayloadRef{static_cast<uint32_t>(payload_pool_.size() - 1)};
}

void Network::ReleasePayload(PayloadRef ref) {
  if (ref.valid()) payload_free_.push_back(ref.index);
}

uint32_t Network::AcquireSlab(Message&& msg) {
  if (!slab_free_.empty()) {
    const uint32_t idx = slab_free_.back();
    slab_free_.pop_back();
    slab_[idx] = std::move(msg);
    return idx;
  }
  slab_.push_back(std::move(msg));
  return static_cast<uint32_t>(slab_.size() - 1);
}

Status Network::Send(Message msg) {
  const uint32_t from = msg.from;
  const uint32_t to = msg.to;
  if (from >= endpoints_.size() || endpoints_[from] == nullptr) {
    ++stats_.messages_rejected;
    ReleasePayload(msg.payload);
    return Status::InvalidArgument(
        "unknown sender: " +
        (from < names_.size() ? names_[from] : "(uninterned id)"));
  }
  if (!endpoints_[from]->IsUp()) {
    ++stats_.messages_rejected;
    ReleasePayload(msg.payload);
    return Status::FailedPrecondition("sender is down: " + names_[from]);
  }
  if (to >= endpoints_.size() || endpoints_[to] == nullptr) {
    ++stats_.messages_rejected;
    ReleasePayload(msg.payload);
    return Status::InvalidArgument(
        "unknown destination: " +
        (to < names_.size() ? names_[to] : "(uninterned id)"));
  }

  // Accepted: count the flow and its encoded bytes exactly once, here. The
  // payload buffer is pooled and reused, so byte accounting must never
  // depend on buffer identity or lifetime.
  ++stats_.messages_sent;
  stats_.bytes_sent += PayloadView(msg.payload).size();
  ++sent_by_[from];

  if (tracing_) {
    ctx_->trace().Add({ctx_->now(), sim::TraceKind::kSend, names_[from],
                       names_[to], msg.txn, std::string(msg.TagView())});
  }

  // One probe fetches everything the send path needs: down flag, loss rate,
  // latency override, and the mutable FIFO floor.
  LinkState& link = links_.GetOrCreate(PairKey(from, to));
  if (link.down) {
    ++stats_.messages_dropped;
    ReleasePayload(msg.payload);
    return Status::OK();  // silent loss, like a real partition
  }
  // Seeded probabilistic loss. A lost message never went on the wire as far
  // as the receiver is concerned, so the FIFO floor stays where it was.
  if (link.loss > 0.0 && ctx_->rng().Bernoulli(link.loss)) {
    ++stats_.messages_dropped;
    ReleasePayload(msg.payload);
    return Status::OK();
  }

  sim::Time deliver_at =
      ctx_->now() +
      (link.latency == kDefaultLatency ? default_latency_ : link.latency);
  if (deliver_at < link.floor)
    deliver_at = link.floor;  // preserve per-session FIFO order
  link.floor = deliver_at;

  // Park the message and capture only (this, index, ids): 16 bytes, which
  // the event queue stores inline — no allocation on the send path.
  const uint32_t idx = AcquireSlab(std::move(msg));
  ctx_->events().ScheduleAt(deliver_at,
                            [this, idx, from, to] { Deliver(idx, from, to); });
  return Status::OK();
}

void Network::Deliver(uint32_t slab_index, uint32_t from, uint32_t to) {
  // Move the message out and recycle the slot first: the OnMessage upcall
  // may Send (and so re-acquire slab slots) reentrantly. The payload buffer
  // stays live until the upcall returns — reentrant sends acquire different
  // pool slots, and the deque keeps this buffer's address stable.
  Message msg = std::move(slab_[slab_index]);
  slab_free_.push_back(slab_index);

  const LinkState* link = links_.Find(PairKey(from, to));
  Endpoint* endpoint = endpoints_[to];
  if (endpoint == nullptr || !endpoint->IsUp() ||
      (link != nullptr && link->down)) {
    ++stats_.messages_dropped;
    ReleasePayload(msg.payload);
    return;
  }
  ++stats_.messages_delivered;
  stats_.bytes_delivered += PayloadView(msg.payload).size();
  if (tracing_) {
    ctx_->trace().Add({ctx_->now(), sim::TraceKind::kReceive, names_[to],
                       names_[from], msg.txn, std::string(msg.TagView())});
  }
  endpoint->OnMessage(msg);
  ReleasePayload(msg.payload);
}

uint64_t Network::SentBy(const NodeId& node) const {
  const uint32_t id = Find(node);
  return id == kNoNode ? 0 : sent_by_[id];
}

uint64_t Network::ApproxBytes() const {
  uint64_t bytes = links_.ApproxBytes();
  bytes += names_.capacity() * sizeof(std::string);
  for (const auto& n : names_) bytes += n.capacity();
  // ids_ is an unordered_map; approximate a node per entry.
  bytes += ids_.size() * (sizeof(std::string) + 2 * sizeof(void*) + 16);
  bytes += endpoints_.capacity() * sizeof(Endpoint*);
  bytes += sent_by_.capacity() * sizeof(uint64_t);
  for (const auto& p : payload_pool_) bytes += sizeof(std::string) + p.capacity();
  bytes += payload_free_.capacity() * sizeof(uint32_t);
  bytes += slab_.capacity() * sizeof(Message);
  bytes += slab_free_.capacity() * sizeof(uint32_t);
  return bytes;
}

}  // namespace tpc::net
