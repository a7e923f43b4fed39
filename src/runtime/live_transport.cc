#include "runtime/live_transport.h"

#include <utility>

#include "util/logging.h"

namespace tpc::runtime {

uint32_t LiveTransport::InternLocked(const net::NodeId& name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(names_.size());
  ids_.emplace(name, id);
  names_.push_back(name);
  endpoints_.push_back(nullptr);
  node_rts_.push_back(nullptr);
  return id;
}

void LiveTransport::Bind(const net::NodeId& name, LiveNodeRuntime* node) {
  TPC_CHECK(node != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  const uint32_t id = InternLocked(name);
  TPC_CHECK(node_rts_[id] == nullptr);
  node_rts_[id] = node;
}

void LiveTransport::Register(const net::NodeId& id, net::Endpoint* endpoint) {
  TPC_CHECK(endpoint != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  const uint32_t node = InternLocked(id);
  TPC_CHECK(endpoints_[node] == nullptr);  // names must be unique
  TPC_CHECK(node_rts_[node] != nullptr);   // Bind must precede Register
  endpoints_[node] = endpoint;
}

uint32_t LiveTransport::InternId(const net::NodeId& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return InternLocked(name);
}

uint32_t LiveTransport::IdOf(const net::NodeId& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ids_.find(name);
  return it == ids_.end() ? kNoId : it->second;
}

const net::NodeId& LiveTransport::NameOf(uint32_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  TPC_CHECK(id < names_.size());
  return names_[id];
}

net::PayloadRef LiveTransport::AcquirePayload() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!payload_free_.empty()) {
    const uint32_t idx = payload_free_.back();
    payload_free_.pop_back();
    payload_pool_[idx].clear();
    return net::PayloadRef{idx};
  }
  payload_pool_.emplace_back();
  return net::PayloadRef{static_cast<uint32_t>(payload_pool_.size() - 1)};
}

std::string& LiveTransport::PayloadBuffer(net::PayloadRef ref) {
  std::lock_guard<std::mutex> lock(mu_);
  return payload_pool_[ref.index];  // deque: address stable after unlock
}

std::string_view LiveTransport::PayloadView(net::PayloadRef ref) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ref.valid() ? std::string_view(payload_pool_[ref.index])
                     : std::string_view();
}

void LiveTransport::ReleasePayloadLocked(net::PayloadRef ref) {
  if (ref.valid()) payload_free_.push_back(ref.index);
}

Status LiveTransport::Send(net::Message msg) {
  LiveNodeRuntime* dest;
  uint32_t idx;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const uint32_t from = msg.from;
    const uint32_t to = msg.to;
    if (from >= endpoints_.size() || endpoints_[from] == nullptr) {
      ++stats_.messages_rejected;
      ReleasePayloadLocked(msg.payload);
      return Status::InvalidArgument(
          "unknown sender: " +
          (from < names_.size() ? names_[from] : "(uninterned id)"));
    }
    if (to >= endpoints_.size() || endpoints_[to] == nullptr) {
      ++stats_.messages_rejected;
      ReleasePayloadLocked(msg.payload);
      return Status::InvalidArgument(
          "unknown destination: " +
          (to < names_.size() ? names_[to] : "(uninterned id)"));
    }
    // IsUp is owned by the node's thread; Send does not probe it. A message
    // from a node that crashed mid-task is dropped at delivery, like the
    // sim's deliver-time check.
    ++stats_.messages_sent;
    stats_.bytes_sent += msg.payload.valid()
                             ? payload_pool_[msg.payload.index].size()
                             : 0;
    dest = node_rts_[to];
    if (!slab_free_.empty()) {
      idx = slab_free_.back();
      slab_free_.pop_back();
      slab_[idx] = std::move(msg);
    } else {
      idx = static_cast<uint32_t>(slab_.size());
      slab_.push_back(std::move(msg));
    }
  }
  dest->Post(Task([this, idx] { Deliver(idx); }));
  return Status::OK();
}

void LiveTransport::Deliver(uint32_t slab_index) {
  net::Message msg;
  net::Endpoint* endpoint;
  {
    std::lock_guard<std::mutex> lock(mu_);
    msg = std::move(slab_[slab_index]);
    slab_free_.push_back(slab_index);
    endpoint = endpoints_[msg.to];
  }
  // IsUp/OnMessage run on the destination's own serialized context, outside
  // the transport lock — the upcall may Send.
  if (endpoint == nullptr || !endpoint->IsUp()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.messages_dropped;
    ReleasePayloadLocked(msg.payload);
    return;
  }
  endpoint->OnMessage(msg);
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.messages_delivered;
  ReleasePayloadLocked(msg.payload);
}

}  // namespace tpc::runtime
