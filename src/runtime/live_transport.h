// LiveTransport: the real-threads net::Transport backend.
//
// Send parks the message in a slab and posts a 16-byte delivery task to the
// destination node's mailbox, so OnMessage runs on the destination's
// serialized worker context — the same "delivery is an event on the
// receiver" shape the simulated Network gives the engines. Per-pair FIFO
// falls out of construction: a sender posts its deliveries from one thread
// in Send order, and the destination mailbox preserves post order.
//
// One mutex guards all shared state (interning tables, endpoint registry,
// payload pool, parked-message slab, stats). It is held only for pointer /
// index manipulation — never across OnMessage, which may itself Send.
// Payload buffers live in a deque, so the address a sender encodes into
// stays stable after the lock drops; cross-thread visibility of the bytes
// rides the destination-mailbox mutex (release on Post, acquire on drain).
//
// Crash semantics differ from the sim on purpose: there is no global
// "messages in flight" list to drop, so a message posted to a crashed node
// is discarded by the delivery task's IsUp() check on the destination
// thread — equivalent to the sim's deliver-time drop.

#ifndef TPC_RUNTIME_LIVE_TRANSPORT_H_
#define TPC_RUNTIME_LIVE_TRANSPORT_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/transport.h"
#include "runtime/live_runtime.h"

namespace tpc::runtime {

class LiveTransport final : public net::Transport {
 public:
  struct Stats {
    uint64_t messages_sent = 0;
    uint64_t messages_delivered = 0;
    uint64_t messages_dropped = 0;  ///< destination down at delivery
    uint64_t messages_rejected = 0;
    uint64_t bytes_sent = 0;
  };

  LiveTransport() = default;

  /// Associates `name` with the node runtime whose mailbox receives its
  /// deliveries. Must precede Register(name, ...); setup phase only.
  void Bind(const net::NodeId& name, LiveNodeRuntime* node);

  void Register(const net::NodeId& id, net::Endpoint* endpoint) override;

  uint32_t InternId(const net::NodeId& name) override;
  uint32_t IdOf(const net::NodeId& name) const override;
  const net::NodeId& NameOf(uint32_t id) const override;

  net::PayloadRef AcquirePayload() override;
  std::string& PayloadBuffer(net::PayloadRef ref) override;
  std::string_view PayloadView(net::PayloadRef ref) const override;

  Status Send(net::Message msg) override;

  sim::Time LatencyBetween(const net::NodeId& a,
                           const net::NodeId& b) const override {
    (void)a;
    (void)b;
    return 0;  // the scheduler decides; engines only use this for traces
  }

  bool tracing() const override { return false; }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  uint32_t InternLocked(const net::NodeId& name);
  void Deliver(uint32_t slab_index);
  void ReleasePayloadLocked(net::PayloadRef ref);

  mutable std::mutex mu_;
  std::unordered_map<net::NodeId, uint32_t> ids_;
  std::vector<net::NodeId> names_;
  std::vector<net::Endpoint*> endpoints_;
  std::vector<LiveNodeRuntime*> node_rts_;
  std::deque<std::string> payload_pool_;  ///< stable addresses
  std::vector<uint32_t> payload_free_;
  std::deque<net::Message> slab_;  ///< parked in-flight messages
  std::vector<uint32_t> slab_free_;
  Stats stats_;
};

}  // namespace tpc::runtime

#endif  // TPC_RUNTIME_LIVE_TRANSPORT_H_
