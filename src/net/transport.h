// Transport: the messaging seam the protocol engines code against.
//
// TransactionManager and the RMs send PDUs through this interface instead of
// holding a concrete net::Network, so the identical engine links against
// either backend:
//
//   - net::Network (network.h): the deterministic simulated interconnect —
//     per-link latency/loss/flaps, FIFO sessions, scheduled deliveries on
//     the sim event loop.
//   - runtime::LiveTransport (live_runtime.h): real threads — Send enqueues
//     a delivery task on the destination node's mailbox; OnMessage runs on
//     the destination's serialized worker context.
//
// The surface is exactly what the zero-allocation send path needs: intern a
// peer name once, acquire a pooled payload buffer, encode the PDU in place,
// hand the ref to Send. Both backends recycle the buffer when the message
// reaches its terminal state, so the engines never release payloads.
//
// Contract every backend guarantees:
//   - Delivery is in-order per directed (from, to) pair and serialized with
//     respect to the destination's other activity (event loop or mailbox).
//   - OnMessage is never invoked on an endpoint reporting IsUp() == false.
//   - Send consumes msg.payload on every path (accepted, dropped, rejected).
//   - Interned ids are dense, stable, and shared across all nodes on the
//     transport instance.

#ifndef TPC_NET_TRANSPORT_H_
#define TPC_NET_TRANSPORT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "net/message.h"
#include "sim/event_queue.h"
#include "util/status.h"

namespace tpc::net {

/// Receiver interface implemented by nodes.
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  /// Delivery upcall. Never invoked while the endpoint reports itself down.
  /// The message's payload buffer is recycled when this returns: read it via
  /// Transport::PayloadOf during the call, copy it if it must outlive it.
  virtual void OnMessage(const Message& msg) = 0;

  /// A crashed node neither sends nor receives.
  virtual bool IsUp() const = 0;
};

class Transport {
 public:
  static constexpr uint32_t kNoId = UINT32_MAX;

  virtual ~Transport() = default;

  /// Registers a node. Names must be unique.
  virtual void Register(const NodeId& id, Endpoint* endpoint) = 0;

  // --- interning ----------------------------------------------------------

  /// Interns `name`, returning its dense id (stable for the transport's
  /// life).
  virtual uint32_t InternId(const NodeId& name) = 0;
  /// Id of `name`, or kNoId if never interned. Never allocates.
  virtual uint32_t IdOf(const NodeId& name) const = 0;
  /// The name interned as `id`. Requires a valid id.
  virtual const NodeId& NameOf(uint32_t id) const = 0;

  // --- pooled payload buffers ---------------------------------------------

  /// Acquires a cleared buffer from the pool (capacity retained from its
  /// previous use).
  virtual PayloadRef AcquirePayload() = 0;
  /// The mutable buffer behind `ref` — encode the payload in place here
  /// before Send. Requires a ref obtained from AcquirePayload.
  virtual std::string& PayloadBuffer(PayloadRef ref) = 0;
  /// Read-only view of the bytes behind `ref`; empty for the null ref.
  virtual std::string_view PayloadView(PayloadRef ref) const = 0;

  /// The payload of a message (empty if it carries none). During OnMessage
  /// this is the delivered bytes; the view dies with the upcall.
  std::string_view PayloadOf(const Message& msg) const {
    return PayloadView(msg.payload);
  }

  // --- sending ------------------------------------------------------------

  /// Sends a message; delivery is in-order per directed pair. Send consumes
  /// msg.payload on every path.
  virtual Status Send(Message msg) = 0;

  /// Latency the next message from `a` to `b` would experience (an estimate
  /// on live backends, where the scheduler decides).
  virtual sim::Time LatencyBetween(const NodeId& a, const NodeId& b) const = 0;

  /// Whether senders should build per-message trace tags.
  virtual bool tracing() const = 0;
};

}  // namespace tpc::net

#endif  // TPC_NET_TRANSPORT_H_
