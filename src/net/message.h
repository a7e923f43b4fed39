// Network message envelope. Payload encoding is owned by the protocol layer
// (see tm/protocol_messages.h); the network treats it as opaque bytes.
//
// Hot-path shape: a Message carries no heap strings. Sender and receiver are
// the network's interned uint32 node ids (names survive only at the
// trace-render boundary via Network::NameOf), the payload is a handle into a
// network-owned pooled buffer slab (Network::AcquirePayload), and the trace
// tag is a small inline buffer that is simply left empty while tracing is
// off — a steady-state Send touches no allocator.

#ifndef TPC_NET_MESSAGE_H_
#define TPC_NET_MESSAGE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace tpc::net {

/// Nodes are addressed by human-readable names ("coord", "sub1", ...), which
/// keeps traces and failure-injection points legible. The network interns
/// these into dense uint32 ids (see Network); messages carry only the ids.
using NodeId = std::string;

/// Coarse message classification. Dispatch is driven by the payload, never
/// by this tag; it only labels traffic when no per-message trace tag was
/// computed (senders skip building one while tracing is off).
enum class MsgKind : unsigned char {
  kPdu,    ///< protocol PDU bundle (tm/protocol_messages.h)
  kApp,    ///< application traffic
  kOther,  ///< anything else (tests, fuzzed garbage)
};

std::string_view MsgKindName(MsgKind kind);

/// Handle to a pooled payload buffer owned by the Network. A default
/// (invalid) ref means "no payload". The network releases the buffer back
/// to its free list once the message reaches a terminal state, so views of
/// a delivered payload are valid only for the duration of OnMessage.
struct PayloadRef {
  static constexpr uint32_t kNone = UINT32_MAX;
  uint32_t index = kNone;
  bool valid() const { return index != kNone; }
};

/// Human trace tag ("PREPARE+ACK") with small-buffer storage: tags short
/// enough for the inline buffer (the overwhelming majority) never allocate,
/// longer ones spill to a heap string rather than truncate — traces must
/// stay bit-for-bit identical to the string-backed implementation.
class TraceTag {
 public:
  TraceTag() = default;
  TraceTag(std::string_view s) { append(s); }  // NOLINT: implicit by design
  TraceTag& operator=(std::string_view s) {
    clear();
    append(s);
    return *this;
  }

  void append(std::string_view s) {
    if (spill_.empty() && len_ + s.size() <= kInlineCapacity) {
      std::memcpy(buf_ + len_, s.data(), s.size());
      len_ = static_cast<unsigned char>(len_ + s.size());
      return;
    }
    if (spill_.empty()) {
      spill_.assign(buf_, len_);
      len_ = 0;
    }
    spill_.append(s);
  }
  void append(char c) { append(std::string_view(&c, 1)); }

  void clear() {
    len_ = 0;
    spill_.clear();
  }
  bool empty() const { return len_ == 0 && spill_.empty(); }
  size_t size() const { return spill_.empty() ? len_ : spill_.size(); }
  std::string_view view() const {
    return spill_.empty() ? std::string_view(buf_, len_)
                          : std::string_view(spill_);
  }
  operator std::string_view() const { return view(); }  // NOLINT

 private:
  static constexpr size_t kInlineCapacity = 47;
  char buf_[kInlineCapacity];
  unsigned char len_ = 0;
  std::string spill_;  ///< overflow for tags longer than the inline buffer
};

inline bool operator==(const TraceTag& tag, std::string_view s) {
  return tag.view() == s;
}

/// One network message.
struct Message {
  uint32_t from = UINT32_MAX;  ///< interned sender id (Network::InternId)
  uint32_t to = UINT32_MAX;    ///< interned destination id
  MsgKind kind = MsgKind::kOther;
  TraceTag trace_tag;  ///< human tag for traces; senders only fill it
                       ///< while tracing is on
  PayloadRef payload;  ///< pooled buffer handle, opaque to the network
  uint64_t txn = 0;    ///< transaction id for trace correlation (0 = none)

  /// Tag recorded in traces: the per-message tag when present, else the
  /// static kind name.
  std::string_view TagView() const {
    return trace_tag.empty() ? MsgKindName(kind) : trace_tag.view();
  }
};

inline std::string_view MsgKindName(MsgKind kind) {
  switch (kind) {
    case MsgKind::kPdu:
      return "PDU";
    case MsgKind::kApp:
      return "APP";
    case MsgKind::kOther:
      return "MSG";
  }
  return "MSG";
}

}  // namespace tpc::net

#endif  // TPC_NET_MESSAGE_H_
