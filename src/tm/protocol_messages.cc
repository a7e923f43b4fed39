#include "tm/protocol_messages.h"

#include <cstring>

#include "util/binary_io.h"

namespace tpc::tm {

std::string_view PduTypeToString(PduType type) {
  switch (type) {
    case PduType::kAppData: return "APP_DATA";
    case PduType::kPrepare: return "PREPARE";
    case PduType::kVote: return "VOTE";
    case PduType::kCommit: return "COMMIT";
    case PduType::kAbort: return "ABORT";
    case PduType::kAck: return "ACK";
    case PduType::kInquiry: return "INQUIRY";
    case PduType::kInquiryReply: return "INQUIRY_REPLY";
    case PduType::kPaxosAccept: return "PX_ACCEPT";
    case PduType::kPaxosQuery: return "PX_QUERY";
    case PduType::kPaxosPromise: return "PX_PROMISE";
    case PduType::kPaxosTakeover: return "PX_TAKEOVER";
    case PduType::kPaxosAcceptBundle: return "PX_ACCEPT_BUNDLE";
    case PduType::kPaxosAcceptedBundle: return "PX_ACCEPTED_BUNDLE";
    case PduType::kPaxosEnd: return "PX_END";
  }
  return "?";
}

namespace {

// Bit positions for the flag word.
enum : uint16_t {
  kFlagLongLocks = 1 << 0,
  kFlagReliable = 1 << 1,
  kFlagOkToLeaveOut = 1 << 2,
  kFlagUnsolicited = 1 << 3,
  kFlagLastAgent = 1 << 4,
  kFlagVoteLongLocks = 1 << 5,
  kFlagHeurCommit = 1 << 6,
  kFlagHeurAbort = 1 << 7,
  kFlagDamage = 1 << 8,
  kFlagOutcomePending = 1 << 9,
  kFlagFromLastAgent = 1 << 10,
};

// Decodes one frame off the front of `rest` into (pdu, data). On success
// `rest` is advanced past the frame; on failure it is left unspecified and
// the error describes the first malformed field.
Status DecodeFrame(std::string_view* rest, Pdu* pdu, std::string_view* data) {
  Decoder dec(*rest);
  uint8_t type = 0;
  TPC_RETURN_IF_ERROR(dec.GetU8(&type));
  if (type < 1 || type > static_cast<uint8_t>(PduType::kPaxosEnd))
    return Status::Corruption("bad pdu type");
  pdu->type = static_cast<PduType>(type);
  TPC_RETURN_IF_ERROR(dec.GetVarint(&pdu->txn));
  uint16_t flags = 0;
  TPC_RETURN_IF_ERROR(dec.GetU16(&flags));
  pdu->long_locks = flags & kFlagLongLocks;
  pdu->reliable = flags & kFlagReliable;
  pdu->ok_to_leave_out = flags & kFlagOkToLeaveOut;
  pdu->unsolicited = flags & kFlagUnsolicited;
  pdu->last_agent = flags & kFlagLastAgent;
  pdu->vote_long_locks = flags & kFlagVoteLongLocks;
  pdu->heur_commit = flags & kFlagHeurCommit;
  pdu->heur_abort = flags & kFlagHeurAbort;
  pdu->damage = flags & kFlagDamage;
  pdu->outcome_pending = flags & kFlagOutcomePending;
  pdu->from_last_agent = flags & kFlagFromLastAgent;
  uint8_t vote = 0;
  TPC_RETURN_IF_ERROR(dec.GetU8(&vote));
  if (vote > static_cast<uint8_t>(rm::Vote::kReadOnly))
    return Status::Corruption("bad vote");
  pdu->vote = static_cast<rm::Vote>(vote);
  uint8_t answer = 0;
  TPC_RETURN_IF_ERROR(dec.GetU8(&answer));
  if (answer > static_cast<uint8_t>(InquiryAnswer::kInDoubt))
    return Status::Corruption("bad inquiry answer");
  pdu->answer = static_cast<InquiryAnswer>(answer);
  TPC_RETURN_IF_ERROR(dec.GetStringView(data));
  rest->remove_prefix(rest->size() - dec.remaining());
  return Status::OK();
}

// Appends one PDU's tag piece ("VOTE(YES,unsolicited)") to any sink with a
// string_view append — std::string and net::TraceTag both qualify, so the
// vector path and the encoded-payload path share one formatting definition.
template <typename Sink>
void AppendPduTag(Sink* out, const Pdu& pdu, bool first) {
  if (!first) out->append("+");
  out->append(PduTypeToString(pdu.type));
  if (pdu.type == PduType::kVote) {
    out->append("(");
    out->append(rm::VoteToString(pdu.vote));
    if (pdu.unsolicited) out->append(",unsolicited");
    if (pdu.last_agent) out->append(",last-agent");
    out->append(")");
  }
}

// Guards the list sizes of a decoded paxos body: the cohort can at most be
// the whole cluster, and even the 2048-server sweeps stay under this.
constexpr uint64_t kMaxPaxosList = 4096;

Status GetBoundedCount(Decoder* dec, uint64_t* n) {
  TPC_RETURN_IF_ERROR(dec->GetVarint(n));
  if (*n > kMaxPaxosList) return Status::Corruption("paxos list implausible");
  return Status::OK();
}

Status GetName(Decoder* dec, std::string* s) {
  std::string_view view;
  TPC_RETURN_IF_ERROR(dec->GetStringView(&view));
  s->assign(view);  // reuses the string's capacity when warm
  return Status::OK();
}

Status DecodeNameList(Decoder* dec, std::vector<std::string>* out) {
  uint64_t n = 0;
  TPC_RETURN_IF_ERROR(GetBoundedCount(dec, &n));
  if (out->size() > n) out->resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (i >= out->size()) out->emplace_back();
    TPC_RETURN_IF_ERROR(GetName(dec, &(*out)[i]));
  }
  return Status::OK();
}

}  // namespace

void PaxosBody::Clear() {
  ballot = 0;
  promised = 0;
  granted = false;
  prepared = false;
  instance.clear();
  leader.clear();
  cohort.clear();
  acceptors.clear();
  accepted.clear();
}

void EncodePaxosBody(const PaxosBody& body, std::string* out) {
  AppendVarint(*out, body.ballot);
  AppendVarint(*out, body.promised);
  AppendU8(*out, static_cast<uint8_t>((body.granted ? 1 : 0) |
                                      (body.prepared ? 2 : 0)));
  AppendLengthPrefixed(*out, body.instance);
  AppendLengthPrefixed(*out, body.leader);
  AppendVarint(*out, body.cohort.size());
  for (const std::string& n : body.cohort) AppendLengthPrefixed(*out, n);
  AppendVarint(*out, body.acceptors.size());
  for (const std::string& n : body.acceptors) AppendLengthPrefixed(*out, n);
  AppendVarint(*out, body.accepted.size());
  for (const PaxosAccepted& a : body.accepted) {
    AppendLengthPrefixed(*out, a.instance);
    AppendVarint(*out, a.ballot);
    AppendU8(*out, a.prepared ? 1 : 0);
  }
}

Status DecodePaxosBody(std::string_view data, PaxosBody* out) {
  Decoder dec(data);
  TPC_RETURN_IF_ERROR(dec.GetVarint(&out->ballot));
  TPC_RETURN_IF_ERROR(dec.GetVarint(&out->promised));
  uint8_t flags = 0;
  TPC_RETURN_IF_ERROR(dec.GetU8(&flags));
  if (flags > 3) return Status::Corruption("bad paxos flags");
  out->granted = flags & 1;
  out->prepared = flags & 2;
  TPC_RETURN_IF_ERROR(GetName(&dec, &out->instance));
  TPC_RETURN_IF_ERROR(GetName(&dec, &out->leader));
  TPC_RETURN_IF_ERROR(DecodeNameList(&dec, &out->cohort));
  TPC_RETURN_IF_ERROR(DecodeNameList(&dec, &out->acceptors));
  uint64_t n = 0;
  TPC_RETURN_IF_ERROR(GetBoundedCount(&dec, &n));
  if (out->accepted.size() > n) out->accepted.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (i >= out->accepted.size()) out->accepted.emplace_back();
    PaxosAccepted& a = out->accepted[i];
    TPC_RETURN_IF_ERROR(GetName(&dec, &a.instance));
    TPC_RETURN_IF_ERROR(dec.GetVarint(&a.ballot));
    uint8_t prepared = 0;
    TPC_RETURN_IF_ERROR(dec.GetU8(&prepared));
    if (prepared > 1) return Status::Corruption("bad paxos accepted value");
    a.prepared = prepared != 0;
  }
  if (!dec.empty()) return Status::Corruption("trailing paxos body bytes");
  return Status::OK();
}

void EncodePaxosBundle(const PaxosBody& body, std::string* out) {
  AppendVarint(*out, body.ballot);
  AppendLengthPrefixed(*out, body.leader);
  AppendVarint(*out, body.cohort.size());
  for (const std::string& n : body.cohort) AppendLengthPrefixed(*out, n);
  AppendVarint(*out, body.acceptors.size());
  for (const std::string& n : body.acceptors) AppendLengthPrefixed(*out, n);
  AppendVarint(*out, body.accepted.size());
  for (const PaxosAccepted& a : body.accepted) {
    AppendLengthPrefixed(*out, a.instance);
    AppendU8(*out, a.prepared ? 1 : 0);
  }
}

Status DecodePaxosBundle(std::string_view data, PaxosBody* out) {
  Decoder dec(data);
  TPC_RETURN_IF_ERROR(dec.GetVarint(&out->ballot));
  out->promised = 0;
  out->granted = false;
  out->prepared = false;
  out->instance.clear();
  TPC_RETURN_IF_ERROR(GetName(&dec, &out->leader));
  TPC_RETURN_IF_ERROR(DecodeNameList(&dec, &out->cohort));
  TPC_RETURN_IF_ERROR(DecodeNameList(&dec, &out->acceptors));
  uint64_t n = 0;
  TPC_RETURN_IF_ERROR(GetBoundedCount(&dec, &n));
  if (out->accepted.size() > n) out->accepted.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (i >= out->accepted.size()) out->accepted.emplace_back();
    PaxosAccepted& a = out->accepted[i];
    TPC_RETURN_IF_ERROR(GetName(&dec, &a.instance));
    a.ballot = out->ballot;  // entries share the bundle ballot
    uint8_t prepared = 0;
    TPC_RETURN_IF_ERROR(dec.GetU8(&prepared));
    if (prepared > 1) return Status::Corruption("bad paxos bundle value");
    a.prepared = prepared != 0;
  }
  if (!dec.empty()) return Status::Corruption("trailing paxos bundle bytes");
  return Status::OK();
}

void Pdu::EncodeTo(std::string* out, std::string_view data_bytes) const {
  uint16_t flags = 0;
  if (long_locks) flags |= kFlagLongLocks;
  if (reliable) flags |= kFlagReliable;
  if (ok_to_leave_out) flags |= kFlagOkToLeaveOut;
  if (unsolicited) flags |= kFlagUnsolicited;
  if (last_agent) flags |= kFlagLastAgent;
  if (vote_long_locks) flags |= kFlagVoteLongLocks;
  if (heur_commit) flags |= kFlagHeurCommit;
  if (heur_abort) flags |= kFlagHeurAbort;
  if (damage) flags |= kFlagDamage;
  if (outcome_pending) flags |= kFlagOutcomePending;
  if (from_last_agent) flags |= kFlagFromLastAgent;

  const size_t base = out->size();
  const size_t need = 1 + VarintLength(txn) + 2 + 1 + 1 +
                      VarintLength(data_bytes.size()) + data_bytes.size();
  out->resize(base + need);
  char* p = out->data() + base;
  *p++ = static_cast<char>(static_cast<uint8_t>(type));
  p += PutVarintTo(p, txn);
  *p++ = static_cast<char>(static_cast<uint8_t>(flags & 0xff));
  *p++ = static_cast<char>(static_cast<uint8_t>(flags >> 8));
  *p++ = static_cast<char>(static_cast<uint8_t>(vote));
  *p++ = static_cast<char>(static_cast<uint8_t>(answer));
  p += PutVarintTo(p, data_bytes.size());
  if (!data_bytes.empty())
    std::memcpy(p, data_bytes.data(), data_bytes.size());
}

bool PduCursor::Next() {
  if (!status_.ok() || rest_.empty()) return false;
  data_ = std::string_view();
  status_ = DecodeFrame(&rest_, &pdu_, &data_);
  if (!status_.ok()) return false;
  ++count_;
  return true;
}

std::string EncodePdus(const std::vector<Pdu>& pdus) {
  std::string out;
  for (const auto& pdu : pdus) pdu.EncodeTo(&out);
  return out;
}

Result<std::vector<Pdu>> DecodePdus(std::string_view payload) {
  if (payload.empty()) return Status::Corruption("empty pdu payload");
  std::vector<Pdu> pdus;
  PduCursor cursor(payload);
  while (cursor.Next()) {
    // Frames are >= 7 bytes so the payload length bounds the count; the cap
    // only guards absurd adversarial inputs.
    if (pdus.size() >= 1024) return Status::Corruption("pdu count implausible");
    pdus.push_back(cursor.pdu());
    pdus.back().data.assign(cursor.data());
  }
  TPC_RETURN_IF_ERROR(cursor.status());
  return pdus;
}

std::string DescribePdus(const std::vector<Pdu>& pdus) {
  std::string out;
  for (size_t i = 0; i < pdus.size(); ++i) AppendPduTag(&out, pdus[i], i == 0);
  return out;
}

void DescribePayload(std::string_view payload, net::TraceTag* tag) {
  PduCursor cursor(payload);
  for (bool first = true; cursor.Next(); first = false)
    AppendPduTag(tag, cursor.pdu(), first);
}

}  // namespace tpc::tm
