#include "wal/log_record.h"

#include <cstring>

#include "util/binary_io.h"
#include "util/crc32c.h"

namespace tpc::wal {

std::string_view RecordTypeToString(RecordType type) {
  switch (type) {
    case RecordType::kTmJoin: return "tm.join";
    case RecordType::kTmCommitPending: return "tm.commit-pending";
    case RecordType::kTmPrepared: return "tm.prepared";
    case RecordType::kTmCommitted: return "tm.committed";
    case RecordType::kTmAborted: return "tm.aborted";
    case RecordType::kTmEnd: return "tm.end";
    case RecordType::kTmHeuristic: return "tm.heuristic";
    case RecordType::kTmAccept: return "tm.accept";
    case RecordType::kRmUpdate: return "rm.update";
    case RecordType::kRmPrepared: return "rm.prepared";
    case RecordType::kRmCommitted: return "rm.committed";
    case RecordType::kRmAborted: return "rm.aborted";
    case RecordType::kCheckpoint: return "checkpoint";
  }
  return "unknown";
}

bool IsTmRecord(RecordType type) {
  return static_cast<uint8_t>(type) < static_cast<uint8_t>(RecordType::kRmUpdate);
}

void LogRecord::EncodeTo(std::string& out) const {
  // Size the whole record up front so the buffer grows (and checks
  // capacity) exactly once, then write every field through raw pointers.
  const size_t header = out.size();
  const uint32_t len =
      static_cast<uint32_t>(1 + VarintLength(txn) + VarintLength(owner.size()) +
                            owner.size() + VarintLength(body.size()) +
                            body.size());
  out.resize(header + 8 + len);
  char* base = out.data() + header;
  char* p = base + 8;  // crc + len, patched once the body is in place
  *p++ = static_cast<char>(type);
  p += PutVarintTo(p, txn);
  p += PutVarintTo(p, owner.size());
  std::memcpy(p, owner.data(), owner.size());
  p += owner.size();
  p += PutVarintTo(p, body.size());
  std::memcpy(p, body.data(), body.size());
  PutU32To(base, crc32c::Mask(crc32c::Value(base + 8, len)));
  PutU32To(base + 4, len);
}

std::string LogRecord::Encode() const {
  std::string out;
  EncodeTo(out);
  return out;
}

namespace {

// The one record parser. Returns nullptr and advances *offset past the
// record, or returns why the record at *offset is not intact.
const char* ParseRecord(std::string_view data, size_t* offset,
                        LogRecordView* rec) {
  const size_t pos = *offset;
  if (pos > data.size() || data.size() - pos < 8) return "truncated header";
  Decoder hdr(data.substr(pos, 8));
  uint32_t masked_crc = 0, len = 0;
  if (!hdr.GetU32(&masked_crc).ok() || !hdr.GetU32(&len).ok())
    return "truncated header";
  if (data.size() - pos - 8 < len) return "truncated body";
  const std::string_view inner = data.substr(pos + 8, len);
  if (crc32c::Unmask(masked_crc) != crc32c::Value(inner))
    return "crc mismatch";
  // Past the CRC only a writer bug can fail to decode.
  Decoder dec(inner);
  uint8_t type = 0;
  if (!dec.GetU8(&type).ok() || !dec.GetVarint(&rec->txn).ok() ||
      !dec.GetStringView(&rec->owner).ok() ||
      !dec.GetStringView(&rec->body).ok())
    return "malformed record";
  rec->type = static_cast<RecordType>(type);
  *offset = pos + 8 + len;
  return nullptr;
}

}  // namespace

LogRecord LogRecordView::ToRecord() const {
  LogRecord rec;
  rec.type = type;
  rec.txn = txn;
  rec.owner.assign(owner);
  rec.body.assign(body);
  return rec;
}

bool LogScanner::Next(LogRecordView* rec) {
  if (error_ != nullptr || offset_ == image_.size()) return false;
  error_ = ParseRecord(image_, &offset_, rec);
  return error_ == nullptr;
}

Result<LogRecord> DecodeRecord(std::string_view data, size_t* offset) {
  LogRecordView rec;
  if (const char* error = ParseRecord(data, offset, &rec))
    return Status::Corruption(error);
  return rec.ToRecord();
}

std::vector<LogRecordView> ScanLogViews(std::string_view data) {
  std::vector<LogRecordView> out;
  LogScanner scan(data);
  for (LogRecordView rec; scan.Next(&rec);) out.push_back(rec);
  return out;
}

std::vector<LogRecord> ScanLog(std::string_view data) {
  std::vector<LogRecord> out;
  LogScanner scan(data);
  for (LogRecordView rec; scan.Next(&rec);) out.push_back(rec.ToRecord());
  return out;
}

}  // namespace tpc::wal
