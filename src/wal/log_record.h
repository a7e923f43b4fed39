// Log record model and on-disk encoding.
//
// The paper's accounting counts *log writes*, split into forced and
// non-forced. Records here carry a type, the transaction id, an owner tag
// (which TM or LRM wrote it — several components can share one log, see the
// shared-log optimization), and an opaque body encoded by the owner.
//
// Disk format per record:
//   [u32 masked crc][u32 len][u8 type][varint txn][string owner][string body]
// CRC covers everything after the crc field. A recovery scan stops at the
// first record whose CRC does not verify (torn tail after a crash).
//
// There is one parser: LogScanner walks an image and yields LogRecordViews
// whose owner and body point into the image, so a scan copies nothing.
// DecodeRecord and ScanLog wrap it for callers that want owned records.

#ifndef TPC_WAL_LOG_RECORD_H_
#define TPC_WAL_LOG_RECORD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace tpc::wal {

/// Log sequence number: byte offset of the record start in the log.
using Lsn = uint64_t;
constexpr Lsn kInvalidLsn = ~0ULL;

/// Record types written by transaction managers and resource managers.
enum class RecordType : uint8_t {
  // Transaction-manager records.
  kTmJoin = 1,        ///< PN: subordinate notes its coordinator's identity
  kTmCommitPending,   ///< PN: coordinator remembers subordinates pre-Prepare
  kTmPrepared,        ///< participant is prepared (in doubt)
  kTmCommitted,       ///< commit decision / commit performed
  kTmAborted,         ///< abort decision / abort performed
  kTmEnd,             ///< transaction forgotten (all acks collected)
  kTmHeuristic,       ///< heuristic decision taken while in doubt
  kTmAccept,          ///< paxos acceptor state snapshot (promise + accepts)

  // Resource-manager records.
  kRmUpdate = 32,     ///< undo/redo for one store mutation
  kRmPrepared,        ///< LRM prepared (updates stable)
  kRmCommitted,       ///< LRM committed
  kRmAborted,         ///< LRM aborted (undo applied)

  // Infrastructure.
  kCheckpoint = 64,   ///< recovery checkpoint (not in the paper's counts)
};

std::string_view RecordTypeToString(RecordType type);

/// True for the TM record types (used to split per-role accounting).
bool IsTmRecord(RecordType type);

/// A decoded log record.
struct LogRecord {
  RecordType type = RecordType::kTmEnd;
  uint64_t txn = 0;
  std::string owner;  ///< writer tag, e.g. "coord.tm" or "sub1.rm0"
  std::string body;   ///< owner-defined payload

  /// Serializes to the on-disk format.
  std::string Encode() const;

  /// Appends the on-disk encoding to `out` with no temporary: the header is
  /// reserved, the body encoded in place, and the CRC computed over the
  /// in-place bytes before being patched into the header. This is the log
  /// manager's hot path — one record append touches only `out`.
  void EncodeTo(std::string& out) const;
};

/// A record decoded in place: `owner` and `body` view the scanned image and
/// are valid only while those bytes are (see StorageBackend::durable()).
struct LogRecordView {
  RecordType type = RecordType::kTmEnd;
  uint64_t txn = 0;
  std::string_view owner;
  std::string_view body;

  /// An owning copy.
  LogRecord ToRecord() const;
};

/// One forward pass over a log image. Each Next() verifies one record's CRC
/// and decodes its fields in place; the scan ends at the end of the image
/// or at the first record that is torn or fails its CRC, which is the
/// expected crash artifact. Allocates nothing (but for the error message of
/// a record that passes its CRC and still fails to decode: a writer bug).
class LogScanner {
 public:
  explicit LogScanner(std::string_view image) : image_(image) {}

  /// The next intact record, or false once the scan has ended.
  bool Next(LogRecordView* rec);

  /// Bytes of the image consumed by the records returned so far.
  size_t offset() const { return offset_; }
  /// Why the scan ended early, or nullptr while it has not (a clean end of
  /// the image is not an error).
  const char* error() const { return error_; }

 private:
  std::string_view image_;
  size_t offset_ = 0;
  const char* error_ = nullptr;
};

/// Decodes one record starting at data[*offset]; advances *offset past it.
/// Corruption (bad CRC, truncation) is reported, leaving *offset untouched.
Result<LogRecord> DecodeRecord(std::string_view data, size_t* offset);

/// Scans a log image, returning views of all intact records (see
/// LogScanner); the only allocation is the vector's growth.
std::vector<LogRecordView> ScanLogViews(std::string_view data);

/// Scans a log image, returning owned copies of all intact records.
std::vector<LogRecord> ScanLog(std::string_view data);

}  // namespace tpc::wal

#endif  // TPC_WAL_LOG_RECORD_H_
