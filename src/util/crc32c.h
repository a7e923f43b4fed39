// CRC32C (Castagnoli). Used to checksum log records so that a torn/corrupt
// tail is detected during recovery scans.
//
// Two implementations produce bit-identical values: the SSE4.2 `crc32`
// instruction on x86-64 CPUs that have it, and a portable slice-by-8 table
// loop everywhere else. Extend() picks one on first use with
// __builtin_cpu_supports; there is no build flag and no setting.

#ifndef TPC_UTIL_CRC32C_H_
#define TPC_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace tpc::crc32c {

/// Extends `init_crc` with `data`; pass 0 as the initial value.
uint32_t Extend(uint32_t init_crc, const void* data, size_t n);

/// The portable slice-by-8 path, whatever the CPU.
uint32_t ExtendPortable(uint32_t init_crc, const void* data, size_t n);

/// True when this CPU runs the SSE4.2 path (Extend() then uses it).
bool HardwareAvailable();

/// The SSE4.2 path. Only call it when HardwareAvailable().
uint32_t ExtendHardware(uint32_t init_crc, const void* data, size_t n);

/// CRC32C of a buffer.
inline uint32_t Value(const void* data, size_t n) { return Extend(0, data, n); }

inline uint32_t Value(std::string_view s) { return Value(s.data(), s.size()); }

/// Masks a CRC so that CRCs of data containing embedded CRCs stay robust
/// (same scheme as LevelDB).
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}

inline uint32_t Unmask(uint32_t masked) {
  uint32_t rot = masked - 0xa282ead8u;
  return (rot >> 17) | (rot << 15);
}

}  // namespace tpc::crc32c

#endif  // TPC_UTIL_CRC32C_H_
