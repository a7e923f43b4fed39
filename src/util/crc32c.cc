#include "util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <nmmintrin.h>
#define TPC_CRC32C_SSE42 1
#endif

namespace tpc::crc32c {
namespace {

constexpr uint32_t kPoly = 0x82f63b78u;  // reflected CRC32C polynomial

// Slice-by-8 tables: kTables[0] is the classic byte-at-a-time table;
// kTables[j][b] advances byte b through j additional zero bytes, letting
// Extend fold eight input bytes per iteration instead of one. The CRC
// values produced are identical to the byte-at-a-time algorithm.
constexpr std::array<std::array<uint32_t, 256>, 8> MakeTables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int k = 0; k < 8; ++k)
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    tables[0][i] = crc;
  }
  for (int j = 1; j < 8; ++j)
    for (uint32_t i = 0; i < 256; ++i)
      tables[j][i] =
          (tables[j - 1][i] >> 8) ^ tables[0][tables[j - 1][i] & 0xff];
  return tables;
}

constexpr auto kTables = MakeTables();

#ifdef TPC_CRC32C_SSE42
// The crc32 instruction computes exactly this polynomial (reflected, no
// pre/post inversion), so the same inversion wrapper gives the same values.
// The target attribute compiles just this function for SSE4.2; callers
// reach it only after the CPU check.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(
    uint32_t init_crc, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t crc = init_crc ^ 0xffffffffu;
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
    p += 8;
    n -= 8;
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (size_t i = 0; i < n; ++i) crc32 = _mm_crc32_u8(crc32, p[i]);
  return crc32 ^ 0xffffffffu;
}
#endif

using ExtendFn = uint32_t (*)(uint32_t, const void*, size_t);

ExtendFn SelectExtend() {
#ifdef TPC_CRC32C_SSE42
  if (HardwareAvailable()) return ExtendSse42;
#endif
  return ExtendPortable;
}

}  // namespace

uint32_t ExtendPortable(uint32_t init_crc, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t crc = init_crc ^ 0xffffffffu;
  // Eight bytes per iteration. The two 32-bit loads assume little-endian
  // byte order (the platforms this simulator targets); the byte-at-a-time
  // tail below is the reference algorithm and handles any length.
  while (n >= 8) {
    uint32_t lo, hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    crc ^= lo;
    crc = kTables[7][crc & 0xff] ^ kTables[6][(crc >> 8) & 0xff] ^
          kTables[5][(crc >> 16) & 0xff] ^ kTables[4][crc >> 24] ^
          kTables[3][hi & 0xff] ^ kTables[2][(hi >> 8) & 0xff] ^
          kTables[1][(hi >> 16) & 0xff] ^ kTables[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  for (size_t i = 0; i < n; ++i)
    crc = kTables[0][(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  return crc ^ 0xffffffffu;
}

bool HardwareAvailable() {
#ifdef TPC_CRC32C_SSE42
  // Safe before main(): initialises the CPU model if no constructor has yet.
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
#else
  return false;
#endif
}

uint32_t ExtendHardware(uint32_t init_crc, const void* data, size_t n) {
#ifdef TPC_CRC32C_SSE42
  return ExtendSse42(init_crc, data, n);
#else
  return ExtendPortable(init_crc, data, n);
#endif
}

uint32_t Extend(uint32_t init_crc, const void* data, size_t n) {
  // Chosen once; a function-local static is initialised thread-safely even
  // when the first CRC is taken during another file's static initialisation.
  static const ExtendFn extend = SelectExtend();
  return extend(init_crc, data, n);
}

}  // namespace tpc::crc32c
