// Utility layer: CRC32C vectors, binary encoding, formatting, histogram,
// deterministic RNG.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "util/binary_io.h"
#include "util/crc32c.h"
#include "util/format.h"
#include "util/histogram.h"
#include "util/random.h"

namespace tpc {
namespace {

// --- CRC32C -------------------------------------------------------------------

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 test vectors.
  char zeros[32] = {};
  EXPECT_EQ(crc32c::Value(zeros, sizeof(zeros)), 0x8a9136aau);
  unsigned char ones[32];
  for (auto& b : ones) b = 0xff;
  EXPECT_EQ(crc32c::Value(ones, sizeof(ones)), 0x62a8ab43u);
  unsigned char ascending[32];
  for (int i = 0; i < 32; ++i) ascending[i] = static_cast<unsigned char>(i);
  EXPECT_EQ(crc32c::Value(ascending, sizeof(ascending)), 0x46dd794eu);
}

TEST(Crc32cTest, ExtendMatchesWholeBuffer) {
  std::string data = "hello world";
  uint32_t whole = crc32c::Value(data);
  uint32_t split = crc32c::Extend(crc32c::Value(data.substr(0, 5)),
                                  data.data() + 5, data.size() - 5);
  EXPECT_EQ(whole, split);
}

TEST(Crc32cTest, CheckValue) {
  // The standard CRC-32C check value, on whichever path Extend chose.
  EXPECT_EQ(crc32c::Value("123456789"), 0xe3069283u);
  EXPECT_EQ(crc32c::ExtendPortable(0, "123456789", 9), 0xe3069283u);
}

TEST(Crc32cTest, ChainedExtendMatchesAtEverySplit) {
  const std::string data = "The quick brown fox jumps over the lazy dog.";
  const uint32_t whole = crc32c::Value(data);
  for (size_t k = 0; k <= data.size(); ++k) {
    const uint32_t head = crc32c::Extend(0, data.data(), k);
    EXPECT_EQ(crc32c::Extend(head, data.data() + k, data.size() - k), whole)
        << "split at " << k;
  }
}

TEST(Crc32cTest, HardwareAndPortablePathsAgree) {
  // Every length 0..1024 at 8 alignments: covers the 8-byte loops, their
  // byte tails and unaligned loads on both paths.
  std::vector<unsigned char> buf(1024 + 8);
  for (size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<unsigned char>(i * 131 + (i >> 3));
  const bool hw = crc32c::HardwareAvailable();
  for (size_t align = 0; align < 8; ++align) {
    for (size_t n = 0; n <= 1024; ++n) {
      const unsigned char* p = buf.data() + align;
      const uint32_t portable = crc32c::ExtendPortable(0, p, n);
      ASSERT_EQ(crc32c::Value(p, n), portable) << "n=" << n << " align=" << align;
      if (hw) {
        ASSERT_EQ(crc32c::ExtendHardware(0, p, n), portable)
            << "n=" << n << " align=" << align;
        ASSERT_EQ(crc32c::ExtendHardware(0x12345678u, p, n),
                  crc32c::ExtendPortable(0x12345678u, p, n))
            << "n=" << n << " align=" << align;
      }
    }
  }
  if (!hw) GTEST_SKIP() << "no SSE4.2 on this CPU: portable path only";
}

TEST(Crc32cTest, MaskRoundTripsAndDiffers) {
  uint32_t crc = crc32c::Value("abc");
  EXPECT_NE(crc32c::Mask(crc), crc);
  EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc)), crc);
}

// --- Binary IO ------------------------------------------------------------------

TEST(BinaryIoTest, FixedWidthRoundTrip) {
  Encoder enc;
  enc.PutU8(0xab);
  enc.PutU16(0xbeef);
  enc.PutU32(0xdeadbeefu);
  enc.PutU64(0x0123456789abcdefULL);
  enc.PutBool(true);
  Decoder dec(enc.buffer());
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  bool b;
  ASSERT_TRUE(dec.GetU8(&u8).ok());
  ASSERT_TRUE(dec.GetU16(&u16).ok());
  ASSERT_TRUE(dec.GetU32(&u32).ok());
  ASSERT_TRUE(dec.GetU64(&u64).ok());
  ASSERT_TRUE(dec.GetBool(&b).ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u16, 0xbeef);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_TRUE(b);
  EXPECT_TRUE(dec.empty());
}

class VarintTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintTest, RoundTrips) {
  Encoder enc;
  enc.PutVarint(GetParam());
  Decoder dec(enc.buffer());
  uint64_t out = 0;
  ASSERT_TRUE(dec.GetVarint(&out).ok());
  EXPECT_EQ(out, GetParam());
  EXPECT_TRUE(dec.empty());
}

INSTANTIATE_TEST_SUITE_P(Boundaries, VarintTest,
                         ::testing::Values(0ULL, 1ULL, 127ULL, 128ULL,
                                           16383ULL, 16384ULL, 1ULL << 32,
                                           UINT64_MAX));

TEST(BinaryIoTest, StringRoundTripIncludingEmbeddedNul) {
  Encoder enc;
  enc.PutString(std::string("a\0b", 3));
  enc.PutString("");
  Decoder dec(enc.buffer());
  std::string a, b;
  ASSERT_TRUE(dec.GetString(&a).ok());
  ASSERT_TRUE(dec.GetString(&b).ok());
  EXPECT_EQ(a, std::string("a\0b", 3));
  EXPECT_TRUE(b.empty());
}

TEST(BinaryIoTest, UnderflowIsCorruption) {
  Decoder dec("x");
  uint32_t v;
  EXPECT_TRUE(dec.GetU32(&v).IsCorruption());
}

TEST(BinaryIoTest, BadBoolIsCorruption) {
  Encoder enc;
  enc.PutU8(2);
  Decoder dec(enc.buffer());
  bool b;
  EXPECT_TRUE(dec.GetBool(&b).IsCorruption());
}

TEST(BinaryIoTest, StringLengthBeyondBufferIsCorruption) {
  Encoder enc;
  enc.PutVarint(100);  // claims 100 bytes, provides none
  Decoder dec(enc.buffer());
  std::string s;
  EXPECT_TRUE(dec.GetString(&s).IsCorruption());
}

// --- Formatting -------------------------------------------------------------------

TEST(FormatTest, StringPrintfBasics) {
  EXPECT_EQ(StringPrintf("x=%d y=%s", 7, "z"), "x=7 y=z");
}

TEST(FormatTest, StringPrintfLongOutput) {
  std::string big(1000, 'a');
  EXPECT_EQ(StringPrintf("%s", big.c_str()).size(), 1000u);
}

TEST(FormatTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"solo"}, ", "), "solo");
}

TEST(FormatTest, RenderTableAlignsColumns) {
  std::string table = RenderTable({{"name", "count"}, {"aa", "1"},
                                   {"b", "100"}});
  EXPECT_NE(table.find("| name | count |"), std::string::npos);
  EXPECT_NE(table.find("| aa   | 1     |"), std::string::npos);
  EXPECT_NE(table.find("| b    | 100   |"), std::string::npos);
}

// --- Histogram ---------------------------------------------------------------------

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) h.Add(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(h.Min(), 1.0);
  EXPECT_DOUBLE_EQ(h.Max(), 5.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 3.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 5.0);
}

TEST(HistogramTest, PercentileInterpolates) {
  Histogram h;
  h.Add(0);
  h.Add(10);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(h.Percentile(25), 2.5);
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 0.0);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  a.Add(1);
  b.Add(3);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.Mean(), 2.0);
}

TEST(HistogramTest, AddAfterPercentileQueryStillSorts) {
  Histogram h;
  h.Add(5);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 5.0);
  h.Add(1);
  EXPECT_DOUBLE_EQ(h.Min(), 1.0);
}

// --- Random -------------------------------------------------------------------------

TEST(RandomTest, DeterministicForSameSeed) {
  Random a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.Next() == b.Next()) ++same;
  EXPECT_LT(same, 3);
}

TEST(RandomTest, UniformInRange) {
  Random r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.Uniform(10), 10u);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = r.UniformRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(RandomTest, BernoulliEdges) {
  Random r(7);
  EXPECT_FALSE(r.Bernoulli(0.0));
  EXPECT_TRUE(r.Bernoulli(1.0));
  int heads = 0;
  for (int i = 0; i < 10000; ++i)
    if (r.Bernoulli(0.3)) ++heads;
  EXPECT_NEAR(heads, 3000, 300);
}

TEST(RandomTest, ExponentialHasRequestedMean) {
  Random r(7);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.Exponential(10.0);
  EXPECT_NEAR(sum / n, 10.0, 0.5);
}

TEST(RandomTest, SkewedStaysInRange) {
  Random r(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = r.Skewed(100, 0.9);
    EXPECT_LT(v, 100u);
    seen.insert(v);
  }
  // Skew means low indices dominate but multiple values appear.
  EXPECT_GT(seen.size(), 5u);
}

TEST(RandomTest, SkewedDeterministicPerSeed) {
  Random a(42), b(42), c(43);
  int differs = 0;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t va = a.Skewed(1000, 0.7);
    EXPECT_EQ(va, b.Skewed(1000, 0.7));
    if (va != c.Skewed(1000, 0.7)) ++differs;
  }
  EXPECT_GT(differs, 900);  // a different seed gives a different stream
}

// The cluster workload leans on Skewed for both leaf and key selection:
// theta=0 must be uniform (no accidental hotspots) and rising theta must
// concentrate mass on low indices (real contention when asked for).
TEST(RandomTest, SkewedThetaZeroIsUniform) {
  Random r(11);
  const int n = 10, draws = 50000;
  std::vector<int> count(n, 0);
  for (int i = 0; i < draws; ++i) ++count[r.Skewed(n, 0.0)];
  for (int b = 0; b < n; ++b) {
    EXPECT_NEAR(count[b], draws / n, draws / n / 5) << "bucket " << b;
  }
}

TEST(RandomTest, SkewedConcentratesWithTheta) {
  const int n = 100, draws = 50000;
  auto head_mass = [&](double theta) {
    Random r(11);
    int head = 0;  // draws landing in the first decile
    for (int i = 0; i < draws; ++i)
      if (r.Skewed(n, theta) < static_cast<uint64_t>(n / 10)) ++head;
    return static_cast<double>(head) / draws;
  };
  const double uniform = head_mass(0.0);
  const double mild = head_mass(0.5);
  const double hot = head_mass(0.9);
  EXPECT_NEAR(uniform, 0.10, 0.02);
  EXPECT_GT(mild, uniform + 0.05);
  EXPECT_GT(hot, mild + 0.05);
  // At theta 0.9 the head decile should dominate the distribution.
  EXPECT_GT(hot, 0.4);
}

}  // namespace
}  // namespace tpc
