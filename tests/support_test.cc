#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "src/support/bytes.h"
#include "src/support/hash.h"
#include "src/support/md5.h"
#include "src/support/result.h"
#include "src/support/rng.h"
#include "src/support/stats.h"
#include "src/support/strings.h"

namespace dvm {
namespace {

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Error{ErrorCode::kNotFound, "missing"};
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kNotFound);
  EXPECT_EQ(r.error().ToString(), "NotFound: missing");
}

TEST(ResultTest, StatusDefaultsToOk) {
  Status s;
  EXPECT_TRUE(s.ok());
}

TEST(ResultTest, StatusCarriesError) {
  Status s = Error{ErrorCode::kCapacity, "full"};
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, ErrorCode::kCapacity);
}

Result<int> Doubler(Result<int> in) {
  DVM_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Doubler(21).value(), 42);
  EXPECT_FALSE(Doubler(Error{ErrorCode::kInternal, "x"}).ok());
}

// Success is one null pointer: the Error lives out of line.
static_assert(sizeof(Status) == sizeof(void*));
static_assert(sizeof(Result<int64_t>) == sizeof(int64_t) + sizeof(void*));

TEST(ResultTest, CopiesOfFailuresAreDeep) {
  Status s = Error{ErrorCode::kParseError, "bad"};
  Status copy = s;
  ASSERT_FALSE(copy.ok());
  EXPECT_NE(&copy.error(), &s.error());
  EXPECT_EQ(copy.error().code, ErrorCode::kParseError);
  EXPECT_EQ(copy.error().message, "bad");
  s = Status::Ok();  // the copy outlives its source's error
  EXPECT_EQ(copy.error().message, "bad");

  Result<std::string> r = Error{ErrorCode::kNotFound, "gone"};
  Result<std::string> rcopy = r;
  ASSERT_FALSE(rcopy.ok());
  EXPECT_NE(&rcopy.error(), &r.error());
  EXPECT_EQ(rcopy.error().ToString(), "NotFound: gone");
  r = std::string("value");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(rcopy.error().message, "gone");

  Result<std::string> value = std::string("v");
  value = rcopy;  // copy-assigning a failure over a value
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.error().message, "gone");
}

TEST(ResultTest, MovesKeepTheStateTheyHad) {
  Status ok;
  Status moved_ok = std::move(ok);
  EXPECT_TRUE(moved_ok.ok());
  EXPECT_TRUE(ok.ok());  // NOLINT(bugprone-use-after-move): a success stays one

  Status failed = Error{ErrorCode::kCapacity, "full"};
  Status moved_failed = std::move(failed);
  ASSERT_FALSE(moved_failed.ok());
  EXPECT_EQ(moved_failed.error().message, "full");
  EXPECT_FALSE(failed.ok());  // NOLINT(bugprone-use-after-move)

  Result<std::string> value = std::string("payload");
  Result<std::string> moved_value = std::move(value);
  ASSERT_TRUE(moved_value.ok());
  EXPECT_EQ(*moved_value, "payload");
  EXPECT_TRUE(value.ok());  // NOLINT(bugprone-use-after-move): no error appears

  Result<std::string> error = Error{ErrorCode::kInternal, "x"};
  Result<std::string> moved_error = std::move(error);
  ASSERT_FALSE(moved_error.ok());
  EXPECT_EQ(moved_error.error().message, "x");
  EXPECT_FALSE(error.ok());  // NOLINT(bugprone-use-after-move)

  Result<std::string> target = Error{ErrorCode::kInternal, "old"};
  target = Result<std::string>(std::string("new"));
  ASSERT_TRUE(target.ok());
  EXPECT_EQ(*target, "new");
}

TEST(BytesTest, RoundTripsScalars) {
  ByteWriter w;
  w.U8(0xAB);
  w.U16(0x1234);
  w.U32(0xDEADBEEF);
  w.U64(0x0123456789ABCDEFULL);
  w.I32(-7);
  w.I64(-1234567890123LL);
  w.Str("hello");

  ByteReader r(w.bytes());
  EXPECT_EQ(r.U8().value(), 0xAB);
  EXPECT_EQ(r.U16().value(), 0x1234);
  EXPECT_EQ(r.U32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64().value(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.I32().value(), -7);
  EXPECT_EQ(r.I64().value(), -1234567890123LL);
  EXPECT_EQ(r.Str().value(), "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, BigEndianLayout) {
  ByteWriter w;
  w.U16(0x0102);
  EXPECT_EQ(w.bytes()[0], 0x01);
  EXPECT_EQ(w.bytes()[1], 0x02);
}

TEST(BytesTest, TruncationIsError) {
  Bytes data = {0x01};
  ByteReader r(data);
  EXPECT_FALSE(r.U16().ok());
}

TEST(BytesTest, TruncatedStringBodyIsError) {
  ByteWriter w;
  w.U16(10);  // claims 10 bytes, provides 2
  w.U8('a');
  w.U8('b');
  ByteReader r(w.bytes());
  EXPECT_FALSE(r.Str().ok());
}

TEST(BytesTest, PatchBackfillsLength) {
  ByteWriter w;
  size_t at = w.size();
  w.U32(0);
  w.U8(1);
  w.U8(2);
  w.PatchU32(at, 2);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.U32().value(), 2u);
}

TEST(BytesTest, SkipBoundsChecked) {
  Bytes data = {1, 2, 3};
  ByteReader r(data);
  EXPECT_TRUE(r.Skip(3).ok());
  EXPECT_FALSE(r.Skip(1).ok());
}

TEST(Md5Test, Rfc1321Vectors) {
  auto hex = [](const std::string& s) {
    Md5 md5;
    md5.Update(s);
    return Md5::ToHex(md5.Finish());
  };
  EXPECT_EQ(hex(""), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(hex("a"), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(hex("abc"), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(hex("message digest"), "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(hex("abcdefghijklmnopqrstuvwxyz"), "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(hex("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"),
            "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(hex("12345678901234567890123456789012345678901234567890123456789012345678901234567890"),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5Test, IncrementalMatchesOneShot) {
  Bytes data;
  for (int i = 0; i < 1000; i++) {
    data.push_back(static_cast<uint8_t>(i * 31));
  }
  Md5 incremental;
  incremental.Update(data.data(), 100);
  incremental.Update(data.data() + 100, 900);
  EXPECT_EQ(Md5::ToHex(incremental.Finish()), Md5::ToHex(Md5::Hash(data)));
}

// The table-driven MD5 this repository shipped before ProcessBlock was
// unrolled and Update stopped copying whole blocks through its buffer: one
// loop over the 64 steps with a branch per round, every byte through the
// buffer. Kept as the reference the straight-line code must equal.
class ReferenceMd5 {
 public:
  void Update(const uint8_t* data, size_t len) {
    total_len_ += len;
    for (size_t i = 0; i < len; i++) {
      buffer_[buffer_len_++] = data[i];
      if (buffer_len_ == 64) {
        ProcessBlock();
        buffer_len_ = 0;
      }
    }
  }

  std::string FinishHex() {
    const uint64_t bit_len = total_len_ * 8;
    const uint8_t pad = 0x80;
    const uint8_t zero = 0;
    Update(&pad, 1);
    while (buffer_len_ != 56) {
      Update(&zero, 1);
    }
    for (int i = 0; i < 8; i++) {
      buffer_[56 + i] = static_cast<uint8_t>(bit_len >> (8 * i));
    }
    ProcessBlock();
    Md5Digest out;
    const uint32_t words[4] = {a_, b_, c_, d_};
    for (int w = 0; w < 4; w++) {
      for (int i = 0; i < 4; i++) {
        out[static_cast<size_t>(w * 4 + i)] = static_cast<uint8_t>(words[w] >> (8 * i));
      }
    }
    return Md5::ToHex(out);
  }

 private:
  static constexpr uint32_t kShift[64] = {
      7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 5, 9,  14, 20, 5, 9,
      14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
      4, 11, 16, 23, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};
  static constexpr uint32_t kSine[64] = {
      0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613,
      0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193,
      0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d,
      0x02441453, 0xd8a1e681, 0xe7d3fbc8, 0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed,
      0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122,
      0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
      0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665, 0xf4292244,
      0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
      0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb,
      0xeb86d391};

  static uint32_t RotL(uint32_t x, uint32_t c) { return (x << c) | (x >> (32 - c)); }

  void ProcessBlock() {
    uint32_t m[16];
    for (int i = 0; i < 16; i++) {
      m[i] = static_cast<uint32_t>(buffer_[i * 4]) |
             (static_cast<uint32_t>(buffer_[i * 4 + 1]) << 8) |
             (static_cast<uint32_t>(buffer_[i * 4 + 2]) << 16) |
             (static_cast<uint32_t>(buffer_[i * 4 + 3]) << 24);
    }
    uint32_t a = a_, b = b_, c = c_, d = d_;
    for (int i = 0; i < 64; i++) {
      uint32_t f;
      int g;
      if (i < 16) {
        f = (b & c) | (~b & d);
        g = i;
      } else if (i < 32) {
        f = (d & b) | (~d & c);
        g = (5 * i + 1) % 16;
      } else if (i < 48) {
        f = b ^ c ^ d;
        g = (3 * i + 5) % 16;
      } else {
        f = c ^ (b | ~d);
        g = (7 * i) % 16;
      }
      const uint32_t tmp = d;
      d = c;
      c = b;
      b = b + RotL(a + f + kSine[i] + m[g], kShift[i]);
      a = tmp;
    }
    a_ += a;
    b_ += b;
    c_ += c;
    d_ += d;
  }

  uint32_t a_ = 0x67452301, b_ = 0xefcdab89, c_ = 0x98badcfe, d_ = 0x10325476;
  uint64_t total_len_ = 0;
  uint8_t buffer_[64] = {};
  size_t buffer_len_ = 0;
};

std::string ReferenceHex(const Bytes& data) {
  ReferenceMd5 md5;
  md5.Update(data.data(), data.size());
  return md5.FinishHex();
}

// Hashes `data` in pieces of the odd sizes 1, 3, 5, ... (cycling after
// `max_piece`), so pieces straddle block boundaries at every phase.
std::string PiecewiseHex(const Bytes& data, size_t max_piece) {
  Md5 md5;
  size_t piece = 1;
  for (size_t at = 0; at < data.size();) {
    const size_t take = std::min(piece, data.size() - at);
    md5.Update(data.data() + at, take);
    at += take;
    piece = piece + 2 > max_piece ? 1 : piece + 2;
  }
  return Md5::ToHex(md5.Finish());
}

TEST(Md5Test, Rfc1321VectorsPiecewise) {
  const std::pair<std::string, std::string> vectors[] = {
      {"", "d41d8cd98f00b204e9800998ecf8427e"},
      {"abc", "900150983cd24fb0d6963f7d28e17f72"},
      {"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
       "d174ab98d277d9f5a5611c2c9f419d9f"},
      {"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
       "57edf4a22be3c955ac49da2e2107b67a"},
  };
  for (const auto& [text, digest] : vectors) {
    const Bytes data(text.begin(), text.end());
    EXPECT_EQ(Md5::ToHex(Md5::Hash(data)), digest) << text;
    EXPECT_EQ(PiecewiseHex(data, 7), digest) << text;
    EXPECT_EQ(PiecewiseHex(data, 65), digest) << text;
    EXPECT_EQ(ReferenceHex(data), digest) << text;
  }
}

// Every length up to 200 covers each padding case: the length in the same
// block (< 56 bytes left over), in the next one (56..63), and whole blocks.
TEST(Md5Test, EveryLengthTo200MatchesReferenceLoop) {
  Bytes data;
  for (size_t len = 0; len <= 200; len++) {
    const std::string want = ReferenceHex(data);
    EXPECT_EQ(Md5::ToHex(Md5::Hash(data)), want) << "length " << len;
    EXPECT_EQ(PiecewiseHex(data, 9), want) << "length " << len;
    EXPECT_EQ(PiecewiseHex(data, 131), want) << "length " << len;
    data.push_back(static_cast<uint8_t>(len * 131 + 7));
  }
}

TEST(Md5Test, RandomBuffersMatchReferenceLoop) {
  Rng rng(20261020);
  for (int round = 0; round < 300; round++) {
    Bytes data(static_cast<size_t>(rng.Uniform(9000)));
    for (uint8_t& byte : data) {
      byte = static_cast<uint8_t>(rng.Next());
    }
    const std::string want = ReferenceHex(data);
    EXPECT_EQ(Md5::ToHex(Md5::Hash(data)), want) << "round " << round;
    EXPECT_EQ(PiecewiseHex(data, 1 + 2 * rng.Uniform(100)), want) << "round " << round;
  }
}

TEST(HashTest, Fnv1aStable) {
  EXPECT_EQ(Fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(Fnv1a("a"), Fnv1a("b"));
}

TEST(HashTest, Mix64IsTheSplitmix64Finalizer) {
  // The first two outputs of splitmix64 seeded with 0 (the published
  // reference stream): rendezvous ranks, trace sampling, RNG streams and
  // fuzz schedules all depend on these exact bits.
  EXPECT_EQ(Mix64(0x9e3779b97f4a7c15ULL), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(Mix64(2 * 0x9e3779b97f4a7c15ULL), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(Mix64(0), 0u);
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, SeedsDiffer) {
  Rng a(1), b(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(RngTest, UniformInBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; i++) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
  EXPECT_EQ(rng.Uniform(0), 0u);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(4);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; i++) {
    int64_t v = rng.Range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, LognormalRoughlyMatchesMoments) {
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 200000; i++) {
    stats.Add(rng.NextLognormal(2198.0, 3752.0));
  }
  // Heavy-tailed, so allow generous tolerance on the sample mean.
  EXPECT_NEAR(stats.mean(), 2198.0, 220.0);
}

TEST(StatsTest, RunningStatsBasics) {
  RunningStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    s.Add(v);
  }
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), 1.2909944, 1e-6);
}

TEST(StringsTest, SplitAndJoin) {
  auto parts = Split("a.b.c", '.');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(Join(parts, "/"), "a/b/c");
  EXPECT_EQ(Split("", '.').size(), 1u);
}

TEST(StringsTest, PrefixSuffix) {
  EXPECT_TRUE(StartsWith("java/lang/System", "java/"));
  EXPECT_FALSE(StartsWith("ja", "java/"));
  EXPECT_TRUE(EndsWith("Foo.class", ".class"));
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  x \n"), "x");
  EXPECT_EQ(Trim("\t"), "");
}

TEST(StringsTest, GlobMatch) {
  EXPECT_TRUE(GlobMatch("*", "anything"));
  EXPECT_TRUE(GlobMatch("/tmp/*", "/tmp/file.txt"));
  EXPECT_FALSE(GlobMatch("/tmp/*", "/etc/passwd"));
  EXPECT_TRUE(GlobMatch("java/io/*", "java/io/File"));
  EXPECT_TRUE(GlobMatch("*Stream", "java/io/OutputStream"));
  EXPECT_TRUE(GlobMatch("a*b*c", "aXXbYYc"));
  EXPECT_FALSE(GlobMatch("a*b*c", "aXXbYY"));
  EXPECT_TRUE(GlobMatch("exact", "exact"));
  EXPECT_FALSE(GlobMatch("exact", "exact1"));
}

}  // namespace
}  // namespace dvm
