#include <gtest/gtest.h>

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
