#include <gtest/gtest.h>

#include "src/bytecode/builder.h"
#include "src/bytecode/serializer.h"
#include "src/proxy/cache.h"
#include "src/proxy/proxy.h"
#include "src/proxy/signature.h"
#include "src/runtime/syslib.h"
#include "src/services/verify_service.h"

namespace dvm {
namespace {

ClassFile MustBuild(ClassBuilder& cb) {
  auto built = cb.Build();
  EXPECT_TRUE(built.ok()) << (built.ok() ? "" : built.error().ToString());
  return std::move(built).value();
}

ClassFile SimpleClass(const std::string& name) {
  ClassBuilder cb(name, "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "main", "()V");
  m.GetStatic("remote/Thing", "x", "I").Emit(Op::kPop).Emit(Op::kReturn);
  return MustBuild(cb);
}

// --- signer -----------------------------------------------------------------------

Bytes SignedBytes(const CodeSigner& signer, ClassFile cls) {
  EXPECT_TRUE(signer.AttachSignature(&cls).ok());
  return MustWriteClassFile(cls);
}

TEST(CodeSignerTest, SignAndVerifyRoundTrip) {
  CodeSigner signer("org-key");
  ClassBuilder cb("sig/C", "java/lang/Object");
  Bytes signed_bytes = SignedBytes(signer, MustBuild(cb));
  EXPECT_TRUE(signer.VerifyClassBytes(signed_bytes).ok());
}

TEST(CodeSignerTest, DetectsTampering) {
  CodeSigner signer("org-key");
  ClassBuilder cb("sig/C", "java/lang/Object");
  cb.AddField(AccessFlags::kPublic, "f", "I");
  Bytes signed_bytes = SignedBytes(signer, MustBuild(cb));
  // Flip a byte somewhere in the middle (not in the signature itself).
  signed_bytes[signed_bytes.size() / 3] ^= 0x01;
  auto status = signer.VerifyClassBytes(signed_bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kSecurityError);
}

TEST(CodeSignerTest, RejectsUnsignedAndWrongKey) {
  CodeSigner signer("org-key");
  ClassBuilder cb("sig/C", "java/lang/Object");
  ClassFile cls = MustBuild(cb);
  EXPECT_FALSE(signer.VerifyClassBytes(MustWriteClassFile(cls)).ok());

  CodeSigner other("evil-key");
  Bytes foreign = SignedBytes(other, std::move(cls));
  EXPECT_FALSE(signer.VerifyClassBytes(foreign).ok());
}

// --- cache ------------------------------------------------------------------------

TEST(RewriteCacheTest, HitMissAccounting) {
  RewriteCache cache(1 << 20);
  EXPECT_FALSE(cache.Get("a").has_value());
  cache.Put("a", CachedClass{Bytes{1, 2, 3}, {}});
  std::optional<CachedClass> hit = cache.Get("a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->main_class, (Bytes{1, 2, 3}));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

// One shard gives the classic global LRU order, which this test pins down.
TEST(RewriteCacheTest, EvictsLruUnderPressure) {
  RewriteCache cache(400, /*num_shards=*/1);
  cache.Put("a", CachedClass{Bytes(100, 0), {}});
  cache.Put("b", CachedClass{Bytes(100, 0), {}});
  ASSERT_TRUE(cache.Get("a").has_value());  // refresh a
  cache.Put("c", CachedClass{Bytes(100, 0), {}});  // must evict b (LRU)
  EXPECT_TRUE(cache.Get("a").has_value());
  EXPECT_FALSE(cache.Get("b").has_value());
  EXPECT_TRUE(cache.Get("c").has_value());
}

TEST(RewriteCacheTest, OversizeEntriesAreNotCached) {
  RewriteCache cache(100, /*num_shards=*/1);
  cache.Put("big", CachedClass{Bytes(500, 0), {}});
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(RewriteCacheTest, ShardedKeepsEveryShardWithinItsBudget) {
  RewriteCache cache(8 * 400, /*num_shards=*/8);
  for (int i = 0; i < 200; i++) {
    cache.Put("cls/" + std::to_string(i), CachedClass{Bytes(100, 0), {}});
  }
  EXPECT_LE(cache.size_bytes(), 8u * 400u);
  size_t shard_entries = 0;
  for (const auto& shard : cache.PerShardStats()) {
    EXPECT_LE(shard.bytes, 400u);
    shard_entries += shard.entries;
  }
  EXPECT_EQ(shard_entries, cache.entries());
  EXPECT_GT(cache.lock_acquisitions(), 0u);
}

TEST(RewriteCacheTest, ReplacementUpdatesBytes) {
  RewriteCache cache(1 << 20);
  cache.Put("a", CachedClass{Bytes(100, 0), {}});
  size_t first = cache.size_bytes();
  cache.Put("a", CachedClass{Bytes(300, 0), {}});
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_GT(cache.size_bytes(), first);
}

// --- proxy ------------------------------------------------------------------------

class ProxyTest : public ::testing::Test {
 protected:
  ProxyTest() : library_(BuildSystemLibrary()) {
    for (const auto& cls : library_) {
      library_env_.Add(&cls);
    }
    origin_.AddClassFile(SimpleClass("app/One"));
    origin_.AddClassFile(SimpleClass("app/Two"));
    InstallSystemLibrary(origin_);  // clients boot the library through the proxy too
  }

  std::unique_ptr<DvmProxy> MakeProxyPtr(ProxyConfig config = {}) {
    auto proxy = std::make_unique<DvmProxy>(config, &library_env_, &origin_);
    proxy->AddFilter(std::make_unique<VerificationFilter>());
    return proxy;
  }

  std::vector<ClassFile> library_;
  MapClassEnv library_env_;
  MapClassProvider origin_;
};

TEST_F(ProxyTest, RewritesAndCaches) {
  auto proxy_ptr = MakeProxyPtr();
  DvmProxy& proxy = *proxy_ptr;
  auto first = proxy.HandleRequest("app/One");
  ASSERT_TRUE(first.ok()) << first.error().ToString();
  EXPECT_FALSE(first->cache_hit);
  EXPECT_GT(first->cpu_nanos, 0u);

  auto second = proxy.HandleRequest("app/One");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_LT(second->cpu_nanos, first->cpu_nanos / 3);
  EXPECT_EQ(second->data, first->data);
  EXPECT_EQ(proxy.cache().hits(), 1u);

  // The rewritten class carries the verifier's stamp.
  auto parsed = ReadClassFile(first->data);
  ASSERT_TRUE(parsed.ok());
  EXPECT_NE(parsed->FindAttribute(kAttrServiceStamp), nullptr);
}

TEST_F(ProxyTest, CacheDisabledAlwaysRewrites) {
  ProxyConfig config;
  config.enable_cache = false;
  auto proxy_ptr = MakeProxyPtr(config);
  DvmProxy& proxy = *proxy_ptr;
  auto first = proxy.HandleRequest("app/One");
  auto second = proxy.HandleRequest("app/One");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->cache_hit);
  EXPECT_GT(second->cpu_nanos, first->cpu_nanos / 2);
}

TEST_F(ProxyTest, SigningProducesVerifiableOutput) {
  ProxyConfig config;
  config.sign_output = true;
  auto proxy_ptr = MakeProxyPtr(config);
  DvmProxy& proxy = *proxy_ptr;
  auto response = proxy.HandleRequest("app/One");
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(proxy.signer().VerifyClassBytes(response->data).ok());
  // Tampering invalidates the organization signature.
  Bytes tampered = response->data;
  tampered[tampered.size() / 2] ^= 0xFF;
  EXPECT_FALSE(proxy.signer().VerifyClassBytes(tampered).ok());
}

TEST_F(ProxyTest, AuditTrailRecordsDecisions) {
  auto proxy_ptr = MakeProxyPtr();
  DvmProxy& proxy = *proxy_ptr;
  ASSERT_TRUE(proxy.HandleRequest("app/One").ok());
  ASSERT_TRUE(proxy.HandleRequest("app/One").ok());
  ASSERT_TRUE(proxy.HandleRequest("app/Two").ok());
  ASSERT_EQ(proxy.audit_trail().size(), 3u);
  EXPECT_EQ(proxy.audit_trail()[0], "REWRITE app/One");
  EXPECT_EQ(proxy.audit_trail()[1], "HIT app/One");
  EXPECT_EQ(proxy.audit_trail()[2], "REWRITE app/Two");
}

TEST_F(ProxyTest, MissingClassPropagatesError) {
  auto proxy_ptr = MakeProxyPtr();
  DvmProxy& proxy = *proxy_ptr;
  auto response = proxy.HandleRequest("no/Such");
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.error().code, ErrorCode::kNotFound);
}

TEST_F(ProxyTest, MemoryModelThrashesPastCapacity) {
  ProxyConfig config;
  config.memory_bytes = 10 * 1024 * 1024;
  config.workspace_bytes_per_request = 1024 * 1024;
  auto proxy_ptr = MakeProxyPtr(config);
  DvmProxy& proxy = *proxy_ptr;
  EXPECT_DOUBLE_EQ(proxy.ThrashFactor(5), 1.0);
  EXPECT_GT(proxy.ThrashFactor(20), 1.5);
  EXPECT_GT(proxy.ThrashFactor(40), proxy.ThrashFactor(20));
}

TEST_F(ProxyTest, SystemClassesPassThrough) {
  auto proxy_ptr = MakeProxyPtr();
  DvmProxy& proxy = *proxy_ptr;
  auto response = proxy.HandleRequest("java/lang/String");
  ASSERT_TRUE(response.ok()) << response.error().ToString();
  auto parsed = ReadClassFile(response->data);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->name(), "java/lang/String");
  EXPECT_EQ(parsed->FindAttribute(kAttrServiceStamp), nullptr);
}

// An origin that answers a request with a class declaring another name must
// not plant that class in the verifier's environment. Here app/Shadow's bytes
// declare java/lang/Thread with an extra evil()V; if the proxy accepted them,
// app/User's call to Thread.evil()V would verify against the forgery and its
// artifact would depend on whether app/Shadow was fetched first.
TEST_F(ProxyTest, OriginCannotShadowLibraryClasses) {
  ClassBuilder shadow("java/lang/Thread", "java/lang/Object");
  shadow.AddMethod(AccessFlags::kPublic | AccessFlags::kStatic, "evil", "()V")
      .Emit(Op::kReturn);
  origin_.Add("app/Shadow", MustWriteClassFile(MustBuild(shadow)));
  ClassBuilder user("app/User", "java/lang/Object");
  user.AddMethod(AccessFlags::kPublic | AccessFlags::kStatic, "main", "()V")
      .InvokeStatic("java/lang/Thread", "evil", "()V")
      .Emit(Op::kReturn);
  origin_.AddClassFile(MustBuild(user));

  auto fresh = MakeProxyPtr();
  auto clean = fresh->HandleRequest("app/User");
  ASSERT_TRUE(clean.ok()) << clean.error().ToString();

  auto proxy = MakeProxyPtr();
  auto shadowed = proxy->HandleRequest("app/Shadow");
  auto after = proxy->HandleRequest("app/User");
  ASSERT_TRUE(after.ok()) << after.error().ToString();
  EXPECT_EQ(after->data, clean->data);
  ASSERT_FALSE(shadowed.ok());
  EXPECT_EQ(shadowed.error().code, ErrorCode::kLinkError);
}

// The system namespace belongs to the trusted library. An origin copy of a
// library class still passes through (clients boot the library via the
// proxy) but never answers the verifier's lookups, and a system-namespace
// class the library does not ship, which would skip verification, is refused.
TEST_F(ProxyTest, LibraryNamespaceBelongsToTheTrustedLibrary) {
  ClassBuilder user("app/User", "java/lang/Object");
  user.AddMethod(AccessFlags::kPublic | AccessFlags::kStatic, "main", "()V")
      .InvokeStatic("java/lang/Thread", "evil", "()V")
      .Emit(Op::kReturn);
  origin_.AddClassFile(MustBuild(user));
  auto fresh = MakeProxyPtr();
  auto clean = fresh->HandleRequest("app/User");
  ASSERT_TRUE(clean.ok()) << clean.error().ToString();

  ClassBuilder forged_thread("java/lang/Thread", "java/lang/Object");
  forged_thread.AddMethod(AccessFlags::kPublic | AccessFlags::kStatic, "evil", "()V")
      .Emit(Op::kReturn);
  origin_.AddClassFile(MustBuild(forged_thread));
  ClassBuilder forged("java/lang/Forged", "java/lang/Object");
  origin_.AddClassFile(MustBuild(forged));

  auto proxy = MakeProxyPtr();
  EXPECT_TRUE(proxy->HandleRequest("java/lang/Thread").ok());
  auto after = proxy->HandleRequest("app/User");
  ASSERT_TRUE(after.ok()) << after.error().ToString();
  EXPECT_EQ(after->data, clean->data);
  auto outside = proxy->HandleRequest("java/lang/Forged");
  ASSERT_FALSE(outside.ok());
  EXPECT_EQ(outside.error().code, ErrorCode::kLinkError);
}

}  // namespace
}  // namespace dvm
