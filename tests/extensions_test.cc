// Tests for the deployment-variant mechanisms: the signature redirect
// protocol, proxy replication, the reflection service, and synchronization
// elision.
#include <gtest/gtest.h>

#include "src/bytecode/builder.h"
#include "src/bytecode/serializer.h"
#include "src/dvm/redirect_client.h"
#include "src/optimizer/sync_elide.h"
#include "src/runtime/syslib.h"
#include "src/services/reflect_service.h"
#include "src/services/verify_service.h"

namespace dvm {
namespace {

ClassFile MustBuild(ClassBuilder& cb) {
  auto built = cb.Build();
  EXPECT_TRUE(built.ok()) << (built.ok() ? "" : built.error().ToString());
  return std::move(built).value();
}

ClassFile TrivialApp(const std::string& name) {
  ClassBuilder cb(name, "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kPublic | AccessFlags::kStatic, "main", "()V");
  m.PushString("ran").InvokeStatic("java/lang/System", "println", "(Ljava/lang/String;)V");
  m.Emit(Op::kReturn);
  return MustBuild(cb);
}

SecurityPolicy OpenPolicy() {
  return *ParseSecurityPolicy(R"(
      <policy version="1">
        <domain sid="user" code="app/*"/>
        <allow sid="user" operation="*" target="*"/>
      </policy>)");
}

// --- redirect protocol -----------------------------------------------------------

class RedirectTest : public ::testing::Test {
 protected:
  RedirectTest() {
    origin_.AddClassFile(TrivialApp("app/Main"));
    DvmServerConfig config;
    config.policy = OpenPolicy();
    config.proxy.sign_output = true;
    server_ = std::make_unique<DvmServer>(std::move(config), &origin_);
  }

  MapClassProvider origin_;
  std::unique_ptr<DvmServer> server_;
};

TEST_F(RedirectTest, UnsignedDirectCodeRedirectsToProxy) {
  // The direct source serves raw, unsigned classes (an untrusted mirror).
  MapClassProvider direct;
  direct.AddClassFile(TrivialApp("app/Main"));
  InstallSystemLibrary(direct);

  RedirectingClient client(server_.get(), &direct, DvmMachineConfig(), MakeEthernet10Mb());
  auto out = client.RunApp("app/Main");
  ASSERT_TRUE(out.ok()) << out.error().ToString();
  EXPECT_FALSE(out->threw);
  EXPECT_EQ(client.direct_hits(), 0u);
  EXPECT_GT(client.redirects(), 0u);
  EXPECT_GT(client.rejected_signatures(), 0u);
}

TEST_F(RedirectTest, ValidlySignedDirectCodeIsAcceptedWithoutProxy) {
  // Populate the direct source with proxy-signed bytes (e.g. a peer cache).
  MapClassProvider direct;
  std::vector<std::string> names = {"app/Main", "java/lang/Object", "java/lang/String"};
  for (const auto& name : names) {
    auto response = server_->proxy().HandleRequest(name);
    ASSERT_TRUE(response.ok());
    direct.Add(name, response->data);
  }

  RedirectingClient client(server_.get(), &direct, DvmMachineConfig(), MakeEthernet10Mb());
  auto out = client.RunApp("app/Main");
  ASSERT_TRUE(out.ok()) << out.error().ToString();
  EXPECT_FALSE(out->threw) << out->exception_class;
  EXPECT_GE(client.direct_hits(), names.size() - 1);  // app + preseeded lib classes
  EXPECT_EQ(client.rejected_signatures(), 0u);
}

TEST_F(RedirectTest, TamperedDirectCodeRedirects) {
  auto response = server_->proxy().HandleRequest("app/Main");
  ASSERT_TRUE(response.ok());
  Bytes tampered = response->data;
  tampered[tampered.size() / 2] ^= 0x40;
  MapClassProvider direct;
  direct.Add("app/Main", tampered);

  RedirectingClient client(server_.get(), &direct, DvmMachineConfig(), MakeEthernet10Mb());
  auto out = client.RunApp("app/Main");
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out->threw);
  EXPECT_GE(client.rejected_signatures(), 1u);
  // The app still ran "ran" — via the redirect, with authentic code.
  ASSERT_EQ(client.machine().printed().size(), 1u);
}

// --- proxy replication -------------------------------------------------------------

TEST(ProxyClusterTest, RoutesStablyAndSharesNothing) {
  MapClassProvider origin;
  InstallSystemLibrary(origin);
  origin.AddClassFile(TrivialApp("app/A"));
  origin.AddClassFile(TrivialApp("app/B"));
  origin.AddClassFile(TrivialApp("app/C"));
  std::vector<ClassFile> library = BuildSystemLibrary();
  MapClassEnv env;
  for (const auto& cls : library) {
    env.Add(&cls);
  }

  ProxyCluster cluster(3, ProxyConfig{}, &env, &origin);
  for (size_t i = 0; i < cluster.size(); i++) {
    cluster.replica(i).AddFilter(std::make_unique<VerificationFilter>());
  }

  // Same class always routes to the same replica (cache affinity).
  DvmProxy& first = cluster.Route("app/A");
  EXPECT_EQ(&cluster.Route("app/A"), &first);

  ASSERT_TRUE(cluster.HandleRequest("app/A").ok());
  auto hit = cluster.HandleRequest("app/A");
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->cache_hit);

  // Work spreads across replicas for distinct classes.
  ASSERT_TRUE(cluster.HandleRequest("app/B").ok());
  ASSERT_TRUE(cluster.HandleRequest("app/C").ok());
  size_t replicas_used = 0;
  for (size_t i = 0; i < cluster.size(); i++) {
    replicas_used += cluster.replica(i).requests_served() > 0 ? 1 : 0;
  }
  EXPECT_GE(replicas_used, 2u);
  EXPECT_GT(cluster.total_cpu_nanos(), 0u);
}

// --- reflection service ---------------------------------------------------------------

TEST(ReflectionServiceTest, AttributeRoundTrips) {
  ClassBuilder cb("refl/C", "java/lang/Object");
  cb.AddField(AccessFlags::kPublic, "x", "I");
  cb.AddField(AccessFlags::kPublic | AccessFlags::kStatic, "y", "J");
  cb.AddMethod(AccessFlags::kStatic, "f", "(I)I").LoadLocal("I", 0).Emit(Op::kIreturn);
  ClassFile cls = MustBuild(cb);

  ReflectionFilter filter;
  FilterContext ctx;
  MapClassEnv env;
  ctx.env = &env;
  auto outcome = filter.Apply(cls, ctx);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->modified);

  const Attribute* attr = cls.FindAttribute(kAttrReflectionInfo);
  ASSERT_NE(attr, nullptr);
  auto info = DecodeReflectionInfo(attr->data);
  ASSERT_TRUE(info.ok()) << info.error().ToString();
  ASSERT_EQ(info->fields.size(), 2u);
  EXPECT_EQ(info->fields[0], (std::pair<std::string, std::string>{"x", "I"}));
  ASSERT_EQ(info->methods.size(), 1u);
  EXPECT_EQ(info->methods[0].second, "(I)I");
}

TEST(ReflectionServiceTest, SelfDescribingClassesSpeedUpDynamicChecks) {
  // Build an app whose main() needs a dynamic field check against app/Target.
  auto build_app = [] {
    ClassBuilder cb("app/UsesTarget", "java/lang/Object");
    MethodBuilder& m = cb.AddMethod(AccessFlags::kPublic | AccessFlags::kStatic,
                                    "main", "()V");
    m.GetStatic("app/Target", "value", "I").Emit(Op::kPop).Emit(Op::kReturn);
    return cb.Build().value();
  };
  auto build_target = [](bool annotate) {
    ClassBuilder cb("app/Target", "java/lang/Object");
    cb.AddField(AccessFlags::kPublic | AccessFlags::kStatic, "value", "I");
    ClassFile cls = cb.Build().value();
    if (annotate) {
      cls.SetAttribute(kAttrReflectionInfo, EncodeReflectionInfo(cls));
    }
    return cls;
  };

  auto verify_nanos = [&](bool annotate) {
    std::vector<ClassFile> library = BuildSystemLibrary();
    MapClassEnv env;
    for (const auto& cls : library) {
      env.Add(&cls);
    }
    VerificationFilter filter;
    FilterContext ctx;
    ctx.env = &env;
    ClassFile app = build_app();
    EXPECT_TRUE(filter.Apply(app, ctx).ok());

    MapClassProvider provider;
    InstallSystemLibrary(provider);
    provider.AddClassFile(app);
    provider.AddClassFile(build_target(annotate));
    Machine machine({}, &provider);
    InstallVerifierRuntime(machine);
    auto out = machine.RunMain("app/UsesTarget");
    EXPECT_TRUE(out.ok());
    EXPECT_FALSE(out->threw);
    return machine.ServiceNanos("verify");
  };

  uint64_t fast = verify_nanos(/*annotate=*/true);
  uint64_t slow = verify_nanos(/*annotate=*/false);
  EXPECT_GT(slow, 5 * fast);  // 15 us reflective walk vs 0.9 us table lookup
}

// --- synchronization elision -------------------------------------------------------------

// A method that allocates a private lock object and synchronizes on it.
ClassFile BuildSyncHeavy(bool escaping) {
  ClassBuilder cb("sync/Worker", "java/lang/Object");
  cb.AddField(AccessFlags::kPublic | AccessFlags::kStatic, "leak", "Ljava/lang/Object;");
  cb.AddDefaultConstructor();
  MethodBuilder& m = cb.AddMethod(AccessFlags::kPublic | AccessFlags::kStatic, "work",
                                  "(I)I");
  Label loop = m.NewLabel(), done = m.NewLabel();
  m.New("java/lang/Object").Emit(Op::kDup);
  m.InvokeSpecial("java/lang/Object", "<init>", "()V");
  m.StoreLocal("Ljava/lang/Object;", 1);
  if (escaping) {
    m.LoadLocal("Ljava/lang/Object;", 1);
    m.PutStatic("sync/Worker", "leak", "Ljava/lang/Object;");
  }
  m.PushInt(0).StoreLocal("I", 2);
  m.Bind(loop).LoadLocal("I", 0).Branch(Op::kIfle, done);
  m.LoadLocal("Ljava/lang/Object;", 1).Emit(Op::kMonitorenter);
  m.LoadLocal("I", 2).PushInt(3).Emit(Op::kIadd).StoreLocal("I", 2);
  m.LoadLocal("Ljava/lang/Object;", 1).Emit(Op::kMonitorexit);
  m.Emit(Op::kIinc, 0, -1).Branch(Op::kGoto, loop);
  m.Bind(done).LoadLocal("I", 2).Emit(Op::kIreturn);
  return MustBuild(cb);
}

int RunWork(const ClassFile& cls, int arg) {
  MapClassProvider provider;
  InstallSystemLibrary(provider);
  provider.AddClassFile(cls);
  Machine machine({}, &provider);
  auto out = machine.CallStatic("sync/Worker", "work", "(I)I", {Value::Int(arg)});
  EXPECT_TRUE(out.ok()) << (out.ok() ? "" : out.error().ToString());
  EXPECT_FALSE(out->threw);
  return out->value.AsInt();
}

TEST(SyncElideTest, ElidesMonitorsOnNonEscapingObjects) {
  ClassFile cls = BuildSyncHeavy(/*escaping=*/false);
  int before = RunWork(cls, 10);

  SyncElideFilter filter;
  FilterContext ctx;
  MapClassEnv env;
  ctx.env = &env;
  auto outcome = filter.Apply(cls, ctx);
  ASSERT_TRUE(outcome.ok()) << outcome.error().ToString();
  EXPECT_TRUE(outcome->modified);
  EXPECT_GT(outcome->sites_rewritten, 0u);

  // Semantics preserved, monitors gone.
  EXPECT_EQ(RunWork(cls, 10), before);
  auto decoded = DecodeCode(cls.FindMethod("work", "(I)I")->code->code);
  ASSERT_TRUE(decoded.ok());
  for (const auto& instr : *decoded) {
    EXPECT_NE(instr.op, Op::kMonitorenter);
    EXPECT_NE(instr.op, Op::kMonitorexit);
  }
}

TEST(SyncElideTest, KeepsMonitorsOnEscapingObjects) {
  ClassFile cls = BuildSyncHeavy(/*escaping=*/true);
  SyncElideFilter filter;
  FilterContext ctx;
  MapClassEnv env;
  ctx.env = &env;
  auto outcome = filter.Apply(cls, ctx);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->sites_rewritten, 0u);
  auto decoded = DecodeCode(cls.FindMethod("work", "(I)I")->code->code);
  ASSERT_TRUE(decoded.ok());
  bool has_monitor = false;
  for (const auto& instr : *decoded) {
    has_monitor |= instr.op == Op::kMonitorenter;
  }
  EXPECT_TRUE(has_monitor);
}

TEST(SyncElideTest, KeepsMonitorsOnParameters) {
  // Locking a caller-supplied object must never be elided.
  ClassBuilder cb("sync/Worker", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kPublic | AccessFlags::kStatic, "work",
                                  "(Ljava/lang/Object;)V");
  m.Emit(Op::kAload, 0).Emit(Op::kMonitorenter);
  m.Emit(Op::kAload, 0).Emit(Op::kMonitorexit);
  m.Emit(Op::kReturn);
  ClassFile cls = MustBuild(cb);
  SyncElideFilter filter;
  FilterContext ctx;
  MapClassEnv env;
  ctx.env = &env;
  auto outcome = filter.Apply(cls, ctx);
  ASSERT_TRUE(outcome.ok());
  // Parameter locals have no fresh-allocation store: nothing elided.
  EXPECT_EQ(outcome->sites_rewritten, 0u);
}

TEST(SyncElideTest, AnalysisFindsExactInstructionSet) {
  ClassFile cls = BuildSyncHeavy(/*escaping=*/false);
  auto decoded = DecodeCode(cls.FindMethod("work", "(I)I")->code->code);
  ASSERT_TRUE(decoded.ok());
  auto elidable = FindElidableMonitorOps(*decoded);
  ASSERT_TRUE(elidable.ok());
  // One aload+monitorenter pair and one aload+monitorexit pair.
  EXPECT_EQ(elidable->size(), 4u);
}

// --- code-version inventory ---------------------------------------------------------

TEST(CodeVersionTest, ConsoleTracksServedDigestsAndChanges) {
  MapClassProvider origin;
  origin.AddClassFile(TrivialApp("app/Main"));
  DvmServerConfig config;
  config.policy = OpenPolicy();
  config.proxy.enable_cache = false;  // force re-serving through the pipeline
  DvmServer server(std::move(config), &origin);

  ASSERT_TRUE(server.proxy().HandleRequest("app/Main").ok());
  ASSERT_EQ(server.console().code_versions().count("app/Main"), 1u);
  std::string first_digest = server.console().code_versions().at("app/Main");
  EXPECT_EQ(first_digest.size(), 32u);  // md5 hex

  // Same bytes re-served: no version change recorded.
  ASSERT_TRUE(server.proxy().HandleRequest("app/Main").ok());
  EXPECT_EQ(server.console().code_version_changes(), 0u);

  // A policy update changes the rewrite; the console flags the new version.
  SecurityPolicy altered = OpenPolicy();
  SecurityHook hook;
  hook.class_pattern = "app/*";
  hook.method_pattern = "main";
  hook.operation = "app.run";
  altered.hooks.push_back(hook);
  server.UpdateSecurityPolicy(std::move(altered));
  ASSERT_TRUE(server.proxy().HandleRequest("app/Main").ok());
  EXPECT_EQ(server.console().code_version_changes(), 1u);
  EXPECT_NE(server.console().code_versions().at("app/Main"), first_digest);
  bool saw_change_event = false;
  for (const auto& event : server.console().log()) {
    saw_change_event |= event.kind == "code-version-change";
  }
  EXPECT_TRUE(saw_change_event);
}

// --- per-platform compilation ---------------------------------------------------------

TEST(PlatformCompilationTest, ClientsReceiveTheirOwnNativeFormat) {
  MapClassProvider origin;
  origin.AddClassFile(TrivialApp("app/Main"));
  DvmServerConfig config;
  config.policy = OpenPolicy();
  config.enable_compiler = true;
  config.enable_audit = false;
  DvmServer server(std::move(config), &origin);

  auto stamp_for = [&server](const std::string& platform) {
    auto response = server.proxy().HandleRequest("app/Main", platform);
    EXPECT_TRUE(response.ok());
    auto parsed = ReadClassFile(response->data);
    EXPECT_TRUE(parsed.ok());
    const Attribute* attr = parsed->FindAttribute(kAttrCompiledStamp);
    EXPECT_NE(attr, nullptr);
    return std::string(attr->data.begin(), attr->data.end());
  };

  EXPECT_EQ(stamp_for("x86"), "x86");
  EXPECT_EQ(stamp_for("alpha"), "alpha");

  // Distinct cache entries: an alpha request after an x86 one is NOT a hit.
  auto again = server.proxy().HandleRequest("app/Main", "x86");
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->cache_hit);
  EXPECT_EQ(server.proxy().cache().entries(), 2u);

  // End to end: an alpha DvmClient runs compiled-for-alpha code.
  DvmClient alpha_client(&server, DvmMachineConfig(), MakeEthernet10Mb(), "u", "h",
                         "alpha");
  auto out = alpha_client.RunApp("app/Main");
  ASSERT_TRUE(out.ok()) << out.error().ToString();
  EXPECT_FALSE(out->threw);
  RuntimeClass* loaded = alpha_client.machine().registry().FindLoaded("app/Main");
  ASSERT_NE(loaded, nullptr);
  const Attribute* attr = loaded->file.FindAttribute(kAttrCompiledStamp);
  ASSERT_NE(attr, nullptr);
  EXPECT_EQ(std::string(attr->data.begin(), attr->data.end()), "alpha");
}

}  // namespace
}  // namespace dvm
