#include <gtest/gtest.h>

#include "src/bytecode/builder.h"
#include "src/bytecode/disasm.h"
#include "src/bytecode/serializer.h"
#include "src/runtime/machine.h"
#include "src/runtime/syslib.h"
#include "src/services/monitor_service.h"
#include "src/services/security_service.h"
#include "src/services/verify_service.h"
#include "src/verifier/verifier.h"

namespace dvm {
namespace {

ClassFile MustBuild(ClassBuilder& cb) {
  auto built = cb.Build();
  EXPECT_TRUE(built.ok()) << (built.ok() ? "" : built.error().ToString());
  return std::move(built).value();
}

// Library-backed environment shared by service tests.
class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest() : library_(BuildSystemLibrary()) {
    for (const auto& cls : library_) {
      library_env_.Add(&cls);
      provider_.AddClassFile(cls);
    }
  }

  // Runs a single filter over `cls`, returning the transformed class; the
  // outcome (with its counts) stays in last_.
  ClassFile RunFilter(const CodeFilter& filter, ClassFile cls,
                      std::vector<std::pair<std::string, Bytes>>* extra = nullptr) {
    FilterContext ctx;
    ctx.env = &library_env_;
    auto outcome = filter.Apply(cls, ctx);
    EXPECT_TRUE(outcome.ok()) << (outcome.ok() ? "" : outcome.error().ToString());
    if (outcome.ok()) {
      last_ = *outcome;
      if (outcome->replacement.has_value()) {
        cls = std::move(*outcome->replacement);
      }
      if (extra != nullptr) {
        for (auto& e : outcome->extra_classes) {
          extra->emplace_back(e.name(), MustWriteClassFile(e));
        }
      }
    }
    return cls;
  }

  std::vector<ClassFile> library_;
  MapClassEnv library_env_;
  MapClassProvider provider_;
  FilterOutcome last_;
};

// ----- verification service -------------------------------------------------------

// The paper's Figure 3 example: main() references System.out-style members of
// classes the proxy has not seen.
ClassFile BuildHelloWorld() {
  ClassBuilder cb("app/Hello", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "main", "()V");
  m.GetStatic("remote/Console", "out", "Lremote/Stream;");
  m.PushString("hello world");
  m.InvokeVirtual("remote/Stream", "println", "(Ljava/lang/String;)V");
  m.Emit(Op::kReturn);
  return MustBuild(cb);
}

// The remote classes the client will have locally.
void InstallRemoteClasses(MapClassProvider* provider, bool stream_has_println) {
  ClassBuilder stream("remote/Stream", "java/lang/Object");
  stream.AddDefaultConstructor();
  if (stream_has_println) {
    MethodBuilder& println =
        stream.AddMethod(AccessFlags::kPublic, "println", "(Ljava/lang/String;)V");
    println.Emit(Op::kAload, 1)
        .InvokeStatic("java/lang/System", "println", "(Ljava/lang/String;)V");
    println.Emit(Op::kReturn);
  }
  ClassFile stream_cls = MustBuild(stream);
  provider->AddClassFile(stream_cls);

  ClassBuilder console("remote/Console", "java/lang/Object");
  console.AddField(AccessFlags::kStatic | AccessFlags::kPublic, "out", "Lremote/Stream;");
  MethodBuilder& clinit = console.AddMethod(AccessFlags::kStatic, "<clinit>", "()V");
  clinit.New("remote/Stream").Emit(Op::kDup).InvokeSpecial("remote/Stream", "<init>", "()V");
  clinit.PutStatic("remote/Console", "out", "Lremote/Stream;");
  clinit.Emit(Op::kReturn);
  provider->AddClassFile(MustBuild(console));
}

TEST_F(ServiceTest, VerifierInjectsGuardedPreamble) {
  VerificationFilter filter;
  ClassFile rewritten = RunFilter(filter, BuildHelloWorld());

  // The Figure 3 shape: a guard field plus RTVerifier calls in main.
  bool has_guard_field = false;
  for (const auto& f : rewritten.fields) {
    if (f.name.rfind("__dvmVerified$", 0) == 0) {
      has_guard_field = true;
    }
  }
  EXPECT_TRUE(has_guard_field);
  std::string disasm = DisassembleMethod(rewritten, *rewritten.FindMethod("main", "()V"));
  EXPECT_NE(disasm.find("RTVerifier.CheckField"), std::string::npos) << disasm;
  EXPECT_NE(disasm.find("RTVerifier.CheckMethod"), std::string::npos) << disasm;
  EXPECT_GT(last_.checks_performed, 0u);
  EXPECT_GE(last_.sites_rewritten, 2u);
}

TEST_F(ServiceTest, SelfVerifyingAppRunsAndChecksOnce) {
  VerificationFilter filter;
  ClassFile rewritten = RunFilter(filter, BuildHelloWorld());

  // Client: plain machine with the RTVerifier dynamic component, plus the
  // remote classes the static verifier could not see.
  provider_.AddClassFile(rewritten);
  InstallRemoteClasses(&provider_, /*stream_has_println=*/true);
  Machine machine({}, &provider_);
  InstallVerifierRuntime(machine);

  auto out = machine.RunMain("app/Hello");
  ASSERT_TRUE(out.ok()) << out.error().ToString();
  EXPECT_FALSE(out->threw) << out->exception_class << " " << out->exception_message;
  ASSERT_EQ(machine.printed().size(), 1u);
  EXPECT_EQ(machine.printed()[0], "hello world");
  uint64_t checks_after_first = machine.counters().dynamic_verify_checks;
  EXPECT_GT(checks_after_first, 0u);

  // Second invocation: the guard short-circuits, no further dynamic checks.
  auto again = machine.RunMain("app/Hello");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(machine.counters().dynamic_verify_checks, checks_after_first);
}

TEST_F(ServiceTest, DynamicCheckFailureRaisesVerifyError) {
  VerificationFilter filter;
  ClassFile rewritten = RunFilter(filter, BuildHelloWorld());
  provider_.AddClassFile(rewritten);
  // Stream lacks println: the injected CheckMethod must fail.
  InstallRemoteClasses(&provider_, /*stream_has_println=*/false);
  Machine machine({}, &provider_);
  InstallVerifierRuntime(machine);

  auto out = machine.RunMain("app/Hello");
  ASSERT_TRUE(out.ok()) << out.error().ToString();
  EXPECT_TRUE(out->threw);
  EXPECT_EQ(out->exception_class, "java/lang/VerifyError");
}

TEST_F(ServiceTest, UnsafeClassBecomesVerifyErrorStandIn) {
  // Build a class with a stack underflow.
  ClassBuilder cb("app/Evil", "java/lang/Object");
  cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "main", "()V").Emit(Op::kReturn);
  ClassFile cls = MustBuild(cb);
  cls.FindMethod("main", "()V")->code->code = {static_cast<uint8_t>(Op::kPop),
                                               static_cast<uint8_t>(Op::kReturn)};
  cls.FindMethod("main", "()V")->code->max_stack = 4;

  VerificationFilter filter;
  ClassFile rewritten = RunFilter(filter, std::move(cls));
  EXPECT_TRUE(last_.replacement.has_value());

  // The stand-in raises VerifyError through the normal exception mechanism.
  provider_.AddClassFile(rewritten);
  Machine machine({}, &provider_);
  auto out = machine.RunMain("app/Evil");
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->threw);
  EXPECT_EQ(out->exception_class, "java/lang/VerifyError");
}

TEST_F(ServiceTest, ClassScopedAssumptionLandsInClinit) {
  ClassBuilder cb("app/Sub", "remote/Base");
  ClassFile cls = MustBuild(cb);
  VerificationFilter filter;
  ClassFile rewritten = RunFilter(filter, std::move(cls));
  const MethodInfo* clinit = rewritten.FindMethod("<clinit>", "()V");
  ASSERT_NE(clinit, nullptr);
  std::string disasm = DisassembleMethod(rewritten, *clinit);
  EXPECT_NE(disasm.find("CheckClass"), std::string::npos) << disasm;
}

TEST_F(ServiceTest, RewrittenClassStillVerifiesStatically) {
  // Paper section 2: monolithic VMs may re-verify rewritten code; it must pass.
  VerificationFilter filter;
  ClassFile rewritten = RunFilter(filter, BuildHelloWorld());
  auto reverified = VerifyClass(rewritten, library_env_);
  EXPECT_TRUE(reverified.ok()) << (reverified.ok() ? "" : reverified.error().ToString());
}

TEST_F(ServiceTest, SystemClassesAreNotTouched) {
  VerificationFilter filter;
  ClassBuilder cb("java/lang/Custom", "java/lang/Object");
  ClassFile cls = MustBuild(cb);
  Bytes before = MustWriteClassFile(cls);
  ClassFile after = RunFilter(filter, std::move(cls));
  EXPECT_EQ(MustWriteClassFile(after), before);
  EXPECT_EQ(last_.checks_performed, 0u);
  EXPECT_FALSE(last_.modified);
}

// ----- security service -----------------------------------------------------------

const char* kTestPolicy = R"(
<policy version="1">
  <domain sid="applet" code="app/*"/>
  <allow sid="applet" operation="file.open" target="/tmp/*"/>
  <allow sid="applet" operation="file.read" target="/tmp/*"/>
  <hook class="java/io/File" method="open" operation="file.open" target-arg="0"/>
  <hook class="java/io/File" method="read" operation="file.read"/>
</policy>)";

ClassFile BuildFileApp() {
  ClassBuilder cb("app/FileUser", "java/lang/Object");
  MethodBuilder& open = cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "openIt",
                                     "(Ljava/lang/String;)I");
  open.Emit(Op::kAload, 0).InvokeStatic("java/io/File", "open", "(Ljava/lang/String;)I");
  open.Emit(Op::kIreturn);
  MethodBuilder& read = cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "readIt",
                                     "(I)I");
  read.Emit(Op::kIload, 0).InvokeStatic("java/io/File", "read", "(I)I").Emit(Op::kIreturn);
  return MustBuild(cb);
}

class SecurityServiceTest : public ServiceTest {
 protected:
  SecurityServiceTest() {
    auto policy = ParseSecurityPolicy(kTestPolicy);
    EXPECT_TRUE(policy.ok());
    server_ = std::make_unique<SecurityServer>(std::move(policy).value());
  }

  // Rewrites java/io/File per the hooks and installs everything into a machine.
  std::unique_ptr<Machine> MakeSecuredMachine() {
    SecurityFilter filter(&server_->policy());
    MapClassProvider secured;
    for (const auto& cls : library_) {
      ClassFile copy = cls;
      FilterContext ctx;
      ctx.env = &library_env_;
      auto outcome = filter.Apply(copy, ctx);
      EXPECT_TRUE(outcome.ok()) << (outcome.ok() ? "" : outcome.error().ToString());
      secured.AddClassFile(copy);
    }
    secured.AddClassFile(BuildFileApp());
    secured_provider_ = std::move(secured);
    auto machine = std::make_unique<Machine>(MachineConfig{}, &secured_provider_);
    manager_ = std::make_unique<EnforcementManager>(server_.get());
    manager_->Install(*machine);
    manager_->SetThreadSid("applet");
    machine->files().Put("/tmp/data", "tmpfile");
    machine->files().Put("/etc/passwd", "secret");
    return machine;
  }

  std::unique_ptr<SecurityServer> server_;
  std::unique_ptr<EnforcementManager> manager_;
  MapClassProvider secured_provider_;
};

TEST_F(SecurityServiceTest, AllowsPermittedAccess) {
  auto machine = MakeSecuredMachine();
  auto path = machine->NewString("/tmp/data");
  ASSERT_TRUE(path.ok());
  auto out = machine->CallStatic("app/FileUser", "openIt", "(Ljava/lang/String;)I",
                                 {Value::Ref(path.value())});
  ASSERT_TRUE(out.ok()) << out.error().ToString();
  EXPECT_FALSE(out->threw) << out->exception_class << ": " << out->exception_message;
  EXPECT_GE(out->value.AsInt(), 0);
}

TEST_F(SecurityServiceTest, DeniesForbiddenTarget) {
  auto machine = MakeSecuredMachine();
  auto path = machine->NewString("/etc/passwd");
  ASSERT_TRUE(path.ok());
  auto out = machine->CallStatic("app/FileUser", "openIt", "(Ljava/lang/String;)I",
                                 {Value::Ref(path.value())});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->threw);
  EXPECT_EQ(out->exception_class, "java/lang/SecurityException");
}

TEST_F(SecurityServiceTest, ReadPathIsProtectedUnlikeJdk) {
  // Figure 9's qualitative point: the DVM can impose checks on File.read.
  auto machine = MakeSecuredMachine();
  // Open /tmp/data legitimately, then read through the checked path: allowed.
  auto path = machine->NewString("/tmp/data");
  auto open_out = machine->CallStatic("app/FileUser", "openIt", "(Ljava/lang/String;)I",
                                      {Value::Ref(path.value())});
  ASSERT_TRUE(open_out.ok());
  ASSERT_FALSE(open_out->threw);
  auto read_out = machine->CallStatic("app/FileUser", "readIt", "(I)I",
                                      {Value::Int(open_out->value.AsInt())});
  ASSERT_TRUE(read_out.ok());
  // file.read hook has target-arg=-1: target is "java/io/File.read", which the
  // policy does not allow for sid applet -> denied even with a valid handle.
  EXPECT_TRUE(read_out->threw);
  EXPECT_EQ(read_out->exception_class, "java/lang/SecurityException");
}

TEST_F(SecurityServiceTest, DecisionCachingAndInvalidation) {
  auto machine = MakeSecuredMachine();
  auto path = machine->NewString("/tmp/data");
  auto call = [&] {
    auto out = machine->CallStatic("app/FileUser", "openIt", "(Ljava/lang/String;)I",
                                   {Value::Ref(path.value())});
    ASSERT_TRUE(out.ok());
  };
  call();
  uint64_t misses_first = manager_->cache_misses();
  call();
  call();
  EXPECT_EQ(manager_->cache_misses(), misses_first);  // all hits now
  EXPECT_GE(manager_->cache_hits(), 2u);

  // Single point of control: pushing a new policy invalidates the cache.
  SecurityPolicy deny_all;
  deny_all.code_domains = server_->policy().code_domains;
  deny_all.hooks = server_->policy().hooks;
  SecurityRule rule;
  rule.sid = "*";
  rule.operation = "*";
  rule.target_pattern = "*";
  rule.allow = false;
  deny_all.rules.push_back(rule);
  server_->UpdatePolicy(std::move(deny_all));
  EXPECT_EQ(manager_->invalidations(), 1u);

  auto out = machine->CallStatic("app/FileUser", "openIt", "(Ljava/lang/String;)I",
                                 {Value::Ref(path.value())});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->threw);  // previously-cached allow no longer applies
}

TEST_F(SecurityServiceTest, FirstCheckPaysPolicyDownload) {
  auto machine = MakeSecuredMachine();
  auto path = machine->NewString("/tmp/data");
  uint64_t before = machine->ServiceNanos("security");
  auto out = machine->CallStatic("app/FileUser", "openIt", "(Ljava/lang/String;)I",
                                 {Value::Ref(path.value())});
  ASSERT_TRUE(out.ok());
  uint64_t first = machine->ServiceNanos("security") - before;
  before = machine->ServiceNanos("security");
  out = machine->CallStatic("app/FileUser", "openIt", "(Ljava/lang/String;)I",
                            {Value::Ref(path.value())});
  ASSERT_TRUE(out.ok());
  uint64_t second = machine->ServiceNanos("security") - before;
  EXPECT_GT(first, 100 * second);  // download dwarfs the cached check
  EXPECT_EQ(server_->slice_downloads(), 1u);
}

TEST_F(SecurityServiceTest, TrustedSidBypassesNothingButPasses) {
  auto machine = MakeSecuredMachine();
  manager_->SetThreadSid("");  // trusted system code
  auto path = machine->NewString("/etc/passwd");
  auto out = machine->CallStatic("app/FileUser", "openIt", "(Ljava/lang/String;)I",
                                 {Value::Ref(path.value())});
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out->threw);
}

// ----- monitoring / profiling -------------------------------------------------------

ClassFile BuildChainApp() {
  ClassBuilder cb("app/Chain", "java/lang/Object");
  MethodBuilder& inner = cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic,
                                      "inner", "(I)I");
  inner.LoadLocal("I", 0).PushInt(2).Emit(Op::kImul).Emit(Op::kIreturn);
  MethodBuilder& outer = cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic,
                                      "main", "()V");
  outer.PushInt(21).InvokeStatic("app/Chain", "inner", "(I)I").Emit(Op::kPop);
  outer.Emit(Op::kReturn);
  return MustBuild(cb);
}

TEST_F(ServiceTest, AuditServiceRecordsEnterAndExit) {
  AuditFilter filter;
  ClassFile rewritten = RunFilter(filter, BuildChainApp());
  EXPECT_EQ(last_.checks_performed, 2u);

  provider_.AddClassFile(rewritten);
  Machine machine({}, &provider_);
  AdministrationConsole console;
  AuditSession session(&console, "egs", "client-7");
  session.Install(machine);

  auto out = machine.RunMain("app/Chain");
  ASSERT_TRUE(out.ok()) << out.error().ToString();
  ASSERT_FALSE(out->threw) << out->exception_class;
  session.Flush();

  // session-start + one entry event per executed method.
  ASSERT_GE(console.log().size(), 3u);
  EXPECT_EQ(console.log()[0].kind, "session-start");
  int enters = 0;
  for (const auto& event : console.log()) {
    if (event.kind == "enter") {
      enters++;
    }
  }
  EXPECT_EQ(enters, 2);
  EXPECT_EQ(console.sessions().size(), 1u);
  EXPECT_EQ(console.sessions()[0].user, "egs");
  EXPECT_GT(machine.counters().audit_events, 0u);
}

TEST_F(ServiceTest, ProfilerBuildsCallGraphAndFirstUse) {
  ProfileFilter filter;
  ClassFile rewritten = RunFilter(filter, BuildChainApp());
  provider_.AddClassFile(rewritten);

  Machine machine({}, &provider_);
  AdministrationConsole console;
  uint64_t session = console.OpenSession("egs", "client-7", "hw", "vm");
  ProfileCollector collector(&console, session);
  collector.Install(machine);

  auto out = machine.RunMain("app/Chain");
  ASSERT_TRUE(out.ok());
  ASSERT_FALSE(out->threw);

  ASSERT_EQ(collector.first_use_order().size(), 2u);
  EXPECT_EQ(collector.first_use_order()[0], "app/Chain.main");
  EXPECT_EQ(collector.first_use_order()[1], "app/Chain.inner");
  auto edge = console.call_graph().find({"app/Chain.main", "app/Chain.inner"});
  ASSERT_NE(edge, console.call_graph().end());
  EXPECT_EQ(edge->second, 1u);
}

TEST_F(ServiceTest, AuditTrailSurvivesGuestException) {
  ClassBuilder cb("app/Crash", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "main", "()V");
  m.PushInt(1).PushInt(0).Emit(Op::kIdiv).Emit(Op::kPop).Emit(Op::kReturn);
  AuditFilter filter;
  ClassFile rewritten = RunFilter(filter, MustBuild(cb));
  provider_.AddClassFile(rewritten);

  Machine machine({}, &provider_);
  AdministrationConsole console;
  AuditSession session(&console, "egs", "client-7");
  session.Install(machine);
  auto out = machine.RunMain("app/Crash");
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->threw);
  session.Flush();
  // The enter event reached the console even though the method never returned;
  // the log lives on a host the application cannot tamper with.
  bool saw_enter = false;
  for (const auto& event : console.log()) {
    saw_enter |= event.kind == "enter" && event.detail == "app/Crash.main";
  }
  EXPECT_TRUE(saw_enter);
}

}  // namespace
}  // namespace dvm
