// End-to-end tests of the full distributed architecture: origin server ->
// proxy (static services) -> client (runtime + dynamic components), compared
// against the monolithic configuration on the same workloads.
#include <gtest/gtest.h>

#include <chrono>

#include "src/bytecode/builder.h"
#include "src/dvm/dvm.h"
#include "src/workloads/apps.h"
#include "src/workloads/graphical.h"

namespace dvm {
namespace {

ClassFile MustBuild(ClassBuilder& cb) {
  auto built = cb.Build();
  EXPECT_TRUE(built.ok()) << (built.ok() ? "" : built.error().ToString());
  return std::move(built).value();
}

// Small two-class app that prints, reads a property and opens a file.
void InstallTestApp(MapClassProvider* origin) {
  ClassBuilder helper("app/Helper", "java/lang/Object");
  MethodBuilder& h = helper.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic,
                                      "openTemp", "()I");
  h.PushString("/tmp/scratch").InvokeStatic("java/io/File", "open", "(Ljava/lang/String;)I");
  h.Emit(Op::kIreturn);
  origin->AddClassFile(MustBuild(helper));

  ClassBuilder main_cb("app/Main", "java/lang/Object");
  MethodBuilder& m = main_cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic,
                                       "main", "()V");
  m.PushString("starting").InvokeStatic("java/lang/System", "println",
                                        "(Ljava/lang/String;)V");
  m.InvokeStatic("app/Helper", "openTemp", "()I").Emit(Op::kPop);
  m.PushString("done").InvokeStatic("java/lang/System", "println", "(Ljava/lang/String;)V");
  m.Emit(Op::kReturn);
  origin->AddClassFile(MustBuild(main_cb));
}

SecurityPolicy TestPolicy() {
  auto policy = ParseSecurityPolicy(R"(
    <policy version="1">
      <domain sid="applet" code="app/*"/>
      <allow sid="applet" operation="file.open" target="/tmp/*"/>
      <allow sid="applet" operation="*" target="*"/>
      <hook class="java/io/File" method="open" operation="file.open" target-arg="0"/>
    </policy>)");
  EXPECT_TRUE(policy.ok());
  return std::move(policy).value();
}

class DvmEndToEndTest : public ::testing::Test {
 protected:
  DvmEndToEndTest() { InstallTestApp(&origin_); }

  std::unique_ptr<DvmServer> MakeServer(DvmServerConfig config = {}) {
    config.policy = TestPolicy();
    return std::make_unique<DvmServer>(std::move(config), &origin_);
  }

  MapClassProvider origin_;
};

TEST_F(DvmEndToEndTest, DvmClientRunsAppThroughFullPipeline) {
  auto server = MakeServer();
  DvmClient client(server.get(), DvmMachineConfig(), MakeEthernet10Mb());
  client.machine().files().Put("/tmp/scratch", "data");

  auto out = client.RunApp("app/Main");
  ASSERT_TRUE(out.ok()) << out.error().ToString();
  EXPECT_FALSE(out->threw) << out->exception_class << ": " << out->exception_message;
  ASSERT_EQ(client.machine().printed().size(), 2u);
  EXPECT_EQ(client.machine().printed()[0], "starting");
  EXPECT_EQ(client.machine().printed()[1], "done");

  // The full stack did its job: classes flowed through the proxy, dynamic
  // checks ran, audit events reached the console.
  EXPECT_GT(client.classes_fetched(), 2u);  // app + system classes
  EXPECT_GT(client.machine().counters().dynamic_verify_checks, 0u);
  EXPECT_GT(client.machine().counters().security_checks, 0u);
  EXPECT_GT(server->console().events_received(), 0u);
  EXPECT_GT(client.transfer_nanos(), 0u);
}

TEST_F(DvmEndToEndTest, MonolithicClientProducesSameOutput) {
  auto server = MakeServer();
  DvmClient dvm_client(server.get(), DvmMachineConfig(), MakeEthernet10Mb());
  dvm_client.machine().files().Put("/tmp/scratch", "data");
  auto dvm_out = dvm_client.RunApp("app/Main");
  ASSERT_TRUE(dvm_out.ok());

  MonolithicClient mono(&origin_, TestPolicy(), MonolithicMachineConfig(),
                        MakeEthernet10Mb());
  mono.machine().files().Put("/tmp/scratch", "data");
  auto mono_out = mono.RunApp("app/Main");
  ASSERT_TRUE(mono_out.ok()) << mono_out.error().ToString();
  EXPECT_FALSE(mono_out->threw) << mono_out->exception_class;

  EXPECT_EQ(mono.machine().printed(), dvm_client.machine().printed());
  // Architectural difference: the monolithic client verified locally, the DVM
  // client did not.
  EXPECT_GT(mono.machine().ServiceNanos("verify"), 0u);
  EXPECT_EQ(dvm_client.machine().counters().security_checks > 0,
            mono.machine().counters().security_checks > 0);
}

TEST_F(DvmEndToEndTest, DvmClientSpendsLessClientTimeOnVerification) {
  auto server = MakeServer();
  DvmClient dvm_client(server.get(), DvmMachineConfig(), MakeEthernet10Mb());
  dvm_client.machine().files().Put("/tmp/scratch", "data");
  ASSERT_TRUE(dvm_client.RunApp("app/Main").ok());

  MonolithicClient mono(&origin_, TestPolicy(), MonolithicMachineConfig(),
                        MakeEthernet10Mb());
  mono.machine().files().Put("/tmp/scratch", "data");
  ASSERT_TRUE(mono.RunApp("app/Main").ok());

  // Figure 7's claim: client-side verification time is much smaller under the
  // DVM (only the injected residual checks).
  EXPECT_LT(dvm_client.machine().ServiceNanos("verify"),
            mono.machine().ServiceNanos("verify"));
}

TEST_F(DvmEndToEndTest, SecondClientBenefitsFromProxyCache) {
  auto server = MakeServer();
  DvmClient first(server.get(), DvmMachineConfig(), MakeEthernet10Mb());
  first.machine().files().Put("/tmp/scratch", "data");
  ASSERT_TRUE(first.RunApp("app/Main").ok());
  uint64_t first_transfer = first.transfer_nanos();

  DvmClient second(server.get(), DvmMachineConfig(), MakeEthernet10Mb());
  second.machine().files().Put("/tmp/scratch", "data");
  ASSERT_TRUE(second.RunApp("app/Main").ok());
  // Cache hits skip rewriting: the second client's fetches are much cheaper.
  EXPECT_LT(second.transfer_nanos() * 2, first_transfer);
  EXPECT_GT(server->proxy().cache().hits(), 0u);
}

TEST_F(DvmEndToEndTest, PolicyUpdateTakesEffectWithoutClientCooperation) {
  auto server = MakeServer();
  DvmClient client(server.get(), DvmMachineConfig(), MakeEthernet10Mb());
  client.machine().files().Put("/tmp/scratch", "data");
  ASSERT_TRUE(client.RunApp("app/Main").ok());

  // Single point of control: deny everything from the server side.
  SecurityPolicy lockdown = TestPolicy();
  lockdown.rules.clear();
  SecurityRule deny;
  deny.sid = "*";
  deny.operation = "*";
  deny.target_pattern = "*";
  deny.allow = false;
  lockdown.rules.push_back(deny);
  server->UpdateSecurityPolicy(std::move(lockdown));

  auto out = client.RunApp("app/Main");
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->threw);
  EXPECT_EQ(out->exception_class, "java/lang/SecurityException");
}

TEST_F(DvmEndToEndTest, Fig5WorkloadRunsEndToEnd) {
  AppBundle app = BuildJlexApp(1);
  app.InstallInto(&origin_);
  auto server = MakeServer();
  DvmClient client(server.get(), DvmMachineConfig(), MakeEthernet10Mb());
  auto out = client.RunApp(app.main_class);
  ASSERT_TRUE(out.ok()) << out.error().ToString();
  EXPECT_FALSE(out->threw) << out->exception_class << ": " << out->exception_message;
  ASSERT_EQ(client.machine().printed().size(), 1u);

  // Same program under the monolithic architecture computes the same answer.
  MonolithicClient mono(&origin_, TestPolicy(), MonolithicMachineConfig(),
                        MakeEthernet10Mb());
  auto mono_out = mono.RunApp(app.main_class);
  ASSERT_TRUE(mono_out.ok()) << mono_out.error().ToString();
  EXPECT_FALSE(mono_out->threw) << mono_out->exception_class;
  EXPECT_EQ(mono.machine().printed(), client.machine().printed());
}

TEST_F(DvmEndToEndTest, RepartitioningReducesStartupBytes) {
  AppBundle app = GenerateGraphicalApp(GraphicalAppSpecs()[4]);  // "cq"
  app.InstallInto(&origin_);

  // Pass 1: profile the startup on a profiling-enabled server.
  DvmServerConfig profile_config;
  profile_config.enable_audit = false;
  profile_config.enable_profile = true;
  auto profile_server = MakeServer(profile_config);
  DvmClient profile_client(profile_server.get(), DvmMachineConfig(), MakeEthernet10Mb());
  ASSERT_TRUE(profile_client.RunApp(app.main_class).ok());
  ASSERT_FALSE(profile_client.profiler()->first_use_order().empty());

  // Pass 2: a repartitioning server built from the collected profile.
  DvmServerConfig split_config;
  split_config.enable_audit = false;
  split_config.repartition_profile =
      TransferProfile(profile_client.profiler()->first_use_order());
  auto split_server = MakeServer(split_config);
  DvmClient fast_client(split_server.get(), DvmMachineConfig(), MakeModem(28.8));
  auto out = fast_client.RunApp(app.main_class);
  ASSERT_TRUE(out.ok()) << out.error().ToString();
  EXPECT_FALSE(out->threw) << out->exception_class << ": " << out->exception_message;

  // Baseline on the same slow link without repartitioning.
  DvmServerConfig plain_config;
  plain_config.enable_audit = false;
  auto plain_server = MakeServer(plain_config);
  DvmClient slow_client(plain_server.get(), DvmMachineConfig(), MakeModem(28.8));
  ASSERT_TRUE(slow_client.RunApp(app.main_class).ok());

  EXPECT_LT(fast_client.bytes_fetched(), slow_client.bytes_fetched());
  EXPECT_LT(fast_client.machine().virtual_nanos(), slow_client.machine().virtual_nanos());
}

TEST_F(DvmEndToEndTest, CompilerServiceSpeedsUpExecution) {
  AppBundle app = BuildCassowaryApp(1);
  app.InstallInto(&origin_);

  DvmServerConfig plain;
  plain.enable_audit = false;
  auto plain_server = MakeServer(plain);
  DvmClient interpreted(plain_server.get(), DvmMachineConfig(), MakeEthernet10Mb());
  ASSERT_TRUE(interpreted.RunApp(app.main_class).ok());

  DvmServerConfig compiled;
  compiled.enable_audit = false;
  compiled.enable_compiler = true;
  auto compiled_server = MakeServer(compiled);
  DvmClient fast(compiled_server.get(), DvmMachineConfig(), MakeEthernet10Mb());
  auto out = fast.RunApp(app.main_class);
  ASSERT_TRUE(out.ok()) << out.error().ToString();
  EXPECT_FALSE(out->threw);

  EXPECT_EQ(fast.machine().printed(), interpreted.machine().printed());
  EXPECT_LT(fast.machine().virtual_nanos(), interpreted.machine().virtual_nanos());
}

TEST_F(DvmEndToEndTest, SignedModeDeliversVerifiableClasses) {
  DvmServerConfig config;
  config.proxy.sign_output = true;
  auto server = MakeServer(config);
  DvmClient client(server.get(), DvmMachineConfig(), MakeEthernet10Mb());
  client.machine().files().Put("/tmp/scratch", "data");
  ASSERT_TRUE(client.RunApp("app/Main").ok());

  auto response = server->proxy().HandleRequest("app/Main");
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(server->proxy().signer().VerifyClassBytes(response->data).ok());
}

// A monitoring-only deployment (verification off, audit on) hands origin code
// straight to a rewriter. A body whose stack grows on every loop trip
// (`iconst_0; goto 0`) must fail the request at the rewriter's max-stack walk
// (an inconsistent merge depth) rather than pin the proxy thread in it.
TEST_F(DvmEndToEndTest, MonitoringOnlyProxyFailsClosedOnStackGrowingLoop) {
  ClassBuilder cb("app/Grow", "java/lang/Object");
  cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "main", "()V").Emit(Op::kReturn);
  ClassFile grow = MustBuild(cb);
  grow.FindMethod("main", "()V")->code->code =
      EncodeCode({{Op::kIconst0, 0, 0}, {Op::kGoto, 0, 0}}).value();
  origin_.AddClassFile(grow);

  DvmServerConfig config;
  config.enable_verification = false;
  config.enable_security = false;
  config.enable_audit = true;
  auto server = MakeServer(config);
  auto start = std::chrono::steady_clock::now();
  auto response = server->proxy().HandleRequest("app/Grow");
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_LT(seconds, 5.0);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.error().code, ErrorCode::kInvalidArgument) << response.error().ToString();
  EXPECT_NE(response.error().message.find("inconsistent stack depth at instruction"),
            std::string::npos)
      << response.error().ToString();

  // The rest of the application is still served.
  EXPECT_TRUE(server->proxy().HandleRequest("app/Main").ok());
}

}  // namespace
}  // namespace dvm
