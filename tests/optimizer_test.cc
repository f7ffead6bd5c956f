#include <gtest/gtest.h>

#include "src/bytecode/builder.h"
#include "src/bytecode/serializer.h"
#include "src/optimizer/repartition.h"
#include "src/runtime/machine.h"
#include "src/runtime/syslib.h"
#include "src/verifier/verifier.h"

namespace dvm {
namespace {

ClassFile MustBuild(ClassBuilder& cb) {
  auto built = cb.Build();
  EXPECT_TRUE(built.ok()) << (built.ok() ? "" : built.error().ToString());
  return std::move(built).value();
}

// A class with one hot method, one cold static method and one cold instance
// method that touches a field.
ClassFile BuildSplittable() {
  ClassBuilder cb("opt/Widget", "java/lang/Object");
  cb.AddField(AccessFlags::kPublic, "value", "I");
  cb.AddDefaultConstructor();

  MethodBuilder& hot = cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "hot",
                                    "(I)I");
  hot.LoadLocal("I", 0).PushInt(1).Emit(Op::kIadd).Emit(Op::kIreturn);

  MethodBuilder& cold = cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic,
                                     "coldStatic", "(I)I");
  cold.LoadLocal("I", 0).PushInt(100).Emit(Op::kImul).Emit(Op::kIreturn);

  MethodBuilder& inst = cb.AddMethod(AccessFlags::kPublic, "coldBump", "(I)I");
  inst.Emit(Op::kAload, 0).Emit(Op::kDup).GetField("opt/Widget", "value", "I");
  inst.Emit(Op::kIload, 1).Emit(Op::kIadd).PutField("opt/Widget", "value", "I");
  inst.Emit(Op::kAload, 0).GetField("opt/Widget", "value", "I").Emit(Op::kIreturn);
  return MustBuild(cb);
}

// Driver that exercises all three methods through the original names.
ClassFile BuildDriver() {
  ClassBuilder cb("opt/Driver", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "go", "(I)I");
  m.LoadLocal("I", 0).InvokeStatic("opt/Widget", "hot", "(I)I").StoreLocal("I", 1);
  m.LoadLocal("I", 1).InvokeStatic("opt/Widget", "coldStatic", "(I)I").StoreLocal("I", 1);
  m.New("opt/Widget").Emit(Op::kDup).InvokeSpecial("opt/Widget", "<init>", "()V");
  m.StoreLocal("Lopt/Widget;", 2);
  m.LoadLocal("Lopt/Widget;", 2).LoadLocal("I", 1).InvokeVirtual("opt/Widget", "coldBump",
                                                                 "(I)I");
  m.Emit(Op::kIreturn);
  return MustBuild(cb);
}

struct SplitResult {
  ClassFile hot;
  std::vector<ClassFile> extra;
  uint64_t methods_moved = 0;
};

SplitResult Split(const TransferProfile& profile) {
  RepartitionFilter filter(&profile);
  ClassFile cls = BuildSplittable();
  MapClassEnv env;
  FilterContext ctx;
  ctx.env = &env;
  auto outcome = filter.Apply(cls, ctx);
  EXPECT_TRUE(outcome.ok()) << (outcome.ok() ? "" : outcome.error().ToString());
  SplitResult result{std::move(cls), {}, 0};
  if (outcome.ok()) {
    result.methods_moved = outcome->checks_performed;
    for (auto& extra : outcome->extra_classes) {
      result.extra.push_back(std::move(extra));
    }
  }
  return result;
}

TEST(RepartitionTest, SplitsColdMethodsIntoCompanionClass) {
  TransferProfile profile;
  profile.MarkUsed("opt/Widget", "hot");
  SplitResult result = Split(profile);

  EXPECT_EQ(result.methods_moved, 2u);
  ASSERT_EQ(result.extra.size(), 1u);
  EXPECT_EQ(result.extra[0].name(), "opt/Widget$cold");
  // Cold class holds static implementations; instance method gained a receiver.
  EXPECT_NE(result.extra[0].FindMethod("coldStatic", "(I)I"), nullptr);
  EXPECT_NE(result.extra[0].FindMethod("coldBump", "(Lopt/Widget;I)I"), nullptr);
  // Hot class keeps stubs under the original signatures.
  EXPECT_NE(result.hot.FindMethod("coldStatic", "(I)I"), nullptr);
  EXPECT_NE(result.hot.FindMethod("coldBump", "(I)I"), nullptr);
  // The companion serializes (the filter no longer sizes its output).
  EXPECT_GT(MustWriteClassFile(result.extra[0]).size(), 0u);
}

TEST(RepartitionTest, NoProfileMeansNoSplit) {
  TransferProfile profile;  // knows nothing about opt/Widget
  SplitResult result = Split(profile);
  EXPECT_EQ(result.methods_moved, 0u);
  EXPECT_TRUE(result.extra.empty());
}

TEST(RepartitionTest, SplitClassesExecuteCorrectly) {
  TransferProfile profile;
  profile.MarkUsed("opt/Widget", "hot");
  SplitResult result = Split(profile);
  ASSERT_EQ(result.extra.size(), 1u);

  MapClassProvider provider;
  InstallSystemLibrary(provider);
  provider.AddClassFile(result.hot);
  provider.AddClassFile(result.extra[0]);
  provider.AddClassFile(BuildDriver());

  Machine machine({}, &provider);
  auto out = machine.CallStatic("opt/Driver", "go", "(I)I", {Value::Int(4)});
  ASSERT_TRUE(out.ok()) << out.error().ToString();
  ASSERT_FALSE(out->threw) << out->exception_class << ": " << out->exception_message;
  // hot(4)=5; coldStatic(5)=500; coldBump(500)=500.
  EXPECT_EQ(out->value.AsInt(), 500);
  // The cold class was actually faulted in.
  EXPECT_NE(machine.registry().FindLoaded("opt/Widget$cold"), nullptr);
}

TEST(RepartitionTest, ColdClassLoadsLazily) {
  TransferProfile profile;
  profile.MarkUsed("opt/Widget", "hot");
  SplitResult result = Split(profile);

  MapClassProvider provider;
  InstallSystemLibrary(provider);
  provider.AddClassFile(result.hot);
  provider.AddClassFile(result.extra[0]);

  ClassBuilder cb("opt/HotOnly", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "go", "(I)I");
  m.LoadLocal("I", 0).InvokeStatic("opt/Widget", "hot", "(I)I").Emit(Op::kIreturn);
  provider.AddClassFile(MustBuild(cb));

  Machine machine({}, &provider);
  auto out = machine.CallStatic("opt/HotOnly", "go", "(I)I", {Value::Int(1)});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->value.AsInt(), 2);
  // Only the hot path ran: the cold class must not have been fetched.
  EXPECT_EQ(machine.registry().FindLoaded("opt/Widget$cold"), nullptr);
}

TEST(RepartitionTest, BothHalvesVerify) {
  TransferProfile profile;
  profile.MarkUsed("opt/Widget", "hot");
  SplitResult result = Split(profile);
  ASSERT_EQ(result.extra.size(), 1u);

  ClassBuilder obj_cb("java/lang/Object", "");
  obj_cb.AddDefaultConstructor();
  ClassFile object = obj_cb.Build().value();
  MapClassEnv env;
  env.Add(&object);
  env.Add(&result.hot);
  env.Add(&result.extra[0]);

  auto hot_ok = VerifyClass(result.hot, env);
  EXPECT_TRUE(hot_ok.ok()) << (hot_ok.ok() ? "" : hot_ok.error().ToString());
  auto cold_ok = VerifyClass(result.extra[0], env);
  EXPECT_TRUE(cold_ok.ok()) << (cold_ok.ok() ? "" : cold_ok.error().ToString());
}

TEST(RepartitionTest, TranspileRemapsConstants) {
  ClassBuilder cb("opt/Src", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "f",
                                  "()Ljava/lang/String;");
  m.PushString("payload").Emit(Op::kAreturn);
  ClassFile src = MustBuild(cb);

  ConstantPool target;
  auto remapped = TranspileCode(src.FindMethod("f", "()Ljava/lang/String;")->code->code,
                                src.pool(), target);
  ASSERT_TRUE(remapped.ok()) << remapped.error().ToString();
  auto decoded = DecodeCode(remapped.value());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ((*decoded)[0].op, Op::kLdc);
  auto str = target.StringAt(static_cast<uint16_t>((*decoded)[0].a));
  ASSERT_TRUE(str.ok());
  EXPECT_EQ(str.value(), "payload");
}

TEST(RepartitionTest, ProfileFromTagsParses) {
  TransferProfile profile(std::vector<std::string>{"a/B.main", "a/B.helper", "c/D.run"});
  EXPECT_TRUE(profile.IsUsed("a/B", "main"));
  EXPECT_TRUE(profile.IsUsed("c/D", "run"));
  EXPECT_FALSE(profile.IsUsed("a/B", "other"));
  EXPECT_TRUE(profile.HasDataFor("a/B"));
  EXPECT_FALSE(profile.HasDataFor("x/Y"));
}

}  // namespace
}  // namespace dvm
