#include <gtest/gtest.h>

#include "src/bytecode/builder.h"
#include "src/compiler/compiler.h"
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

int RunStatic(const ClassFile& cls, const std::string& method, int arg) {
  MapClassProvider provider;
  InstallSystemLibrary(provider);
  provider.AddClassFile(cls);
  Machine machine({}, &provider);
  auto out = machine.CallStatic(cls.name(), method, "(I)I", {Value::Int(arg)});
  EXPECT_TRUE(out.ok()) << (out.ok() ? "" : out.error().ToString());
  EXPECT_FALSE(out->threw) << out->exception_class;
  return out->value.AsInt();
}

TEST(PeepholeTest, FoldsConstantArithmetic) {
  ConstantPool pool;
  std::vector<Instr> code = {
      {Op::kBipush, 10, 0}, {Op::kBipush, 32, 0}, {Op::kIadd, 0, 0}, {Op::kIreturn, 0, 0}};
  CompileStats stats;
  auto changed = PeepholeOptimize(&code, pool, &stats);
  ASSERT_TRUE(changed.ok());
  EXPECT_TRUE(changed.value());
  EXPECT_EQ(stats.folds, 1u);
  // First instruction now pushes 42.
  EXPECT_EQ(code[0].op, Op::kBipush);
  EXPECT_EQ(code[0].a, 42);
  EXPECT_EQ(code[1].op, Op::kNop);
  EXPECT_EQ(code[2].op, Op::kNop);
}

TEST(PeepholeTest, CascadesFolds) {
  ConstantPool pool;
  // (2 + 3) * 4 as a constant expression.
  std::vector<Instr> code = {{Op::kBipush, 2, 0}, {Op::kBipush, 3, 0}, {Op::kIadd, 0, 0},
                             {Op::kBipush, 4, 0}, {Op::kImul, 0, 0},   {Op::kIreturn, 0, 0}};
  CompileStats stats;
  auto changed = PeepholeOptimize(&code, pool, &stats);
  ASSERT_TRUE(changed.ok());
  EXPECT_TRUE(changed.value());
  EXPECT_GE(stats.folds, 1u);
}

TEST(PeepholeTest, StrengthReducesPowerOfTwoMultiply) {
  ConstantPool pool;
  std::vector<Instr> code = {
      {Op::kIload, 0, 0}, {Op::kBipush, 8, 0}, {Op::kImul, 0, 0}, {Op::kIreturn, 0, 0}};
  CompileStats stats;
  auto changed = PeepholeOptimize(&code, pool, &stats);
  ASSERT_TRUE(changed.ok());
  EXPECT_TRUE(changed.value());
  EXPECT_EQ(stats.reductions, 1u);
  EXPECT_EQ(code[1].a, 3);  // shift count
  EXPECT_EQ(code[2].op, Op::kIshl);
}

TEST(PeepholeTest, RespectsBranchTargets) {
  ConstantPool pool;
  // A branch lands between the two pushes: folding would change behaviour.
  std::vector<Instr> code = {
      {Op::kGoto, 2, 0},     // jump straight to the second push
      {Op::kBipush, 10, 0},  // dead-ish entry
      {Op::kBipush, 32, 0},
      {Op::kIreturn, 0, 0},
  };
  CompileStats stats;
  auto changed = PeepholeOptimize(&code, pool, &stats);
  ASSERT_TRUE(changed.ok());
  EXPECT_EQ(stats.folds, 0u);
}

TEST(CompilerFilterTest, PreservesSemantics) {
  ClassBuilder cb("cc/Math", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "f", "(I)I");
  // x * 16 + (5 + 7)
  m.LoadLocal("I", 0).PushInt(16).Emit(Op::kImul);
  m.PushInt(5).PushInt(7).Emit(Op::kIadd).Emit(Op::kIadd);
  m.Emit(Op::kIreturn);
  ClassFile cls = MustBuild(cb);
  int before = RunStatic(cls, "f", 3);
  EXPECT_EQ(before, 60);

  CompilerFilter filter("x86");
  FilterContext ctx;
  MapClassEnv env;
  ctx.env = &env;
  auto outcome = filter.Apply(cls, ctx);
  ASSERT_TRUE(outcome.ok()) << outcome.error().ToString();
  EXPECT_TRUE(outcome->modified);
  EXPECT_GT(outcome->sites_rewritten, 0u);

  EXPECT_EQ(RunStatic(cls, "f", 3), 60);
  const Attribute* stamp = cls.FindAttribute(kAttrCompiledStamp);
  ASSERT_NE(stamp, nullptr);
  EXPECT_EQ(std::string(stamp->data.begin(), stamp->data.end()), "x86");
}

TEST(CompilerFilterTest, CompiledCodeRunsFasterOnVirtualClock) {
  auto build = [] {
    ClassBuilder cb("cc/Loop", "java/lang/Object");
    MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "f", "(I)I");
    Label loop = m.NewLabel(), done = m.NewLabel();
    m.PushInt(0).StoreLocal("I", 1);
    m.Bind(loop).LoadLocal("I", 0).Branch(Op::kIfle, done);
    m.LoadLocal("I", 1).PushInt(3).Emit(Op::kIadd).StoreLocal("I", 1);
    m.Emit(Op::kIinc, 0, -1).Branch(Op::kGoto, loop);
    m.Bind(done).LoadLocal("I", 1).Emit(Op::kIreturn);
    return cb.Build().value();
  };

  auto time_run = [](const ClassFile& cls) {
    MapClassProvider provider;
    InstallSystemLibrary(provider);
    provider.AddClassFile(cls);
    Machine machine({}, &provider);
    auto out = machine.CallStatic("cc/Loop", "f", "(I)I", {Value::Int(5000)});
    EXPECT_TRUE(out.ok());
    return machine.virtual_nanos();
  };

  ClassFile interpreted = build();
  uint64_t slow = time_run(interpreted);

  ClassFile compiled = build();
  CompilerFilter filter("x86");
  FilterContext ctx;
  MapClassEnv env;
  ctx.env = &env;
  ASSERT_TRUE(filter.Apply(compiled, ctx).ok());
  uint64_t fast = time_run(compiled);

  EXPECT_LT(fast * 2, slow);  // at least 2x faster on the virtual clock
}

TEST(CompilerFilterTest, OutputStillVerifies) {
  ClassBuilder cb("cc/V", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "f", "(I)I");
  m.LoadLocal("I", 0).PushInt(4).Emit(Op::kImul).PushInt(2).PushInt(3).Emit(Op::kIadd)
      .Emit(Op::kIadd).Emit(Op::kIreturn);
  ClassFile cls = MustBuild(cb);
  CompilerFilter filter("alpha");
  FilterContext ctx;
  MapClassEnv env;
  ctx.env = &env;
  ASSERT_TRUE(filter.Apply(cls, ctx).ok());

  ClassBuilder obj_cb("java/lang/Object", "");
  obj_cb.AddDefaultConstructor();
  ClassFile object = obj_cb.Build().value();
  MapClassEnv verify_env;
  verify_env.Add(&object);
  auto verified = VerifyClass(cls, verify_env);
  EXPECT_TRUE(verified.ok()) << (verified.ok() ? "" : verified.error().ToString());
}

TEST(CompilerFilterTest, SkipsSystemClasses) {
  ClassBuilder cb("java/lang/Fake", "java/lang/Object");
  ClassFile cls = MustBuild(cb);
  CompilerFilter filter("x86");
  FilterContext ctx;
  MapClassEnv env;
  ctx.env = &env;
  auto outcome = filter.Apply(cls, ctx);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->modified);
  EXPECT_EQ(cls.FindAttribute(kAttrCompiledStamp), nullptr);
}

}  // namespace
}  // namespace dvm
