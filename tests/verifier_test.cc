#include <gtest/gtest.h>

#include "src/bytecode/builder.h"
#include "src/verifier/link_checker.h"
#include "src/verifier/typestate.h"
#include "src/verifier/verifier.h"

namespace dvm {
namespace {

ClassFile MustBuild(ClassBuilder& cb) {
  auto built = cb.Build();
  EXPECT_TRUE(built.ok()) << (built.ok() ? "" : built.error().ToString());
  return std::move(built).value();
}

// Minimal library the "proxy side" environment ships: Object, Throwable, String.
class LibFixture {
 public:
  LibFixture() {
    {
      ClassBuilder cb("java/lang/Object", "");
      cb.AddDefaultConstructor();
      object_ = MustBuild(cb);
    }
    {
      ClassBuilder cb("java/lang/Throwable", "java/lang/Object");
      cb.AddDefaultConstructor();
      throwable_ = MustBuild(cb);
    }
    {
      ClassBuilder cb("java/lang/Exception", "java/lang/Throwable");
      cb.AddDefaultConstructor();
      exception_ = MustBuild(cb);
    }
    {
      ClassBuilder cb("java/lang/String", "java/lang/Object");
      cb.AddDefaultConstructor();
      string_ = MustBuild(cb);
    }
    env_.Add(&object_);
    env_.Add(&throwable_);
    env_.Add(&exception_);
    env_.Add(&string_);
  }

  MapClassEnv& env() { return env_; }

 private:
  ClassFile object_, throwable_, exception_, string_;
  MapClassEnv env_;
};

class VerifierTest : public ::testing::Test {
 protected:
  LibFixture lib_;
};

TEST_F(VerifierTest, AcceptsSimpleClass) {
  ClassBuilder cb("app/Simple", "java/lang/Object");
  cb.AddDefaultConstructor();
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic, "add", "(II)I");
  m.LoadLocal("I", 0).LoadLocal("I", 1).Emit(Op::kIadd).Emit(Op::kIreturn);
  ClassFile cls = MustBuild(cb);

  auto result = VerifyClass(cls, lib_.env());
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  EXPECT_GT(result->stats.TotalStaticChecks(), 0u);
  EXPECT_TRUE(result->assumptions.empty());
}

TEST_F(VerifierTest, AcceptsLoopsAndBranches) {
  ClassBuilder cb("app/Loop", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic, "sum", "(I)I");
  Label loop = m.NewLabel(), done = m.NewLabel();
  m.PushInt(0).StoreLocal("I", 1);
  m.PushInt(0).StoreLocal("I", 2);
  m.Bind(loop);
  m.LoadLocal("I", 2).LoadLocal("I", 0).Branch(Op::kIfIcmpge, done);
  m.LoadLocal("I", 1).LoadLocal("I", 2).Emit(Op::kIadd).StoreLocal("I", 1);
  m.Emit(Op::kIinc, 2, 1).Branch(Op::kGoto, loop);
  m.Bind(done).LoadLocal("I", 1).Emit(Op::kIreturn);
  ClassFile cls = MustBuild(cb);
  EXPECT_TRUE(VerifyClass(cls, lib_.env()).ok());
}

TEST_F(VerifierTest, AcceptsLongArithmetic) {
  ClassBuilder cb("app/Longs", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic, "f", "(JJ)J");
  m.LoadLocal("J", 0).LoadLocal("J", 1).Emit(Op::kLadd);
  m.LoadLocal("J", 0).Emit(Op::kLmul).Emit(Op::kLreturn);
  ClassFile cls = MustBuild(cb);
  EXPECT_TRUE(VerifyClass(cls, lib_.env()).ok());
}

TEST_F(VerifierTest, AcceptsObjectConstructionAndFields) {
  ClassBuilder cb("app/Point", "java/lang/Object");
  cb.AddField(AccessFlags::kPublic, "x", "I");
  cb.AddDefaultConstructor();
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic, "make", "(I)Lapp/Point;");
  m.New("app/Point").Emit(Op::kDup).InvokeSpecial("app/Point", "<init>", "()V");
  m.Emit(Op::kDup).LoadLocal("I", 0).PutField("app/Point", "x", "I");
  m.Emit(Op::kAreturn);
  ClassFile cls = MustBuild(cb);
  auto result = VerifyClass(cls, lib_.env());
  ASSERT_TRUE(result.ok()) << result.error().ToString();
}

TEST_F(VerifierTest, AcceptsArrays) {
  ClassBuilder cb("app/Arr", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic, "f", "(I)I");
  m.LoadLocal("I", 0).Emit(Op::kNewarray, static_cast<int>(ArrayKind::kInt));
  m.StoreLocal("[I", 1);
  m.LoadLocal("[I", 1).PushInt(0).PushInt(42).Emit(Op::kIastore);
  m.LoadLocal("[I", 1).PushInt(0).Emit(Op::kIaload).Emit(Op::kIreturn);
  ClassFile cls = MustBuild(cb);
  auto r = VerifyClass(cls, lib_.env());
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().ToString());
}

TEST_F(VerifierTest, AcceptsExceptionHandlers) {
  ClassBuilder cb("app/Catcher", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic, "f", "()I");
  Label start = m.NewLabel(), end = m.NewLabel(), handler = m.NewLabel();
  m.Bind(start);
  m.New("java/lang/Exception").Emit(Op::kDup);
  m.InvokeSpecial("java/lang/Exception", "<init>", "()V");
  m.Emit(Op::kAthrow);
  m.Bind(end);
  m.Bind(handler);
  m.StoreLocal("Ljava/lang/Exception;", 0);
  m.PushInt(1).Emit(Op::kIreturn);
  m.AddHandler(start, end, handler, "java/lang/Exception");
  ClassFile cls = MustBuild(cb);
  auto r = VerifyClass(cls, lib_.env());
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().ToString());
}

// --- Phase 1 rejections -----------------------------------------------------

TEST_F(VerifierTest, RejectsMissingSuperclass) {
  ClassBuilder cb("app/NoSuper", "");
  ClassFile cls = MustBuild(cb);
  auto r = VerifyClass(cls, lib_.env());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kVerifyError);
}

TEST_F(VerifierTest, RejectsDuplicateMethods) {
  ClassBuilder cb("app/Dup", "java/lang/Object");
  cb.AddMethod(AccessFlags::kStatic, "f", "()V").Emit(Op::kReturn);
  cb.AddMethod(AccessFlags::kStatic, "f", "()V").Emit(Op::kReturn);
  ClassFile cls = MustBuild(cb);
  EXPECT_FALSE(VerifyClass(cls, lib_.env()).ok());
}

TEST_F(VerifierTest, RejectsMalformedFieldDescriptor) {
  ClassBuilder cb("app/BadField", "java/lang/Object");
  cb.AddField(AccessFlags::kPublic, "f", "Q");
  ClassFile cls = MustBuild(cb);
  EXPECT_FALSE(VerifyClass(cls, lib_.env()).ok());
}

TEST_F(VerifierTest, RejectsStaticConstructor) {
  ClassBuilder cb("app/BadCtor", "java/lang/Object");
  cb.AddMethod(AccessFlags::kStatic, "<init>", "()V").Emit(Op::kReturn);
  ClassFile cls = MustBuild(cb);
  EXPECT_FALSE(VerifyClass(cls, lib_.env()).ok());
}

TEST_F(VerifierTest, RejectsExtendingFinalClass) {
  ClassBuilder fb("app/Final", "java/lang/Object",
                  AccessFlags::kPublic | AccessFlags::kFinal);
  ClassFile final_cls = MustBuild(fb);
  MapClassEnv env = lib_.env();
  env.Add(&final_cls);

  ClassBuilder cb("app/Sub", "app/Final");
  ClassFile cls = MustBuild(cb);
  EXPECT_FALSE(VerifyClass(cls, env).ok());
}

// --- Phase 2 rejections -----------------------------------------------------

TEST_F(VerifierTest, RejectsLocalIndexOutOfBounds) {
  // Hand-assemble: iload 200 in a method with few locals.
  ClassBuilder cb("app/BadLocal", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic, "f", "()V");
  m.Emit(Op::kReturn);
  ClassFile cls = MustBuild(cb);
  MethodInfo* method = cls.FindMethod("f", "()V");
  method->code->code = {static_cast<uint8_t>(Op::kIload), 200,
                        static_cast<uint8_t>(Op::kReturn)};
  method->code->max_locals = 1;
  method->code->max_stack = 4;
  EXPECT_FALSE(VerifyClass(cls, lib_.env()).ok());
}

TEST_F(VerifierTest, RejectsFallOffEnd) {
  ClassBuilder cb("app/FallOff", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic, "f", "()V");
  m.Emit(Op::kReturn);
  ClassFile cls = MustBuild(cb);
  MethodInfo* method = cls.FindMethod("f", "()V");
  method->code->code = {static_cast<uint8_t>(Op::kNop)};
  EXPECT_FALSE(VerifyClass(cls, lib_.env()).ok());
}

// Exception-table pcs are u16 wire values: each of start, end and handler
// must land on an instruction boundary within the body (end may also be the
// code length). Out-of-range pcs such as 0xFFFF on a 4-byte body must be
// rejected, not used to index the offset table. (A mid-instruction handler_pc
// is VerifierHandlerRejection.HandlerPcMidInstruction.)
TEST_F(VerifierTest, RejectsHandlerPcsOffBoundaryOrOutOfRange) {
  auto verify_with = [&](std::vector<uint8_t> code, ExceptionHandler h) {
    ClassBuilder cb("app/BadHandler", "java/lang/Object");
    cb.AddMethod(AccessFlags::kStatic, "f", "()V").Emit(Op::kReturn);
    ClassFile cls = MustBuild(cb);
    MethodInfo* method = cls.FindMethod("f", "()V");
    method->code->code = std::move(code);
    method->code->max_stack = 4;
    method->code->max_locals = 2;
    method->code->handlers = {h};
    return VerifyClass(cls, lib_.env());
  };
  // bipush 5 @0, pop @2, return @3; code length 4.
  const std::vector<uint8_t> body = {static_cast<uint8_t>(Op::kBipush), 5,
                                     static_cast<uint8_t>(Op::kPop),
                                     static_cast<uint8_t>(Op::kReturn)};
  const ExceptionHandler bad[] = {
      {/*start=*/1, /*end=*/3, /*handler=*/3, 0},            // start mid-instruction
      {/*start=*/0, /*end=*/1, /*handler=*/3, 0},            // end mid-instruction
      {/*start=*/0xFFFF, /*end=*/0xFFFF, /*handler=*/3, 0},  // start past the end
      {/*start=*/4, /*end=*/0xFFFF, /*handler=*/3, 0},       // start at the code length
      {/*start=*/0, /*end=*/0xFFFF, /*handler=*/3, 0},       // end past the end
      {/*start=*/0, /*end=*/5, /*handler=*/3, 0},            // end just past the end
      {/*start=*/0, /*end=*/3, /*handler=*/0xFFFF, 0},       // handler past the end
      {/*start=*/0, /*end=*/3, /*handler=*/4, 0},            // handler at the code length
  };
  for (const ExceptionHandler& h : bad) {
    SCOPED_TRACE(testing::Message() << h.start_pc << "/" << h.end_pc << "/" << h.handler_pc);
    auto r = verify_with(body, h);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::kVerifyError) << r.error().ToString();
  }
  // A range ending at the code length is well-formed. nop @0, return @1,
  // handler: pop @2, return @3.
  const std::vector<uint8_t> guarded = {
      static_cast<uint8_t>(Op::kNop), static_cast<uint8_t>(Op::kReturn),
      static_cast<uint8_t>(Op::kPop), static_cast<uint8_t>(Op::kReturn)};
  auto r = verify_with(guarded, {/*start=*/0, /*end=*/4, /*handler=*/2, 0});
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().ToString());
}

TEST_F(VerifierTest, RejectsWrongCpTagOperand) {
  ClassBuilder cb("app/BadCp", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic, "f", "()V");
  m.Emit(Op::kReturn);
  ClassFile cls = MustBuild(cb);
  uint16_t str = cls.pool().AddString("hello");
  MethodInfo* method = cls.FindMethod("f", "()V");
  // invokestatic pointed at a String entry.
  method->code->code = {static_cast<uint8_t>(Op::kInvokestatic),
                        static_cast<uint8_t>(str >> 8), static_cast<uint8_t>(str),
                        static_cast<uint8_t>(Op::kReturn)};
  method->code->max_stack = 4;
  EXPECT_FALSE(VerifyClass(cls, lib_.env()).ok());
}

// --- Phase 3 rejections -----------------------------------------------------

TEST_F(VerifierTest, RejectsIntWhereLongExpected) {
  ClassBuilder cb("app/TypeClash", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic, "f", "(I)J");
  m.LoadLocal("I", 0).Emit(Op::kLreturn);  // lreturn with int on stack
  ClassFile cls = MustBuild(cb);
  auto r = VerifyClass(cls, lib_.env());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kVerifyError);
}

TEST_F(VerifierTest, RejectsStackUnderflow) {
  ClassBuilder cb("app/Underflow", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic, "f", "()V");
  m.Emit(Op::kReturn);
  ClassFile cls = MustBuild(cb);
  MethodInfo* method = cls.FindMethod("f", "()V");
  method->code->code = {static_cast<uint8_t>(Op::kPop), static_cast<uint8_t>(Op::kReturn)};
  method->code->max_stack = 4;
  EXPECT_FALSE(VerifyClass(cls, lib_.env()).ok());
}

TEST_F(VerifierTest, RejectsArithmeticOnReference) {
  ClassBuilder cb("app/RefMath", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic, "f", "(Ljava/lang/String;)I");
  m.LoadLocal("Ljava/lang/String;", 0).PushInt(1).Emit(Op::kIadd).Emit(Op::kIreturn);
  ClassFile cls = MustBuild(cb);
  EXPECT_FALSE(VerifyClass(cls, lib_.env()).ok());
}

TEST_F(VerifierTest, RejectsUseOfUninitializedObject) {
  // new without <init>, then passed as an argument.
  ClassBuilder cb("app/Uninit", "java/lang/Object");
  MethodBuilder& sink = cb.AddMethod(AccessFlags::kStatic, "sink", "(Ljava/lang/Object;)V");
  sink.Emit(Op::kReturn);
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic, "f", "()V");
  m.New("java/lang/Object");
  m.InvokeStatic("app/Uninit", "sink", "(Ljava/lang/Object;)V");
  m.Emit(Op::kReturn);
  ClassFile cls = MustBuild(cb);
  EXPECT_FALSE(VerifyClass(cls, lib_.env()).ok());
}

TEST_F(VerifierTest, AcceptsInitializedObjectAfterConstructor) {
  ClassBuilder cb("app/Init", "java/lang/Object");
  MethodBuilder& sink = cb.AddMethod(AccessFlags::kStatic, "sink", "(Ljava/lang/Object;)V");
  sink.Emit(Op::kReturn);
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic, "f", "()V");
  m.New("java/lang/Object").Emit(Op::kDup);
  m.InvokeSpecial("java/lang/Object", "<init>", "()V");
  m.InvokeStatic("app/Init", "sink", "(Ljava/lang/Object;)V");
  m.Emit(Op::kReturn);
  ClassFile cls = MustBuild(cb);
  auto r = VerifyClass(cls, lib_.env());
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().ToString());
}

TEST_F(VerifierTest, RejectsInconsistentMergeUse) {
  // One path leaves an int in local 1, the other a reference; using it as a
  // reference afterwards must fail.
  ClassBuilder cb("app/BadMerge", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic, "f", "(I)Ljava/lang/Object;");
  Label else_branch = m.NewLabel(), join = m.NewLabel();
  m.LoadLocal("I", 0).Branch(Op::kIfeq, else_branch);
  m.PushInt(5).StoreLocal("I", 1).Branch(Op::kGoto, join);
  m.Bind(else_branch);
  m.PushNull().StoreLocal("Ljava/lang/Object;", 1);
  m.Bind(join);
  m.LoadLocal("Ljava/lang/Object;", 1).Emit(Op::kAreturn);
  ClassFile cls = MustBuild(cb);
  EXPECT_FALSE(VerifyClass(cls, lib_.env()).ok());
}

TEST_F(VerifierTest, RejectsWrongReturnKind) {
  ClassBuilder cb("app/WrongRet", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic, "f", "()V");
  m.PushInt(1).Emit(Op::kIreturn);
  ClassFile cls = MustBuild(cb);
  EXPECT_FALSE(VerifyClass(cls, lib_.env()).ok());
}

TEST_F(VerifierTest, RejectsFieldDescriptorMismatchInKnownClass) {
  ClassBuilder cb("app/FieldClash", "java/lang/Object");
  cb.AddField(AccessFlags::kStatic | AccessFlags::kPublic, "x", "I");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic, "f", "()J");
  // getstatic declares J but the class declares I. Verify against an env that
  // contains the class itself.
  m.Emit(Op::kGetstatic, cb.pool().AddFieldRef("app/FieldClash", "x", "J"));
  m.Emit(Op::kLreturn);
  ClassFile cls = MustBuild(cb);
  MapClassEnv env = lib_.env();
  env.Add(&cls);
  EXPECT_FALSE(VerifyClass(cls, env).ok());
}

// --- Assumption collection ---------------------------------------------------

TEST_F(VerifierTest, RecordsFieldAssumptionForUnknownClass) {
  ClassBuilder cb("app/UsesRemote", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic, "main", "()V");
  m.GetStatic("java/lang/System", "out", "Ljava/io/OutputStream;");
  m.PushString("hello world");
  m.InvokeVirtual("java/io/OutputStream", "println", "(Ljava/lang/String;)V");
  m.Emit(Op::kReturn);
  ClassFile cls = MustBuild(cb);

  auto r = VerifyClass(cls, lib_.env());
  ASSERT_TRUE(r.ok()) << r.error().ToString();
  bool saw_field = false, saw_method = false;
  for (const auto& a : r->assumptions) {
    if (a.kind == AssumptionKind::kFieldExists && a.target_class == "java/lang/System" &&
        a.member_name == "out") {
      saw_field = true;
      EXPECT_EQ(a.scope, AssumptionScope::kMethod);
      EXPECT_EQ(a.method_id, "main:()V");
    }
    if (a.kind == AssumptionKind::kMethodExists &&
        a.target_class == "java/io/OutputStream" && a.member_name == "println") {
      saw_method = true;
    }
  }
  EXPECT_TRUE(saw_field);
  EXPECT_TRUE(saw_method);
}

TEST_F(VerifierTest, RecordsClassScopedInheritanceAssumption) {
  ClassBuilder cb("app/Applet", "remote/Base");
  ClassFile cls = MustBuild(cb);
  auto r = VerifyClass(cls, lib_.env());
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->assumptions.empty());
  const Assumption& a = r->assumptions.front();
  EXPECT_EQ(a.kind, AssumptionKind::kClassExists);
  EXPECT_EQ(a.scope, AssumptionScope::kClass);
  EXPECT_EQ(a.target_class, "remote/Base");
}

TEST_F(VerifierTest, DeduplicatesAssumptions) {
  ClassBuilder cb("app/ManyUses", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic, "f", "()V");
  for (int i = 0; i < 5; i++) {
    m.GetStatic("remote/Config", "value", "I").Emit(Op::kPop);
  }
  m.Emit(Op::kReturn);
  ClassFile cls = MustBuild(cb);
  auto r = VerifyClass(cls, lib_.env());
  ASSERT_TRUE(r.ok());
  int field_assumptions = 0;
  for (const auto& a : r->assumptions) {
    if (a.kind == AssumptionKind::kFieldExists) {
      field_assumptions++;
    }
  }
  EXPECT_EQ(field_assumptions, 1);
}

TEST_F(VerifierTest, CountsChecksMonotonically) {
  ClassBuilder small_b("app/Small", "java/lang/Object");
  small_b.AddMethod(AccessFlags::kStatic, "f", "()V").Emit(Op::kReturn);
  ClassFile small = MustBuild(small_b);

  ClassBuilder big_b("app/Big", "java/lang/Object");
  MethodBuilder& m = big_b.AddMethod(AccessFlags::kStatic, "f", "()I");
  m.PushInt(0);
  for (int i = 0; i < 200; i++) {
    m.PushInt(i).Emit(Op::kIadd);
  }
  m.Emit(Op::kIreturn);
  ClassFile big = MustBuild(big_b);

  auto rs = VerifyClass(small, lib_.env());
  auto rb = VerifyClass(big, lib_.env());
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_GT(rb->stats.TotalStaticChecks(), rs->stats.TotalStaticChecks());
  EXPECT_GT(rb->stats.instructions_verified, 200u);
}

// --- Typestate unit behaviour -------------------------------------------------

TEST_F(VerifierTest, MergeOfSiblingsIsCommonAncestor) {
  ClassBuilder a("app/A", "java/lang/Object");
  ClassFile cls_a = MustBuild(a);
  ClassBuilder b("app/B", "app/A");
  ClassFile cls_b = MustBuild(b);
  ClassBuilder c("app/C", "app/A");
  ClassFile cls_c = MustBuild(c);
  MapClassEnv env = lib_.env();
  env.Add(&cls_a);
  env.Add(&cls_b);
  env.Add(&cls_c);
  TypeEnv t(env);

  VType merged = MergeTypes(t.Ref("app/B"), t.Ref("app/C"), t);
  EXPECT_EQ(merged, t.Ref("app/A"));
}

TEST_F(VerifierTest, MergeWithNullKeepsRef) {
  MapClassEnv env;
  TypeEnv t(env);
  EXPECT_EQ(MergeTypes(VType::Null(), t.Ref("x/Y"), t), t.Ref("x/Y"));
  EXPECT_EQ(MergeTypes(VType::Int(), t.Ref("x/Y"), t).kind, VType::Kind::kTop);
  EXPECT_EQ(MergeTypes(VType::Int(), VType::Long(), t).kind, VType::Kind::kTop);
}

TEST_F(VerifierTest, AssignabilityAnswers) {
  TypeEnv t(lib_.env());
  EXPECT_EQ(IsAssignable(VType::Null(), t.Intern("anything/AtAll"), t), Assignability::kYes);
  EXPECT_EQ(IsAssignable(t.Ref("java/lang/Exception"), t.Intern("java/lang/Throwable"), t),
            Assignability::kYes);
  EXPECT_EQ(IsAssignable(t.Ref("java/lang/String"), t.Intern("java/lang/Throwable"), t),
            Assignability::kNo);
  EXPECT_EQ(IsAssignable(t.Ref("unknown/Cls"), t.Intern("java/lang/Throwable"), t),
            Assignability::kUnknown);
  EXPECT_EQ(IsAssignable(t.Ref("[I"), t.Intern("java/lang/Object"), t),
            Assignability::kYes);
  EXPECT_EQ(IsAssignable(t.Ref("[I"), t.Intern("[J"), t), Assignability::kNo);
  EXPECT_EQ(IsAssignable(t.Ref("[I"), t.Intern("[I"), t), Assignability::kYes);
}

// The certificate validator's shadow joins fold incoming edges in whatever
// order the forward walk produces them, while the fixpoint folds them in
// worklist order — identical results require MergeTypes to be commutative.
// The old deep/shallow candidate selection depended on argument order on
// degenerate (cyclic) hierarchies.
TEST_F(VerifierTest, MergeTypesIsCommutative) {
  ClassBuilder a("app/CycA", "app/CycB");
  ClassFile cls_a = MustBuild(a);
  ClassBuilder b("app/CycB", "app/CycA");
  ClassFile cls_b = MustBuild(b);
  ClassBuilder c("app/Leaf", "app/CycA");
  ClassFile cls_c = MustBuild(c);
  MapClassEnv env = lib_.env();
  env.Add(&cls_a);
  env.Add(&cls_b);
  env.Add(&cls_c);
  TypeEnv t(env);

  const VType samples[] = {
      VType::Top(),           VType::Int(),
      VType::Long(),          VType::Null(),
      t.Ref("app/CycA"), t.Ref("app/CycB"),
      t.Ref("app/Leaf"), t.Ref("java/lang/Object"),
      t.Ref("no/Such"),  VType::Uninit(t.Intern("app/CycA"), 3),
  };
  for (const VType& x : samples) {
    for (const VType& y : samples) {
      // Must terminate on the cycle, and must not depend on argument order.
      EXPECT_EQ(MergeTypes(x, y, t), MergeTypes(y, x, t))
          << t.ToString(x) << " vs " << t.ToString(y);
    }
  }
}

// An inconsistent stack depth at a merge point must still merge the LOCALS —
// the old early return skipped them, so the verdict depended on which edge
// the worklist happened to process first (found by the certificate
// differential oracle).
TEST_F(VerifierTest, MergeFramesMergesLocalsOnStackDepthMismatch) {
  MapClassEnv env;
  TypeEnv t(env);
  Frame into;
  into.locals = {VType::Int()};
  into.stack = {VType::Int()};
  Frame from;
  from.locals = {t.Ref("x/Y")};
  from.stack = {};

  bool changed = false;
  MergeFrames(into, from, t, &changed);
  EXPECT_TRUE(changed);
  EXPECT_EQ(into.locals[0], VType::Top());  // Int ⊔ Ref, no longer dropped
  // The depth conflict itself surfaces as Top entries that fail the next use.
  ASSERT_EQ(into.stack.size(), 1u);
  EXPECT_EQ(into.stack[0], VType::Top());
}

// FitsInto is the validator's ⊑: a ⊑ b iff merging a into b leaves b fixed.
TEST_F(VerifierTest, FitsIntoMatchesMergeLattice) {
  ClassBuilder a("app/A", "java/lang/Object");
  ClassFile cls_a = MustBuild(a);
  ClassBuilder b("app/B", "app/A");
  ClassFile cls_b = MustBuild(b);
  MapClassEnv env = lib_.env();
  env.Add(&cls_a);
  env.Add(&cls_b);
  TypeEnv t(env);

  EXPECT_TRUE(FitsInto(t.Ref("app/B"), t.Ref("app/A"), t));
  EXPECT_FALSE(FitsInto(t.Ref("app/A"), t.Ref("app/B"), t));
  EXPECT_TRUE(FitsInto(VType::Null(), t.Ref("app/A"), t));
  EXPECT_TRUE(FitsInto(VType::Int(), VType::Top(), t));
  EXPECT_FALSE(FitsInto(VType::Top(), VType::Int(), t));
  EXPECT_TRUE(FitsInto(VType::Int(), VType::Int(), t));

  Frame wide;
  wide.locals = {t.Ref("app/A")};
  Frame narrow;
  narrow.locals = {t.Ref("app/B")};
  EXPECT_TRUE(FrameFits(narrow, wide, t));
  EXPECT_FALSE(FrameFits(wide, narrow, t));
  Frame deeper = narrow;
  deeper.stack.push_back(VType::Int());
  EXPECT_FALSE(FrameFits(deeper, wide, t));  // shape mismatch never fits
}

// --- Link checker (phase 4) ----------------------------------------------------

class LinkCheckerTest : public ::testing::Test {
 protected:
  LibFixture lib_;
  LinkCheckStats stats_;
};

TEST_F(LinkCheckerTest, ClassExistsPassesAndFails) {
  Assumption a;
  a.kind = AssumptionKind::kClassExists;
  a.target_class = "java/lang/String";
  EXPECT_TRUE(CheckAssumption(a, lib_.env(), &stats_).ok());
  a.target_class = "no/Such";
  auto r = CheckAssumption(a, lib_.env(), &stats_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kLinkError);
  EXPECT_GE(stats_.dynamic_checks, 2u);
}

TEST_F(LinkCheckerTest, FieldExistsChecksDescriptor) {
  ClassBuilder cb("app/HasField", "java/lang/Object");
  cb.AddField(AccessFlags::kPublic, "x", "I");
  ClassFile cls = MustBuild(cb);
  MapClassEnv env = lib_.env();
  env.Add(&cls);

  Assumption a;
  a.kind = AssumptionKind::kFieldExists;
  a.target_class = "app/HasField";
  a.member_name = "x";
  a.descriptor = "I";
  EXPECT_TRUE(CheckAssumption(a, env, &stats_).ok());
  a.descriptor = "J";
  EXPECT_FALSE(CheckAssumption(a, env, &stats_).ok());
  a.member_name = "y";
  a.descriptor = "I";
  EXPECT_FALSE(CheckAssumption(a, env, &stats_).ok());
}

TEST_F(LinkCheckerTest, FieldInheritedFromSuperFound) {
  ClassBuilder base("app/Base", "java/lang/Object");
  base.AddField(AccessFlags::kPublic, "x", "I");
  ClassFile base_cls = MustBuild(base);
  ClassBuilder sub("app/Sub", "app/Base");
  ClassFile sub_cls = MustBuild(sub);
  MapClassEnv env = lib_.env();
  env.Add(&base_cls);
  env.Add(&sub_cls);

  Assumption a;
  a.kind = AssumptionKind::kFieldExists;
  a.target_class = "app/Sub";
  a.member_name = "x";
  a.descriptor = "I";
  EXPECT_TRUE(CheckAssumption(a, env, &stats_).ok());
}

TEST_F(LinkCheckerTest, MethodExistsMatchesExactDescriptor) {
  ClassBuilder cb("app/HasMethod", "java/lang/Object");
  cb.AddMethod(AccessFlags::kStatic, "f", "(I)I").LoadLocal("I", 0).Emit(Op::kIreturn);
  ClassFile cls = MustBuild(cb);
  MapClassEnv env = lib_.env();
  env.Add(&cls);

  Assumption a;
  a.kind = AssumptionKind::kMethodExists;
  a.target_class = "app/HasMethod";
  a.member_name = "f";
  a.descriptor = "(I)I";
  EXPECT_TRUE(CheckAssumption(a, env, &stats_).ok());
  a.descriptor = "(J)I";
  EXPECT_FALSE(CheckAssumption(a, env, &stats_).ok());
}

TEST_F(LinkCheckerTest, AssignableWalksHierarchy) {
  Assumption a;
  a.kind = AssumptionKind::kAssignable;
  a.target_class = "java/lang/Exception";
  a.expected_class = "java/lang/Throwable";
  EXPECT_TRUE(CheckAssumption(a, lib_.env(), &stats_).ok());
  a.target_class = "java/lang/String";
  EXPECT_FALSE(CheckAssumption(a, lib_.env(), &stats_).ok());
}

TEST_F(LinkCheckerTest, IsSubclassOfHandlesInterfaces) {
  ClassBuilder iface("app/Runnable", "java/lang/Object",
                     AccessFlags::kPublic | AccessFlags::kInterface);
  ClassFile iface_cls = MustBuild(iface);
  ClassBuilder impl("app/Task", "java/lang/Object");
  impl.AddInterface("app/Runnable");
  ClassFile impl_cls = MustBuild(impl);
  MapClassEnv env = lib_.env();
  env.Add(&iface_cls);
  env.Add(&impl_cls);

  auto r = IsSubclassOf("app/Task", "app/Runnable", env);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value());
  auto r2 = IsSubclassOf("app/Task", "java/lang/String", env);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2.value());
}

TEST_F(LinkCheckerTest, CheckAssumptionsStopsAtFirstFailure) {
  std::vector<Assumption> assumptions(2);
  assumptions[0].kind = AssumptionKind::kClassExists;
  assumptions[0].target_class = "no/Such";
  assumptions[1].kind = AssumptionKind::kClassExists;
  assumptions[1].target_class = "java/lang/String";
  EXPECT_FALSE(CheckAssumptions(assumptions, lib_.env(), &stats_).ok());
}

}  // namespace
}  // namespace dvm
