#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "src/bytecode/builder.h"
#include "src/bytecode/code.h"
#include "src/bytecode/constant_pool.h"
#include "src/bytecode/descriptor.h"
#include "src/bytecode/disasm.h"
#include "src/bytecode/opcodes.h"
#include "src/bytecode/serializer.h"
#include "src/bytecode/stack_effect.h"

namespace dvm {
namespace {

TEST(OpcodesTest, MetadataPresentForAllOps) {
  EXPECT_NE(GetOpInfo(Op::kNop), nullptr);
  EXPECT_NE(GetOpInfo(Op::kInvokevirtual), nullptr);
  EXPECT_EQ(GetOpInfo(static_cast<Op>(0xFE)), nullptr);
}

// Every opcode byte the instruction set assigns (opcodes.h), listed here
// independently of the table GetOpInfo reads.
constexpr Op kInstructionSet[] = {
    Op::kNop,           Op::kAconstNull,    Op::kIconst0,        Op::kIconst1,
    Op::kBipush,        Op::kSipush,        Op::kLdc,            Op::kIload,
    Op::kLload,         Op::kAload,         Op::kIstore,         Op::kLstore,
    Op::kAstore,        Op::kIaload,        Op::kLaload,         Op::kAaload,
    Op::kIastore,       Op::kLastore,       Op::kAastore,        Op::kPop,
    Op::kDup,           Op::kDupX1,         Op::kSwap,           Op::kIadd,
    Op::kLadd,          Op::kIsub,          Op::kLsub,           Op::kImul,
    Op::kLmul,          Op::kIdiv,          Op::kLdiv,           Op::kIrem,
    Op::kLrem,          Op::kIneg,          Op::kLneg,           Op::kIshl,
    Op::kIshr,          Op::kIushr,         Op::kIand,           Op::kIor,
    Op::kIxor,          Op::kIinc,          Op::kI2l,            Op::kL2i,
    Op::kLcmp,          Op::kIfeq,          Op::kIfne,           Op::kIflt,
    Op::kIfge,          Op::kIfgt,          Op::kIfle,           Op::kIfIcmpeq,
    Op::kIfIcmpne,      Op::kIfIcmplt,      Op::kIfIcmpge,       Op::kIfIcmpgt,
    Op::kIfIcmple,      Op::kIfAcmpeq,      Op::kIfAcmpne,       Op::kGoto,
    Op::kIreturn,       Op::kLreturn,       Op::kAreturn,        Op::kReturn,
    Op::kGetstatic,     Op::kPutstatic,     Op::kGetfield,       Op::kPutfield,
    Op::kInvokevirtual, Op::kInvokespecial, Op::kInvokestatic,   Op::kNew,
    Op::kNewarray,      Op::kAnewarray,     Op::kArraylength,    Op::kAthrow,
    Op::kCheckcast,     Op::kInstanceof,    Op::kMonitorenter,   Op::kMonitorexit,
    Op::kIfnull,        Op::kIfnonnull,     Op::kLdcQuick,       Op::kGetfieldQuick,
    Op::kPutfieldQuick, Op::kGetstaticQuick, Op::kPutstaticQuick, Op::kInvokevirtualQuick,
    Op::kInvokespecialQuick, Op::kInvokestaticQuick, Op::kNewQuick, Op::kAnewarrayQuick,
    Op::kCheckcastQuick, Op::kInstanceofQuick,
};

// GetOpInfo is a dense 256-entry table: every byte must answer, and exactly
// the assigned ones with metadata whose operand shape fixes the length.
TEST(OpcodesTest, DenseTableCoversExactlyTheInstructionSet) {
  std::set<uint8_t> assigned;
  for (Op op : kInstructionSet) {
    EXPECT_TRUE(assigned.insert(static_cast<uint8_t>(op)).second);
  }
  for (int raw = 0; raw < 256; raw++) {
    const uint8_t byte = static_cast<uint8_t>(raw);
    const OpInfo* info = GetOpInfo(byte);
    ASSERT_EQ(info != nullptr, assigned.count(byte) == 1) << "byte 0x" << std::hex << raw;
    if (info == nullptr) {
      EXPECT_EQ(InstructionLength(static_cast<Op>(byte)), -1);
      continue;
    }
    int want = 0;
    switch (info->operands) {
      case OperandKind::kNone:
        want = 1;
        break;
      case OperandKind::kI8:
      case OperandKind::kU8:
      case OperandKind::kArrayKind:
        want = 2;
        break;
      case OperandKind::kI16:
      case OperandKind::kCpIndex:
      case OperandKind::kBranch16:
      case OperandKind::kLocalIncr:
        want = 3;
        break;
    }
    EXPECT_EQ(InstructionLength(static_cast<Op>(byte)), want) << info->name;
  }
}

TEST(OpcodesTest, InstructionLengths) {
  EXPECT_EQ(InstructionLength(Op::kNop), 1);
  EXPECT_EQ(InstructionLength(Op::kBipush), 2);
  EXPECT_EQ(InstructionLength(Op::kSipush), 3);
  EXPECT_EQ(InstructionLength(Op::kLdc), 3);
  EXPECT_EQ(InstructionLength(Op::kIinc), 3);
  EXPECT_EQ(InstructionLength(Op::kGoto), 3);
}

TEST(OpcodesTest, Predicates) {
  EXPECT_TRUE(IsBranch(Op::kGoto));
  EXPECT_TRUE(IsConditionalBranch(Op::kIfeq));
  EXPECT_FALSE(IsConditionalBranch(Op::kGoto));
  EXPECT_TRUE(IsReturn(Op::kIreturn));
  EXPECT_TRUE(IsTerminator(Op::kAthrow));
  EXPECT_FALSE(IsTerminator(Op::kIfeq));
  EXPECT_TRUE(IsInvoke(Op::kInvokestatic));
  EXPECT_TRUE(IsFieldAccess(Op::kPutfield));
}

TEST(ConstantPoolTest, InterningReturnsSameIndex) {
  ConstantPool pool;
  uint16_t a = pool.AddUtf8("hello");
  uint16_t b = pool.AddUtf8("hello");
  EXPECT_EQ(a, b);
  EXPECT_NE(pool.AddUtf8("world"), a);
}

TEST(ConstantPoolTest, MemberRefResolves) {
  ConstantPool pool;
  uint16_t index = pool.AddMethodRef("java/lang/System", "println", "(Ljava/lang/String;)V");
  auto ref = pool.MethodRefAt(index);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref->class_name, "java/lang/System");
  EXPECT_EQ(ref->member_name, "println");
  EXPECT_EQ(ref->descriptor, "(Ljava/lang/String;)V");
}

TEST(ConstantPoolTest, WrongTagIsError) {
  ConstantPool pool;
  uint16_t utf8 = pool.AddUtf8("x");
  EXPECT_FALSE(pool.ClassNameAt(utf8).ok());
  EXPECT_FALSE(pool.IntegerAt(utf8).ok());
  EXPECT_FALSE(pool.MethodRefAt(0).ok());
}

TEST(ConstantPoolTest, ValidateCatchesBadCrossRefs) {
  ConstantPool pool;
  CpEntry bad;
  bad.tag = CpTag::kClass;
  bad.ref1 = 99;  // dangling
  ASSERT_TRUE(pool.AppendRaw(bad).ok());
  EXPECT_FALSE(pool.Validate().ok());
}

TEST(ConstantPoolTest, ValidatePassesWellFormed) {
  ConstantPool pool;
  pool.AddMethodRef("a/B", "m", "()V");
  pool.AddFieldRef("a/B", "f", "I");
  pool.AddString("s");
  pool.AddInteger(5);
  pool.AddLong(5);
  EXPECT_TRUE(pool.Validate().ok());
}

TEST(DescriptorTest, ValidatesTypes) {
  EXPECT_TRUE(IsValidTypeDescriptor("I"));
  EXPECT_TRUE(IsValidTypeDescriptor("J"));
  EXPECT_TRUE(IsValidTypeDescriptor("Ljava/lang/String;"));
  EXPECT_TRUE(IsValidTypeDescriptor("[I"));
  EXPECT_TRUE(IsValidTypeDescriptor("[[Lfoo/Bar;"));
  EXPECT_FALSE(IsValidTypeDescriptor("V"));
  EXPECT_FALSE(IsValidTypeDescriptor("L;"));
  EXPECT_FALSE(IsValidTypeDescriptor("Lfoo"));
  EXPECT_FALSE(IsValidTypeDescriptor("X"));
  EXPECT_FALSE(IsValidTypeDescriptor("II"));
  EXPECT_TRUE(IsValidReturnDescriptor("V"));
}

TEST(DescriptorTest, ParsesMethodDescriptors) {
  auto sig = ParseMethodDescriptor("(IJ[Lfoo/Bar;)Lbaz/Qux;");
  ASSERT_TRUE(sig.ok());
  ASSERT_EQ(sig->params.size(), 3u);
  EXPECT_EQ(sig->params[0], "I");
  EXPECT_EQ(sig->params[1], "J");
  EXPECT_EQ(sig->params[2], "[Lfoo/Bar;");
  EXPECT_EQ(sig->return_type, "Lbaz/Qux;");
  EXPECT_EQ(sig->ArgSlots(), 3);
  EXPECT_FALSE(sig->ReturnsVoid());
}

TEST(DescriptorTest, ParsesEmptyParams) {
  auto sig = ParseMethodDescriptor("()V");
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(sig->params.empty());
  EXPECT_TRUE(sig->ReturnsVoid());
}

TEST(DescriptorTest, RejectsMalformed) {
  EXPECT_FALSE(ParseMethodDescriptor("I)V").ok());
  EXPECT_FALSE(ParseMethodDescriptor("(X)V").ok());
  EXPECT_FALSE(ParseMethodDescriptor("(I").ok());
  EXPECT_FALSE(ParseMethodDescriptor("(I)").ok());
  EXPECT_FALSE(ParseMethodDescriptor("(I)W").ok());
}

TEST(DescriptorTest, NameConversions) {
  EXPECT_EQ(ClassNameFromDescriptor("Lfoo/Bar;"), "foo/Bar");
  EXPECT_EQ(DescriptorFromClassName("foo/Bar"), "Lfoo/Bar;");
  EXPECT_EQ(MakeMethodDescriptor({"I", "J"}, "V"), "(IJ)V");
  EXPECT_EQ(ArrayElementDescriptor("[[I"), "[I");
  EXPECT_EQ(ArrayElementDescriptor("[Lfoo/Bar;"), "Lfoo/Bar;");
}

TEST(CodeTest, EncodeDecodeRoundTrip) {
  std::vector<Instr> instrs = {
      {Op::kIconst0, 0, 0}, {Op::kIstore, 1, 0},  {Op::kIload, 1, 0},
      {Op::kBipush, 10, 0}, {Op::kIfIcmpge, 7, 0}, {Op::kIinc, 1, 1},
      {Op::kGoto, 2, 0},    {Op::kReturn, 0, 0},
  };
  auto encoded = EncodeCode(instrs);
  ASSERT_TRUE(encoded.ok());
  auto decoded = DecodeCode(*encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, instrs);
}

TEST(CodeTest, NegativeImmediatesRoundTrip) {
  std::vector<Instr> instrs = {
      {Op::kBipush, -100, 0},
      {Op::kSipush, -30000, 0},
      {Op::kIinc, 3, -5, },
      {Op::kReturn, 0, 0},
  };
  auto encoded = EncodeCode(instrs);
  ASSERT_TRUE(encoded.ok());
  auto decoded = DecodeCode(*encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, instrs);
}

TEST(CodeTest, RejectsUnknownOpcode) {
  Bytes bad = {0xFE};
  EXPECT_FALSE(DecodeCode(bad).ok());
}

TEST(CodeTest, RejectsTruncatedInstruction) {
  Bytes bad = {static_cast<uint8_t>(Op::kSipush), 0x01};
  EXPECT_FALSE(DecodeCode(bad).ok());
}

TEST(CodeTest, RejectsBranchEscapingMethod) {
  // goto +100 with a 3-byte method body.
  Bytes bad = {static_cast<uint8_t>(Op::kGoto), 0x00, 0x64};
  EXPECT_FALSE(DecodeCode(bad).ok());
}

TEST(CodeTest, RejectsBranchIntoMiddleOfInstruction) {
  // sipush occupies offsets 0-2; goto at 3 targets offset 1.
  Bytes bad = {static_cast<uint8_t>(Op::kSipush), 0x00, 0x05,
               static_cast<uint8_t>(Op::kGoto), 0xFF, 0xFE};
  EXPECT_FALSE(DecodeCode(bad).ok());
  // Forward: goto at 0 targets offset 4, an operand byte of the sipush at 3.
  Bytes forward = {static_cast<uint8_t>(Op::kGoto), 0x00, 0x04,
                   static_cast<uint8_t>(Op::kSipush), 0x00, 0x05,
                   static_cast<uint8_t>(Op::kReturn)};
  EXPECT_FALSE(DecodeCode(forward).ok());
}

TEST(CodeTest, OffsetIndexMapsInstructionStartsOnly) {
  std::vector<Instr> instrs = {{Op::kNop, 0, 0}, {Op::kBipush, 1, 0}, {Op::kSipush, 2, 0}};
  const OffsetIndex index(CodeByteOffsets(instrs));
  EXPECT_EQ(index.At(0), 0);
  EXPECT_EQ(index.At(1), 1);
  EXPECT_EQ(index.At(2), OffsetIndex::kNone);  // bipush operand
  EXPECT_EQ(index.At(3), 2);
  EXPECT_EQ(index.At(4), OffsetIndex::kNone);  // sipush operands
  EXPECT_EQ(index.At(5), OffsetIndex::kNone);
  EXPECT_EQ(index.At(6), 3);  // the code length: exclusive end of a range
  // Wire pcs past the end are out of range, not out of bounds.
  EXPECT_EQ(index.At(7), OffsetIndex::kNone);
  EXPECT_EQ(index.At(0xFFFF), OffsetIndex::kNone);
  EXPECT_EQ(index.At(UINT32_MAX), OffsetIndex::kNone);
}

TEST(CodeTest, ByteOffsetsAccountForWidths) {
  std::vector<Instr> instrs = {{Op::kNop, 0, 0}, {Op::kBipush, 1, 0}, {Op::kSipush, 2, 0}};
  auto offsets = CodeByteOffsets(instrs);
  ASSERT_EQ(offsets.size(), 4u);
  EXPECT_EQ(offsets[0], 0u);
  EXPECT_EQ(offsets[1], 1u);
  EXPECT_EQ(offsets[2], 3u);
  EXPECT_EQ(offsets[3], 6u);
}

TEST(StackEffectTest, FixedOps) {
  ConstantPool pool;
  EXPECT_EQ(StackDelta({Op::kIconst0, 0, 0}, pool).value(), 1);
  EXPECT_EQ(StackDelta({Op::kIadd, 0, 0}, pool).value(), -1);
  EXPECT_EQ(StackPops({Op::kIadd, 0, 0}, pool).value(), 2);
  EXPECT_EQ(StackPops({Op::kIastore, 0, 0}, pool).value(), 3);
}

TEST(StackEffectTest, InvokeUsesDescriptor) {
  ConstantPool pool;
  uint16_t m = pool.AddMethodRef("a/B", "f", "(II)I");
  EXPECT_EQ(StackDelta({Op::kInvokestatic, m, 0}, pool).value(), -1);
  EXPECT_EQ(StackPops({Op::kInvokestatic, m, 0}, pool).value(), 2);
  // Virtual adds the receiver.
  EXPECT_EQ(StackDelta({Op::kInvokevirtual, m, 0}, pool).value(), -2);
  EXPECT_EQ(StackPops({Op::kInvokevirtual, m, 0}, pool).value(), 3);
}

TEST(StackEffectTest, FieldOpsUseDescriptor) {
  ConstantPool pool;
  uint16_t f = pool.AddFieldRef("a/B", "x", "I");
  EXPECT_EQ(StackDelta({Op::kGetstatic, f, 0}, pool).value(), 1);
  EXPECT_EQ(StackDelta({Op::kPutstatic, f, 0}, pool).value(), -1);
  EXPECT_EQ(StackDelta({Op::kGetfield, f, 0}, pool).value(), 0);
  EXPECT_EQ(StackDelta({Op::kPutfield, f, 0}, pool).value(), -2);
}

ClassFile BuildCounterClass() {
  ClassBuilder cb("test/Counter", "java/lang/Object");
  cb.AddField(AccessFlags::kPublic, "count", "I");
  cb.AddDefaultConstructor();

  // static int sumTo(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }
  MethodBuilder& m = cb.AddMethod(AccessFlags::kPublic | AccessFlags::kStatic, "sumTo", "(I)I");
  Label loop = m.NewLabel();
  Label done = m.NewLabel();
  m.PushInt(0).StoreLocal("I", 1);   // s = 0
  m.PushInt(0).StoreLocal("I", 2);   // i = 0
  m.Bind(loop);
  m.LoadLocal("I", 2).LoadLocal("I", 0);
  m.Branch(Op::kIfIcmpge, done);
  m.LoadLocal("I", 1).LoadLocal("I", 2).Emit(Op::kIadd).StoreLocal("I", 1);
  m.Emit(Op::kIinc, 2, 1);
  m.Branch(Op::kGoto, loop);
  m.Bind(done);
  m.LoadLocal("I", 1).Emit(Op::kIreturn);

  auto built = cb.Build();
  EXPECT_TRUE(built.ok()) << (built.ok() ? "" : built.error().ToString());
  return std::move(built).value();
}

TEST(BuilderTest, BuildsWellFormedClass) {
  ClassFile cls = BuildCounterClass();
  EXPECT_EQ(cls.name(), "test/Counter");
  EXPECT_EQ(cls.super_name(), "java/lang/Object");
  ASSERT_NE(cls.FindMethod("sumTo", "(I)I"), nullptr);
  ASSERT_NE(cls.FindMethod("<init>", "()V"), nullptr);
  ASSERT_NE(cls.FindField("count"), nullptr);
  EXPECT_TRUE(cls.pool().Validate().ok());
}

TEST(BuilderTest, ComputesMaxStackAndLocals) {
  ClassFile cls = BuildCounterClass();
  const MethodInfo* m = cls.FindMethod("sumTo", "(I)I");
  ASSERT_NE(m, nullptr);
  ASSERT_TRUE(m->code.has_value());
  EXPECT_EQ(m->code->max_stack, 2);
  EXPECT_EQ(m->code->max_locals, 3);
}

TEST(BuilderTest, BranchesResolve) {
  ClassFile cls = BuildCounterClass();
  const MethodInfo* m = cls.FindMethod("sumTo", "(I)I");
  auto decoded = DecodeCode(m->code->code);
  ASSERT_TRUE(decoded.ok());
  bool saw_backward = false;
  for (size_t i = 0; i < decoded->size(); i++) {
    if ((*decoded)[i].op == Op::kGoto && (*decoded)[i].a < static_cast<int>(i)) {
      saw_backward = true;
    }
  }
  EXPECT_TRUE(saw_backward);
}

TEST(BuilderTest, UnboundLabelFails) {
  ClassBuilder cb("test/Bad", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic, "f", "()V");
  Label never = m.NewLabel();
  m.Branch(Op::kGoto, never);
  EXPECT_FALSE(cb.Build().ok());
}

TEST(BuilderTest, StackUnderflowFails) {
  ClassBuilder cb("test/Bad", "java/lang/Object");
  cb.AddMethod(AccessFlags::kStatic, "f", "()V").Emit(Op::kPop).Emit(Op::kReturn);
  EXPECT_FALSE(cb.Build().ok());
}

TEST(BuilderTest, NativeAndAbstractMethods) {
  ClassBuilder cb("test/Natives", "java/lang/Object", AccessFlags::kPublic);
  cb.AddNativeMethod(AccessFlags::kPublic | AccessFlags::kStatic, "now", "()J");
  cb.AddAbstractMethod(AccessFlags::kPublic, "run", "()V");
  auto cls = cb.Build();
  ASSERT_TRUE(cls.ok());
  EXPECT_TRUE(cls->FindMethod("now", "()J")->IsNative());
  EXPECT_TRUE(cls->FindMethod("run", "()V")->IsAbstract());
  EXPECT_FALSE(cls->FindMethod("now", "()J")->code.has_value());
}

TEST(SerializerTest, RoundTripsClass) {
  ClassFile cls = BuildCounterClass();
  Bytes data = MustWriteClassFile(cls);
  auto back = ReadClassFile(data);
  ASSERT_TRUE(back.ok()) << back.error().ToString();
  EXPECT_EQ(back->name(), "test/Counter");
  EXPECT_EQ(back->super_name(), "java/lang/Object");
  const MethodInfo* m = back->FindMethod("sumTo", "(I)I");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->code->code, cls.FindMethod("sumTo", "(I)I")->code->code);
  // Second serialization is byte-identical.
  EXPECT_EQ(MustWriteClassFile(*back), data);
}

TEST(SerializerTest, RoundTripsAttributes) {
  ClassBuilder cb("test/Attrs", "java/lang/Object");
  auto built = cb.Build();
  ASSERT_TRUE(built.ok());
  ClassFile cls = std::move(built).value();
  cls.SetAttribute(kAttrSignatureDigest, Bytes{1, 2, 3});
  Bytes data = MustWriteClassFile(cls);
  auto back = ReadClassFile(data);
  ASSERT_TRUE(back.ok());
  const Attribute* attr = back->FindAttribute(kAttrSignatureDigest);
  ASSERT_NE(attr, nullptr);
  EXPECT_EQ(attr->data, (Bytes{1, 2, 3}));
}

TEST(SerializerTest, RejectsBadMagic) {
  Bytes data = MustWriteClassFile(BuildCounterClass());
  data[0] ^= 0xFF;
  EXPECT_FALSE(ReadClassFile(data).ok());
}

TEST(SerializerTest, RejectsTrailingGarbage) {
  Bytes data = MustWriteClassFile(BuildCounterClass());
  data.push_back(0);
  EXPECT_FALSE(ReadClassFile(data).ok());
}

TEST(SerializerTest, RejectsTruncation) {
  Bytes data = MustWriteClassFile(BuildCounterClass());
  for (size_t cut : {size_t{1}, data.size() / 2, data.size() - 1}) {
    Bytes truncated(data.begin(), data.begin() + static_cast<long>(cut));
    EXPECT_FALSE(ReadClassFile(truncated).ok()) << "cut at " << cut;
  }
}

TEST(ClassFileTest, AttributeSetReplaceRemove) {
  ClassFile cls;
  cls.SetAttribute("x", Bytes{1});
  cls.SetAttribute("x", Bytes{2});
  ASSERT_EQ(cls.attributes.size(), 1u);
  EXPECT_EQ(cls.FindAttribute("x")->data, Bytes{2});
  EXPECT_TRUE(cls.RemoveAttribute("x"));
  EXPECT_FALSE(cls.RemoveAttribute("x"));
  EXPECT_EQ(cls.FindAttribute("x"), nullptr);
}

TEST(DisasmTest, ListsInstructions) {
  ClassFile cls = BuildCounterClass();
  std::string text = DisassembleClass(cls);
  EXPECT_NE(text.find("class test/Counter"), std::string::npos);
  EXPECT_NE(text.find("sumTo"), std::string::npos);
  EXPECT_NE(text.find("if_icmpge"), std::string::npos);
  EXPECT_NE(text.find("iinc"), std::string::npos);
}

}  // namespace
}  // namespace dvm
