// The bytecode walks under verification and rewriting, checked against
// slower reference forms of the same rules:
//   - every opcode predicate and length agrees with the one opcode table, for
//     all 256 byte values;
//   - the offsets and offset index DecodeCode returns equal the ones
//     CodeByteOffsets / OffsetIndex rebuild from the instructions;
//   - the allocation-free descriptor scan accepts exactly what
//     ParseMethodDescriptor accepts, with the same slot count;
//   - ComputeMaxStackDepth returns the same depth, or the same error, as a
//     plain breadth-first walk over StackDelta/StackPops-style effects with
//     the same merge rule (kept here as the oracle).
// Inputs: the Figure 5 applications, an applet population, the system
// library, the parseable fuzz corpus inputs, and malformed variants of them.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "src/bytecode/code.h"
#include "src/bytecode/descriptor.h"
#include "src/bytecode/opcodes.h"
#include "src/bytecode/serializer.h"
#include "src/bytecode/stack_effect.h"
#include "src/runtime/syslib.h"
#include "src/workloads/applets.h"
#include "src/workloads/apps.h"

namespace dvm {
namespace {

#ifndef DVM_CORPUS_DIR
#define DVM_CORPUS_DIR "tests/corpus"
#endif

// Every class the walks are checked over.
const std::vector<ClassFile>& Population() {
  static const auto* classes = [] {
    auto* out = new std::vector<ClassFile>(BuildSystemLibrary());
    for (const AppBundle& app : BuildFig5Apps(1)) {
      out->insert(out->end(), app.classes.begin(), app.classes.end());
    }
    for (const AppBundle& app : BuildAppletPopulation(12, 7)) {
      out->insert(out->end(), app.classes.begin(), app.classes.end());
    }
    for (const auto& entry : std::filesystem::directory_iterator(DVM_CORPUS_DIR)) {
      std::ifstream in(entry.path(), std::ios::binary);
      Bytes bytes{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
      auto parsed = ReadClassFile(bytes);
      if (parsed.ok()) {
        out->push_back(std::move(parsed).value());
      }
    }
    return out;
  }();
  return *classes;
}

// ---------------------------------------------------------------------------
// Opcode metadata.
// ---------------------------------------------------------------------------

// Slots each fixed-effect opcode pops (the switch the table's pops column
// replaced); every other opcode pops none.
int ReferencePops(Op op) {
  static const std::vector<std::pair<int, std::vector<Op>>> kPops = {
      {1,
       {Op::kIstore, Op::kLstore, Op::kAstore, Op::kPop, Op::kIneg, Op::kLneg, Op::kI2l,
        Op::kL2i, Op::kIreturn, Op::kLreturn, Op::kAreturn, Op::kAthrow, Op::kMonitorenter,
        Op::kMonitorexit, Op::kIfeq, Op::kIfne, Op::kIflt, Op::kIfge, Op::kIfgt, Op::kIfle,
        Op::kIfnull, Op::kIfnonnull, Op::kNewarray, Op::kAnewarray, Op::kArraylength,
        Op::kCheckcast, Op::kInstanceof, Op::kDup}},
      {2,
       {Op::kIaload, Op::kLaload, Op::kAaload, Op::kIadd, Op::kLadd, Op::kIsub, Op::kLsub,
        Op::kImul, Op::kLmul, Op::kIdiv, Op::kLdiv, Op::kIrem, Op::kLrem, Op::kIshl,
        Op::kIshr, Op::kIushr, Op::kIand, Op::kIor, Op::kIxor, Op::kLcmp, Op::kSwap,
        Op::kDupX1, Op::kIfIcmpeq, Op::kIfIcmpne, Op::kIfIcmplt, Op::kIfIcmpge,
        Op::kIfIcmpgt, Op::kIfIcmple, Op::kIfAcmpeq, Op::kIfAcmpne}},
      {3, {Op::kIastore, Op::kLastore, Op::kAastore}},
  };
  for (const auto& [pops, ops] : kPops) {
    if (std::find(ops.begin(), ops.end(), op) != ops.end()) {
      return pops;
    }
  }
  return 0;
}

TEST(OpcodeTableTest, PredicatesAgreeWithTableForEveryByte) {
  int assigned = 0;
  for (int raw = 0; raw < 256; raw++) {
    SCOPED_TRACE(raw);
    const Op op = static_cast<Op>(raw);
    const OpInfo* info = GetOpInfo(op);
    EXPECT_EQ(info, kOpInfoByByte[static_cast<size_t>(raw)]);
    EXPECT_EQ(GetOpInfo(static_cast<uint8_t>(raw)), info);
    const bool quick = raw >= 0xd3 && raw <= 0xde;
    EXPECT_EQ(IsQuickOp(op), quick);
    EXPECT_EQ(IsQuickOp(static_cast<uint8_t>(raw)), quick);
    if (info == nullptr) {
      EXPECT_EQ(InstructionLength(op), -1);
      EXPECT_FALSE(IsBranch(op) || IsConditionalBranch(op) || IsReturn(op) ||
                   IsTerminator(op) || IsInvoke(op) || IsFieldAccess(op));
      continue;
    }
    assigned++;
    const std::string name(info->name);
    EXPECT_EQ(InstructionLength(op), EncodedLength(info->operands));
    const bool branch = info->operands == OperandKind::kBranch16;
    EXPECT_EQ(IsBranch(op), branch);
    EXPECT_EQ(IsConditionalBranch(op), branch && name != "goto");
    const bool ret =
        name == "ireturn" || name == "lreturn" || name == "areturn" || name == "return";
    EXPECT_EQ(IsReturn(op), ret);
    EXPECT_EQ(IsTerminator(op), ret || name == "goto" || name == "athrow");
    EXPECT_EQ(IsInvoke(op), !quick && name.starts_with("invoke"));
    EXPECT_EQ(IsFieldAccess(op), !quick && (name.starts_with("get") || name.starts_with("put")));
    EXPECT_EQ(info->variable_stack,
              name.starts_with("invoke") || name.starts_with("get") || name.starts_with("put"));
    if (info->variable_stack) {
      EXPECT_EQ(info->stack_delta, kVariableStack);
      EXPECT_EQ(info->pops, 0);
    } else {
      EXPECT_EQ(info->pops, ReferencePops(op));
      EXPECT_GE(info->pops + info->stack_delta, 0) << name << " pushes a negative count";
    }
  }
  EXPECT_EQ(assigned, 94);
}

// ---------------------------------------------------------------------------
// One decode per body: the maps come with the instructions.
// ---------------------------------------------------------------------------

TEST(DecodedCodeTest, OffsetsAndIndexEqualTheRebuiltOnes) {
  size_t bodies = 0;
  for (const ClassFile& cls : Population()) {
    for (const MethodInfo& method : cls.methods) {
      if (!method.code.has_value()) {
        continue;
      }
      auto decoded = DecodeCode(method.code->code);
      if (!decoded.ok()) {
        continue;  // corpus inputs may carry undecodable bodies
      }
      SCOPED_TRACE(cls.name() + "." + method.Id());
      bodies++;
      const std::vector<uint32_t> offsets = CodeByteOffsets(decoded->instrs);
      ASSERT_EQ(decoded->offsets, offsets);
      const OffsetIndex rebuilt(offsets);
      const uint32_t length = static_cast<uint32_t>(method.code->code.size());
      ASSERT_EQ(offsets.back(), length);
      for (uint32_t pc = 0; pc <= length + 1; pc++) {
        ASSERT_EQ(decoded->off_to_ix.At(pc), rebuilt.At(pc)) << "pc " << pc;
      }
      auto encoded = EncodeCode(decoded->instrs);
      ASSERT_TRUE(encoded.ok());
      EXPECT_EQ(*encoded, method.code->code);
    }
  }
  EXPECT_GT(bodies, 1000u);
}

TEST(DecodedCodeTest, EncodeReportsTheOffsetsItComputed) {
  const std::vector<Instr> instrs = {
      {Op::kIconst0, 0, 0}, {Op::kIstore, 1, 0}, {Op::kIload, 1, 0},
      {Op::kIfeq, 0, 0},    {Op::kSipush, 7, 0}, {Op::kReturn, 0, 0}};
  std::vector<uint32_t> offsets;
  ASSERT_TRUE(EncodeCode(instrs, &offsets).ok());
  EXPECT_EQ(offsets, CodeByteOffsets(instrs));
}

// ---------------------------------------------------------------------------
// Descriptor scan vs parse.
// ---------------------------------------------------------------------------

void ExpectScanMatchesParse(const std::string& desc) {
  SCOPED_TRACE(desc);
  const std::optional<MethodShape> shape = ScanMethodDescriptor(desc);
  const Result<MethodSignature> sig = ParseMethodDescriptor(desc);
  ASSERT_EQ(shape.has_value(), sig.ok());
  if (sig.ok()) {
    EXPECT_EQ(shape->arg_slots, sig->ArgSlots());
    EXPECT_EQ(shape->returns_void, sig->ReturnsVoid());
  }
}

TEST(MethodDescriptorScanTest, AgreesWithParserOnThePopulation) {
  size_t refs = 0;
  for (const ClassFile& cls : Population()) {
    const ConstantPool& pool = cls.pool();
    for (size_t i = 1; i < pool.size(); i++) {
      const CpEntry& e = pool.entry(static_cast<uint16_t>(i));
      if (e.tag == CpTag::kMethodRef && pool.HasTag(e.ref3, CpTag::kUtf8)) {
        ExpectScanMatchesParse(pool.entry(e.ref3).utf8);
        refs++;
      }
    }
    for (const MethodInfo& method : cls.methods) {
      ExpectScanMatchesParse(method.descriptor);
    }
  }
  EXPECT_GT(refs, 1000u);
}

TEST(MethodDescriptorScanTest, AgreesWithParserOnMalformedDescriptors) {
  const std::string deep_array = "(" + std::string(256, '[') + "I)V";
  const std::string max_array = "(" + std::string(255, '[') + "I)V";
  for (const std::string& desc : std::vector<std::string>{
           "", "(", ")", "()", "V", "I", "(I", "(I)", "()VV", "()II", "(V)V", "(II)X",
           "(L;)V", "(Lfoo)V", "(Lfoo;", "(Lfoo;)", "([)V", "([I)", "(I)[", "(I)[V",
           "()L;", "()Lfoo", "(I)Lfoo/Bar;x", "(J)J ", " ()V", "(I)(I)V", "(IJ[Lfoo/Bar;)V",
           "([[J)[[Lx;", "()V", "(IIIIIIIIII)I", "(Lfoo/Bar;Lbaz;)Lq;", deep_array,
           max_array, "(" + std::string(1000, 'I') + ")J"}) {
    ExpectScanMatchesParse(desc);
  }
}

// ---------------------------------------------------------------------------
// ComputeMaxStackDepth vs the reference walk.
// ---------------------------------------------------------------------------

// The plain form of ComputeMaxStackDepth's walk: a std::deque worklist, both
// halves of the effect (net delta, then pops) recomputed from the pool on
// every visit, and one depth per instruction: a path that reaches a scheduled
// instruction at another depth fails there. A body whose depth passes the
// 65535 limit is outside the comparison: the reference stops and returns
// nullopt.
std::optional<Result<uint16_t>> ReferenceMaxStack(const std::vector<Instr>& instrs,
                                                   const ConstantPool& pool,
                                                   const std::vector<uint32_t>& handler_entries) {
  if (instrs.empty()) {
    return Result<uint16_t>(static_cast<uint16_t>(0));
  }
  struct Effect {
    int pops;
    int pushes;
  };
  auto effect_of = [&pool](const Instr& instr) -> Result<Effect> {
    const OpInfo* info = GetOpInfo(instr.op);
    if (info == nullptr) {
      return Error{ErrorCode::kInternal, "unknown opcode"};
    }
    if (!info->variable_stack) {
      int pops = ReferencePops(instr.op);
      return Effect{pops, pops + info->stack_delta};
    }
    switch (instr.op) {
      case Op::kGetstatic:
        return Effect{0, 1};
      case Op::kPutstatic:
        return Effect{1, 0};
      case Op::kGetfield:
        return Effect{1, 1};
      case Op::kPutfield:
        return Effect{2, 0};
      case Op::kInvokestatic:
      case Op::kInvokevirtual:
      case Op::kInvokespecial: {
        DVM_ASSIGN_OR_RETURN(MemberRef ref, pool.MethodRefAt(static_cast<uint16_t>(instr.a)));
        DVM_ASSIGN_OR_RETURN(MethodSignature sig, ParseMethodDescriptor(ref.descriptor));
        return Effect{sig.ArgSlots() + (instr.op == Op::kInvokestatic ? 0 : 1),
                      sig.ReturnsVoid() ? 0 : 1};
      }
      default:
        return Error{ErrorCode::kInternal, "not a variable-stack opcode"};
    }
  };
  std::vector<int> depth_at(instrs.size(), -1);
  std::deque<size_t> work;
  auto schedule = [&](size_t index, int depth) -> Status {
    if (index >= instrs.size()) {
      return Status::Ok();
    }
    if (depth_at[index] < 0) {
      depth_at[index] = depth;
      work.push_back(index);
      return Status::Ok();
    }
    if (depth_at[index] != depth) {
      return Error{ErrorCode::kInvalidArgument,
                   "inconsistent stack depth at instruction " + std::to_string(index)};
    }
    return Status::Ok();
  };
  DVM_RETURN_IF_ERROR(schedule(0, 0));
  for (uint32_t entry : handler_entries) {
    DVM_RETURN_IF_ERROR(schedule(entry, 1));
  }
  int max_depth = 0;
  while (!work.empty()) {
    size_t index = work.front();
    work.pop_front();
    int depth = depth_at[index];
    const Instr& instr = instrs[index];
    DVM_ASSIGN_OR_RETURN(Effect delta_half, effect_of(instr));
    DVM_ASSIGN_OR_RETURN(Effect pops_half, effect_of(instr));
    if (depth < pops_half.pops) {
      return Error{ErrorCode::kInvalidArgument,
                   "rewritten code underflows stack at instruction " + std::to_string(index)};
    }
    int next = depth + delta_half.pushes - delta_half.pops;
    if (next > 0xFFFF) {
      return std::nullopt;
    }
    max_depth = std::max(max_depth, std::max(depth, next));
    if (IsBranch(instr.op)) {
      DVM_RETURN_IF_ERROR(schedule(static_cast<size_t>(instr.a), next));
    }
    if (!IsTerminator(instr.op)) {
      DVM_RETURN_IF_ERROR(schedule(index + 1, next));
    }
  }
  return Result<uint16_t>(static_cast<uint16_t>(max_depth));
}

void ExpectSameDepth(const std::vector<Instr>& instrs, const ConstantPool& pool,
                     const std::vector<uint32_t>& handler_entries) {
  std::optional<Result<uint16_t>> reference = ReferenceMaxStack(instrs, pool, handler_entries);
  Result<uint16_t> got = ComputeMaxStackDepth(instrs, pool, handler_entries);
  if (!reference.has_value()) {
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.error().code, ErrorCode::kCapacity);
    return;
  }
  const Result<uint16_t>& want = *reference;
  ASSERT_EQ(got.ok(), want.ok()) << (got.ok() ? want.error() : got.error()).ToString();
  if (want.ok()) {
    EXPECT_EQ(*got, *want);
  } else {
    EXPECT_EQ(got.error().code, want.error().code);
    EXPECT_EQ(got.error().message, want.error().message);
  }
}

struct Body {
  const ClassFile* cls;
  std::vector<Instr> instrs;
  std::vector<uint32_t> handler_entries;
};

std::vector<Body> PopulationBodies() {
  std::vector<Body> bodies;
  for (const ClassFile& cls : Population()) {
    for (const MethodInfo& method : cls.methods) {
      if (!method.code.has_value()) {
        continue;
      }
      auto decoded = DecodeCode(method.code->code);
      if (!decoded.ok()) {
        continue;
      }
      Body body{&cls, std::move(decoded->instrs), {}};
      for (const ExceptionHandler& h : method.code->handlers) {
        int32_t entry = decoded->off_to_ix.At(h.handler_pc);
        if (entry >= 0) {
          body.handler_entries.push_back(static_cast<uint32_t>(entry));
        }
      }
      bodies.push_back(std::move(body));
    }
  }
  return bodies;
}

TEST(MaxStackDepthTest, MatchesReferenceOnThePopulation) {
  const std::vector<Body> bodies = PopulationBodies();
  ASSERT_GT(bodies.size(), 1000u);
  for (const Body& body : bodies) {
    ExpectSameDepth(body.instrs, body.cls->pool(), body.handler_entries);
  }
}

// Malformed variants: an underflow at a random point, invokes through a
// wrong-tag, out-of-range, half-broken or badly described reference, and a
// merge reached at two depths. Each must fail (or pass) exactly as the
// reference does, with the same text.
TEST(MaxStackDepthTest, MatchesReferenceOnMalformedBodies) {
  const std::vector<Body> bodies = PopulationBodies();
  size_t variants = 0;
  for (size_t b = 0; b < bodies.size(); b += 7) {
    const Body& body = bodies[b];
    ConstantPool pool = body.cls->pool();
    const uint16_t bad_desc = pool.AddMethodRef("x/Y", "f", "(I");
    const uint16_t bad_return = pool.AddMethodRef("x/Y", "g", "(I)Q");
    CpEntry half_broken;
    half_broken.tag = CpTag::kMethodRef;
    half_broken.ref1 = pool.AddUtf8("not a class entry");
    half_broken.ref2 = pool.AddUtf8("h");
    half_broken.ref3 = pool.AddUtf8("()V");
    ASSERT_TRUE(pool.AppendRaw(half_broken).ok());
    const uint16_t broken = static_cast<uint16_t>(pool.size() - 1);
    const uint16_t field = pool.AddFieldRef("x/Y", "v", "I");
    const std::vector<int32_t> bad_refs = {0,     bad_desc, bad_return, broken, field,
                                           60000, 1};

    const size_t n = body.instrs.size();
    for (size_t k = 0; k < 3; k++) {
      const size_t at = (b * 31 + k * 17) % n;
      std::vector<Instr> underflow = body.instrs;
      underflow.insert(underflow.begin() + static_cast<long>(at), Instr{Op::kPop, 0, 0});
      for (Instr& instr : underflow) {
        if (IsBranch(instr.op) && instr.a >= static_cast<int32_t>(at)) {
          instr.a++;
        }
      }
      ExpectSameDepth(underflow, pool, {});
      variants++;
    }
    size_t invokes = 0;
    for (size_t i = 0; i < n; i++) {
      if (!IsInvoke(body.instrs[i].op)) {
        continue;
      }
      std::vector<Instr> bad = body.instrs;
      bad[i].a = bad_refs[invokes++ % bad_refs.size()];
      ExpectSameDepth(bad, pool, body.handler_entries);
      variants++;
    }
    // A second path into a join one slot deeper: the walk order decides
    // which path reaches the join second and fails there.
    std::vector<Instr> join = body.instrs;
    join.insert(join.begin(), {{Op::kIconst0, 0, 0}, {Op::kIfeq, 3, 0}, {Op::kIconst1, 0, 0}});
    for (size_t i = 3; i < join.size(); i++) {
      if (IsBranch(join[i].op)) {
        join[i].a += 3;
      }
    }
    ExpectSameDepth(join, pool, {});
    variants++;
  }
  EXPECT_GT(variants, 500u);
}

// Instruction 4 is reached at depth 0 by the branch and at depth 2 by the
// fall-through path, and pops one slot. Breadth-first, the branch's entry is
// popped first, so the walk reports the underflow there. A depth-first (LIFO)
// walk, or a fall-through shortcut taken while the branch entry is still
// queued, would see depth 2 first and report the merge at 4 instead.
TEST(MaxStackDepthTest, VisitOrderIsBreadthFirst) {
  const std::vector<Instr> body = {
      {Op::kIconst0, 0, 0}, {Op::kIfeq, 4, 0}, {Op::kIconst1, 0, 0}, {Op::kIconst1, 0, 0},
      {Op::kPop, 0, 0},     {Op::kPop, 0, 0},  {Op::kReturn, 0, 0}};
  ConstantPool pool;
  auto depth = ComputeMaxStackDepth(body, pool, {});
  ASSERT_FALSE(depth.ok());
  EXPECT_EQ(depth.error().message, "rewritten code underflows stack at instruction 4");
  ExpectSameDepth(body, pool, {});
}

// Two MethodRefs whose pool indices share a memo slot must not share a
// shape: `()I` pushes the slot the pop consumes, `()V` would not.
TEST(MaxStackDepthTest, MemoKeysOnThePoolIndex) {
  ConstantPool pool;
  const uint16_t returns_void = pool.AddMethodRef("a/B", "v", "()V");
  pool.AddUtf8("i");
  pool.AddUtf8("()I");
  while (pool.size() % 32 != returns_void % 32) {  // the next entry lands in the same slot
    pool.AddInteger(static_cast<int32_t>(pool.size()));
  }
  const uint16_t returns_int = pool.AddMethodRef("a/B", "i", "()I");
  ASSERT_EQ(returns_int % 32, returns_void % 32);
  const std::vector<Instr> body = {{Op::kInvokestatic, returns_void, 0},
                                   {Op::kInvokestatic, returns_int, 0},
                                   {Op::kPop, 0, 0},
                                   {Op::kReturn, 0, 0}};
  auto depth = ComputeMaxStackDepth(body, pool, {});
  ASSERT_TRUE(depth.ok()) << depth.error().ToString();
  EXPECT_EQ(*depth, 1);
  ExpectSameDepth(body, pool, {});
}

TEST(MaxStackDepthTest, EffectsOfEveryOpcodeMatchReference) {
  ConstantPool pool;
  const uint16_t method = pool.AddMethodRef("a/B", "m", "(IJLx;[I)J");
  const uint16_t field = pool.AddFieldRef("a/B", "f", "I");
  StackEffects effects(pool);
  for (int raw = 0; raw < 256; raw++) {
    const Op op = static_cast<Op>(raw);
    const OpInfo* info = GetOpInfo(op);
    if (info == nullptr || IsQuickOp(op)) {
      continue;
    }
    Instr instr{op, IsInvoke(op) ? method : field, 0};
    auto effect = effects.Of(instr);
    ASSERT_TRUE(effect.ok()) << info->name;
    const std::vector<Instr> body = {{Op::kIconst0, 0, 0}, {Op::kIconst0, 0, 0},
                                     {Op::kIconst0, 0, 0}, {Op::kIconst0, 0, 0},
                                     {Op::kIconst0, 0, 0}, instr,
                                     {Op::kReturn, 0, 0}};
    if (!IsBranch(op)) {
      ExpectSameDepth(body, pool, {});
    }
    if (IsInvoke(op)) {
      EXPECT_EQ(effect->pops, op == Op::kInvokestatic ? 4 : 5);
      EXPECT_EQ(effect->pushes, 1);
    }
  }
}

}  // namespace
}  // namespace dvm
