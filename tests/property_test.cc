// Property-based sweeps over the toolchain invariants:
//   1. every opcode encode/decode round-trips,
//   2. randomly generated (stack-disciplined) programs verify, serialize,
//      execute deterministically, and survive rewriting unchanged,
//   3. random byte mutations of valid class files never crash the parser,
//      verifier, or interpreter — they fail cleanly or run safely,
//   4. random object graphs survive garbage collection exactly when reachable,
//   5. every opcode's abstract transfer function is monotone,
//   6. the lattice's name ids never decide an order: verdicts, joins and
//      certificate bytes are the same whatever order names were interned in.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "src/bytecode/builder.h"
#include "src/bytecode/serializer.h"
#include "src/bytecode/stack_effect.h"
#include "src/rewrite/method_editor.h"
#include "src/runtime/machine.h"
#include "src/runtime/syslib.h"
#include "src/support/hash.h"
#include "src/support/rng.h"
#include "src/verifier/certificate.h"
#include "src/verifier/dataflow.h"
#include "src/verifier/verifier.h"
#include "src/workloads/apps.h"

namespace dvm {
namespace {

// ---------------------------------------------------------------------------
// 1. Opcode round-trip sweep.
// ---------------------------------------------------------------------------

std::vector<Op> AllOps() {
  std::vector<Op> ops;
  for (int raw = 0; raw < 256; raw++) {
    if (GetOpInfo(static_cast<uint8_t>(raw)) != nullptr) {
      ops.push_back(static_cast<Op>(raw));
    }
  }
  return ops;
}

class OpcodeRoundTripTest : public ::testing::TestWithParam<Op> {};

TEST_P(OpcodeRoundTripTest, EncodeDecodeRoundTrips) {
  Op op = GetParam();
  const OpInfo* info = GetOpInfo(op);
  ASSERT_NE(info, nullptr);

  Instr instr{op, 0, 0};
  switch (info->operands) {
    case OperandKind::kI8:
      instr.a = -77;
      break;
    case OperandKind::kI16:
      instr.a = -12345;
      break;
    case OperandKind::kU8:
      instr.a = 200;
      break;
    case OperandKind::kCpIndex:
      instr.a = 1234;
      break;
    case OperandKind::kBranch16:
      instr.a = 1;  // target: the trailing return
      break;
    case OperandKind::kLocalIncr:
      instr.a = 9;
      instr.b = -3;
      break;
    case OperandKind::kArrayKind:
      instr.a = static_cast<int>(ArrayKind::kLong);
      break;
    case OperandKind::kNone:
      break;
  }
  std::vector<Instr> code = {instr, {Op::kReturn, 0, 0}};
  auto encoded = EncodeCode(code);
  if (IsQuickOp(op)) {
    // Quick forms are runtime-internal: they never serialize and a class file
    // carrying one must not decode.
    EXPECT_FALSE(encoded.ok());
    return;
  }
  ASSERT_TRUE(encoded.ok()) << encoded.error().ToString();
  auto decoded = DecodeCode(*encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.error().ToString();
  EXPECT_EQ(decoded->instrs, code);
  EXPECT_EQ(static_cast<int>((*encoded).size()),
            InstructionLength(op) + InstructionLength(Op::kReturn));
}

INSTANTIATE_TEST_SUITE_P(AllOpcodes, OpcodeRoundTripTest, ::testing::ValuesIn(AllOps()),
                         [](const ::testing::TestParamInfo<Op>& info) {
                           return std::string(GetOpInfo(info.param)->name);
                         });

// ---------------------------------------------------------------------------
// 2. Random stack-disciplined programs.
// ---------------------------------------------------------------------------

// Emits a random straight-line body over int locals 1..4 (local 0 is the
// argument), tracking stack depth so the program always verifies, wrapped in a
// countdown loop on local 0 to exercise branches.
ClassFile GenerateRandomProgram(uint64_t seed) {
  Rng rng(seed);
  ClassBuilder cb("prop/R" + std::to_string(seed), "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "f", "(I)I");

  for (int local = 1; local <= 4; local++) {
    m.PushInt(static_cast<int32_t>(rng.Range(-50, 50))).StoreLocal("I", local);
  }
  Label loop = m.NewLabel(), done = m.NewLabel();
  m.Bind(loop);
  m.LoadLocal("I", 0).Branch(Op::kIfle, done);

  int depth = 0;
  int ops = static_cast<int>(rng.Range(10, 60));
  for (int i = 0; i < ops; i++) {
    switch (rng.Uniform(8)) {
      case 0:
        m.PushInt(static_cast<int32_t>(rng.Range(-100, 100)));
        depth++;
        break;
      case 1:
        m.LoadLocal("I", static_cast<int>(rng.Range(1, 4)));
        depth++;
        break;
      case 2:
        if (depth >= 1) {
          m.StoreLocal("I", static_cast<int>(rng.Range(1, 4)));
          depth--;
        }
        break;
      case 3:
      case 4: {
        if (depth >= 2) {
          // No idiv/irem: keep the program exception-free by construction.
          Op arith[] = {Op::kIadd, Op::kIsub, Op::kImul, Op::kIand, Op::kIor, Op::kIxor};
          m.Emit(arith[rng.Uniform(6)]);
          depth--;
        }
        break;
      }
      case 5:
        if (depth >= 1) {
          m.Emit(Op::kDup);
          depth++;
        }
        break;
      case 6:
        if (depth >= 2) {
          m.Emit(Op::kSwap);
        }
        break;
      case 7:
        m.Emit(Op::kIinc, static_cast<int>(rng.Range(1, 4)),
               static_cast<int>(rng.Range(-3, 3)));
        break;
    }
  }
  while (depth > 0) {
    m.Emit(Op::kPop);
    depth--;
  }
  m.Emit(Op::kIinc, 0, -1);
  m.Branch(Op::kGoto, loop);
  m.Bind(done);
  m.LoadLocal("I", 1).LoadLocal("I", 2).Emit(Op::kIadd);
  m.LoadLocal("I", 3).Emit(Op::kIxor).Emit(Op::kIreturn);

  auto built = cb.Build();
  EXPECT_TRUE(built.ok()) << (built.ok() ? "" : built.error().ToString());
  return std::move(built).value();
}

class RandomProgramTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomProgramTest, VerifiesSerializesRunsDeterministically) {
  ClassFile cls = GenerateRandomProgram(GetParam());

  // Verifies against a minimal environment.
  ClassBuilder obj_cb("java/lang/Object", "");
  obj_cb.AddDefaultConstructor();
  ClassFile object = obj_cb.Build().value();
  MapClassEnv env;
  env.Add(&object);
  auto verified = VerifyClass(cls, env);
  ASSERT_TRUE(verified.ok()) << verified.error().ToString();

  // Serializer round-trip is byte-stable.
  Bytes wire = MustWriteClassFile(cls);
  auto back = ReadClassFile(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(MustWriteClassFile(*back), wire);

  // Runs cleanly and deterministically.
  auto run = [&cls](int arg) {
    MapClassProvider provider;
    InstallSystemLibrary(provider);
    provider.AddClassFile(cls);
    Machine machine({}, &provider);
    auto out = machine.CallStatic(cls.name(), "f", "(I)I", {Value::Int(arg)});
    EXPECT_TRUE(out.ok()) << (out.ok() ? "" : out.error().ToString());
    EXPECT_FALSE(out->threw);
    return out->value.AsInt();
  };
  int first = run(9);
  EXPECT_EQ(run(9), first);

  // Rewriting with a no-op preamble preserves the result and still verifies.
  MethodInfo* method = cls.FindMethod("f", "(I)I");
  auto editor = MethodEditor::Open(&cls, method);
  ASSERT_TRUE(editor.ok());
  ASSERT_TRUE(editor->InsertBefore(0, {{Op::kBipush, 11, 0}, {Op::kPop, 0, 0}}).ok());
  ASSERT_TRUE(editor->Commit().ok());
  auto reverified = VerifyClass(cls, env);
  ASSERT_TRUE(reverified.ok()) << reverified.error().ToString();
  EXPECT_EQ(run(9), first);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest,
                         ::testing::Range<uint64_t>(1, 25));

// ---------------------------------------------------------------------------
// 3. Mutation robustness: corrupt class files fail cleanly.
// ---------------------------------------------------------------------------

class MutationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MutationTest, CorruptClassFilesNeverCrashTheStack) {
  ClassFile cls = GenerateRandomProgram(GetParam());
  Bytes wire = MustWriteClassFile(cls);

  Rng rng(GetParam() * 7919 + 13);
  for (int trial = 0; trial < 60; trial++) {
    Bytes mutated = wire;
    int flips = static_cast<int>(rng.Range(1, 4));
    for (int f = 0; f < flips; f++) {
      size_t pos = rng.Uniform(mutated.size());
      mutated[pos] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
    }
    auto parsed = ReadClassFile(mutated);
    if (!parsed.ok()) {
      continue;  // clean parse rejection
    }
    ClassBuilder obj_cb("java/lang/Object", "");
    obj_cb.AddDefaultConstructor();
    ClassFile object = obj_cb.Build().value();
    MapClassEnv env;
    env.Add(&object);
    auto verified = VerifyClass(*parsed, env);
    if (!verified.ok()) {
      continue;  // clean verification rejection
    }
    // Survived both: it must also execute without host-level failure (guest
    // exceptions are fine). Bound the budget in case the mutation changed a
    // loop counter.
    MapClassProvider provider;
    InstallSystemLibrary(provider);
    provider.AddClassFile(*parsed);
    MachineConfig config;
    config.max_instructions = 200'000;
    Machine machine(config, &provider);
    if (parsed->FindMethod("f", "(I)I") != nullptr) {
      auto out = machine.CallStatic(parsed->name(), "f", "(I)I", {Value::Int(3)});
      if (!out.ok()) {
        // Structured failures are fine (budget exhaustion, unresolvable names
        // the static verifier correctly deferred to link time); an internal
        // invariant violation is not.
        EXPECT_NE(out.error().code, ErrorCode::kInternal) << out.error().ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationTest, ::testing::Range<uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// 4. GC reachability property.
// ---------------------------------------------------------------------------

class GcPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GcPropertyTest, CollectKeepsExactlyTheReachable) {
  Rng rng(GetParam());
  Heap heap(8 * 1024 * 1024);

  // Build a random graph of ref-arrays.
  std::vector<ObjRef> nodes;
  for (int i = 0; i < 80; i++) {
    nodes.push_back(heap.AllocRefArray("[Ljava/lang/Object;", 4).value());
  }
  for (int e = 0; e < 160; e++) {
    ObjRef from = nodes[rng.Uniform(nodes.size())];
    ObjRef to = nodes[rng.Uniform(nodes.size())];
    heap.Get(from)->refs[rng.Uniform(4)] = to;
  }
  // Pick random roots and compute reachability independently.
  std::vector<ObjRef> roots;
  for (int r = 0; r < 5; r++) {
    roots.push_back(nodes[rng.Uniform(nodes.size())]);
  }
  std::set<ObjRef> reachable;
  std::vector<ObjRef> work = roots;
  while (!work.empty()) {
    ObjRef ref = work.back();
    work.pop_back();
    if (ref == kNullRef || !reachable.insert(ref).second) {
      continue;
    }
    for (ObjRef next : heap.Get(ref)->refs) {
      work.push_back(next);
    }
  }

  heap.Collect(roots);

  for (ObjRef node : nodes) {
    if (reachable.count(node)) {
      EXPECT_NE(heap.Get(node), nullptr) << "reachable object collected";
    } else {
      EXPECT_EQ(heap.Get(node), nullptr) << "garbage survived";
    }
  }
  EXPECT_EQ(heap.live_objects(), reachable.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GcPropertyTest, ::testing::Range<uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// 5. Monotone transfer: a ⊑ b implies Step(a) ⊑ Step(b).
// ---------------------------------------------------------------------------

// The certificate validator recomputes each merge point's frame as the join of
// its incoming edges and requires it to equal the fixpoint's assertion. That
// holds only when no opcode maps a narrower input to an output that does not
// fit the wider input's output.
class TransferMonotonicityTest : public ::testing::TestWithParam<Op> {
 protected:
  TransferMonotonicityTest() {
    static const auto* library = new std::vector<ClassFile>(BuildSystemLibrary());
    for (const ClassFile& c : *library) {
      env_.Add(&c);
    }
    ClassBuilder c("mono/C", "java/lang/Object");
    c.AddField(AccessFlags::kStatic, "s", "Lmono/C;");
    c.AddField(0, "f", "Lmono/C;");
    c.AddMethod(AccessFlags::kStatic, "sm", "(Lmono/C;)Lmono/C;").PushNull().Emit(Op::kAreturn);
    c.AddMethod(0, "m", "(Lmono/C;)Lmono/C;").PushNull().Emit(Op::kAreturn);
    c_ = c.Build().value();
    d_ = ClassBuilder("mono/D", "mono/C").Build().value();
    env_.Add(&c_);
    env_.Add(&d_);
    t_.this_class = t_.pool().AddClass("mono/T");
  }

  // An operand that resolves in env_ for every opcode that takes one.
  int Operand(Op op) {
    ConstantPool& pool = t_.pool();
    switch (op) {
      case Op::kLdc:
        return pool.AddInteger(7);
      case Op::kGetstatic:
      case Op::kPutstatic:
        return pool.AddFieldRef("mono/C", "s", "Lmono/C;");
      case Op::kGetfield:
      case Op::kPutfield:
        return pool.AddFieldRef("mono/C", "f", "Lmono/C;");
      case Op::kInvokestatic:
        return pool.AddMethodRef("mono/C", "sm", "(Lmono/C;)Lmono/C;");
      case Op::kInvokevirtual:
      case Op::kInvokespecial:
        return pool.AddMethodRef("mono/C", "m", "(Lmono/C;)Lmono/C;");
      case Op::kNewarray:
        return static_cast<int>(ArrayKind::kInt);
      default:
        return GetOpInfo(op)->operands == OperandKind::kCpIndex ? pool.AddClass("mono/C") : 0;
    }
  }

  MapClassEnv env_;
  ClassFile c_;
  ClassFile d_;
  ClassFile t_;
};

TEST_P(TransferMonotonicityTest, NarrowerInputNeverYieldsWiderOutput) {
  const Op op = GetParam();
  TypeEnv names(env_);
  const std::vector<VType> types = {VType::Top(),
                                    VType::Int(),
                                    VType::Long(),
                                    VType::Null(),
                                    names.Ref("java/lang/Object"),
                                    names.Ref("mono/C"),
                                    names.Ref("mono/D"),
                                    names.Ref("[Lmono/C;"),
                                    names.Ref("[Lmono/D;"),
                                    names.Ref("[Ljava/lang/Object;"),
                                    names.Ref("[I")};
  const size_t n_types = types.size();
  std::vector<std::vector<size_t>> up(n_types);
  for (size_t a = 0; a < n_types; a++) {
    for (size_t b = 0; b < n_types; b++) {
      if (FitsInto(types[a], types[b], names)) {
        up[a].push_back(b);
      }
    }
  }

  // One static method holding the single instruction under test.
  const OperandKind operands = GetOpInfo(op)->operands;
  const Instr instr{op, Operand(op), operands == OperandKind::kLocalIncr ? 1 : 0};
  MethodInfo method;
  method.access_flags = AccessFlags::kStatic;
  method.name = "t";
  method.descriptor = "()Lmono/C;";
  method.code = CodeAttr{/*max_stack=*/8, /*max_locals=*/1, {}, {}};
  DecodedCode mc;
  mc.instrs = {instr};
  mc.offsets = {0, static_cast<uint32_t>(InstructionLength(op))};
  mc.off_to_ix = OffsetIndex(mc.offsets);
  uint64_t checks = 0;
  std::vector<Assumption> assumptions;
  ClassScope scope(t_, names);
  AbstractInterpreter interp(scope, method, mc, &checks, &assumptions);

  // Vary every slot the instruction reads: its operand-stack pops, plus
  // local 0 when it names a local.
  const bool reads_local = operands == OperandKind::kU8 || operands == OperandKind::kLocalIncr;
  Result<StackEffect> effect = StackEffects(t_.pool()).Of(instr);
  const size_t slots =
      (effect.ok() ? static_cast<size_t>(effect->pops) : 0) + (reads_local ? 1 : 0);
  auto frame_of = [&](const std::vector<size_t>& pick) {
    Frame frame;
    frame.locals = {reads_local ? types[pick[0]] : VType::Top()};
    for (size_t i = reads_local ? 1 : 0; i < slots; i++) {
      frame.stack.push_back(types[pick[i]]);
    }
    return frame;
  };
  // Every assignment of types to the slots, as mixed-radix counters.
  auto next = [](std::vector<size_t>& digits, const std::vector<size_t>& radix) {
    for (size_t i = 0; i < digits.size(); i++) {
      if (++digits[i] < radix[i]) {
        return true;
      }
      digits[i] = 0;
    }
    return false;
  };

  std::map<std::vector<size_t>, std::optional<Frame>> out;
  auto step = [&](const std::vector<size_t>& pick) -> const std::optional<Frame>& {
    auto [it, inserted] = out.try_emplace(pick);
    if (inserted) {
      Frame frame = frame_of(pick);
      if (interp.Step(0, frame).ok()) {
        it->second = std::move(frame);
      }
    }
    return it->second;
  };

  size_t pairs = 0;
  std::vector<size_t> a(slots, 0);
  do {
    const std::optional<Frame>& out_a = step(a);
    if (!out_a.has_value()) {
      continue;
    }
    std::vector<size_t> radix(slots);
    for (size_t i = 0; i < slots; i++) {
      radix[i] = up[a[i]].size();
    }
    std::vector<size_t> pos(slots, 0);
    do {
      std::vector<size_t> b(slots);
      for (size_t i = 0; i < slots; i++) {
        b[i] = up[a[i]][pos[i]];
      }
      const std::optional<Frame>& out_b = step(b);
      if (!out_b.has_value()) {
        continue;
      }
      pairs++;
      ASSERT_TRUE(FrameFits(*out_a, *out_b, names))
          << GetOpInfo(op)->name << " is not monotone: " << names.ToString(frame_of(a))
          << " -> " << names.ToString(*out_a) << " but " << names.ToString(frame_of(b))
          << " -> " << names.ToString(*out_b);
    } while (next(pos, radix));
  } while (next(a, std::vector<size_t>(slots, n_types)));
  if (!IsQuickOp(op) && !IsReturn(op)) {
    EXPECT_GT(pairs, 0u) << GetOpInfo(op)->name << " never stepped";
  }
}

INSTANTIATE_TEST_SUITE_P(AllOpcodes, TransferMonotonicityTest, ::testing::ValuesIn(AllOps()),
                         [](const ::testing::TestParamInfo<Op>& info) {
                           return std::string(GetOpInfo(info.param)->name);
                         });

// ---------------------------------------------------------------------------
// 6. Lattice representation.
// ---------------------------------------------------------------------------

static_assert(sizeof(VType) == 8 && std::is_trivially_copyable_v<VType>);

// Interns `names` in reverse lexicographic order, so that id order and name
// order disagree on every pair.
void InternReversed(std::vector<std::string> names, TypeEnv& types) {
  std::sort(names.rbegin(), names.rend());
  for (const std::string& name : names) {
    types.Intern(name);
  }
}

// The cyclic hierarchy of VerifierTest.MergeTypesIsCommutative: CycA and
// CycB tie on chain depth, and the tie goes to the smaller name.
TEST(LatticeRepresentationTest, JoinTieBreakFollowsNamesNotIds) {
  const std::vector<ClassFile> library = BuildSystemLibrary();
  ClassBuilder a("app/CycA", "app/CycB");
  ClassBuilder b("app/CycB", "app/CycA");
  ClassBuilder c("app/Leaf", "app/CycA");
  const ClassFile cls_a = a.Build().value();
  const ClassFile cls_b = b.Build().value();
  const ClassFile cls_c = c.Build().value();
  MapClassEnv env;
  for (const ClassFile& cls : library) {
    env.Add(&cls);
  }
  env.Add(&cls_a);
  env.Add(&cls_b);
  env.Add(&cls_c);

  for (bool reversed : {false, true}) {
    SCOPED_TRACE(reversed ? "reverse-interned" : "first-use order");
    TypeEnv types(env);
    if (reversed) {
      InternReversed({"app/CycA", "app/CycB", "app/Leaf"}, types);
    }
    const VType cyc_a = types.Ref("app/CycA");
    const VType cyc_b = types.Ref("app/CycB");
    const VType leaf = types.Ref("app/Leaf");
    EXPECT_EQ(types.Name(MergeTypes(cyc_a, cyc_b, types).name), "app/CycA");
    EXPECT_EQ(types.Name(MergeTypes(cyc_b, cyc_a, types).name), "app/CycA");
    EXPECT_EQ(types.Name(MergeTypes(leaf, cyc_b, types).name), "app/CycA");
  }
}

// A jlex class's certificate, pinned to the bytes the string-carrying lattice
// produced, whether names reach the table in first-use or reverse order.
TEST(LatticeRepresentationTest, CertificateBytesDoNotDependOnNameIds) {
  const std::vector<ClassFile> library = BuildSystemLibrary();
  const AppBundle app = BuildJlexApp();
  MapClassEnv env;
  for (const ClassFile& cls : library) {
    env.Add(&cls);
  }
  for (const ClassFile& cls : app.classes) {
    env.Add(&cls);
  }
  const ClassFile* module = env.Lookup("app/jlex/M0");
  ASSERT_NE(module, nullptr);

  std::vector<std::string> names;
  for (const ClassFile& cls : library) {
    names.push_back(cls.name());
  }
  for (const ClassFile& cls : app.classes) {
    names.push_back(cls.name());
  }
  const ConstantPool& pool = module->pool();
  for (size_t i = 1; i < pool.size(); i++) {
    if (pool.HasTag(static_cast<uint16_t>(i), CpTag::kClass)) {
      names.push_back(pool.ClassNameAt(static_cast<uint16_t>(i)).value());
    }
  }

  for (bool reversed : {false, true}) {
    SCOPED_TRACE(reversed ? "reverse-interned" : "first-use order");
    TypeEnv types(env);
    if (reversed) {
      InternReversed(names, types);
    }
    ClassCertificate cert;
    ASSERT_TRUE(VerifyClass(*module, types, &cert).ok());
    const Bytes bytes = SerializeCertificate(cert);
    EXPECT_EQ(bytes.size(), 420u);
    EXPECT_EQ(Fnv1a(bytes.data(), bytes.size()), 0x125392729f51a684ULL);
  }
}

}  // namespace
}  // namespace dvm
