// Edge-case coverage across modules: interpreter corner semantics, simulated
// OS resources, cache/signature/provider edges, and audit batching.
#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "src/bytecode/builder.h"
#include "src/bytecode/disasm.h"
#include "src/bytecode/serializer.h"
#include "src/dvm/dvm.h"
#include "src/proxy/cache.h"
#include "src/proxy/signature.h"
#include "src/runtime/machine.h"
#include "src/runtime/syslib.h"
#include "src/services/monitor_service.h"

namespace dvm {
namespace {

// The two execution engines: reference and quickened.
std::vector<std::pair<std::string, MachineConfig>> EdgeEngines() {
  MachineConfig reference;
  reference.quicken = false;
  return {{"reference", reference}, {"quickened", MachineConfig{}}};
}

// Every edge case runs on both engines, which must agree exactly.
class InterpEdgeTest : public ::testing::Test {
 protected:
  InterpEdgeTest() { InstallSystemLibrary(provider_); }

  // Builds a single static method `f` with the given body, runs it on every
  // engine and returns the common outcome or host error.
  Result<CallOutcome> RunAll(const std::string& desc,
                             const std::function<void(MethodBuilder&)>& body,
                             const std::vector<Value>& args) {
    ClassBuilder cb("edge/C" + std::to_string(counter_++), "java/lang/Object");
    MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "f", desc);
    body(m);
    auto built = cb.Build();
    EXPECT_TRUE(built.ok()) << (built.ok() ? "" : built.error().ToString());
    if (!built.ok()) {
      return built.error();
    }
    std::string name = built->name();
    provider_.AddClassFile(built.value());
    std::optional<Result<CallOutcome>> first;
    for (const auto& [engine, config] : EdgeEngines()) {
      Machine machine(config, &provider_);
      auto out = machine.CallStatic(name, "f", desc, args);
      if (!first.has_value()) {
        first = out;
        continue;
      }
      EXPECT_EQ(out.ok(), first->ok()) << engine;
      if (out.ok() != first->ok()) {
        continue;
      }
      if (!out.ok()) {
        EXPECT_EQ(out.error().message, first->error().message) << engine;
        continue;
      }
      EXPECT_EQ(out->value, (*first)->value) << engine;
      EXPECT_EQ(out->threw, (*first)->threw) << engine;
      EXPECT_EQ(out->exception_class, (*first)->exception_class) << engine;
      EXPECT_EQ(out->exception_message, (*first)->exception_message) << engine;
    }
    return *first;
  }

  CallOutcome Run(const std::string& desc,
                  const std::function<void(MethodBuilder&)>& body,
                  std::vector<Value> args) {
    auto out = RunAll(desc, body, args);
    EXPECT_TRUE(out.ok()) << (out.ok() ? "" : out.error().ToString());
    return out.ok() ? out.value() : CallOutcome{};
  }

  MapClassProvider provider_;
  int counter_ = 0;
};

TEST_F(InterpEdgeTest, ShiftSemanticsMatchJvm) {
  // ishl masks the shift count to 5 bits; iushr zero-extends.
  auto out = Run("(II)I", [](MethodBuilder& m) {
    m.LoadLocal("I", 0).LoadLocal("I", 1).Emit(Op::kIshl).Emit(Op::kIreturn);
  }, {Value::Int(1), Value::Int(33)});
  EXPECT_EQ(out.value.AsInt(), 2);  // 33 & 31 == 1

  out = Run("(I)I", [](MethodBuilder& m) {
    m.LoadLocal("I", 0).PushInt(1).Emit(Op::kIushr).Emit(Op::kIreturn);
  }, {Value::Int(-2)});
  EXPECT_EQ(out.value.AsInt(), 0x7FFFFFFF);

  out = Run("(I)I", [](MethodBuilder& m) {
    m.LoadLocal("I", 0).PushInt(1).Emit(Op::kIshr).Emit(Op::kIreturn);
  }, {Value::Int(-2)});
  EXPECT_EQ(out.value.AsInt(), -1);
}

TEST_F(InterpEdgeTest, LongConversionsTruncateAndExtend) {
  auto out = Run("(J)I", [](MethodBuilder& m) {
    m.LoadLocal("J", 0).Emit(Op::kL2i).Emit(Op::kIreturn);
  }, {Value::Long(0x1'0000'0005LL)});
  EXPECT_EQ(out.value.AsInt(), 5);

  out = Run("(I)J", [](MethodBuilder& m) {
    m.LoadLocal("I", 0).Emit(Op::kI2l).Emit(Op::kLreturn);
  }, {Value::Int(-3)});
  EXPECT_EQ(out.value.AsLong(), -3);
}

TEST_F(InterpEdgeTest, LcmpOrdersCorrectly) {
  auto lcmp = [&](int64_t a, int64_t b) {
    return Run("(JJ)I", [](MethodBuilder& m) {
      m.LoadLocal("J", 0).LoadLocal("J", 1).Emit(Op::kLcmp).Emit(Op::kIreturn);
    }, {Value::Long(a), Value::Long(b)}).value.AsInt();
  };
  EXPECT_EQ(lcmp(1, 2), -1);
  EXPECT_EQ(lcmp(2, 1), 1);
  EXPECT_EQ(lcmp(5, 5), 0);
  EXPECT_EQ(lcmp(-9'000'000'000LL, 1), -1);
}

TEST_F(InterpEdgeTest, DupX1AndSwap) {
  // (a, b) -> dup_x1 leaves b a b; summing gives b + a + b.
  auto out = Run("(II)I", [](MethodBuilder& m) {
    m.LoadLocal("I", 0).LoadLocal("I", 1).Emit(Op::kDupX1);
    m.Emit(Op::kIadd).Emit(Op::kIadd).Emit(Op::kIreturn);
  }, {Value::Int(10), Value::Int(1)});
  EXPECT_EQ(out.value.AsInt(), 12);

  out = Run("(II)I", [](MethodBuilder& m) {
    m.LoadLocal("I", 0).LoadLocal("I", 1).Emit(Op::kSwap).Emit(Op::kIsub).Emit(Op::kIreturn);
  }, {Value::Int(10), Value::Int(1)});
  EXPECT_EQ(out.value.AsInt(), -9);  // 1 - 10
}

TEST_F(InterpEdgeTest, RefComparisonsAndNullTests) {
  auto out = Run("()I", [](MethodBuilder& m) {
    Label eq = m.NewLabel();
    m.PushString("x").PushString("x");  // interned: same reference
    m.Branch(Op::kIfAcmpeq, eq);
    m.PushInt(0).Emit(Op::kIreturn);
    m.Bind(eq).PushInt(1).Emit(Op::kIreturn);
  }, {});
  EXPECT_EQ(out.value.AsInt(), 1);

  out = Run("()I", [](MethodBuilder& m) {
    Label is_null = m.NewLabel();
    m.PushNull().Branch(Op::kIfnull, is_null);
    m.PushInt(0).Emit(Op::kIreturn);
    m.Bind(is_null).PushInt(1).Emit(Op::kIreturn);
  }, {});
  EXPECT_EQ(out.value.AsInt(), 1);
}

TEST_F(InterpEdgeTest, LongDivisionByZeroThrows) {
  auto out = Run("(JJ)J", [](MethodBuilder& m) {
    m.LoadLocal("J", 0).LoadLocal("J", 1).Emit(Op::kLdiv).Emit(Op::kLreturn);
  }, {Value::Long(10), Value::Long(0)});
  EXPECT_TRUE(out.threw);
  EXPECT_EQ(out.exception_class, "java/lang/ArithmeticException");
}

// MIN / -1 overflows in C++ (and traps on x86); the JVM wraps the quotient
// to MIN and defines the remainder as 0.
TEST_F(InterpEdgeTest, IntMinDivMinusOneWraps) {
  auto int_op = [&](Op op) {
    return Run("(II)I", [op](MethodBuilder& m) {
      m.LoadLocal("I", 0).LoadLocal("I", 1).Emit(op).Emit(Op::kIreturn);
    }, {Value::Int(INT32_MIN), Value::Int(-1)});
  };
  auto long_op = [&](Op op) {
    return Run("(JJ)J", [op](MethodBuilder& m) {
      m.LoadLocal("J", 0).LoadLocal("J", 1).Emit(op).Emit(Op::kLreturn);
    }, {Value::Long(INT64_MIN), Value::Long(-1)});
  };
  auto out = int_op(Op::kIdiv);
  EXPECT_FALSE(out.threw);
  EXPECT_EQ(out.value.AsInt(), INT32_MIN);
  EXPECT_EQ(int_op(Op::kIrem).value.AsInt(), 0);
  EXPECT_EQ(long_op(Op::kLdiv).value.AsLong(), INT64_MIN);
  EXPECT_EQ(long_op(Op::kLrem).value.AsLong(), 0);
}

TEST_F(InterpEdgeTest, NegativeArraySizeThrows) {
  auto out = Run("(I)V", [](MethodBuilder& m) {
    m.LoadLocal("I", 0).Emit(Op::kNewarray, static_cast<int>(ArrayKind::kInt));
    m.Emit(Op::kPop).Emit(Op::kReturn);
  }, {Value::Int(-5)});
  EXPECT_TRUE(out.threw);
  EXPECT_EQ(out.exception_class, "java/lang/NegativeArraySizeException");
}

TEST_F(InterpEdgeTest, LongArraysStoreAndLoad) {
  auto out = Run("()J", [](MethodBuilder& m) {
    m.PushInt(4).Emit(Op::kNewarray, static_cast<int>(ArrayKind::kLong));
    m.StoreLocal("[J", 0);
    m.LoadLocal("[J", 0).PushInt(2).PushLong(5'000'000'000LL).Emit(Op::kLastore);
    m.LoadLocal("[J", 0).PushInt(2).Emit(Op::kLaload).Emit(Op::kLreturn);
  }, {});
  EXPECT_EQ(out.value.AsLong(), 5'000'000'000LL);
}

TEST_F(InterpEdgeTest, RefArraysHoldObjects) {
  auto out = Run("()I", [](MethodBuilder& m) {
    m.PushInt(2).ANewArray("java/lang/String").StoreLocal("[Ljava/lang/String;", 0);
    m.LoadLocal("[Ljava/lang/String;", 0).PushInt(0).PushString("hey").Emit(Op::kAastore);
    m.LoadLocal("[Ljava/lang/String;", 0).PushInt(0).Emit(Op::kAaload);
    m.InvokeVirtual("java/lang/String", "length", "()I").Emit(Op::kIreturn);
  }, {});
  EXPECT_EQ(out.value.AsInt(), 3);
}

// `iload; <int const>; <shift>[; istore]` with out-of-range constant shift
// counts: every engine must mask the count to 5 bits.
TEST_F(InterpEdgeTest, FusedAluImmediateShiftCounts) {
  struct Case {
    Op op;
    int32_t count;
    int32_t want;  // -7 (0xFFFFFFF9) shifted by count & 31
  };
  const Case cases[] = {
      {Op::kIshl, 32, -7},  {Op::kIshl, 33, -14}, {Op::kIshl, -1, INT32_MIN},
      {Op::kIshr, 32, -7},  {Op::kIshr, 33, -4},  {Op::kIshr, -1, -1},
      {Op::kIushr, 32, -7}, {Op::kIushr, 33, 0x7FFFFFFC}, {Op::kIushr, -1, 1},
  };
  for (const Case& c : cases) {
    auto direct = Run("(I)I", [&c](MethodBuilder& m) {
      m.LoadLocal("I", 0).PushInt(c.count).Emit(c.op).Emit(Op::kIreturn);
    }, {Value::Int(-7)});
    EXPECT_EQ(direct.value.AsInt(), c.want) << GetOpInfo(c.op)->name << " " << c.count;
    auto stored = Run("(I)I", [&c](MethodBuilder& m) {
      m.LoadLocal("I", 0).PushInt(c.count).Emit(c.op).StoreLocal("I", 1);
      m.LoadLocal("I", 1).Emit(Op::kIreturn);
    }, {Value::Int(-7)});
    EXPECT_EQ(stored.value.AsInt(), c.want) << GetOpInfo(c.op)->name << " " << c.count;
  }
}

// `iload; <int const>; if_icmp<cond>` against INT32_MIN, which comes from the
// constant pool (ldc): the edge of the compare.
TEST_F(InterpEdgeTest, FusedBranchAgainstIntMin) {
  auto taken = [&](Op cond, int32_t x) {
    auto out = Run("(I)I", [cond](MethodBuilder& m) {
      Label yes = m.NewLabel();
      m.LoadLocal("I", 0).PushInt(INT32_MIN).Branch(cond, yes);
      m.PushInt(0).Emit(Op::kIreturn);
      m.Bind(yes).PushInt(1).Emit(Op::kIreturn);
    }, {Value::Int(x)});
    return out.value.AsInt() == 1;
  };
  EXPECT_TRUE(taken(Op::kIfIcmpeq, INT32_MIN));
  EXPECT_FALSE(taken(Op::kIfIcmpeq, INT32_MAX));
  EXPECT_FALSE(taken(Op::kIfIcmpgt, INT32_MIN));
  EXPECT_TRUE(taken(Op::kIfIcmpgt, INT32_MIN + 1));
  EXPECT_TRUE(taken(Op::kIfIcmpge, INT32_MIN));
  EXPECT_FALSE(taken(Op::kIfIcmplt, INT32_MIN));
  EXPECT_TRUE(taken(Op::kIfIcmple, INT32_MIN));
  EXPECT_TRUE(taken(Op::kIfIcmpne, -1));
}

// Without load-time verification (the Machine default) guest code can access
// an array with the wrong element kind. Every engine must report a host error
// instead of reading the wrong backing store (a host crash before).
TEST_F(InterpEdgeTest, ArrayElementKindMismatchIsAHostError) {
  auto run = [&](ArrayKind kind, Op access) {
    return RunAll("()V", [kind, access](MethodBuilder& m) {
      m.PushInt(1000).Emit(Op::kNewarray, static_cast<int>(kind)).PushInt(999);
      if (access == Op::kIastore) {
        m.PushInt(7).Emit(access);
      } else {
        m.Emit(access).Emit(Op::kPop);
      }
      m.Emit(Op::kReturn);
    }, {});
  };
  for (auto [kind, access] : {std::pair{ArrayKind::kLong, Op::kIaload},
                              std::pair{ArrayKind::kInt, Op::kLaload},
                              std::pair{ArrayKind::kInt, Op::kAaload},
                              std::pair{ArrayKind::kLong, Op::kIastore}}) {
    auto out = run(kind, access);
    ASSERT_FALSE(out.ok()) << GetOpInfo(access)->name;
    EXPECT_EQ(out.error().message, "array element kind mismatch");
  }
}

// --- runtime machinery -----------------------------------------------------------

TEST(MachineEdgeTest, InternStringReturnsSameRef) {
  MapClassProvider provider;
  InstallSystemLibrary(provider);
  Machine machine({}, &provider);
  ObjRef a = machine.InternString("shared").value();
  ObjRef b = machine.InternString("shared").value();
  EXPECT_EQ(a, b);
  // Interned strings survive collection with no other roots.
  machine.CollectGarbage();
  EXPECT_EQ(machine.StringValue(a).value(), "shared");
}

TEST(MachineEdgeTest, SimFileSystemEofAndBadHandles) {
  SimFileSystem fs;
  fs.Put("/a", "xy");
  EXPECT_EQ(fs.Open("/missing"), -1);
  int h = fs.Open("/a");
  EXPECT_EQ(fs.Read(h), 'x');
  EXPECT_EQ(fs.Read(h), 'y');
  EXPECT_EQ(fs.Read(h), -1);   // EOF
  EXPECT_EQ(fs.Read(99), -1);  // bad handle
  EXPECT_EQ(fs.PathOf(h) != nullptr ? *fs.PathOf(h) : "", "/a");
}

TEST(MachineEdgeTest, DefaultValuesByDescriptor) {
  EXPECT_EQ(DefaultValueFor("I"), Value::Int(0));
  EXPECT_EQ(DefaultValueFor("J"), Value::Long(0));
  EXPECT_EQ(DefaultValueFor("Ljava/lang/String;"), Value::Null());
  EXPECT_EQ(DefaultValueFor("[I"), Value::Null());
}

TEST(MachineEdgeTest, HeapRejectsWhenExhausted) {
  Heap heap(256);
  auto first = heap.AllocIntArray(16);
  ASSERT_TRUE(first.ok());
  auto second = heap.AllocIntArray(1'000'000);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.error().code, ErrorCode::kCapacity);
}

// --- providers / cache / signer edges -----------------------------------------------

TEST(ProviderEdgeTest, RewriteCacheClear) {
  RewriteCache cache(1 << 20);
  cache.Put("a", CachedClass{Bytes{1}, {}, /*epoch=*/0, /*certificate=*/{}});
  EXPECT_EQ(cache.entries(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.size_bytes(), 0u);
  EXPECT_FALSE(cache.Get("a").has_value());
}

TEST(ProviderEdgeTest, ResigningReplacesOldSignature) {
  CodeSigner signer("key");
  ClassBuilder cb("sig/Twice", "java/lang/Object");
  ClassFile cls = cb.Build().value();
  ASSERT_TRUE(signer.AttachSignature(&cls).ok());
  ASSERT_TRUE(signer.AttachSignature(&cls).ok());  // second signature over the unsigned form
  EXPECT_TRUE(signer.VerifyClassBytes(MustWriteClassFile(cls)).ok());
}

// --- audit batching ---------------------------------------------------------------

TEST(AuditEdgeTest, BufferAutoFlushesInBatches) {
  MapClassProvider provider;
  InstallSystemLibrary(provider);
  ClassBuilder cb("app/Chatty", "java/lang/Object");
  MethodBuilder& noisy = cb.AddMethod(AccessFlags::kPublic | AccessFlags::kStatic,
                                      "noisy", "()V");
  noisy.PushString("app/Chatty.noisy");
  // Direct call into the auditor stub, 70 times.
  noisy.InvokeStatic(kRtAuditorClass, "enter", "(Ljava/lang/String;)V");
  noisy.Emit(Op::kReturn);
  provider.AddClassFile(cb.Build().value());

  Machine machine({}, &provider);
  AdministrationConsole console;
  AuditSession session(&console, "u", "h");
  session.Install(machine);
  for (int i = 0; i < 70; i++) {
    ASSERT_TRUE(machine.CallStatic("app/Chatty", "noisy", "()V").ok());
  }
  // 64-event batches flush automatically even without an explicit Flush().
  EXPECT_GE(console.events_received(), 64u);
  session.Flush();
  EXPECT_GE(console.events_received(), 71u);  // 70 events + session-start
}

// --- disassembler edges -------------------------------------------------------------

TEST(DisasmEdgeTest, NativeAbstractAndHandlers) {
  ClassBuilder cb("dis/Mix", "java/lang/Object");
  cb.AddNativeMethod(AccessFlags::kStatic, "nat", "()V");
  cb.AddAbstractMethod(AccessFlags::kPublic, "abs", "()V");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic, "try_it", "()V");
  Label start = m.NewLabel(), end = m.NewLabel(), handler = m.NewLabel();
  m.Bind(start).PushInt(1).PushInt(1).Emit(Op::kIdiv).Emit(Op::kPop);
  m.Emit(Op::kReturn);
  m.Bind(end).Bind(handler).Emit(Op::kPop).Emit(Op::kReturn);
  m.AddHandler(start, end, handler, "java/lang/ArithmeticException");
  ClassFile cls = cb.Build().value();

  std::string text = DisassembleClass(cls);
  EXPECT_NE(text.find("(native)"), std::string::npos);
  EXPECT_NE(text.find("(abstract)"), std::string::npos);
  EXPECT_NE(text.find("handler ["), std::string::npos);
  EXPECT_NE(text.find("catch java/lang/ArithmeticException"), std::string::npos);
}

}  // namespace
}  // namespace dvm
