// Differential tests for the quickened execution engine (DESIGN.md §11).
//
// The quickened engine (threaded dispatch, quick opcodes, sliced call frames)
// and the reference switch interpreter must be observably identical: same
// CallOutcomes, same guest output, same thrown-exception sequences, same
// runtime counters (quickened_sites excepted — it is engine-internal) and the
// same virtual clock. These tests pin that equivalence over every synthetic
// workload application and the fuzz regression corpus, plus targeted
// regressions: invokevirtual null-receiver ordering at a quickened site,
// inline-cache correctness across class redefinition through the proxy's
// InvalidateCache, the verifier rejecting on-the-wire quick opcodes, and the
// disassembler's quick-form annotations.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <set>

#include "fuzz/oracles.h"
#include "src/bytecode/builder.h"
#include "src/bytecode/disasm.h"
#include "src/bytecode/serializer.h"
#include "src/proxy/proxy.h"
#include "src/runtime/interp.h"
#include "src/runtime/machine.h"
#include "src/runtime/profile.h"
#include "src/runtime/syslib.h"
#include "src/verifier/class_env.h"
#include "src/verifier/verifier.h"
#include "src/workloads/applets.h"
#include "src/workloads/apps.h"
#include "src/workloads/graphical.h"

namespace dvm {
namespace {

#ifndef DVM_CORPUS_DIR
#define DVM_CORPUS_DIR "tests/corpus"
#endif

MachineConfig EngineConfig(bool quicken) {
  MachineConfig config;
  config.quicken = quicken;
  return config;
}

// Runs `main_class.main()V` under both engines and asserts every observable
// is identical. Returns the quickened machine's quickened-site count so
// callers can additionally assert the quick paths actually ran.
uint64_t RunBothEngines(const AppBundle& bundle) {
  MapClassProvider provider_quick;
  InstallSystemLibrary(provider_quick);
  bundle.InstallInto(&provider_quick);
  MapClassProvider provider_ref;
  InstallSystemLibrary(provider_ref);
  bundle.InstallInto(&provider_ref);

  Machine quick(EngineConfig(true), &provider_quick);
  Machine reference(EngineConfig(false), &provider_ref);

  auto qo = quick.RunMain(bundle.main_class);
  auto ro = reference.RunMain(bundle.main_class);
  EXPECT_EQ(qo.ok(), ro.ok()) << bundle.name;
  if (qo.ok() && ro.ok()) {
    EXPECT_EQ(qo->threw, ro->threw) << bundle.name;
    EXPECT_EQ(qo->exception_class, ro->exception_class) << bundle.name;
    EXPECT_EQ(qo->exception_message, ro->exception_message) << bundle.name;
    EXPECT_EQ(static_cast<int>(qo->value.kind), static_cast<int>(ro->value.kind))
        << bundle.name;
    if (qo->value.kind != Value::Kind::kRef) {
      EXPECT_EQ(qo->value.num, ro->value.num) << bundle.name;
    }
  }
  EXPECT_EQ(quick.printed(), reference.printed()) << bundle.name;
  EXPECT_EQ(quick.virtual_nanos(), reference.virtual_nanos()) << bundle.name;

  const RuntimeCounters& qc = quick.counters();
  const RuntimeCounters& rc = reference.counters();
  EXPECT_EQ(qc.instructions, rc.instructions) << bundle.name;
  EXPECT_EQ(qc.method_invocations, rc.method_invocations) << bundle.name;
  EXPECT_EQ(qc.native_calls, rc.native_calls) << bundle.name;
  EXPECT_EQ(qc.allocations, rc.allocations) << bundle.name;
  EXPECT_EQ(qc.allocated_bytes, rc.allocated_bytes) << bundle.name;
  EXPECT_EQ(qc.gc_runs, rc.gc_runs) << bundle.name;
  EXPECT_EQ(qc.classes_loaded, rc.classes_loaded) << bundle.name;
  EXPECT_EQ(qc.exceptions_thrown, rc.exceptions_thrown) << bundle.name;
  // The one deliberate difference: the reference engine never quickens.
  EXPECT_EQ(rc.quickened_sites, 0u) << bundle.name;
  return qc.quickened_sites;
}

TEST(QuickenDifferential, Fig5AppsAreEngineIdentical) {
  for (const AppBundle& bundle : BuildFig5Apps(/*work_scale=*/1)) {
    uint64_t quickened = RunBothEngines(bundle);
    EXPECT_GT(quickened, 0u) << bundle.name << " never exercised a quick path";
  }
}

TEST(QuickenDifferential, GraphicalAppsAreEngineIdentical) {
  for (const AppBundle& bundle : BuildGraphicalApps()) {
    RunBothEngines(bundle);
  }
}

TEST(QuickenDifferential, AppletPopulationIsEngineIdentical) {
  for (const AppBundle& bundle : BuildAppletPopulation(/*count=*/12, /*seed=*/7)) {
    RunBothEngines(bundle);
  }
}

// Every minimized fuzz crasher replays through the dual-engine differential
// oracle: hostile inputs must exercise the quick paths without divergence.
TEST(QuickenDifferential, FuzzCorpusIsEngineIdentical) {
  std::filesystem::path dir(DVM_CORPUS_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << "missing corpus dir " << dir;
  size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    Bytes data{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
    std::string violation = fuzz::CheckDifferential(data);
    EXPECT_TRUE(violation.empty()) << entry.path().filename() << ": " << violation;
    count++;
  }
  EXPECT_GE(count, 13u);
}

class QuickenRegressionTest : public ::testing::Test {
 protected:
  QuickenRegressionTest() { InstallSystemLibrary(provider_); }

  void AddClass(ClassBuilder& cb) {
    auto built = cb.Build();
    ASSERT_TRUE(built.ok()) << built.error().ToString();
    provider_.AddClassFile(built.value());
  }

  MapClassProvider provider_;
};

// invokevirtual on a null receiver must raise NullPointerException through a
// site that has ALREADY been quickened: the quick handler's null check runs
// before the inline cache is consulted, so a cache installed by an earlier
// call never masks the NPE (the old engine copied args and consulted the
// cache before the null check).
TEST_F(QuickenRegressionTest, NullReceiverAtQuickenedSite) {
  ClassBuilder target("app/Target", "java/lang/Object");
  target.AddDefaultConstructor();
  target.AddMethod(AccessFlags::kPublic, "m", "()I").PushInt(41).Emit(Op::kIreturn);
  AddClass(target);

  ClassBuilder cb("app/Caller", "java/lang/Object");
  // call(Target t) = t.m() — one shared invokevirtual site.
  MethodBuilder& call = cb.AddMethod(AccessFlags::kStatic, "call", "(Lapp/Target;)I");
  call.LoadLocal("L", 0).InvokeVirtual("app/Target", "m", "()I").Emit(Op::kIreturn);
  // warm() primes the site's monomorphic cache with a live receiver.
  MethodBuilder& warm = cb.AddMethod(AccessFlags::kStatic, "warm", "()I");
  warm.New("app/Target").Emit(Op::kDup)
      .InvokeSpecial("app/Target", "<init>", "()V")
      .InvokeStatic("app/Caller", "call", "(Lapp/Target;)I")
      .Emit(Op::kIreturn);
  // trip() sends null through the now-quickened site.
  MethodBuilder& trip = cb.AddMethod(AccessFlags::kStatic, "trip", "()I");
  trip.PushNull().InvokeStatic("app/Caller", "call", "(Lapp/Target;)I").Emit(Op::kIreturn);
  AddClass(cb);

  for (bool quicken : {true, false}) {
    Machine machine(EngineConfig(quicken), &provider_);
    auto warm_outcome = machine.CallStatic("app/Caller", "warm", "()I");
    ASSERT_TRUE(warm_outcome.ok()) << warm_outcome.error().ToString();
    ASSERT_FALSE(warm_outcome->threw);
    EXPECT_EQ(warm_outcome->value.AsInt(), 41);

    auto trip_outcome = machine.CallStatic("app/Caller", "trip", "()I");
    ASSERT_TRUE(trip_outcome.ok()) << trip_outcome.error().ToString();
    EXPECT_TRUE(trip_outcome->threw) << "quicken=" << quicken;
    EXPECT_EQ(trip_outcome->exception_class, "java/lang/NullPointerException");
    EXPECT_EQ(trip_outcome->exception_message, "invoke on null receiver");
  }
}

// A polymorphic site must re-resolve on an inline-cache miss: after warming
// the cache with one receiver class, dispatching a subclass through the same
// quickened site must call the override, not the cached target.
TEST_F(QuickenRegressionTest, CacheMissRedispatchesOnReceiverChange) {
  ClassBuilder base("app/Base", "java/lang/Object");
  base.AddDefaultConstructor();
  base.AddMethod(AccessFlags::kPublic, "m", "()I").PushInt(1).Emit(Op::kIreturn);
  AddClass(base);
  ClassBuilder sub("app/Sub", "app/Base");
  sub.AddDefaultConstructor();
  sub.AddMethod(AccessFlags::kPublic, "m", "()I").PushInt(2).Emit(Op::kIreturn);
  AddClass(sub);

  ClassBuilder cb("app/Poly", "java/lang/Object");
  MethodBuilder& call = cb.AddMethod(AccessFlags::kStatic, "call", "(Lapp/Base;)I");
  call.LoadLocal("L", 0).InvokeVirtual("app/Base", "m", "()I").Emit(Op::kIreturn);
  MethodBuilder& go = cb.AddMethod(AccessFlags::kStatic, "go", "()I");
  // call(new Base()) * 10 + call(new Sub()) == 12 iff dispatch is correct.
  go.New("app/Base").Emit(Op::kDup).InvokeSpecial("app/Base", "<init>", "()V")
      .InvokeStatic("app/Poly", "call", "(Lapp/Base;)I")
      .PushInt(10).Emit(Op::kImul)
      .New("app/Sub").Emit(Op::kDup).InvokeSpecial("app/Sub", "<init>", "()V")
      .InvokeStatic("app/Poly", "call", "(Lapp/Base;)I")
      .Emit(Op::kIadd).Emit(Op::kIreturn);
  AddClass(cb);

  for (bool quicken : {true, false}) {
    Machine machine(EngineConfig(quicken), &provider_);
    auto outcome = machine.CallStatic("app/Poly", "go", "()I");
    ASSERT_TRUE(outcome.ok()) << outcome.error().ToString();
    ASSERT_FALSE(outcome->threw);
    EXPECT_EQ(outcome->value.AsInt(), 12) << "quicken=" << quicken;
  }
}

// The first execution of each resolving opcode, run into each of its faults:
// a null receiver whose field does not resolve (the NPE must win), a missing
// class, a throwing <clinit> reached from getstatic and from new, a negative
// array length and a failing cast. Each method runs once on a fresh machine,
// so the faulting instruction is its site's first execution; both engines
// must end the same way at the same instruction count and virtual time.
TEST_F(QuickenRegressionTest, FirstExecutionFaultsAreEngineIdentical) {
  for (const char* name : {"app/BadInitGet", "app/BadInitNew"}) {
    ClassBuilder bad(name, "java/lang/Object");
    bad.AddField(AccessFlags::kStatic, "x", "I");
    bad.AddDefaultConstructor();
    bad.AddMethod(AccessFlags::kStatic, "<clinit>", "()V")
        .PushInt(1).PushInt(0).Emit(Op::kIdiv).PutStatic(name, "x", "I").Emit(Op::kReturn);
    AddClass(bad);
  }
  ClassBuilder target("app/Target", "java/lang/Object");
  target.AddDefaultConstructor();
  AddClass(target);

  struct Case {
    const char* method;
    std::function<void(MethodBuilder&)> body;
    const char* exception_class;  // null: the run ends in a host error
  };
  const std::vector<Case> cases = {
      {"getfieldNull",
       [](MethodBuilder& m) { m.PushNull().GetField("app/Faults", "missing", "I").Emit(Op::kPop); },
       "java/lang/NullPointerException"},
      {"putfieldNull",
       [](MethodBuilder& m) { m.PushNull().PushInt(1).PutField("app/Faults", "missing", "I"); },
       "java/lang/NullPointerException"},
      {"newMissing", [](MethodBuilder& m) { m.New("app/Missing").Emit(Op::kPop); }, nullptr},
      {"getstaticClinit",
       [](MethodBuilder& m) { m.GetStatic("app/BadInitGet", "x", "I").Emit(Op::kPop); },
       "java/lang/ExceptionInInitializerError"},
      {"newClinit", [](MethodBuilder& m) { m.New("app/BadInitNew").Emit(Op::kPop); },
       "java/lang/ExceptionInInitializerError"},
      {"anewarrayNegative",
       [](MethodBuilder& m) { m.PushInt(-1).ANewArray("app/Target").Emit(Op::kPop); },
       "java/lang/NegativeArraySizeException"},
      {"checkcastFails",
       [](MethodBuilder& m) {
         m.New("app/Target").Emit(Op::kDup).InvokeSpecial("app/Target", "<init>", "()V")
             .CheckCast("app/Faults").Emit(Op::kPop);
       },
       "java/lang/ClassCastException"},
  };
  ClassBuilder cb("app/Faults", "java/lang/Object");
  for (const Case& c : cases) {
    MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic, c.method, "()V");
    c.body(m);
    m.Emit(Op::kReturn);
  }
  AddClass(cb);

  struct Run {
    bool ok = false;
    std::string error;
    std::string exception_class;
    std::string exception_message;
    uint64_t instructions = 0;
    uint64_t virtual_nanos = 0;
  };
  for (const Case& c : cases) {
    auto run = [&](bool quicken) {
      Machine machine(EngineConfig(quicken), &provider_);
      auto outcome = machine.CallStatic("app/Faults", c.method, "()V");
      Run r;
      r.ok = outcome.ok();
      if (!outcome.ok()) {
        r.error = outcome.error().message;
      } else if (outcome->threw) {
        r.exception_class = outcome->exception_class;
        r.exception_message = outcome->exception_message;
      }
      r.instructions = machine.counters().instructions;
      r.virtual_nanos = machine.virtual_nanos();
      return r;
    };
    const Run q = run(true);
    const Run r = run(false);
    EXPECT_EQ(q.ok, r.ok) << c.method;
    EXPECT_EQ(q.error, r.error) << c.method;
    EXPECT_EQ(q.exception_class, r.exception_class) << c.method;
    EXPECT_EQ(q.exception_message, r.exception_message) << c.method;
    EXPECT_EQ(q.instructions, r.instructions) << c.method;
    EXPECT_EQ(q.virtual_nanos, r.virtual_nanos) << c.method;
    if (c.exception_class == nullptr) {
      EXPECT_FALSE(r.ok) << c.method;
    } else {
      EXPECT_TRUE(r.ok) << c.method << ": " << r.error;
      EXPECT_EQ(r.exception_class, c.exception_class) << c.method;
    }
  }
}

// Inline-cache correctness across class redefinition: a client that loads a
// class through the proxy, then a second client after the origin redefined it
// and the proxy's InvalidateCache dropped the stale rewrite, must each see
// their own version — per-machine quickening state (and the process-global
// symbol interner) must not leak resolution results between the two.
TEST(QuickenProxyTest, InlineCachesSurviveClassRedefinition) {
  auto build_version = [](int result) {
    ClassBuilder target("app/Svc", "java/lang/Object");
    target.AddDefaultConstructor();
    target.AddMethod(AccessFlags::kPublic, "answer", "()I").PushInt(result).Emit(Op::kIreturn);
    auto built = target.Build();
    EXPECT_TRUE(built.ok());
    return WriteClassFile(built.value()).value();
  };
  ClassBuilder cb("app/Main", "java/lang/Object");
  MethodBuilder& go = cb.AddMethod(AccessFlags::kStatic, "go", "()I");
  go.New("app/Svc").Emit(Op::kDup).InvokeSpecial("app/Svc", "<init>", "()V")
      .InvokeVirtual("app/Svc", "answer", "()I").Emit(Op::kIreturn);
  Bytes main_bytes = WriteClassFile(cb.Build().value()).value();

  // Origin server whose app/Svc can be redefined between requests.
  MapClassProvider origin;
  origin.Add("app/Main", main_bytes);
  origin.Add("app/Svc", build_version(7));

  std::vector<ClassFile> syslib = BuildSystemLibrary();
  MapClassEnv library_env;
  for (const ClassFile& cls : syslib) {
    library_env.Add(&cls);
  }
  DvmProxy proxy({}, &library_env, &origin);

  // A provider view that pulls every class through the proxy.
  struct ProxyProvider : ClassProvider {
    DvmProxy* proxy;
    MapClassProvider* syslib_provider;
    Result<Bytes> FetchClass(const std::string& class_name) override {
      if (syslib_provider->Has(class_name)) {
        return syslib_provider->FetchClass(class_name);
      }
      DVM_ASSIGN_OR_RETURN(ProxyResponse response, proxy->HandleRequest(class_name));
      return response.data;
    }
  };
  MapClassProvider syslib_provider;
  InstallSystemLibrary(syslib_provider);
  ProxyProvider through_proxy;
  through_proxy.proxy = &proxy;
  through_proxy.syslib_provider = &syslib_provider;

  MachineConfig config;
  config.quicken = true;
  Machine first(config, &through_proxy);
  auto v1 = first.CallStatic("app/Main", "go", "()I");
  ASSERT_TRUE(v1.ok()) << v1.error().ToString();
  EXPECT_EQ(v1->value.AsInt(), 7);

  // Redefine the class at the origin and drop the proxy's cached rewrite.
  origin.Add("app/Svc", build_version(13));
  proxy.InvalidateCache();

  Machine second(config, &through_proxy);
  auto v2 = second.CallStatic("app/Main", "go", "()I");
  ASSERT_TRUE(v2.ok()) << v2.error().ToString();
  EXPECT_EQ(v2->value.AsInt(), 13);

  // The first client's quickened state still dispatches to ITS version.
  auto v1_again = first.CallStatic("app/Main", "go", "()I");
  ASSERT_TRUE(v1_again.ok()) << v1_again.error().ToString();
  EXPECT_EQ(v1_again->value.AsInt(), 7);
  EXPECT_GT(first.counters().quickened_sites, 0u);
  EXPECT_GT(second.counters().quickened_sites, 0u);
}

// Quick forms are runtime-internal: a class file carrying one on the wire
// must be rejected by verification, never reach an engine.
TEST(QuickenVerifierTest, WireQuickOpcodeIsRejected) {
  ClassBuilder cb("app/Hostile", "java/lang/Object");
  cb.AddMethod(AccessFlags::kStatic, "f", "()I").PushInt(3).Emit(Op::kIreturn);
  ClassFile cls = cb.Build().value();
  // Patch the first code byte to getfield_quick (0xd4).
  MethodInfo* f = cls.FindMethod("f", "()I");
  ASSERT_NE(f, nullptr);
  ASSERT_TRUE(f->code.has_value());
  f->code->code[0] = 0xd4;

  MapClassEnv env;
  auto verified = VerifyClass(cls, env);
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.error().code, ErrorCode::kVerifyError);
}

TEST(QuickenDisasmTest, QuickFormsAreAnnotated) {
  // Field quick forms annotate the resolved slot, not a constant-pool index.
  EXPECT_EQ(DisassembleInstr(nullptr, Instr{Op::kGetfieldQuick, 5, 0}),
            "getfield_quick #5 (slot)");
  EXPECT_EQ(DisassembleInstr(nullptr, Instr{Op::kPutfieldQuick, 2, 0}),
            "putfield_quick #2 (slot)");
  // Cache-resident payloads print their site index.
  std::string ldc = DisassembleInstr(nullptr, Instr{Op::kLdcQuick, 9, 0});
  EXPECT_NE(ldc.find("ldc_quick"), std::string::npos) << ldc;
  std::string iv = DisassembleInstr(nullptr, Instr{Op::kInvokevirtualQuick, 4, 0});
  EXPECT_NE(iv.find("invokevirtual_quick"), std::string::npos) << iv;
}

// --- Instruction budget parity --------------------------------------------------
//
// The quickened engine counts instructions in a register and charges them to
// counters.instructions and the virtual clock at flush points. These tests
// cut one program short at every possible instruction and require both
// engines to stop at the same place, in the same state.

// Classes whose <clinit> runs a loop and is first triggered by getstatic,
// new and invokestatic respectively, and a main that loops, triggers all
// three, calls natives with and without a result, and makes two subtype
// tests that fetch classes.
void AddBudgetProgram(MapClassProvider& provider) {
  auto add = [&provider](ClassBuilder& cb) {
    auto built = cb.Build();
    ASSERT_TRUE(built.ok()) << built.error().ToString();
    provider.AddClassFile(built.value());
  };
  // <clinit>: x = 0 + 1 + 2 (a three-trip loop on local 0).
  auto add_clinit_loop = [](ClassBuilder& cb, const std::string& cls) {
    MethodBuilder& clinit = cb.AddMethod(AccessFlags::kStatic, "<clinit>", "()V");
    Label top = clinit.NewLabel();
    Label done = clinit.NewLabel();
    clinit.PushInt(0).StoreLocal("I", 0).Bind(top)
        .LoadLocal("I", 0).PushInt(3).Branch(Op::kIfIcmpge, done)
        .GetStatic(cls, "x", "I").LoadLocal("I", 0).Emit(Op::kIadd).PutStatic(cls, "x", "I")
        .Emit(Op::kIinc, 0, 1).Branch(Op::kGoto, top)
        .Bind(done).Emit(Op::kReturn);
  };
  ClassBuilder g("app/ByGetstatic", "java/lang/Object");
  g.AddField(AccessFlags::kStatic, "x", "I");
  add_clinit_loop(g, "app/ByGetstatic");
  add(g);
  ClassBuilder n("app/ByNew", "java/lang/Object");
  n.AddField(AccessFlags::kStatic, "x", "I");
  n.AddDefaultConstructor();
  add_clinit_loop(n, "app/ByNew");
  add(n);
  ClassBuilder st("app/ByInvokestatic", "java/lang/Object");
  st.AddField(AccessFlags::kStatic, "x", "I");
  add_clinit_loop(st, "app/ByInvokestatic");
  st.AddMethod(AccessFlags::kStatic, "f", "()I")
      .GetStatic("app/ByInvokestatic", "x", "I").Emit(Op::kIreturn);
  // Network-compiled: its frames run at the compiled instruction cost, so
  // the clock shows which frame each instruction was charged to.
  auto compiled = st.Build();
  ASSERT_TRUE(compiled.ok()) << compiled.error().ToString();
  compiled->SetAttribute(kAttrCompiledStamp, Bytes{'x', '8', '6'});
  provider.AddClassFile(compiled.value());

  // Two classes whose interfaces load only when a subtype test walks them.
  for (const char* suffix : {"A", "B"}) {
    ClassBuilder iface(std::string("app/Iface") + suffix, "java/lang/Object");
    add(iface);
    ClassBuilder impl(std::string("app/Impl") + suffix, "java/lang/Object");
    impl.AddInterface(std::string("app/Iface") + suffix);
    impl.AddDefaultConstructor();
    add(impl);
  }

  ClassBuilder cb("app/Budget", "java/lang/Object");
  // probe(o) = o instanceof app/Budget: always 0, but the walk loads the
  // interfaces of o's class — on the second call, from the quickened site.
  cb.AddMethod(AccessFlags::kStatic, "probe", "(Ljava/lang/Object;)I")
      .LoadLocal("L", 0).InstanceOf("app/Budget").Emit(Op::kIreturn);
  MethodBuilder& run = cb.AddMethod(AccessFlags::kStatic, "run", "()I");
  Label top = run.NewLabel();
  Label done = run.NewLabel();
  // sum = 0 + 1 + 2 + 3 (backedges), then each first-use trigger.
  run.PushInt(0).StoreLocal("I", 0).PushInt(0).StoreLocal("I", 1).Bind(top)
      .LoadLocal("I", 1).PushInt(4).Branch(Op::kIfIcmpge, done)
      .LoadLocal("I", 0).LoadLocal("I", 1).Emit(Op::kIadd).StoreLocal("I", 0)
      .Emit(Op::kIinc, 1, 1).Branch(Op::kGoto, top)
      .Bind(done)
      .LoadLocal("I", 0).GetStatic("app/ByGetstatic", "x", "I").Emit(Op::kIadd)
      .New("app/ByNew").Emit(Op::kDup).InvokeSpecial("app/ByNew", "<init>", "()V")
      .Emit(Op::kPop)
      .InvokeStatic("app/ByInvokestatic", "f", "()I").Emit(Op::kIadd)
      // Natives: Integer.toString(sum).length() adds a value, println none.
      .LoadLocal("I", 0).InvokeStatic("java/lang/Integer", "toString", "(I)Ljava/lang/String;")
      .InvokeVirtual("java/lang/String", "length", "()I").Emit(Op::kIadd)
      .PushString("budget").InvokeStatic("java/lang/System", "println", "(Ljava/lang/String;)V")
      .PushInt(1).Emit(Op::kIadd)
      .New("app/ImplA").Emit(Op::kDup).InvokeSpecial("app/ImplA", "<init>", "()V")
      .InvokeStatic("app/Budget", "probe", "(Ljava/lang/Object;)I").Emit(Op::kIadd)
      .New("app/ImplB").Emit(Op::kDup).InvokeSpecial("app/ImplB", "<init>", "()V")
      .InvokeStatic("app/Budget", "probe", "(Ljava/lang/Object;)I").Emit(Op::kIadd)
      .Emit(Op::kIreturn);
  add(cb);
}

// Logs the machine's clock and instruction count at every class fetch, as
// a client fetching over a network does when it stamps its trace spans.
class ClockStampingProvider : public ClassProvider {
 public:
  explicit ClockStampingProvider(ClassProvider* inner) : inner_(inner) {}
  void Attach(Machine* machine) { machine_ = machine; }
  Result<Bytes> FetchClass(const std::string& class_name) override {
    stamps_.push_back(class_name + "@" + std::to_string(machine_->virtual_nanos()) + "/" +
                      std::to_string(machine_->counters().instructions));
    return inner_->FetchClass(class_name);
  }
  const std::vector<std::string>& stamps() const { return stamps_; }

 private:
  ClassProvider* inner_;
  Machine* machine_ = nullptr;
  std::vector<std::string> stamps_;
};

// Everything an engine leaves behind when a run ends, normally or not.
struct BudgetRun {
  bool ok = false;
  std::string error;
  int32_t value = 0;
  std::string innermost;  // guest frame on top of the call stack at the end
  std::vector<std::string> printed;
  std::vector<std::string> fetches;  // ClockStampingProvider's log
  uint64_t virtual_nanos = 0;
  RuntimeCounters counters;
  uint64_t samples = 0;
  std::string stacks;
};

BudgetRun RunWithBudget(MapClassProvider& provider, bool quicken, uint64_t budget,
                        uint64_t sample_period) {
  MachineConfig config = EngineConfig(quicken);
  config.max_instructions = budget;
  ClockStampingProvider stamping(&provider);
  Machine machine(config, &stamping);
  stamping.Attach(&machine);
  ProfilerConfig profiler_config;
  profiler_config.sample_period_nanos = sample_period;
  ExecutionProfiler profiler(profiler_config);
  machine.SetProfiler(&profiler);
  auto outcome = machine.CallStatic("app/Budget", "run", "()I");
  BudgetRun out;
  out.ok = outcome.ok();
  if (outcome.ok()) {
    out.value = outcome->value.AsInt();
  } else {
    out.error = outcome.error().message;
  }
  if (!machine.call_stack().empty()) {
    const FrameInfo& top = machine.call_stack().back();
    out.innermost = top.cls->name + "." + top.method->name;
  }
  out.printed = machine.printed();
  out.fetches = stamping.stamps();
  out.virtual_nanos = machine.virtual_nanos();
  out.counters = machine.counters();
  out.samples = profiler.samples();
  out.stacks = profiler.CollapsedStacks();
  return out;
}

void ExpectSameRun(const BudgetRun& q, const BudgetRun& r, const std::string& where) {
  EXPECT_EQ(q.ok, r.ok) << where;
  EXPECT_EQ(q.error, r.error) << where;
  EXPECT_EQ(q.value, r.value) << where;
  EXPECT_EQ(q.innermost, r.innermost) << where;
  EXPECT_EQ(q.printed, r.printed) << where;
  EXPECT_EQ(q.fetches, r.fetches) << where;
  EXPECT_EQ(q.virtual_nanos, r.virtual_nanos) << where;
  EXPECT_EQ(q.counters.instructions, r.counters.instructions) << where;
  EXPECT_EQ(q.counters.method_invocations, r.counters.method_invocations) << where;
  EXPECT_EQ(q.counters.native_calls, r.counters.native_calls) << where;
  EXPECT_EQ(q.counters.allocations, r.counters.allocations) << where;
  EXPECT_EQ(q.counters.classes_loaded, r.counters.classes_loaded) << where;
  EXPECT_EQ(q.counters.exceptions_thrown, r.counters.exceptions_thrown) << where;
  EXPECT_EQ(q.counters.profile_events, r.counters.profile_events) << where;
  EXPECT_EQ(q.samples, r.samples) << where;
  EXPECT_EQ(q.stacks, r.stacks) << where;
}

// Every budget from 1 instruction to past the end: the run stops at a loop
// backedge, inside each <clinit> (run from getstatic, new and invokestatic
// resolution), and right after each native call. Both engines must report the
// same error with the same instruction count, clock and guest call stack, and
// with a profiler attached they must have taken the same samples by then. A
// sample count that matches at every cut point means every sample was taken
// at the same instruction, i.e. at the same virtual time. Class fetches,
// including those a subtype test makes from a quickened site, must see the
// same clock too.
TEST(QuickenBudgetTest, BothEnginesStopAtTheSameInstruction) {
  MapClassProvider quick_provider;
  InstallSystemLibrary(quick_provider);
  AddBudgetProgram(quick_provider);
  MapClassProvider ref_provider;
  InstallSystemLibrary(ref_provider);
  AddBudgetProgram(ref_provider);

  BudgetRun full = RunWithBudget(ref_provider, /*quicken=*/false, 1'000'000, 997);
  ASSERT_TRUE(full.ok) << full.error;
  // The loop's 6, ByGetstatic.x, ByInvokestatic.f(), the length of "6", 1.
  EXPECT_EQ(full.value, 6 + 3 + 3 + 1 + 1);
  // The second probe's subtype walk fetched app/IfaceB.
  ASSERT_FALSE(full.fetches.empty());
  EXPECT_EQ(full.fetches.back().rfind("app/IfaceB@", 0), 0u) << full.fetches.back();
  const uint64_t total = full.counters.instructions;

  std::set<std::string> stopped_in;
  size_t after_native = 0;
  uint64_t previous_natives = 0;
  for (uint64_t period : {997u, 4'001u}) {
    for (uint64_t budget = 1; budget <= total + 1; budget++) {
      const std::string where =
          "budget=" + std::to_string(budget) + " period=" + std::to_string(period);
      BudgetRun q = RunWithBudget(quick_provider, /*quicken=*/true, budget, period);
      BudgetRun r = RunWithBudget(ref_provider, /*quicken=*/false, budget, period);
      ExpectSameRun(q, r, where);
      EXPECT_EQ(r.ok, budget >= total) << where;
      if (!r.ok) {
        EXPECT_EQ(r.error, "instruction budget exceeded") << where;
        EXPECT_EQ(r.counters.instructions, budget) << where;
        stopped_in.insert(r.innermost);
        // The instruction before the cut was the native invoke.
        after_native += r.counters.native_calls > previous_natives ? 1 : 0;
      }
      previous_natives = r.counters.native_calls;
    }
  }
  for (const char* method : {"app/Budget.run", "app/ByGetstatic.<clinit>", "app/ByNew.<clinit>",
                             "app/ByInvokestatic.<clinit>"}) {
    EXPECT_EQ(stopped_in.count(method), 1u) << method;
  }
  // Integer.toString, String.length and println, under both periods.
  EXPECT_EQ(after_native, 6u);
}

// --- Inline-cache memos ----------------------------------------------------------

// One invokevirtual site whose receiver alternates between two classes with
// different overrides: the memoized callee body must follow the target. The
// same holds for natives bound per class.
TEST_F(QuickenRegressionTest, InvokeMemoFollowsAlternatingReceivers) {
  ClassBuilder base("app/Base", "java/lang/Object");
  base.AddDefaultConstructor();
  base.AddMethod(AccessFlags::kPublic, "m", "()I").PushInt(1).Emit(Op::kIreturn);
  base.AddNativeMethod(AccessFlags::kPublic, "n", "()I");
  AddClass(base);
  ClassBuilder sub("app/Sub", "app/Base");
  sub.AddDefaultConstructor();
  sub.AddMethod(AccessFlags::kPublic, "m", "()I").PushInt(2).Emit(Op::kIreturn);
  sub.AddNativeMethod(AccessFlags::kPublic, "n", "()I");
  AddClass(sub);

  ClassBuilder cb("app/Alt", "java/lang/Object");
  // pick(i) = i odd ? new Sub() : new Base()
  MethodBuilder& pick = cb.AddMethod(AccessFlags::kStatic, "pick", "(I)Lapp/Base;");
  Label odd = pick.NewLabel();
  pick.LoadLocal("I", 0).PushInt(1).Emit(Op::kIand).Branch(Op::kIfne, odd)
      .New("app/Base").Emit(Op::kDup).InvokeSpecial("app/Base", "<init>", "()V")
      .Emit(Op::kAreturn)
      .Bind(odd)
      .New("app/Sub").Emit(Op::kDup).InvokeSpecial("app/Sub", "<init>", "()V")
      .Emit(Op::kAreturn);
  // go(name) folds acc = acc * 4 + pick(i).name() over i = 0..7, one site.
  for (const char* name : {"m", "n"}) {
    MethodBuilder& go = cb.AddMethod(AccessFlags::kStatic, std::string("go_") + name, "()I");
    Label top = go.NewLabel();
    Label done = go.NewLabel();
    go.PushInt(0).StoreLocal("I", 0).PushInt(0).StoreLocal("I", 1).Bind(top)
        .LoadLocal("I", 1).PushInt(8).Branch(Op::kIfIcmpge, done)
        .LoadLocal("I", 0).PushInt(4).Emit(Op::kImul)
        .LoadLocal("I", 1).InvokeStatic("app/Alt", "pick", "(I)Lapp/Base;")
        .InvokeVirtual("app/Base", name, "()I").Emit(Op::kIadd).StoreLocal("I", 0)
        .Emit(Op::kIinc, 1, 1).Branch(Op::kGoto, top)
        .Bind(done).LoadLocal("I", 0).Emit(Op::kIreturn);
  }
  AddClass(cb);

  auto expected = [](int32_t base_value, int32_t sub_value) {
    int32_t acc = 0;
    for (int i = 0; i < 8; i++) {
      acc = acc * 4 + (i % 2 == 1 ? sub_value : base_value);
    }
    return acc;
  };
  for (bool quicken : {true, false}) {
    Machine machine(EngineConfig(quicken), &provider_);
    machine.natives().Register("app/Base", "n", "()I",
                               [](Machine&, std::vector<Value>&) -> Result<Value> {
                                 return Value::Int(3);
                               });
    machine.natives().Register("app/Sub", "n", "()I",
                               [](Machine&, std::vector<Value>&) -> Result<Value> {
                                 return Value::Int(1);
                               });
    auto m = machine.CallStatic("app/Alt", "go_m", "()I");
    ASSERT_TRUE(m.ok()) << m.error().ToString();
    ASSERT_FALSE(m->threw) << m->exception_class;
    EXPECT_EQ(m->value.AsInt(), expected(1, 2)) << "quicken=" << quicken;
    auto n = machine.CallStatic("app/Alt", "go_n", "()I");
    ASSERT_TRUE(n.ok()) << n.error().ToString();
    ASSERT_FALSE(n->threw) << n->exception_class;
    EXPECT_EQ(n->value.AsInt(), expected(3, 1)) << "quicken=" << quicken;
  }
}

// A native the security service renamed to __dvmSecured$<name> stays bound
// under <name>, on the first call through a site and on the memoized ones.
// Void natives push nothing whatever they return; value natives push exactly
// their result — here with max_stack 2, so a stray push would overflow.
TEST_F(QuickenRegressionTest, NativeMemoKeepsBindingAndResultKind) {
  ClassBuilder nat("app/Nat", "java/lang/Object");
  nat.AddNativeMethod(AccessFlags::kStatic, "__dvmSecured$twice", "(I)I");
  nat.AddNativeMethod(AccessFlags::kStatic, "v", "()V");
  nat.AddNativeMethod(AccessFlags::kStatic, "seven", "()I");
  AddClass(nat);

  ClassBuilder cb("app/UseNat", "java/lang/Object");
  // Three calls through one renamed-native site: twice(0)+twice(1)+twice(2).
  MethodBuilder& secured = cb.AddMethod(AccessFlags::kStatic, "secured", "()I");
  Label top = secured.NewLabel();
  Label done = secured.NewLabel();
  secured.PushInt(0).StoreLocal("I", 0).PushInt(0).StoreLocal("I", 1).Bind(top)
      .LoadLocal("I", 1).PushInt(3).Branch(Op::kIfIcmpge, done)
      .LoadLocal("I", 0).LoadLocal("I", 1)
      .InvokeStatic("app/Nat", "__dvmSecured$twice", "(I)I").Emit(Op::kIadd)
      .StoreLocal("I", 0)
      .Emit(Op::kIinc, 1, 1).Branch(Op::kGoto, top)
      .Bind(done).LoadLocal("I", 0).Emit(Op::kIreturn);
  // v() three times through one site, then seven() + seven().
  MethodBuilder& kinds = cb.AddMethod(AccessFlags::kStatic, "kinds", "()I");
  Label loop = kinds.NewLabel();
  Label out = kinds.NewLabel();
  kinds.PushInt(0).StoreLocal("I", 0).Bind(loop)
      .LoadLocal("I", 0).PushInt(3).Branch(Op::kIfIcmpge, out)
      .InvokeStatic("app/Nat", "v", "()V")
      .Emit(Op::kIinc, 0, 1).Branch(Op::kGoto, loop)
      .Bind(out)
      .InvokeStatic("app/Nat", "seven", "()I").InvokeStatic("app/Nat", "seven", "()I")
      .Emit(Op::kIadd).Emit(Op::kIreturn);
  auto built = cb.Build();
  ASSERT_TRUE(built.ok()) << built.error().ToString();
  EXPECT_EQ(built->FindMethod("kinds", "()I")->code->max_stack, 2);
  provider_.AddClassFile(built.value());

  for (bool quicken : {true, false}) {
    Machine machine(EngineConfig(quicken), &provider_);
    int v_calls = 0;
    machine.natives().Register("app/Nat", "twice", "(I)I",
                               [](Machine&, std::vector<Value>& args) -> Result<Value> {
                                 return Value::Int(2 * args[0].AsInt());
                               });
    machine.natives().Register("app/Nat", "v", "()V",
                               [&v_calls](Machine&, std::vector<Value>&) -> Result<Value> {
                                 v_calls++;
                                 return Value::Int(99);  // discarded: the method is void
                               });
    machine.natives().Register("app/Nat", "seven", "()I",
                               [](Machine&, std::vector<Value>&) -> Result<Value> {
                                 return Value::Int(7);
                               });
    auto s = machine.CallStatic("app/UseNat", "secured", "()I");
    ASSERT_TRUE(s.ok()) << s.error().ToString();
    EXPECT_EQ(s->value.AsInt(), 0 + 2 + 4) << "quicken=" << quicken;
    auto k = machine.CallStatic("app/UseNat", "kinds", "()I");
    ASSERT_TRUE(k.ok()) << k.error().ToString();
    EXPECT_EQ(k->value.AsInt(), 14) << "quicken=" << quicken;
    EXPECT_EQ(v_calls, 3);
    // Called directly, as an entry point: the same result kinds.
    auto direct_void = machine.CallStatic("app/Nat", "v", "()V");
    ASSERT_TRUE(direct_void.ok()) << direct_void.error().ToString();
    EXPECT_TRUE(direct_void->value.IsNullRef());
    auto direct_value = machine.CallStatic("app/Nat", "seven", "()I");
    ASSERT_TRUE(direct_value.ok()) << direct_value.error().ToString();
    EXPECT_EQ(direct_value->value.AsInt(), 7);
    EXPECT_EQ(machine.counters().native_calls, 3u + 3u + 2u + 2u);
  }
}

TEST(QuickenDispatchTest, DispatchModeMatchesBuildConfiguration) {
#if defined(DVM_THREADED_DISPATCH) && (defined(__GNUC__) || defined(__clang__))
  EXPECT_STREQ(InterpreterDispatchMode(), "threaded");
#else
  EXPECT_STREQ(InterpreterDispatchMode(), "switch");
#endif
}

}  // namespace
}  // namespace dvm
