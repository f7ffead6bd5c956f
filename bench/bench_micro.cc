// Host-level microbenchmarks (google-benchmark) of the substrate itself:
// class file (de)serialization, verification, rewriting, interpretation, MD5
// and policy evaluation throughput. These measure the real C++ implementation,
// not the simulated 1999 hardware.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/bytecode/builder.h"
#include "src/bytecode/code.h"
#include "src/bytecode/serializer.h"
#include "src/bytecode/stack_effect.h"
#include "src/dvm/dvm.h"
#include "src/rewrite/method_editor.h"
#include "src/proxy/signature.h"
#include "src/runtime/machine.h"
#include "src/runtime/syslib.h"
#include "src/services/monitor_service.h"
#include "src/services/security_service.h"
#include "src/services/verify_service.h"
#include "src/services/reflect_service.h"
#include "src/support/md5.h"
#include "src/verifier/certificate.h"
#include "src/verifier/verifier.h"
#include "src/workloads/apps.h"

namespace dvm {
namespace {

const AppBundle& JlexBundle() {
  static const AppBundle* bundle = new AppBundle(BuildJlexApp(1));
  return *bundle;
}

const std::vector<ClassFile>& Library() {
  static const auto* lib = new std::vector<ClassFile>(BuildSystemLibrary());
  return *lib;
}

void BM_ClassFileSerialize(benchmark::State& state) {
  const ClassFile& cls = JlexBundle().classes[1];
  size_t bytes = 0;
  for (auto _ : state) {
    Bytes out = MustWriteClassFile(cls);
    bytes += out.size();
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_ClassFileSerialize);

void BM_ClassFileParse(benchmark::State& state) {
  Bytes wire = MustWriteClassFile(JlexBundle().classes[1]);
  size_t bytes = 0;
  for (auto _ : state) {
    auto cls = ReadClassFile(wire);
    benchmark::DoNotOptimize(cls);
    bytes += wire.size();
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_ClassFileParse);

void BM_VerifyClass(benchmark::State& state) {
  MapClassEnv env;
  for (const auto& cls : Library()) {
    env.Add(&cls);
  }
  const ClassFile& cls = JlexBundle().classes[1];
  uint64_t checks = 0;
  for (auto _ : state) {
    auto verified = VerifyClass(cls, env);
    if (verified.ok()) {
      checks += verified->stats.TotalStaticChecks();
    }
    benchmark::DoNotOptimize(verified);
  }
  state.counters["checks/s"] = benchmark::Counter(static_cast<double>(checks),
                                                  benchmark::Counter::kIsRate);
}
BENCHMARK(BM_VerifyClass);

// Instructions per second over every method body of the class.
void BM_DecodeCode(benchmark::State& state) {
  const ClassFile& cls = JlexBundle().classes[1];
  size_t instrs = 0;
  for (auto _ : state) {
    for (const auto& method : cls.methods) {
      if (method.code.has_value()) {
        auto decoded = DecodeCode(method.code->code);
        instrs += decoded->instrs.size();
        benchmark::DoNotOptimize(decoded);
      }
    }
  }
  state.counters["instrs/s"] = benchmark::Counter(static_cast<double>(instrs),
                                                  benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DecodeCode);

void BM_ComputeMaxStackDepth(benchmark::State& state) {
  const ClassFile& cls = JlexBundle().classes[1];
  std::vector<std::vector<Instr>> bodies;
  for (const auto& method : cls.methods) {
    if (method.code.has_value()) {
      bodies.push_back(DecodeCode(method.code->code)->instrs);
    }
  }
  size_t instrs = 0;
  for (auto _ : state) {
    for (const auto& body : bodies) {
      auto depth = ComputeMaxStackDepth(body, cls.pool(), {});
      instrs += body.size();
      benchmark::DoNotOptimize(depth);
    }
  }
  state.counters["instrs/s"] = benchmark::Counter(static_cast<double>(instrs),
                                                  benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ComputeMaxStackDepth);

// The audit service's entry instrumentation of every method: decode, insert,
// encode, handler remap and max-stack per method (plus one class copy).
void BM_AuditFilter(benchmark::State& state) {
  MapClassEnv env;
  for (const auto& cls : Library()) {
    env.Add(&cls);
  }
  FilterContext ctx;
  ctx.env = &env;
  const AuditFilter filter;
  for (auto _ : state) {
    ClassFile cls = JlexBundle().classes[1];
    auto outcome = filter.Apply(cls, ctx);
    benchmark::DoNotOptimize(outcome);
    benchmark::DoNotOptimize(cls);
  }
}
BENCHMARK(BM_AuditFilter);

// The editor's share of an entry-instrumenting filter, over every Fig. 5
// body: open, insert the audit prologue at index 0, commit. Arg 0 opens with
// the verification proof and splices; arg 1 decodes the body first (code()),
// the path of an unproved body or a mid-body edit. Each session starts from
// the origin body (a copy of the CodeAttr, made on both paths).
void BM_EntryInsertCommit(benchmark::State& state) {
  struct Prepared {
    ClassFile cls;
    ClassProof proof;
    std::vector<CodeAttr> bodies;  // per method; empty optional bodies skipped
    std::vector<Instr> prologue;
  };
  static const std::vector<Prepared>* prepared = [] {
    auto* out = new std::vector<Prepared>();
    MapClassEnv library;
    for (const auto& cls : Library()) {
      library.Add(&cls);
    }
    for (const AppBundle& app : BuildFig5Apps(1)) {
      for (const ClassFile& cls : app.classes) {
        const ArtifactEnv env(&library, cls);
        ClassCertificate cert;
        if (!VerifyClass(cls, env, &cert).ok()) {
          continue;
        }
        Prepared p{cls, ClassProof::Of(cls, std::move(cert)), {}, {}};
        p.prologue = {{Op::kLdc, p.cls.pool().AddString(cls.name()), 0},
                      {Op::kInvokestatic,
                       p.cls.pool().AddMethodRef("dvm/rt/Auditor", "enter",
                                                 "(Ljava/lang/String;)V"),
                       0}};
        for (const MethodInfo& method : cls.methods) {
          p.bodies.push_back(method.code.value_or(CodeAttr{}));
        }
        out->push_back(std::move(p));
      }
    }
    return out;
  }();
  const bool decode_first = state.range(0) != 0;
  std::vector<Prepared> work = *prepared;
  size_t methods = 0;
  for (auto _ : state) {
    for (Prepared& p : work) {
      for (size_t m = 0; m < p.cls.methods.size(); m++) {
        MethodInfo& method = p.cls.methods[m];
        if (!method.code.has_value()) {
          continue;
        }
        *method.code = p.bodies[m];
        auto editor = MethodEditor::Open(&p.cls, &method, &p.proof);
        if (decode_first) {
          benchmark::DoNotOptimize(editor->code().data());
        }
        Status inserted = editor->InsertBefore(0, p.prologue);
        Status committed = editor->Commit();
        benchmark::DoNotOptimize(inserted);
        benchmark::DoNotOptimize(committed);
        methods++;
      }
    }
  }
  state.counters["methods/s"] = benchmark::Counter(static_cast<double>(methods),
                                                   benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EntryInsertCommit)->Arg(0)->Arg(1);

void BM_VerificationFilterPipeline(benchmark::State& state) {
  MapClassEnv env;
  for (const auto& cls : Library()) {
    env.Add(&cls);
  }
  Bytes wire = MustWriteClassFile(JlexBundle().classes[1]);
  for (auto _ : state) {
    FilterPipeline pipeline;
    pipeline.Add(std::make_unique<VerificationFilter>());
    auto result = pipeline.Run(wire, env);
    auto out = WriteClassFile(result.value().cls);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_VerificationFilterPipeline);

// The BM_AuditFilter class after the Fig. 6 filter stack (reflection,
// verification, security, audit): the artifact, the verification filter's
// proof of the origin, and the edits made after it.
struct Fig6Artifact {
  Fig6Artifact() {
    for (const auto& cls : Library()) {
      library.Add(&cls);
    }
    FilterPipeline pipeline;
    pipeline.Add(std::make_unique<ReflectionFilter>());
    pipeline.Add(std::make_unique<VerificationFilter>());
    pipeline.Add(std::make_unique<SecurityFilter>(&policy));
    pipeline.Add(std::make_unique<AuditFilter>());
    result = pipeline.Run(JlexBundle().classes[1], library).value();
  }
  SecurityPolicy policy = bench::PermissivePolicy();
  MapClassEnv library;
  PipelineResult result;
};

const Fig6Artifact& JlexArtifact() {
  static const auto* artifact = new Fig6Artifact();
  return *artifact;
}

// The proxy's certificate by fixpoint: prove the artifact, serialize.
void BM_EmitCertificate(benchmark::State& state) {
  const Fig6Artifact& a = JlexArtifact();
  const ArtifactEnv env(&a.library, a.result.cls);
  for (auto _ : state) {
    ClassCertificate cert;
    auto verified = VerifyClass(a.result.cls, env, &cert);
    Bytes wire = SerializeCertificate(cert);
    benchmark::DoNotOptimize(verified);
    benchmark::DoNotOptimize(wire);
  }
}
BENCHMARK(BM_EmitCertificate);

// The proxy's certificate by derivation: transform the verification filter's
// proof through the edits, serialize. The proxy hands the proof over; the
// copy made here for each iteration is not timed.
void BM_DeriveCertificate(benchmark::State& state) {
  const Fig6Artifact& a = JlexArtifact();
  const ArtifactEnv env(&a.library, a.result.cls);
  for (auto _ : state) {
    state.PauseTiming();
    ClassProof proof = *a.result.proof;
    state.ResumeTiming();
    auto cert = TransformCertificate(std::move(proof), a.result.code_edits, a.result.cls, env);
    Bytes wire = SerializeCertificate(cert.value());
    benchmark::DoNotOptimize(wire);
  }
}
BENCHMARK(BM_DeriveCertificate);

// A replica's install check: the one-pass validation of the artifact against
// its parsed certificate.
void BM_ValidateCertificate(benchmark::State& state) {
  const Fig6Artifact& a = JlexArtifact();
  const ArtifactEnv env(&a.library, a.result.cls);
  ClassCertificate cert;
  if (!VerifyClass(a.result.cls, env, &cert).ok()) {
    state.SkipWithError("artifact does not verify");
    return;
  }
  uint64_t instructions = 0;
  for (auto _ : state) {
    ValidateStats stats;
    Status validated = ValidateCertificate(a.result.cls, env, cert, &stats);
    instructions += stats.instructions_validated;
    benchmark::DoNotOptimize(validated);
  }
  state.counters["instrs/s"] = benchmark::Counter(static_cast<double>(instructions),
                                                  benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ValidateCertificate);

void BM_InterpreterDispatch(benchmark::State& state) {
  MapClassProvider provider;
  InstallSystemLibrary(provider);
  ClassBuilder cb("micro/Loop", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "f", "(I)I");
  Label loop = m.NewLabel(), done = m.NewLabel();
  m.PushInt(0).StoreLocal("I", 1);
  m.Bind(loop).LoadLocal("I", 0).Branch(Op::kIfle, done);
  m.LoadLocal("I", 1).PushInt(7).Emit(Op::kIadd).StoreLocal("I", 1);
  m.Emit(Op::kIinc, 0, -1).Branch(Op::kGoto, loop);
  m.Bind(done).LoadLocal("I", 1).Emit(Op::kIreturn);
  provider.AddClassFile(cb.Build().value());

  MachineConfig config;
  config.max_instructions = ~0ULL;
  Machine machine(config, &provider);
  uint64_t before = machine.counters().instructions;
  for (auto _ : state) {
    auto out = machine.CallStatic("micro/Loop", "f", "(I)I", {Value::Int(10'000)});
    benchmark::DoNotOptimize(out);
  }
  state.counters["instr/s"] = benchmark::Counter(
      static_cast<double>(machine.counters().instructions - before),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpreterDispatch);

void BM_InvokeDispatch(benchmark::State& state) {
  // Invoke-heavy loop: exercises the quickening inline caches (resolved
  // owner/target after first execution instead of constant-pool strings).
  MapClassProvider provider;
  InstallSystemLibrary(provider);
  ClassBuilder cb("micro/Calls", "java/lang/Object");
  MethodBuilder& callee = cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic,
                                       "inc", "(I)I");
  callee.LoadLocal("I", 0).PushInt(1).Emit(Op::kIadd).Emit(Op::kIreturn);
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "f", "(I)I");
  Label loop = m.NewLabel(), done = m.NewLabel();
  m.PushInt(0).StoreLocal("I", 1);
  m.Bind(loop).LoadLocal("I", 0).Branch(Op::kIfle, done);
  m.LoadLocal("I", 1).InvokeStatic("micro/Calls", "inc", "(I)I").StoreLocal("I", 1);
  m.Emit(Op::kIinc, 0, -1).Branch(Op::kGoto, loop);
  m.Bind(done).LoadLocal("I", 1).Emit(Op::kIreturn);
  provider.AddClassFile(cb.Build().value());

  MachineConfig config;
  config.max_instructions = ~0ULL;
  Machine machine(config, &provider);
  uint64_t calls = 0;
  for (auto _ : state) {
    auto out = machine.CallStatic("micro/Calls", "f", "(I)I", {Value::Int(5'000)});
    benchmark::DoNotOptimize(out);
    calls += 5'000;
  }
  state.counters["calls/s"] =
      benchmark::Counter(static_cast<double>(calls), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InvokeDispatch);

void BM_QuickIntLoop(benchmark::State& state) {
  // The handler groups that dispatch per opcode in the quickened engine: an
  // int compare-branch backedge, ALU ops and int-array loads and stores.
  // f(n) runs a[i & 7] ^= (a[i & 7] << 1) + i for i < n over an 8-int array.
  MapClassProvider provider;
  InstallSystemLibrary(provider);
  ClassBuilder cb("micro/IntLoop", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "f", "(I)I");
  Label loop = m.NewLabel(), done = m.NewLabel();
  m.PushInt(8).Emit(Op::kNewarray, static_cast<int32_t>(ArrayKind::kInt)).StoreLocal("L", 1);
  m.PushInt(0).StoreLocal("I", 2);
  m.Bind(loop).LoadLocal("I", 2).LoadLocal("I", 0).Branch(Op::kIfIcmpge, done);
  m.LoadLocal("L", 1).LoadLocal("I", 2).PushInt(7).Emit(Op::kIand);  // a, j
  m.LoadLocal("L", 1).LoadLocal("I", 2).PushInt(7).Emit(Op::kIand).Emit(Op::kIaload);
  m.Emit(Op::kDup).PushInt(1).Emit(Op::kIshl).LoadLocal("I", 2).Emit(Op::kIadd);
  m.Emit(Op::kIxor).Emit(Op::kIastore);
  m.Emit(Op::kIinc, 2, 1).Branch(Op::kGoto, loop);
  m.Bind(done).LoadLocal("L", 1).PushInt(3).Emit(Op::kIaload).Emit(Op::kIreturn);
  provider.AddClassFile(cb.Build().value());

  MachineConfig config;
  config.max_instructions = ~0ULL;
  Machine machine(config, &provider);
  uint64_t before = machine.counters().instructions;
  for (auto _ : state) {
    auto out = machine.CallStatic("micro/IntLoop", "f", "(I)I", {Value::Int(10'000)});
    benchmark::DoNotOptimize(out);
  }
  state.counters["instr/s"] = benchmark::Counter(
      static_cast<double>(machine.counters().instructions - before),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_QuickIntLoop);

void BM_AuditedInvoke(benchmark::State& state) {
  // The monitoring service's per-event cost on a DVM client: a loop around
  // one quickened invokestatic of the dvm/rt/Auditor.enter native, the call
  // the audit filter injects at every method entry. The class is served
  // through a Fig. 6 server (so it is also audited at its own entry).
  MapClassProvider origin;
  ClassBuilder cb("app/MicroAudited", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "f", "(I)I");
  Label loop = m.NewLabel(), done = m.NewLabel();
  m.Bind(loop).LoadLocal("I", 0).Branch(Op::kIfle, done);
  m.PushString("app/MicroAudited.f")
      .InvokeStatic(kRtAuditorClass, "enter", "(Ljava/lang/String;)V");
  m.Emit(Op::kIinc, 0, -1).Branch(Op::kGoto, loop);
  m.Bind(done).LoadLocal("I", 0).Emit(Op::kIreturn);
  origin.AddClassFile(cb.Build().value());

  DvmServerConfig server_config;
  server_config.policy = bench::PermissivePolicy();
  DvmServer server(server_config, &origin);
  MachineConfig config = DvmMachineConfig();
  config.max_instructions = ~0ULL;
  DvmClient client(&server, config, MakeEthernet10Mb());
  Machine& machine = client.machine();
  uint64_t before = machine.counters().audit_events;
  for (auto _ : state) {
    auto out = machine.CallStatic("app/MicroAudited", "f", "(I)I", {Value::Int(1'000)});
    benchmark::DoNotOptimize(out);
  }
  if (machine.counters().audit_events - before < 1'000) {
    state.SkipWithError("the audit native did not run");
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(machine.counters().audit_events - before),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AuditedInvoke);

void BM_Md5(benchmark::State& state) {
  Bytes data(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < data.size(); i++) {
    data[i] = static_cast<uint8_t>(i * 31);
  }
  for (auto _ : state) {
    auto digest = Md5::Hash(data);
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
// 6860 bytes: about the size of a served Fig. 5 artifact, which the console
// hashes on every miss.
BENCHMARK(BM_Md5)->Arg(1024)->Arg(6860)->Arg(65536);

void BM_SignClass(benchmark::State& state) {
  CodeSigner signer("org-key");
  const ClassFile& cls = JlexBundle().classes[1];
  for (auto _ : state) {
    ClassFile copy = cls;
    Status attached = signer.AttachSignature(&copy);
    Bytes out = MustWriteClassFile(copy);
    benchmark::DoNotOptimize(attached);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_SignClass);

void BM_PolicyEvaluate(benchmark::State& state) {
  auto policy = ParseSecurityPolicy(R"(
    <policy>
      <domain sid="a" code="app/*"/>
      <allow sid="a" operation="file.open" target="/tmp/*"/>
      <deny sid="a" operation="file.*" target="*"/>
      <allow sid="a" operation="property.get" target="user.*"/>
    </policy>)");
  for (auto _ : state) {
    bool allowed = policy->Evaluate("a", "property.get", "user.home");
    benchmark::DoNotOptimize(allowed);
  }
}
BENCHMARK(BM_PolicyEvaluate);

}  // namespace
}  // namespace dvm

BENCHMARK_MAIN();
