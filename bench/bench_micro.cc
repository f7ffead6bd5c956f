// Host-level microbenchmarks (google-benchmark) of the substrate itself:
// class file (de)serialization, verification, rewriting, interpretation, MD5
// and policy evaluation throughput. These measure the real C++ implementation,
// not the simulated 1999 hardware.
#include <benchmark/benchmark.h>

#include "src/bytecode/builder.h"
#include "src/bytecode/serializer.h"
#include "src/proxy/signature.h"
#include "src/runtime/machine.h"
#include "src/runtime/syslib.h"
#include "src/services/security_service.h"
#include "src/services/verify_service.h"
#include "src/support/md5.h"
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
BENCHMARK(BM_Md5)->Arg(1024)->Arg(65536);

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
