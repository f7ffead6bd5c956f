// Ablation: the transparent synchronization-elision service enabled by the
// tracing data of section 3.3 ([Aldrich et al. 99]). A lock-heavy workload
// runs with and without the optimizer in the pipeline.
#include "bench/bench_util.h"
#include "src/bytecode/builder.h"
#include "src/optimizer/sync_elide.h"
#include "src/runtime/syslib.h"

namespace dvm {
namespace {

// A worker that acquires a method-local lock around every update — the
// conservative-synchronization pattern the Aldrich et al. traces found
// everywhere in real Java code.
ClassFile BuildLockHeavyWorker(int iterations) {
  ClassBuilder cb("app/Locky", "java/lang/Object");
  cb.AddDefaultConstructor();
  MethodBuilder& m = cb.AddMethod(AccessFlags::kPublic | AccessFlags::kStatic, "main", "()V");
  Label loop = m.NewLabel(), done = m.NewLabel();
  m.New("java/lang/Object").Emit(Op::kDup);
  m.InvokeSpecial("java/lang/Object", "<init>", "()V");
  m.StoreLocal("Ljava/lang/Object;", 0);
  m.PushInt(iterations).StoreLocal("I", 1);
  m.PushInt(0).StoreLocal("I", 2);
  m.Bind(loop).LoadLocal("I", 1).Branch(Op::kIfle, done);
  m.LoadLocal("Ljava/lang/Object;", 0).Emit(Op::kMonitorenter);
  m.LoadLocal("I", 2).PushInt(7).Emit(Op::kIadd).StoreLocal("I", 2);
  m.LoadLocal("Ljava/lang/Object;", 0).Emit(Op::kMonitorexit);
  m.Emit(Op::kIinc, 1, -1).Branch(Op::kGoto, loop);
  m.Bind(done);
  m.LoadLocal("I", 2).InvokeStatic("java/lang/Integer", "toString",
                                   "(I)Ljava/lang/String;");
  m.InvokeStatic("java/lang/System", "println", "(Ljava/lang/String;)V");
  m.Emit(Op::kReturn);
  return cb.Build().value();
}

uint64_t Run(const ClassFile& cls, bool elide, uint64_t* monitors_elided) {
  ClassFile copy = cls;
  if (elide) {
    SyncElideFilter filter;
    MapClassEnv env;
    FilterContext ctx;
    ctx.env = &env;
    Result<FilterOutcome> outcome = filter.Apply(copy, ctx);
    if (!outcome.ok()) {
      std::abort();
    }
    *monitors_elided = outcome->sites_rewritten;
  }
  MapClassProvider provider;
  InstallSystemLibrary(provider);
  provider.AddClassFile(copy);
  MachineConfig config;
  config.max_instructions = ~0ULL;
  Machine machine(config, &provider);
  auto out = machine.RunMain("app/Locky");
  if (!out.ok() || out->threw) {
    std::abort();
  }
  return machine.virtual_nanos();
}

}  // namespace
}  // namespace dvm

int main() {
  using namespace dvm;
  using namespace dvm::bench;

  PrintHeader("Synchronization-elision ablation (lock-heavy worker)",
              "Section 3.3 / [Aldrich et al. 99]");
  PrintRow({"Config", "Runtime(s)", "Improvement"}, 17);

  ClassFile worker = BuildLockHeavyWorker(200'000);
  uint64_t elided = 0;
  uint64_t baseline = Run(worker, /*elide=*/false, &elided);
  uint64_t optimized = Run(worker, /*elide=*/true, &elided);

  PrintRow({"monitors kept", FmtSeconds(baseline), "-"}, 17);
  PrintRow({"monitors elided", FmtSeconds(optimized),
            FmtDouble((1.0 - static_cast<double>(optimized) / baseline) * 100.0, 1) + "%"},
           17);
  std::printf("\nMonitor pairs elided by escape analysis: %llu. The object never\n"
              "escapes its method, so no other thread can ever contend on it.\n",
              static_cast<unsigned long long>(elided));
  return 0;
}
