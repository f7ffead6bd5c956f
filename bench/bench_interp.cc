// Interpreter microbenchmarks: host wall-clock cost per executed bytecode for
// the quickened/threaded engine vs. the reference switch interpreter
// (DESIGN.md §11). Five dispatch-heavy kernels isolate the costs the
// quickening overhaul attacks: raw dispatch (two tight int loops),
// invokevirtual resolution + frame setup (virtual-call chain), field access
// resolution (get/put churn) and exception-table unwinding.
//
// Unlike the figure benchmarks, this one measures REAL nanoseconds, not the
// virtual clock — the virtual clock is engine-invariant by design.
//
// Flags:
//   --json [path]   also write machine-readable results (default
//                   BENCH_interp.json in the working directory)
//   --no-quicken    only run the reference engine
//   --check         exit 1 unless the quickened engine beats the reference
//                   engine on the dispatch and throw kernels
//   --profile [prefix]  run the kernels once with the virtual-clock sampling
//                   profiler attached and write byte-deterministic artifacts:
//                   <prefix>.collapsed (flamegraph folded stacks) and
//                   <prefix>.pprof.txt, plus the always-on hot-method table on
//                   stdout. Exits 1 unless the top-3 sampled leaf methods are
//                   the known kernel hot spots.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/bytecode/builder.h"
#include "src/runtime/interp.h"
#include "src/runtime/machine.h"
#include "src/runtime/profile.h"
#include "src/runtime/syslib.h"

namespace dvm {
namespace {

constexpr int kLoopIterations = 300'000;
constexpr int kCallIterations = 100'000;
constexpr int kFieldIterations = 150'000;
constexpr int kThrowIterations = 30'000;
constexpr int kTierupIterations = 60'000;

// s = 0; for (i = 0; i < n; i++) s += i ^ (s << 1); return s — pure stack
// arithmetic and branches, the dispatch-loop worst case.
void AddIntLoop(ClassBuilder& cb) {
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic, "intLoop", "()I");
  Label loop = m.NewLabel(), done = m.NewLabel();
  m.PushInt(0).StoreLocal("I", 0);  // s
  m.PushInt(0).StoreLocal("I", 1);  // i
  m.Bind(loop);
  m.LoadLocal("I", 1).PushInt(kLoopIterations).Branch(Op::kIfIcmpge, done);
  m.LoadLocal("I", 0).LoadLocal("I", 1);
  m.LoadLocal("I", 0).PushInt(1).Emit(Op::kIshl).Emit(Op::kIxor);
  m.Emit(Op::kIadd).StoreLocal("I", 0);
  m.Emit(Op::kIinc, 1, 1).Branch(Op::kGoto, loop);
  m.Bind(done).LoadLocal("I", 0).Emit(Op::kIreturn);
}

// for (i = 0; i < n; i++) s = node.step(s) — a monomorphic invokevirtual per
// iteration; exercises the receiver cache and the sliced call frames.
void AddCallChain(ClassBuilder& cb) {
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic, "callChain", "()I");
  Label loop = m.NewLabel(), done = m.NewLabel();
  m.New("bench/Node").Emit(Op::kDup).InvokeSpecial("bench/Node", "<init>", "()V");
  m.StoreLocal("L", 0);             // node
  m.PushInt(0).StoreLocal("I", 1);  // s
  m.PushInt(0).StoreLocal("I", 2);  // i
  m.Bind(loop);
  m.LoadLocal("I", 2).PushInt(kCallIterations).Branch(Op::kIfIcmpge, done);
  m.LoadLocal("L", 0).LoadLocal("I", 1);
  m.InvokeVirtual("bench/Node", "step", "(I)I").StoreLocal("I", 1);
  m.Emit(Op::kIinc, 2, 1).Branch(Op::kGoto, loop);
  m.Bind(done).LoadLocal("I", 1).Emit(Op::kIreturn);
}

// for (i = 0; i < n; i++) node.value = node.value + i — a getfield and a
// putfield per iteration through the same two sites.
void AddFieldChurn(ClassBuilder& cb) {
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic, "fieldChurn", "()I");
  Label loop = m.NewLabel(), done = m.NewLabel();
  m.New("bench/Node").Emit(Op::kDup).InvokeSpecial("bench/Node", "<init>", "()V");
  m.StoreLocal("L", 0);
  m.PushInt(0).StoreLocal("I", 1);  // i
  m.Bind(loop);
  m.LoadLocal("I", 1).PushInt(kFieldIterations).Branch(Op::kIfIcmpge, done);
  m.LoadLocal("L", 0);
  m.LoadLocal("L", 0).GetField("bench/Node", "value", "I");
  m.LoadLocal("I", 1).Emit(Op::kIadd);
  m.PutField("bench/Node", "value", "I");
  m.Emit(Op::kIinc, 1, 1).Branch(Op::kGoto, loop);
  m.Bind(done).LoadLocal("L", 0).GetField("bench/Node", "value", "I").Emit(Op::kIreturn);
}

// for (i = 0; i < n; i++) { try { throw } catch { s++ } } — allocation, athrow
// and handler-table dispatch per iteration.
void AddThrowCatch(ClassBuilder& cb) {
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic, "throwCatch", "()I");
  Label loop = m.NewLabel(), done = m.NewLabel();
  Label start = m.NewLabel(), end = m.NewLabel(), handler = m.NewLabel(), next = m.NewLabel();
  m.PushInt(0).StoreLocal("I", 0);  // s
  m.PushInt(0).StoreLocal("I", 1);  // i
  m.Bind(loop);
  m.LoadLocal("I", 1).PushInt(kThrowIterations).Branch(Op::kIfIcmpge, done);
  m.Bind(start);
  m.New("java/lang/RuntimeException").Emit(Op::kDup);
  m.InvokeSpecial("java/lang/RuntimeException", "<init>", "()V");
  m.Emit(Op::kAthrow);
  m.Bind(end);
  m.Bind(handler).Emit(Op::kPop);
  m.Emit(Op::kIinc, 0, 1);
  m.Bind(next);
  m.Emit(Op::kIinc, 1, 1).Branch(Op::kGoto, loop);
  m.Bind(done).LoadLocal("I", 0).Emit(Op::kIreturn);
  m.AddHandler(start, end, handler, "java/lang/RuntimeException");
}

// s = 0; for (i = 0; i < n; i++) s = (s + i) ^ (i << 1) — a shorter loop of
// intLoop's shape. Its name dates from the removed tier-1 engine (DESIGN.md
// §16); it stays so the --profile artifacts keep their kernel set.
void AddTierUpLoop(ClassBuilder& cb) {
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic, "tierUpLoop", "()I");
  Label loop = m.NewLabel(), done = m.NewLabel();
  m.PushInt(0).StoreLocal("I", 0);  // s
  m.PushInt(0).StoreLocal("I", 1);  // i
  m.Bind(loop);
  m.LoadLocal("I", 1).PushInt(kTierupIterations).Branch(Op::kIfIcmpge, done);
  m.LoadLocal("I", 0).LoadLocal("I", 1).Emit(Op::kIadd);
  m.LoadLocal("I", 1).PushInt(1).Emit(Op::kIshl).Emit(Op::kIxor);
  m.StoreLocal("I", 0);
  m.Emit(Op::kIinc, 1, 1).Branch(Op::kGoto, loop);
  m.Bind(done).LoadLocal("I", 0).Emit(Op::kIreturn);
}

struct Kernel {
  std::string name;
  std::string method;
};

const std::vector<Kernel>& Kernels() {
  static const std::vector<Kernel> kernels = {
      {"int_loop", "intLoop"},
      {"virtual_calls", "callChain"},
      {"field_churn", "fieldChurn"},
      {"throw_catch", "throwCatch"},
      {"tierup_loop", "tierUpLoop"},
  };
  return kernels;
}

void InstallBenchClasses(MapClassProvider& provider) {
  ClassBuilder node("bench/Node", "java/lang/Object");
  node.AddField(AccessFlags::kPublic, "value", "I");
  node.AddDefaultConstructor();
  MethodBuilder& step = node.AddMethod(AccessFlags::kPublic, "step", "(I)I");
  step.LoadLocal("I", 1).PushInt(3).Emit(Op::kIadd);
  step.LoadLocal("L", 0).GetField("bench/Node", "value", "I").Emit(Op::kIxor);
  step.Emit(Op::kIreturn);
  provider.AddClassFile(node.Build().value());

  ClassBuilder cb("bench/Kernels", "java/lang/Object");
  AddIntLoop(cb);
  AddCallChain(cb);
  AddFieldChurn(cb);
  AddThrowCatch(cb);
  AddTierUpLoop(cb);
  provider.AddClassFile(cb.Build().value());
}

struct Measurement {
  double ns_per_op = 0;     // host nanoseconds per executed bytecode
  double millis = 0;        // host milliseconds for the measured run
  uint64_t instructions = 0;
};

// The two execution engines under measurement.
enum class Engine { kReference, kQuick };

MachineConfig ConfigFor(Engine engine) {
  MachineConfig config;
  config.quicken = engine != Engine::kReference;
  return config;
}

// One warm-up run installs the quick forms (and faults in the prepared code
// for the reference engine); the second run is timed.
Measurement MeasureKernel(Engine engine, const Kernel& kernel) {
  MapClassProvider provider;
  InstallSystemLibrary(provider);
  InstallBenchClasses(provider);
  Machine machine(ConfigFor(engine), &provider);

  auto warm = machine.CallStatic("bench/Kernels", kernel.method, "()I");
  if (!warm.ok() || warm->threw) {
    std::fprintf(stderr, "kernel %s failed: %s\n", kernel.name.c_str(),
                 warm.ok() ? warm->exception_class.c_str() : warm.error().ToString().c_str());
    std::abort();
  }
  // Best of three timed repetitions: host-time benchmarks on a shared machine
  // jitter far more than the engine deltas under measurement.
  Measurement out;
  out.ns_per_op = 1e18;
  for (int rep = 0; rep < 3; rep++) {
    uint64_t before = machine.counters().instructions;
    auto t0 = std::chrono::steady_clock::now();
    auto run = machine.CallStatic("bench/Kernels", kernel.method, "()I");
    auto t1 = std::chrono::steady_clock::now();
    if (!run.ok() || run->threw || run->value.num != warm->value.num) {
      std::fprintf(stderr, "kernel %s diverged between runs\n", kernel.name.c_str());
      std::abort();
    }
    uint64_t instructions = machine.counters().instructions - before;
    double nanos = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    double ns_per_op = nanos / static_cast<double>(instructions);
    if (ns_per_op < out.ns_per_op) {
      out.ns_per_op = ns_per_op;
      out.millis = nanos / 1e6;
      out.instructions = instructions;
    }
  }
  return out;
}

// Full Figure 5 application (synthetic JLex) under each engine: the
// end-to-end "measurable win on the paper's workloads" number, as opposed to
// the isolated kernels above.
Measurement MeasureFig5App(Engine engine) {
  AppBundle app = BuildJlexApp(/*work_scale=*/2);
  MapClassProvider provider;
  InstallSystemLibrary(provider);
  app.InstallInto(&provider);
  Machine machine(ConfigFor(engine), &provider);

  auto warm = machine.RunMain(app.main_class);
  if (!warm.ok() || warm->threw) {
    std::fprintf(stderr, "fig5 app failed under engine=%d\n", static_cast<int>(engine));
    std::abort();
  }
  Measurement out;
  out.ns_per_op = 1e18;
  for (int rep = 0; rep < 3; rep++) {
    uint64_t before = machine.counters().instructions;
    auto t0 = std::chrono::steady_clock::now();
    auto run = machine.RunMain(app.main_class);
    auto t1 = std::chrono::steady_clock::now();
    if (!run.ok() || run->threw) {
      std::abort();
    }
    uint64_t instructions = machine.counters().instructions - before;
    double nanos = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    double ns_per_op = nanos / static_cast<double>(instructions);
    if (ns_per_op < out.ns_per_op) {
      out.ns_per_op = ns_per_op;
      out.millis = nanos / 1e6;
      out.instructions = instructions;
    }
  }
  return out;
}

// The leaf frame of each sampled stack, with samples accumulated per method —
// "where is virtual time actually spent", the flamegraph's top edge.
std::vector<std::pair<std::string, uint64_t>> LeafHotList(const std::string& collapsed) {
  std::map<std::string, uint64_t> leaves;
  size_t pos = 0;
  while (pos < collapsed.size()) {
    size_t eol = collapsed.find('\n', pos);
    if (eol == std::string::npos) {
      eol = collapsed.size();
    }
    std::string line = collapsed.substr(pos, eol - pos);
    pos = eol + 1;
    size_t space = line.rfind(' ');
    if (space == std::string::npos) {
      continue;
    }
    uint64_t count = std::strtoull(line.c_str() + space + 1, nullptr, 10);
    std::string stack = line.substr(0, space);
    size_t semi = stack.rfind(';');
    std::string leaf = semi == std::string::npos ? stack : stack.substr(semi + 1);
    leaves[leaf] += count;
  }
  std::vector<std::pair<std::string, uint64_t>> sorted(leaves.begin(), leaves.end());
  std::stable_sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) {
      return a.second > b.second;
    }
    return a.first < b.first;
  });
  return sorted;
}

// --profile mode: run every kernel once on one machine with the sampling
// profiler attached, dump the byte-deterministic artifacts, and verify the
// sampled hot list names the known kernel hot spots.
int RunProfileMode(bool quicken, const std::string& prefix) {
  MapClassProvider provider;
  InstallSystemLibrary(provider);
  InstallBenchClasses(provider);
  MachineConfig config;
  config.quicken = quicken;
  Machine machine(config, &provider);
  ExecutionProfiler profiler;
  machine.SetProfiler(&profiler);
  for (const Kernel& kernel : Kernels()) {
    auto run = machine.CallStatic("bench/Kernels", kernel.method, "()I");
    if (!run.ok() || run->threw) {
      std::fprintf(stderr, "profile kernel %s failed\n", kernel.name.c_str());
      return 1;
    }
  }
  machine.SetProfiler(nullptr);

  std::string collapsed = profiler.CollapsedStacks();
  std::string pprof = profiler.PprofText();
  std::string collapsed_path = prefix + ".collapsed";
  std::string pprof_path = prefix + ".pprof.txt";
  {
    std::ofstream out(collapsed_path, std::ios::binary);
    out << collapsed;
  }
  {
    std::ofstream out(pprof_path, std::ios::binary);
    out << pprof;
  }

  std::printf("profile: engine=%s samples=%llu period_nanos=%llu virtual_nanos=%llu\n",
              quicken ? "quickened" : "reference",
              static_cast<unsigned long long>(profiler.samples()),
              static_cast<unsigned long long>(profiler.sample_period_nanos()),
              static_cast<unsigned long long>(machine.virtual_nanos()));
  std::printf("wrote %s (%zu bytes), %s (%zu bytes)\n\n", collapsed_path.c_str(),
              collapsed.size(), pprof_path.c_str(), pprof.size());

  std::vector<std::pair<std::string, uint64_t>> hot = LeafHotList(collapsed);
  std::printf("sampled leaf methods:\n");
  for (size_t i = 0; i < hot.size() && i < 8; i++) {
    std::printf("  %-40s %llu\n", hot[i].first.c_str(),
                static_cast<unsigned long long>(hot[i].second));
  }
  std::printf("\n%s\n",
              MethodProfileTable(CollectMethodProfile(machine.registry()), 10).c_str());

  // The kernels' virtual-time budget makes these three the provable top-3:
  // intLoop 300k iterations of pure dispatch, fieldChurn 150k field round
  // trips, and Node.step — the leaf of 100k monomorphic invokevirtuals
  // (samples land at method entry, so the callee owns the invoke cost).
  const char* expected[] = {"bench/Kernels.intLoop", "bench/Kernels.fieldChurn",
                            "bench/Node.step"};
  for (const char* want : expected) {
    bool found = false;
    for (size_t i = 0; i < hot.size() && i < 3; i++) {
      if (hot[i].first == want) {
        found = true;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr, "PROFILE CHECK FAILED: %s not in sampled top-3\n", want);
      return 1;
    }
  }
  std::printf("profile check passed: top-3 sampled methods match kernel hot spots\n");
  return 0;
}

}  // namespace
}  // namespace dvm

int main(int argc, char** argv) {
  using namespace dvm;
  bool json = false;
  bool check = false;
  bool quickened_engine = true;
  bool profile = false;
  std::string json_path = "BENCH_interp.json";
  std::string profile_prefix = "PROFILE_interp";
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        json_path = argv[++i];
      }
    } else if (std::strcmp(argv[i], "--no-quicken") == 0) {
      quickened_engine = false;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      profile = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        profile_prefix = argv[++i];
      }
    }
  }

  if (profile) {
    return RunProfileMode(quickened_engine, profile_prefix);
  }

  bench::PrintHeader("Interpreter microbenchmarks: quickened vs reference engine",
                     "client-side execution cost underlying Figures 7-9");
  std::printf("dispatch mode: %s (DVM_THREADED_DISPATCH %s)\n\n",
              InterpreterDispatchMode(),
              std::strcmp(InterpreterDispatchMode(), "threaded") == 0 ? "on" : "off");
  bench::PrintRow({"kernel", "quick ns/op", "ref ns/op", "speedup", "instrs"});

  double dispatch_speedup = 0;
  double throw_speedup = 0;
  std::string rows;

  // Shared per-row reporting: prints the table row and appends the JSON row.
  auto report = [&](const std::string& name, const Measurement& quick,
                    const Measurement& reference) {
    double speedup =
        quickened_engine && quick.ns_per_op > 0 ? reference.ns_per_op / quick.ns_per_op : 0;
    bench::PrintRow({name,
                     quickened_engine ? bench::FmtDouble(quick.ns_per_op, 2) : "-",
                     bench::FmtDouble(reference.ns_per_op, 2),
                     quickened_engine ? bench::FmtDouble(speedup, 2) + "x" : "-",
                     std::to_string(reference.instructions)});
    if (!rows.empty()) {
      rows += ",\n";
    }
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"kernel\": \"%s\", \"quickened_ns_per_op\": %.3f, "
                  "\"reference_ns_per_op\": %.3f, \"speedup\": %.3f, "
                  "\"instructions\": %llu}",
                  name.c_str(), quick.ns_per_op, reference.ns_per_op, speedup,
                  static_cast<unsigned long long>(reference.instructions));
    rows += buf;
    return speedup;
  };

  for (const Kernel& kernel : Kernels()) {
    Measurement quick{};
    if (quickened_engine) {
      quick = MeasureKernel(Engine::kQuick, kernel);
    }
    Measurement reference = MeasureKernel(Engine::kReference, kernel);
    double speedup = report(kernel.name, quick, reference);
    if (kernel.name == "int_loop") {
      dispatch_speedup = speedup;
    } else if (kernel.name == "throw_catch") {
      throw_speedup = speedup;
    }
  }

  {
    Measurement quick{};
    if (quickened_engine) {
      quick = MeasureFig5App(Engine::kQuick);
    }
    Measurement reference = MeasureFig5App(Engine::kReference);
    report("fig5_jlex", quick, reference);
  }

  if (json) {
    std::ofstream out(json_path);
    out << "{\n  \"benchmark\": \"bench_interp\",\n  \"dispatch_mode\": \""
        << InterpreterDispatchMode() << "\",\n  \"kernels\": [\n"
        << rows << "\n  ]\n}\n";
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  if (check && quickened_engine) {
    if (dispatch_speedup <= 1.0) {
      std::fprintf(stderr,
                   "PERF CHECK FAILED: quickened engine not faster on int_loop "
                   "(speedup %.3fx)\n",
                   dispatch_speedup);
      return 1;
    }
    // The (pc, class) handler-walk memo must keep the quickened engine ahead
    // on the unwind-heavy kernel too.
    if (throw_speedup <= 1.0) {
      std::fprintf(stderr,
                   "PERF CHECK FAILED: quickened engine not faster on throw_catch "
                   "(speedup %.3fx)\n",
                   throw_speedup);
      return 1;
    }
  }
  return 0;
}
