// Figure 8: breakdown of static and dynamic checks performed by the verifier.
// Static checks run once on the network server (phases 1-3); dynamic checks
// are the residual link-time checks the client executes. The paper's table
// shows 2-4 orders of magnitude between the two columns.
#include "bench/bench_util.h"
#include "src/services/verify_service.h"
#include "src/runtime/syslib.h"

int main() {
  using namespace dvm;
  using namespace dvm::bench;

  PrintHeader("Static vs dynamic verifier checks", "Figure 8");
  PrintRow({"Benchmark", "StaticChecks", "DynamicChecks", "Ratio"});

  // Static counts come from running the verification filter the way the proxy
  // does (classes stream through in fetch order, each verified against the
  // library plus everything seen so far).
  std::vector<ClassFile> library = BuildSystemLibrary();

  for (const AppBundle& app : BuildFig5Apps(1)) {
    MapClassEnv env;
    for (const auto& cls : library) {
      env.Add(&cls);
    }
    VerificationFilter filter;
    FilterContext ctx;
    ctx.env = &env;
    std::vector<ClassFile> rewritten;
    rewritten.reserve(app.classes.size());  // pointers into it must stay stable
    uint64_t static_checks = 0;
    for (const ClassFile& cls : app.classes) {
      rewritten.push_back(cls);
      env.Add(&rewritten.back());
      auto outcome = filter.Apply(rewritten.back(), ctx);
      if (!outcome.ok()) {
        std::fprintf(stderr, "verify failed: %s\n", outcome.error().ToString().c_str());
        return 1;
      }
      // A rejected class is replaced, and its one "check" proved nothing.
      if (!outcome->replacement.has_value()) {
        static_checks += outcome->checks_performed;
      }
    }

    // Dynamic counts: execute the app on a DVM client and count the RTVerifier
    // checks that actually ran.
    EndToEndResult run = RunDvmFresh(app);

    double ratio = run.dynamic_checks == 0
                       ? 0.0
                       : static_cast<double>(static_checks) /
                             static_cast<double>(run.dynamic_checks);
    PrintRow({app.name, std::to_string(static_checks), std::to_string(run.dynamic_checks),
              FmtDouble(ratio, 0) + ":1"});
  }
  std::printf("\nPaper shape: the vast majority of checks occur statically at the\n"
              "network server, prior to execution (e.g. JLex 291679 vs 371).\n");
  return 0;
}
