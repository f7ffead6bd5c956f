// Figure 7: client-side verification overhead. Monolithic clients run the full
// verifier locally (phases 1-3 at load plus first-use link checks); DVM clients
// run only the injected residual checks. Reported as seconds of client time
// attributed to verification.
#include "bench/bench_util.h"

int main() {
  using namespace dvm;
  using namespace dvm::bench;

  PrintHeader("Client-side verification time (seconds)", "Figure 7");
  PrintRow({"App", "Monolithic", "DVM", "Mono/DVM"});

  for (const AppBundle& app : BuildFig5Apps(1)) {
    EndToEndResult mono = RunMonolithic(app);
    EndToEndResult dvm_run = RunDvmFresh(app);
    double ratio = dvm_run.verify_nanos == 0
                       ? 0.0
                       : static_cast<double>(mono.verify_nanos) /
                             static_cast<double>(dvm_run.verify_nanos);
    // DVM clients verify for tens of microseconds: five decimals keep them
    // off 0.00.
    PrintRow({app.name, FmtSeconds(mono.verify_nanos),
              FmtDouble(static_cast<double>(dvm_run.verify_nanos) / 1e9, 5),
              FmtDouble(ratio, 1) + "x"});
  }
  std::printf("\nPaper shape: DVM clients spend significantly less time verifying;\n"
              "self-verifying applications outrun even Sun's C verifier.\n");
  return 0;
}
