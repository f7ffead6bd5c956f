// The DVM verifier, phases 1-3 (paper section 3.1):
//   phase 1 — class file internal consistency,
//   phase 2 — instruction integrity,
//   phase 3 — dataflow type-safety.
// Phase 4 (link-time namespace checks) lives in link_checker.h; in a DVM the
// static services run phases 1-3 on the proxy and the verification service
// rewrites the class so that phase 4 happens lazily on the client.
//
// Verification runs against a ClassEnv. References to classes outside the
// environment are *recorded as assumptions* rather than rejected — exactly the
// split that lets the proxy verify code without the client's namespace.
#ifndef SRC_VERIFIER_VERIFIER_H_
#define SRC_VERIFIER_VERIFIER_H_

#include <cstdint>
#include <vector>

#include "src/bytecode/classfile.h"
#include "src/support/result.h"
#include "src/verifier/assumptions.h"
#include "src/verifier/class_env.h"

namespace dvm {

// Counts of discrete safety checks performed, reported by bench_fig8_checkcounts.
struct VerifyStats {
  uint64_t phase1_checks = 0;
  uint64_t phase2_checks = 0;
  uint64_t phase3_checks = 0;
  uint64_t instructions_verified = 0;

  uint64_t TotalStaticChecks() const { return phase1_checks + phase2_checks + phase3_checks; }
  void Accumulate(const VerifyStats& other) {
    phase1_checks += other.phase1_checks;
    phase2_checks += other.phase2_checks;
    phase3_checks += other.phase3_checks;
    instructions_verified += other.instructions_verified;
  }
};

struct VerifiedClass {
  VerifyStats stats;
  // Deduplicated, in first-seen order.
  std::vector<Assumption> assumptions;
};

struct ClassCertificate;  // certificate.h

// Runs phases 1-3. A returned error means the class is provably unsafe; the
// verification service converts that into a replacement class raising a guest
// VerifyError (services/verify_service.h).
//
// When `cert_out` is non-null and the class is accepted, it is filled with a
// stack-map-style certificate: the fixpoint typestate frame at every merge
// point (branch targets, exception-handler entries) plus the class's
// link-time assumptions. A replica holding the certificate can re-check the
// class in one linear pass (certificate.h) instead of re-running this
// fixpoint.
Result<VerifiedClass> VerifyClass(const ClassFile& cls, const ClassEnv& env,
                                  ClassCertificate* cert_out = nullptr);

class TypeEnv;  // typestate.h

// The same, with the caller's TypeEnv (whose classes() is the environment)
// naming the types. Its ids never reach the result, so it may have interned
// anything beforehand.
Result<VerifiedClass> VerifyClass(const ClassFile& cls, TypeEnv& types,
                                  ClassCertificate* cert_out = nullptr);

}  // namespace dvm

#endif  // SRC_VERIFIER_VERIFIER_H_
