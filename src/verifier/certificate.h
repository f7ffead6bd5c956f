// Proof-carrying verification certificates (ROADMAP: "certificates instead of
// re-checking"). The proxy that rewrites a class runs the full phase-3
// fixpoint once and emits the typestate frame at every merge point; a replica
// receiving the artifact re-checks it against the certificate in ONE forward
// pass — no worklist, no frame merging into a fixpoint — and gets the same
// accept/reject verdict and the same link-time assumptions the full verifier
// would produce.
//
// Validation is fail-closed and exact:
//   * every control-flow edge's frame must fit (⊑) the asserted frame at its
//     target, so the certificate is a sound proof outline;
//   * the join of the edges flowing into each assertion must EQUAL the
//     asserted frame, so a tampered certificate that widens (or narrows, or
//     invents) an assertion is rejected even though a wider frame would still
//     be sound — byte-identical verdicts require the true fixpoint;
//   * the assumptions derived while stepping must equal the certificate's
//     list, so phase-4 dynamic checks are unchanged.
#ifndef SRC_VERIFIER_CERTIFICATE_H_
#define SRC_VERIFIER_CERTIFICATE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/support/bytes.h"
#include "src/support/result.h"
#include "src/verifier/assumptions.h"
#include "src/verifier/class_env.h"
#include "src/verifier/typestate.h"
#include "src/verifier/verifier.h"

namespace dvm {

// A typestate slot with its class name spelled out. Certificates carry these
// rather than VTypes, whose name ids mean something only inside the call
// that made them.
struct NamedType {
  VType::Kind kind = VType::Kind::kTop;
  std::string name;  // kRef / kUninit only
  int site = -1;     // kUninit only

  static NamedType Top() { return {VType::Kind::kTop, "", -1}; }
  static NamedType Int() { return {VType::Kind::kInt, "", -1}; }
  static NamedType Long() { return {VType::Kind::kLong, "", -1}; }
  static NamedType Null() { return {VType::Kind::kNull, "", -1}; }
  static NamedType Ref(std::string class_or_array) {
    return {VType::Kind::kRef, std::move(class_or_array), -1};
  }
  static NamedType Uninit(std::string class_name, int new_site) {
    return {VType::Kind::kUninit, std::move(class_name), new_site};
  }

  bool operator==(const NamedType& other) const = default;
};

struct NamedFrame {
  std::vector<NamedType> locals;
  std::vector<NamedType> stack;

  bool operator==(const NamedFrame& other) const = default;
};

// The certificate spelling of the frame `locals` + `stack`.
NamedFrame SpellFrame(std::span<const VType> locals, std::span<const VType> stack,
                      const TypeEnv& types);

// The typestate frame the fixpoint computed on entry to one merge point.
struct FrameAssertion {
  uint32_t index = 0;  // instruction index (not byte offset)
  NamedFrame frame;

  bool operator==(const FrameAssertion& other) const = default;
};

// Assertions for one code-bearing method, indices strictly increasing.
struct MethodCertificate {
  std::string method_id;
  std::vector<FrameAssertion> assertions;

  bool operator==(const MethodCertificate& other) const = default;
};

struct ClassCertificate {
  std::string class_name;
  // One entry per code-bearing method, in declaration order.
  std::vector<MethodCertificate> methods;
  // The class's deduplicated link-time assumptions (phase-4 work), exactly as
  // VerifyClass reports them.
  std::vector<Assumption> assumptions;
};

bool operator==(const ClassCertificate& a, const ClassCertificate& b);

// Canonical big-endian encoding: serialize ∘ parse is the identity on valid
// certificate bytes, and parse rejects anything serialize cannot produce
// (trailing bytes, out-of-range type kinds, non-monotonic assertion indices,
// stray name/site payloads on kinds that carry none).
Bytes SerializeCertificate(const ClassCertificate& cert);
Result<ClassCertificate> ParseCertificate(const Bytes& data);

// Work accounting for the one-pass validator. Phases 1-2 still run (they are
// linear and cheap); `verify.phase3_checks` stays untouched — the whole point
// — and `validate_checks` counts the per-edge fit checks plus the shared
// transfer function's work.
struct ValidateStats {
  VerifyStats verify;  // phase 1 + 2 only
  uint64_t validate_checks = 0;
  uint64_t instructions_validated = 0;

  uint64_t TotalChecks() const {
    return verify.phase1_checks + verify.phase2_checks + validate_checks;
  }
};

// Checks `cls` against `cert` in a single forward pass per method. Ok() means
// the class is exactly as safe as the full verifier would find it, with
// cert.assumptions as its phase-4 obligations. Any mismatch — a frame that
// does not fit, an assertion that is not the exact join of its incoming
// edges, an unreachable or missing assertion, an assumption-list difference —
// is a verification failure.
Status ValidateCertificate(const ClassFile& cls, const ClassEnv& env,
                           const ClassCertificate& cert, ValidateStats* stats);

}  // namespace dvm

#endif  // SRC_VERIFIER_CERTIFICATE_H_
