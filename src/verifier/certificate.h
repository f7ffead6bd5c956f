// Proof-carrying verification certificates (ROADMAP: "certificates instead of
// re-checking"). The proxy that rewrites a class runs the full phase-3
// fixpoint once, on the class as its verification filter receives it, and
// derives the artifact's certificate — the typestate frame at every merge
// point — from that proof and the code the later filters inserted
// (TransformCertificate); a replica receiving the artifact re-checks it
// against the certificate in ONE forward pass — no worklist, no frame merging
// into a fixpoint — and gets the same accept/reject verdict and the same
// link-time assumptions the full verifier would produce.
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

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/bytecode/classfile.h"
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

// One insertion a rewriting filter made after a class was proved: `count`
// instructions placed before the instruction then at `index` of the method at
// position `method` of ClassFile::methods (MethodEditor::InsertBefore).
// Branches that targeted that instruction still target it. A method a filter
// adds is recorded as an insertion of its whole body at index 0.
struct CodeEdit {
  uint32_t method = 0;
  uint32_t index = 0;
  uint32_t count = 0;
};

// The verification filter's certificate for the class it verified, with what
// TransformCertificate checks an edited copy of the class against: every
// proved body as it was proved, and the class facts the proof read.
struct ClassProof {
  struct Body {
    uint32_t method = 0;  // position in ClassFile::methods
    bool is_static = false;
    uint16_t max_stack = 0;
    uint16_t max_locals = 0;
    Bytes code;
    std::vector<ExceptionHandler> handlers;
  };

  // Keeps `cert`, which must be VerifyClass's certificate for `cls`.
  static ClassProof Of(const ClassFile& cls, ClassCertificate cert);

  ClassCertificate cert;
  std::vector<Body> bodies;  // one per cert.methods entry, in the same order
  uint16_t super_class = 0;
  std::vector<uint16_t> interfaces;
  std::vector<std::string> field_names;  // every declared field
  std::vector<std::string> method_ids;   // every declared method
};

// Where `body` starts in `code` when `code` still ends in it: the proved
// bytes unchanged at the end (branch offsets are relative, so code inserted
// in front leaves them as they were) and every proved handler moved by the
// length of what is in front, with nothing else changed. nullopt otherwise.
std::optional<size_t> ProvedBodyOffset(const ClassProof::Body& body, const CodeAttr& code);

// Derives the certificate of `artifact`, the proved class after `edits`, from
// `proof` without running the fixpoint (DESIGN.md §15). It holds when every
// edit inserted straight-line code at index 0 of a proved method, or added a
// whole method, and left the rest of the class as proved:
//   * assertions move by the instructions inserted in front of them, and so do
//     the allocation sites of Uninit slots;
//   * locals are padded to the artifact's max_locals with the slot values the
//     inserted code leaves behind;
//   * merge points inside inserted code (the verification guard's skip
//     target) get the frames of one local walk over that code, which starts
//     at the method's entry frame and must hand the proved code that same
//     frame on the proved slots;
//   * the assumptions carry over unchanged: inserted code may add none.
// Anything else is an error, and the caller proves the artifact with the
// fixpoint instead: a body that is not its proved body behind the reported
// insertions, an insertion anywhere but index 0, a backward branch or a
// changed frame in inserted code, a changed superclass or interface list, or
// an added member that an assumption names. `checks` (optional) receives the
// work done. `env` must resolve the artifact's name to `artifact`.
Result<ClassCertificate> TransformCertificate(ClassProof proof, std::span<const CodeEdit> edits,
                                              const ClassFile& artifact, const ClassEnv& env,
                                              uint64_t* checks = nullptr);

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
