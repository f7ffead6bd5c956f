// The distributed verification service (paper section 3.1).
//
// Static component (proxy): runs verifier phases 1-3, collects the link
// assumptions, and rewrites the class so the residual phase-4 checks happen
// lazily on the client:
//   - method-scoped assumptions compile to a guarded preamble on the method
//     that made them (the __mainChecked pattern of Figure 3);
//   - class-scoped assumptions (inheritance) compile into <clinit>;
//   - provably unsafe classes are replaced by a stand-in whose methods raise
//     java/lang/VerifyError, so errors surface through the regular guest
//     exception mechanism.
//
// Dynamic component (client): the dvm/rt/RTVerifier natives — a descriptor
// lookup and string comparison against the client's own namespace.
#ifndef SRC_SERVICES_VERIFY_SERVICE_H_
#define SRC_SERVICES_VERIFY_SERVICE_H_

#include <memory>
#include <string>

#include "src/rewrite/filter.h"
#include "src/runtime/machine.h"

namespace dvm {

// Outcome counts: checks_performed is the static checks proved (1 for a
// rejected class, which gets a replacement), sites_rewritten the dynamic
// checks injected. System classes pass untouched with both 0.
class VerificationFilter : public CodeFilter {
 public:
  std::string name() const override { return "verifier"; }
  Result<FilterOutcome> Apply(ClassFile& cls, const FilterContext& ctx) const override;
};

// Builds the error-raising stand-in for a class that failed verification.
// Every method of the original with a well-formed descriptor is present and
// raises VerifyError with `message`; members with malformed descriptors (which
// nothing can ever link against) are dropped so the stand-in is buildable for
// any parseable input class. Fails with a typed error — never aborts — if the
// stand-in cannot be assembled.
Result<ClassFile> BuildVerifyErrorClass(const ClassFile& original, const std::string& message);

// Client side: binds the dvm/rt/RTVerifier natives. Each check resolves the
// named class through the machine's registry (faulting it in if necessary),
// performs the descriptor comparison, and raises guest VerifyError on failure.
void InstallVerifierRuntime(Machine& machine);

}  // namespace dvm

#endif  // SRC_SERVICES_VERIFY_SERVICE_H_
