// The reflection service (paper section 4.3): "an earlier implementation of
// our verifier relied on reflection primitives built into the JVM and was too
// slow. We subsequently developed a reflection service that adds
// self-describing attributes to classes and modified our verifier to use this
// interface rather than the slow library interface in the Sun JDK."
//
// ReflectionFilter attaches a dvm.ReflectionInfo attribute: a compact member
// table (field and method names + descriptors). The RTVerifier dynamic
// component consults it for descriptor lookups; classes without the attribute
// fall back to the slow reflective path (CostModel::nanos_per_link_check_slow).
#ifndef SRC_SERVICES_REFLECT_SERVICE_H_
#define SRC_SERVICES_REFLECT_SERVICE_H_

#include <string>
#include <vector>

#include "src/rewrite/filter.h"

namespace dvm {

// Decoded member table.
struct ReflectionInfo {
  std::vector<std::pair<std::string, std::string>> fields;   // name, descriptor
  std::vector<std::pair<std::string, std::string>> methods;  // name, descriptor
};

// Builds the attribute payload for a class.
Bytes EncodeReflectionInfo(const ClassFile& cls);
Result<ReflectionInfo> DecodeReflectionInfo(const Bytes& data);

class ReflectionFilter : public CodeFilter {
 public:
  std::string name() const override { return "reflection"; }
  Result<FilterOutcome> Apply(ClassFile& cls, const FilterContext& ctx) const override;
};

}  // namespace dvm

#endif  // SRC_SERVICES_REFLECT_SERVICE_H_
