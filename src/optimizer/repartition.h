// The mobile-code repartitioning optimizer (paper section 5).
//
// Java's transfer units (classes / archives) do not match the dynamic
// execution path: 10-30% of downloaded code is never invoked. This service
// uses a first-use profile collected by the profiling service to split each
// class at *method granularity*: methods on the startup path stay in the
// original ("hot") class; the rest move to a lazily-loaded companion class
// ("<name>$cold"), leaving small forwarding stubs behind. Clients and origin
// servers need no modification — a stub invocation faults the cold class in
// through the ordinary class-loading path.
#ifndef SRC_OPTIMIZER_REPARTITION_H_
#define SRC_OPTIMIZER_REPARTITION_H_

#include <set>
#include <string>
#include <vector>

#include "src/rewrite/filter.h"

namespace dvm {

// Methods observed in use (typically: during application startup), as
// "class.method" tags produced by the profiling service.
class TransferProfile {
 public:
  TransferProfile() = default;
  explicit TransferProfile(const std::vector<std::string>& first_use_tags);

  void MarkUsed(const std::string& class_name, const std::string& method_name);
  bool IsUsed(const std::string& class_name, const std::string& method_name) const;
  bool HasDataFor(const std::string& class_name) const;

 private:
  std::set<std::string> used_;      // "class.method"
  std::set<std::string> classes_;  // classes with any profile data
};

// A split class comes back with its cold companion in extra_classes and the
// number of methods moved in checks_performed.
class RepartitionFilter : public CodeFilter {
 public:
  explicit RepartitionFilter(const TransferProfile* profile) : profile_(profile) {}

  std::string name() const override { return "repartitioner"; }
  Result<FilterOutcome> Apply(ClassFile& cls, const FilterContext& ctx) const override;

 private:
  const TransferProfile* profile_;
};

// Re-encodes `code` from one class's constant pool into another's, remapping
// every constant-pool operand. Shared with tests.
Result<Bytes> TranspileCode(const Bytes& code, const ConstantPool& from, ConstantPool& to);

}  // namespace dvm

#endif  // SRC_OPTIMIZER_REPARTITION_H_
