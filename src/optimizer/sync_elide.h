// Transparent synchronization optimization (paper section 3.3: "we have used
// the tracing service to obtain traces of synchronization behavior for Java
// applications and utilized this data in designing a transparent optimization
// service" [Aldrich et al. 99]).
//
// SyncElideFilter removes monitorenter/monitorexit pairs on objects that
// provably cannot be shared: the object is allocated in the same method,
// stored to exactly one local, and that local's value is used ONLY for
// monitor operations and own-field accesses — it never escapes through an
// invoke argument, a field/array store, a return, a throw, or an alias to
// another local. The analysis is deliberately conservative: any use it does
// not understand keeps the monitors.
#ifndef SRC_OPTIMIZER_SYNC_ELIDE_H_
#define SRC_OPTIMIZER_SYNC_ELIDE_H_

#include <string>
#include <vector>

#include "src/bytecode/code.h"
#include "src/rewrite/filter.h"

namespace dvm {

// The outcome's sites_rewritten counts the monitorenter instructions elided.
class SyncElideFilter : public CodeFilter {
 public:
  std::string name() const override { return "sync-elider"; }
  Result<FilterOutcome> Apply(ClassFile& cls, const FilterContext& ctx) const override;
};

// Core analysis on one decoded method body; exposed for tests. Returns the
// instruction indices of elidable monitorenter/monitorexit instructions
// (including the aload feeding each).
Result<std::vector<size_t>> FindElidableMonitorOps(const std::vector<Instr>& code);

}  // namespace dvm

#endif  // SRC_OPTIMIZER_SYNC_ELIDE_H_
