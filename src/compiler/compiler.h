// The network compilation service (paper section 3.4).
//
// A monolithic VM JIT-compiles on the client under severe time pressure; the
// DVM moves translation into the network, where it runs once per platform and
// is amortized across every client in the organization (clients report their
// native format during the remote-administration handshake).
//
// "Native translation" here is quickening: a peephole optimization pass
// (constant folding, strength reduction, redundant-load elimination) plus a
// CompiledStamp attribute. Stamped classes execute at the compiled-instruction
// cost in the runtime's cost model, the same way a template JIT's output would.
#ifndef SRC_COMPILER_COMPILER_H_
#define SRC_COMPILER_COMPILER_H_

#include <string>
#include <utility>
#include <vector>

#include "src/bytecode/code.h"
#include "src/rewrite/filter.h"

namespace dvm {

struct CompileStats {
  uint64_t folds = 0;         // constant-folding rewrites applied
  uint64_t reductions = 0;    // strength reductions applied
};

// Peephole-optimizes one decoded method body in place, adding what it applied
// to `stats`. Exposed for tests. Safe across branches: a window is only
// folded when no branch targets its interior.
Result<bool> PeepholeOptimize(std::vector<Instr>* code, const ConstantPool& pool,
                              CompileStats* stats);

// Static component: translates every method of every (non-system) class and
// stamps the class for the target platform. The platform is taken from the
// request context when present (clients report their native format in the
// remote-administration handshake, section 3.4); `default_platform` covers
// platform-neutral requests. The outcome's sites_rewritten counts the folds
// and strength reductions applied.
class CompilerFilter : public CodeFilter {
 public:
  explicit CompilerFilter(std::string default_platform)
      : target_platform_(std::move(default_platform)) {}

  std::string name() const override { return "compiler"; }
  Result<FilterOutcome> Apply(ClassFile& cls, const FilterContext& ctx) const override;

 private:
  std::string target_platform_;
};

}  // namespace dvm

#endif  // SRC_COMPILER_COMPILER_H_
