#include "src/optimizer/sync_elide.h"

#include <map>
#include <set>

#include "src/bytecode/code.h"
#include "src/runtime/syslib.h"

namespace dvm {
namespace {

struct LocalUse {
  int stores = 0;
  bool fresh_allocation = false;  // the single store is new;dup;<init>;astore
  bool escapes = false;           // any use the analysis does not understand
  std::vector<size_t> monitor_aloads;  // indices of aload feeding monitor ops
};

}  // namespace

Result<std::vector<size_t>> FindElidableMonitorOps(const std::vector<Instr>& code) {
  std::map<int32_t, LocalUse> locals;

  // Branch targets: an edge landing on a monitor instruction would separate it
  // from its feeding aload; treat those pairs as non-elidable.
  std::set<int32_t> branch_targets;
  for (const auto& instr : code) {
    if (IsBranch(instr.op)) {
      branch_targets.insert(instr.a);
    }
  }

  for (size_t i = 0; i < code.size(); i++) {
    const Instr& instr = code[i];
    switch (instr.op) {
      case Op::kAstore: {
        LocalUse& use = locals[instr.a];
        use.stores++;
        // Fresh allocation window: new; dup; invokespecial <init>; astore.
        use.fresh_allocation =
            use.stores == 1 && i >= 3 && code[i - 3].op == Op::kNew &&
            code[i - 2].op == Op::kDup && code[i - 1].op == Op::kInvokespecial;
        break;
      }
      case Op::kAload: {
        LocalUse& use = locals[instr.a];
        bool next_is_monitor =
            i + 1 < code.size() && (code[i + 1].op == Op::kMonitorenter ||
                                    code[i + 1].op == Op::kMonitorexit);
        bool monitor_is_branch_target =
            next_is_monitor && branch_targets.count(static_cast<int32_t>(i + 1)) > 0;
        if (next_is_monitor && !monitor_is_branch_target) {
          use.monitor_aloads.push_back(i);
        } else {
          use.escapes = true;  // any other use of the reference
        }
        break;
      }
      default:
        break;
    }
  }

  std::vector<size_t> elidable;
  for (const auto& [local, use] : locals) {
    if (use.stores != 1 || !use.fresh_allocation || use.escapes ||
        use.monitor_aloads.empty()) {
      continue;
    }
    for (size_t aload_index : use.monitor_aloads) {
      elidable.push_back(aload_index);
      elidable.push_back(aload_index + 1);
    }
  }
  return elidable;
}

Result<FilterOutcome> SyncElideFilter::Apply(ClassFile& cls, const FilterContext& ctx) const {
  FilterOutcome outcome;
  if (IsSystemClass(cls.name())) {
    return outcome;
  }
  for (auto& method : cls.methods) {
    if (!method.code.has_value()) {
      continue;
    }
    // Conservative: exception handlers complicate the monitor-pairing
    // argument; skip such methods entirely.
    if (!method.code->handlers.empty()) {
      continue;
    }
    DVM_ASSIGN_OR_RETURN(DecodedCode decoded, DecodeCode(method.code->code));
    std::vector<Instr>& code = decoded.instrs;
    DVM_ASSIGN_OR_RETURN(std::vector<size_t> elidable, FindElidableMonitorOps(code));
    if (elidable.empty()) {
      continue;
    }
    for (size_t index : elidable) {
      if (code[index].op == Op::kMonitorenter) {
        outcome.sites_rewritten++;
      }
      code[index] = Instr{Op::kNop, 0, 0};
    }
    DVM_ASSIGN_OR_RETURN(method.code->code, EncodeCode(code));
    outcome.modified = true;
    outcome.checks_performed += elidable.size();
  }
  return outcome;
}

}  // namespace dvm
