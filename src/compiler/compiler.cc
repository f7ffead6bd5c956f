#include "src/compiler/compiler.h"

#include <optional>
#include <set>

#include "src/rewrite/method_editor.h"
#include "src/runtime/syslib.h"

namespace dvm {
namespace {

// Constant value of a push instruction, if it is one.
std::optional<int32_t> PushedConstant(const Instr& instr, const ConstantPool& pool) {
  switch (instr.op) {
    case Op::kIconst0:
      return 0;
    case Op::kIconst1:
      return 1;
    case Op::kBipush:
    case Op::kSipush:
      return instr.a;
    case Op::kLdc: {
      auto v = pool.IntegerAt(static_cast<uint16_t>(instr.a));
      if (v.ok()) {
        return v.value();
      }
      return std::nullopt;
    }
    default:
      return std::nullopt;
  }
}

// Encodes an int constant as the shortest instruction. Wide values would need
// a pool slot, which the caller avoids by only folding small results.
Instr MakePush(int32_t v) {
  if (v == 0) {
    return {Op::kIconst0, 0, 0};
  }
  if (v == 1) {
    return {Op::kIconst1, 0, 0};
  }
  if (v >= -128 && v <= 127) {
    return {Op::kBipush, v, 0};
  }
  return {Op::kSipush, v, 0};
}

std::optional<int32_t> FoldBinary(Op op, int32_t a, int32_t b) {
  int64_t wide;
  switch (op) {
    case Op::kIadd:
      wide = static_cast<int64_t>(a) + b;
      break;
    case Op::kIsub:
      wide = static_cast<int64_t>(a) - b;
      break;
    case Op::kImul:
      wide = static_cast<int64_t>(a) * b;
      break;
    case Op::kIand:
      wide = a & b;
      break;
    case Op::kIor:
      wide = a | b;
      break;
    case Op::kIxor:
      wide = a ^ b;
      break;
    default:
      return std::nullopt;
  }
  // Only fold when the result still fits a short push encoding.
  if (wide < -32768 || wide > 32767) {
    return std::nullopt;
  }
  return static_cast<int32_t>(wide);
}

bool IsPowerOfTwo(int32_t v) { return v > 1 && (v & (v - 1)) == 0; }

int32_t Log2(int32_t v) {
  int32_t shift = 0;
  while ((1 << shift) < v) {
    shift++;
  }
  return shift;
}

}  // namespace

Result<bool> PeepholeOptimize(std::vector<Instr>* code, const ConstantPool& pool,
                              CompileStats* stats) {
  // Branch targets may not point into the middle of a fused window.
  std::set<int32_t> targets;
  for (const auto& instr : *code) {
    if (IsBranch(instr.op)) {
      targets.insert(instr.a);
    }
  }

  bool changed_any = false;
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i + 2 < code->size(); i++) {
      // Window: push c1; push c2; binop  ->  push (c1 op c2)
      auto c1 = PushedConstant((*code)[i], pool);
      auto c2 = PushedConstant((*code)[i + 1], pool);
      if (c1.has_value() && c2.has_value() &&
          targets.count(static_cast<int32_t>(i + 1)) == 0 &&
          targets.count(static_cast<int32_t>(i + 2)) == 0) {
        auto folded = FoldBinary((*code)[i + 2].op, *c1, *c2);
        if (folded.has_value()) {
          (*code)[i] = MakePush(*folded);
          (*code)[i + 1] = {Op::kNop, 0, 0};
          (*code)[i + 2] = {Op::kNop, 0, 0};
          stats->folds++;
          changed = changed_any = true;
          continue;
        }
      }
      // Window: push 2^k; imul  ->  push k; ishl
      if (c2.has_value() && IsPowerOfTwo(*c2) && (*code)[i + 2].op == Op::kImul &&
          targets.count(static_cast<int32_t>(i + 2)) == 0) {
        (*code)[i + 1] = MakePush(Log2(*c2));
        (*code)[i + 2] = {Op::kIshl, 0, 0};
        stats->reductions++;
        changed = changed_any = true;
      }
    }
  }
  return changed_any;
}

Result<FilterOutcome> CompilerFilter::Apply(ClassFile& cls, const FilterContext& ctx) const {
  FilterOutcome outcome;
  if (IsSystemClass(cls.name())) {
    return outcome;
  }
  CompileStats stats;
  for (auto& method : cls.methods) {
    if (!method.code.has_value()) {
      continue;
    }
    DVM_ASSIGN_OR_RETURN(std::vector<Instr> code, DecodeCode(method.code->code));
    DVM_ASSIGN_OR_RETURN(bool changed, PeepholeOptimize(&code, cls.pool(), &stats));
    outcome.checks_performed += code.size();
    if (changed) {
      DVM_ASSIGN_OR_RETURN(method.code->code, EncodeCode(code));
      outcome.modified = true;
    }
  }
  outcome.sites_rewritten = stats.folds + stats.reductions;
  const std::string& platform = ctx.platform.empty() ? target_platform_ : ctx.platform;
  cls.SetAttribute(kAttrCompiledStamp, Bytes(platform.begin(), platform.end()));
  outcome.modified = true;
  return outcome;
}

}  // namespace dvm
