#include "src/runtime/tiered.h"

#include <algorithm>
#include <cstring>

#include "src/bytecode/descriptor.h"
#include "src/bytecode/opcodes.h"
#include "src/bytecode/stack_effect.h"

namespace dvm {

namespace {

constexpr uint32_t kBlobMagic = 0x44564d54;  // "DVMT"
constexpr uint16_t kBlobVersion = 1;

bool IsIntAluOp(Op op) {
  switch (op) {
    case Op::kIadd:
    case Op::kIsub:
    case Op::kImul:
    case Op::kIand:
    case Op::kIor:
    case Op::kIxor:
    case Op::kIshl:
    case Op::kIshr:
    case Op::kIushr:
      return true;
    default:
      return false;
  }
}

bool IsLongAluOp(Op op) {
  return op == Op::kLadd || op == Op::kLsub || op == Op::kLmul;
}

bool IsIfCond(Op op) {
  return op >= Op::kIfeq && op <= Op::kIfle;
}

bool IsIcmpCond(Op op) {
  return op >= Op::kIfIcmpeq && op <= Op::kIfIcmple;
}

bool IsRefCond(Op op) {
  return op == Op::kIfAcmpeq || op == Op::kIfAcmpne || op == Op::kIfnull ||
         op == Op::kIfnonnull;
}

// True when `instr` pushes an int constant the fuser can fold into an
// immediate operand.
bool IntConstValue(const Instr& instr, const ConstantPool& pool, int32_t* out) {
  switch (instr.op) {
    case Op::kIconst0:
      *out = 0;
      return true;
    case Op::kIconst1:
      *out = 1;
      return true;
    case Op::kBipush:
    case Op::kSipush:
      *out = instr.a;
      return true;
    case Op::kLdc:
    case Op::kLdcQuick: {
      uint16_t ix = static_cast<uint16_t>(instr.a);
      if (!pool.HasTag(ix, CpTag::kInteger)) {
        return false;
      }
      auto v = pool.IntegerAt(ix);
      if (!v.ok()) {
        return false;
      }
      *out = *v;
      return true;
    }
    default:
      return false;
  }
}

// The tier-1 subset: source ops BaselineCompile translates. Default-deny —
// athrow, checkcast/instanceof, monitors and anything unknown stay
// interpreted.
bool InTierSubset(const Instr& instr, const ConstantPool& pool) {
  switch (NormalizeQuickOp(instr.op)) {
    case Op::kLdc: {
      // Strings allocate + intern; keep those sites on the interpreter.
      uint16_t ix = static_cast<uint16_t>(instr.a);
      return pool.HasTag(ix, CpTag::kInteger) || pool.HasTag(ix, CpTag::kLong);
    }
    case Op::kNop: case Op::kAconstNull: case Op::kIconst0: case Op::kIconst1:
    case Op::kBipush: case Op::kSipush: case Op::kIload: case Op::kLload: case Op::kAload:
    case Op::kIstore: case Op::kLstore: case Op::kAstore: case Op::kIaload: case Op::kLaload:
    case Op::kAaload: case Op::kIastore: case Op::kLastore: case Op::kAastore: case Op::kPop:
    case Op::kDup: case Op::kDupX1: case Op::kSwap: case Op::kIadd: case Op::kIsub:
    case Op::kImul: case Op::kIdiv: case Op::kIrem: case Op::kIand: case Op::kIor:
    case Op::kIxor: case Op::kIshl: case Op::kIshr: case Op::kIushr: case Op::kLadd:
    case Op::kLsub: case Op::kLmul: case Op::kLdiv: case Op::kLrem: case Op::kLcmp:
    case Op::kIneg: case Op::kLneg: case Op::kI2l: case Op::kL2i: case Op::kIinc:
    case Op::kGoto: case Op::kIfeq: case Op::kIfne: case Op::kIflt: case Op::kIfge:
    case Op::kIfgt: case Op::kIfle: case Op::kIfnull: case Op::kIfnonnull:
    case Op::kIfIcmpeq: case Op::kIfIcmpne: case Op::kIfIcmplt: case Op::kIfIcmpge:
    case Op::kIfIcmpgt: case Op::kIfIcmple: case Op::kIfAcmpeq: case Op::kIfAcmpne:
    case Op::kIreturn: case Op::kLreturn: case Op::kAreturn: case Op::kReturn:
    case Op::kGetstatic: case Op::kPutstatic: case Op::kGetfield: case Op::kPutfield:
    case Op::kInvokevirtual: case Op::kInvokespecial: case Op::kInvokestatic: case Op::kNew:
    case Op::kNewarray: case Op::kAnewarray: case Op::kArraylength:
      return true;
    default:
      return false;
  }
}

// Operand-stack pops and pushes of a source instruction (quick forms count
// as their base op), from the shared table in src/bytecode/stack_effect.cc.
bool SourceEffect(const Instr& instr, const ConstantPool& pool, int* pops, int* pushes) {
  Instr raw = instr;
  raw.op = NormalizeQuickOp(instr.op);
  Result<int> p = StackPops(raw, pool);
  Result<int> d = StackDelta(raw, pool);
  if (!p.ok() || !d.ok()) {
    return false;
  }
  *pops = *p;
  *pushes = *p + *d;
  return true;
}

bool IsCheckedOp(Op op) {
  switch (NormalizeQuickOp(op)) {
    case Op::kIdiv:
    case Op::kIrem:
    case Op::kLdiv:
    case Op::kLrem:
    case Op::kIaload:
    case Op::kLaload:
    case Op::kAaload:
    case Op::kIastore:
    case Op::kLastore:
    case Op::kAastore:
    case Op::kArraylength:
    case Op::kGetstatic:
    case Op::kPutstatic:
    case Op::kGetfield:
    case Op::kPutfield:
    case Op::kInvokevirtual:
    case Op::kInvokespecial:
    case Op::kInvokestatic:
    case Op::kNew:
    case Op::kNewarray:
    case Op::kAnewarray:
      return true;
    default:
      return false;
  }
}

// Span boundary after this instruction (control or a checked op that may
// suspend the compiled frame).
bool EndsSpan(Op op) {
  Op raw = NormalizeQuickOp(op);
  return IsBranch(raw) || IsReturn(raw) || IsCheckedOp(raw);
}

void PutU16(Bytes* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v & 0xff));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32(Bytes* out, uint32_t v) {
  for (int i = 0; i < 4; i++) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutU64(Bytes* out, uint64_t v) {
  for (int i = 0; i < 8; i++) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

struct TierByteReader {
  const Bytes& data;
  size_t pos = 0;

  bool U8(uint8_t* v) {
    if (pos + 1 > data.size()) return false;
    *v = data[pos++];
    return true;
  }
  bool U16(uint16_t* v) {
    if (pos + 2 > data.size()) return false;
    *v = static_cast<uint16_t>(data[pos] | (data[pos + 1] << 8));
    pos += 2;
    return true;
  }
  bool U32(uint32_t* v) {
    if (pos + 4 > data.size()) return false;
    *v = 0;
    for (int i = 0; i < 4; i++) *v |= static_cast<uint32_t>(data[pos + i]) << (8 * i);
    pos += 4;
    return true;
  }
  bool U64(uint64_t* v) {
    if (pos + 8 > data.size()) return false;
    *v = 0;
    for (int i = 0; i < 8; i++) *v |= static_cast<uint64_t>(data[pos + i]) << (8 * i);
    pos += 8;
    return true;
  }
};

}  // namespace

Op NormalizeQuickOp(Op op) {
  switch (op) {
    case Op::kLdcQuick:
      return Op::kLdc;
    case Op::kGetfieldQuick:
      return Op::kGetfield;
    case Op::kPutfieldQuick:
      return Op::kPutfield;
    case Op::kGetstaticQuick:
      return Op::kGetstatic;
    case Op::kPutstaticQuick:
      return Op::kPutstatic;
    case Op::kInvokevirtualQuick:
      return Op::kInvokevirtual;
    case Op::kInvokespecialQuick:
      return Op::kInvokespecial;
    case Op::kInvokestaticQuick:
      return Op::kInvokestatic;
    case Op::kNewQuick:
      return Op::kNew;
    case Op::kAnewarrayQuick:
      return Op::kAnewarray;
    case Op::kCheckcastQuick:
      return Op::kCheckcast;
    case Op::kInstanceofQuick:
      return Op::kInstanceof;
    default:
      return op;
  }
}

uint32_t Fnv1a(const Bytes& data) {
  uint32_t h = 2166136261u;
  for (uint8_t b : data) {
    h ^= b;
    h *= 16777619u;
  }
  return h;
}

std::unique_ptr<TieredMethod> BaselineCompile(const std::vector<Instr>& code,
                                              const ConstantPool& pool,
                                              uint32_t max_stack, uint32_t max_locals) {
  size_t n = code.size();
  if (n == 0 || n > 0xffffff) {
    return nullptr;
  }

  // --- pass 1: support check, leaders, stack-depth analysis ------------------
  // depth[i] = operand-stack depth at entry to instruction i; -1 = unreachable.
  std::vector<int> depth(n, -1);
  std::vector<bool> leader(n, false);
  leader[0] = true;
  for (size_t i = 0; i < n; i++) {
    Op raw = NormalizeQuickOp(code[i].op);
    if (IsBranch(raw)) {
      uint32_t target = static_cast<uint32_t>(code[i].a);
      if (target >= n) {
        return nullptr;  // DecodeCode guarantees this; defend anyway
      }
      leader[target] = true;
      if (IsConditionalBranch(raw) && i + 1 < n) {
        leader[i + 1] = true;
      }
    }
    if (EndsSpan(code[i].op) && i + 1 < n) {
      leader[i + 1] = true;
    }
    // Local-index bounds: the interpreter host-errors past max_locals; refuse
    // so that path stays interpreted.
    switch (raw) {
      case Op::kIload:
      case Op::kLload:
      case Op::kAload:
      case Op::kIstore:
      case Op::kLstore:
      case Op::kAstore:
      case Op::kIinc:
        if (code[i].a < 0 || static_cast<uint32_t>(code[i].a) >= max_locals) {
          return nullptr;
        }
        break;
      default:
        break;
    }
  }

  std::vector<uint32_t> worklist = {0};
  depth[0] = 0;
  while (!worklist.empty()) {
    uint32_t i = worklist.back();
    worklist.pop_back();
    int d = depth[i];
    int pops = 0;
    int pushes = 0;
    if (!InTierSubset(code[i], pool) || !SourceEffect(code[i], pool, &pops, &pushes)) {
      return nullptr;
    }
    if (d < pops || d - pops + pushes > static_cast<int>(max_stack)) {
      return nullptr;  // interpreter would host-error; keep it there
    }
    int out = d - pops + pushes;
    Op raw = NormalizeQuickOp(code[i].op);
    auto flow = [&](uint32_t succ) -> bool {
      if (succ >= n) {
        return false;  // falling off the end = pc escape; stay interpreted
      }
      if (depth[succ] == -1) {
        depth[succ] = out;
        worklist.push_back(succ);
      } else if (depth[succ] != out) {
        return false;  // inconsistent merge; the verifier may allow dead
                       // patterns the depth model cannot prove — refuse
      }
      return true;
    };
    if (IsBranch(raw)) {
      if (!flow(static_cast<uint32_t>(code[i].a))) {
        return nullptr;
      }
      if (IsConditionalBranch(raw) && !flow(static_cast<uint32_t>(i + 1))) {
        return nullptr;
      }
    } else if (!IsReturn(raw)) {
      if (!flow(static_cast<uint32_t>(i + 1))) {
        return nullptr;
      }
    }
  }

  // --- pass 2: emission, span segmentation, superinstruction fusion ----------
  auto t = std::make_unique<TieredMethod>();
  t->max_stack = max_stack;
  t->max_locals = max_locals;
  t->source_len = static_cast<uint32_t>(n);

  struct Fixup {
    uint32_t ci;
    bool in_c;          // target field: c (fused branches) vs a
    uint32_t target;    // source instruction index
    uint32_t branch_src;
  };
  std::vector<Fixup> fixups;

  auto long_const = [&](int64_t v) -> int32_t {
    for (size_t k = 0; k < t->consts.size(); k++) {
      if (t->consts[k] == v) {
        return static_cast<int32_t>(k);
      }
    }
    t->consts.push_back(v);
    return static_cast<int32_t>(t->consts.size() - 1);
  };

  auto is_load = [&](size_t i) { return i < n && code[i].op == Op::kIload; };
  auto is_const = [&](size_t i, int32_t* v) {
    return i < n && !leader[i] && IntConstValue(code[i], pool, v);
  };

  size_t i = 0;
  while (i < n) {
    if (depth[i] == -1) {
      i++;  // unreachable: nothing can branch or fall through here
      continue;
    }
    // One span: [i, end) where end is the next leader or just past a
    // span-ending instruction.
    size_t span_start = i;
    uint32_t head_ci = static_cast<uint32_t>(t->code.size());
    t->entry[static_cast<uint32_t>(span_start)] = head_ci;
    while (i < n) {
      const Instr& in = code[i];
      Op raw = NormalizeQuickOp(in.op);
      CInstr out;
      out.bc = static_cast<uint32_t>(i);
      size_t consumed = 1;
      int32_t imm = 0;

      // Fusion windows (pure ops only; interior instructions must not be
      // leaders so no branch can enter mid-superinstruction).
      if (raw == Op::kIload && i + 2 < n && !leader[i + 1] && !leader[i + 2]) {
        if (is_load(i + 1) && IsIcmpCond(code[i + 2].op)) {
          out.op = TOp::kBrLL;
          out.sub = static_cast<uint8_t>(code[i + 2].op);
          out.a = in.a;
          out.b = code[i + 1].a;
          fixups.push_back({static_cast<uint32_t>(t->code.size()), true,
                            static_cast<uint32_t>(code[i + 2].a),
                            static_cast<uint32_t>(i + 2)});
          consumed = 3;
        } else if (is_const(i + 1, &imm) && IsIcmpCond(code[i + 2].op)) {
          out.op = TOp::kBrLC;
          out.sub = static_cast<uint8_t>(code[i + 2].op);
          out.a = in.a;
          out.b = imm;
          fixups.push_back({static_cast<uint32_t>(t->code.size()), true,
                            static_cast<uint32_t>(code[i + 2].a),
                            static_cast<uint32_t>(i + 2)});
          consumed = 3;
        } else if (is_load(i + 1) && IsIntAluOp(code[i + 2].op)) {
          if (i + 3 < n && !leader[i + 3] && code[i + 3].op == Op::kIstore) {
            out.op = TOp::kAluLLS;
            out.sub = static_cast<uint8_t>(code[i + 2].op);
            out.a = in.a;
            out.b = code[i + 1].a;
            out.c = code[i + 3].a;
            consumed = 4;
          } else {
            out.op = TOp::kAluLL;
            out.sub = static_cast<uint8_t>(code[i + 2].op);
            out.a = in.a;
            out.b = code[i + 1].a;
            consumed = 3;
          }
        } else if (is_const(i + 1, &imm) && IsIntAluOp(code[i + 2].op)) {
          if (i + 3 < n && !leader[i + 3] && code[i + 3].op == Op::kIstore) {
            out.op = TOp::kAluLCS;
            out.sub = static_cast<uint8_t>(code[i + 2].op);
            out.a = in.a;
            out.b = imm;
            out.c = code[i + 3].a;
            consumed = 4;
          } else {
            out.op = TOp::kAluLC;
            out.sub = static_cast<uint8_t>(code[i + 2].op);
            out.a = in.a;
            out.b = imm;
            consumed = 3;
          }
        }
      }

      if (consumed == 1) {
        switch (raw) {
          case Op::kNop:
            out.op = TOp::kNop;
            break;
          case Op::kAconstNull:
            out.op = TOp::kConstNull;
            break;
          case Op::kIconst0:
            out.op = TOp::kConstI;
            out.a = 0;
            break;
          case Op::kIconst1:
            out.op = TOp::kConstI;
            out.a = 1;
            break;
          case Op::kBipush:
          case Op::kSipush:
            out.op = TOp::kConstI;
            out.a = in.a;
            break;
          case Op::kLdc: {
            uint16_t ix = static_cast<uint16_t>(in.a);
            if (pool.HasTag(ix, CpTag::kInteger)) {
              auto v = pool.IntegerAt(ix);
              if (!v.ok()) return nullptr;
              out.op = TOp::kConstI;
              out.a = *v;
            } else {
              auto v = pool.LongAt(ix);
              if (!v.ok()) return nullptr;
              out.op = TOp::kConstL;
              out.a = long_const(*v);
            }
            break;
          }
          case Op::kIload:
          case Op::kLload:
          case Op::kAload:
            out.op = TOp::kLoad;
            out.a = in.a;
            break;
          case Op::kIstore:
          case Op::kLstore:
          case Op::kAstore:
            out.op = TOp::kStore;
            out.a = in.a;
            break;
          case Op::kIinc:
            out.op = TOp::kIinc;
            out.a = in.a;
            out.b = in.b;
            break;
          case Op::kPop:
            out.op = TOp::kPop;
            break;
          case Op::kDup:
            out.op = TOp::kDup;
            break;
          case Op::kDupX1:
            out.op = TOp::kDupX1;
            break;
          case Op::kSwap:
            out.op = TOp::kSwap;
            break;
          case Op::kIneg:
            out.op = TOp::kIneg;
            break;
          case Op::kLneg:
            out.op = TOp::kLneg;
            break;
          case Op::kI2l:
            out.op = TOp::kI2l;
            break;
          case Op::kL2i:
            out.op = TOp::kL2i;
            break;
          case Op::kLcmp:
            out.op = TOp::kLcmp;
            break;
          case Op::kGoto:
            out.op = TOp::kGoto;
            fixups.push_back({static_cast<uint32_t>(t->code.size()), false,
                              static_cast<uint32_t>(in.a), static_cast<uint32_t>(i)});
            break;
          case Op::kIdiv:
          case Op::kIrem:
          case Op::kLdiv:
          case Op::kLrem:
            out.op = TOp::kDivRem;
            out.sub = static_cast<uint8_t>(raw);
            break;
          case Op::kIaload:
          case Op::kLaload:
          case Op::kAaload:
            out.op = TOp::kArrLoad;
            out.sub = static_cast<uint8_t>(raw);
            break;
          case Op::kIastore:
          case Op::kLastore:
          case Op::kAastore:
            out.op = TOp::kArrStore;
            out.sub = static_cast<uint8_t>(raw);
            break;
          case Op::kArraylength:
            out.op = TOp::kArrLen;
            break;
          case Op::kGetstatic:
          case Op::kPutstatic:
          case Op::kGetfield:
          case Op::kPutfield:
            out.op = TOp::kField;
            out.sub = static_cast<uint8_t>(raw);
            break;
          case Op::kInvokevirtual:
          case Op::kInvokespecial:
          case Op::kInvokestatic: {
            if (!SourceEffect(in, pool, &out.a, &out.b)) return nullptr;
            out.op = TOp::kInvoke;
            out.sub = static_cast<uint8_t>(raw);
            break;
          }
          case Op::kNew:
            out.op = TOp::kNew;
            break;
          case Op::kNewarray:
            out.op = TOp::kNewArray;
            out.a = in.a;
            break;
          case Op::kAnewarray:
            out.op = TOp::kANewArray;
            break;
          case Op::kIreturn:
          case Op::kLreturn:
          case Op::kAreturn:
          case Op::kReturn:
            out.op = TOp::kRet;
            out.sub = static_cast<uint8_t>(raw);
            break;
          default:
            if (IsIntAluOp(raw)) {
              out.op = TOp::kIAlu;
              out.sub = static_cast<uint8_t>(raw);
            } else if (IsLongAluOp(raw)) {
              out.op = TOp::kLAlu;
              out.sub = static_cast<uint8_t>(raw);
            } else if (IsIfCond(raw)) {
              out.op = TOp::kBrI;
              out.sub = static_cast<uint8_t>(raw);
              fixups.push_back({static_cast<uint32_t>(t->code.size()), false,
                                static_cast<uint32_t>(in.a), static_cast<uint32_t>(i)});
            } else if (IsIcmpCond(raw)) {
              out.op = TOp::kBrII;
              out.sub = static_cast<uint8_t>(raw);
              fixups.push_back({static_cast<uint32_t>(t->code.size()), false,
                                static_cast<uint32_t>(in.a), static_cast<uint32_t>(i)});
            } else if (IsRefCond(raw)) {
              out.op = TOp::kBrA;
              out.sub = static_cast<uint8_t>(raw);
              fixups.push_back({static_cast<uint32_t>(t->code.size()), false,
                                static_cast<uint32_t>(in.a), static_cast<uint32_t>(i)});
            } else {
              return nullptr;  // outside the tier-1 subset
            }
            break;
        }
      }

      t->code.push_back(out);
      bool span_done = false;
      // A fused window ending in a branch ends the span exactly where the
      // source branch would.
      Op last = NormalizeQuickOp(code[i + consumed - 1].op);
      if (EndsSpan(code[i + consumed - 1].op) || IsBranch(last)) {
        span_done = true;
      }
      i += consumed;
      if (i < n && leader[i]) {
        span_done = true;
      }
      if (span_done || i >= n) {
        t->code[head_ci].charge = static_cast<uint32_t>(i - span_start);
        break;
      }
    }
  }

  // --- pass 3: branch fixups -------------------------------------------------
  for (const Fixup& fx : fixups) {
    auto it = t->entry.find(fx.target);
    if (it == t->entry.end()) {
      return nullptr;  // target unreachable/unemitted: cannot happen, refuse
    }
    CInstr& br = t->code[fx.ci];
    if (fx.in_c) {
      br.c = static_cast<int32_t>(it->second);
    } else {
      br.a = static_cast<int32_t>(it->second);
    }
    // Matches the interpreter's backedge test (target < pc after increment,
    // i.e. target <= branch index).
    if (fx.target <= fx.branch_src) {
      br.flags |= kTierFlagBackward;
    }
  }
  return t;
}

Bytes SerializeTieredMethod(const TieredMethod& t) {
  Bytes out;
  PutU32(&out, kBlobMagic);
  PutU16(&out, kBlobVersion);
  PutU32(&out, t.checksum);
  PutU32(&out, t.max_stack);
  PutU32(&out, t.max_locals);
  PutU32(&out, t.source_len);
  PutU32(&out, static_cast<uint32_t>(t.consts.size()));
  for (int64_t v : t.consts) {
    PutU64(&out, static_cast<uint64_t>(v));
  }
  PutU32(&out, static_cast<uint32_t>(t.code.size()));
  for (const CInstr& in : t.code) {
    out.push_back(static_cast<uint8_t>(in.op));
    out.push_back(in.sub);
    PutU16(&out, in.flags);
    PutU32(&out, static_cast<uint32_t>(in.a));
    PutU32(&out, static_cast<uint32_t>(in.b));
    PutU32(&out, static_cast<uint32_t>(in.c));
    PutU32(&out, in.bc);
    PutU32(&out, in.charge);
  }
  return out;
}

Result<std::unique_ptr<TieredMethod>> ParseTieredBlob(const Bytes& blob) {
  TierByteReader r{blob};
  uint32_t magic = 0;
  uint16_t version = 0;
  if (!r.U32(&magic) || magic != kBlobMagic) {
    return Error{ErrorCode::kParseError, "tiered blob: bad magic"};
  }
  if (!r.U16(&version) || version != kBlobVersion) {
    return Error{ErrorCode::kParseError, "tiered blob: unsupported version"};
  }
  auto t = std::make_unique<TieredMethod>();
  uint32_t n_consts = 0;
  uint32_t n_code = 0;
  if (!r.U32(&t->checksum) || !r.U32(&t->max_stack) || !r.U32(&t->max_locals) ||
      !r.U32(&t->source_len) || !r.U32(&n_consts)) {
    return Error{ErrorCode::kParseError, "tiered blob: truncated header"};
  }
  if (n_consts > 0xffff) {
    return Error{ErrorCode::kParseError, "tiered blob: const table too large"};
  }
  t->consts.reserve(n_consts);
  for (uint32_t k = 0; k < n_consts; k++) {
    uint64_t v = 0;
    if (!r.U64(&v)) {
      return Error{ErrorCode::kParseError, "tiered blob: truncated const table"};
    }
    t->consts.push_back(static_cast<int64_t>(v));
  }
  if (!r.U32(&n_code) || n_code == 0 || n_code > 0xffffff) {
    return Error{ErrorCode::kParseError, "tiered blob: bad code length"};
  }
  t->code.reserve(n_code);
  for (uint32_t k = 0; k < n_code; k++) {
    CInstr in;
    uint8_t op = 0;
    uint32_t a = 0, b = 0, c = 0;
    if (!r.U8(&op) || !r.U8(&in.sub) || !r.U16(&in.flags) || !r.U32(&a) ||
        !r.U32(&b) || !r.U32(&c) || !r.U32(&in.bc) || !r.U32(&in.charge)) {
      return Error{ErrorCode::kParseError, "tiered blob: truncated code"};
    }
    if (op > static_cast<uint8_t>(TOp::kLastTOp)) {
      return Error{ErrorCode::kParseError, "tiered blob: unknown opcode"};
    }
    in.op = static_cast<TOp>(op);
    in.a = static_cast<int32_t>(a);
    in.b = static_cast<int32_t>(b);
    in.c = static_cast<int32_t>(c);
    t->code.push_back(in);
  }
  if (r.pos != blob.size()) {
    return Error{ErrorCode::kParseError, "tiered blob: trailing bytes"};
  }
  for (uint32_t k = 0; k < n_code; k++) {
    if (t->code[k].charge > 0) {
      if (!t->entry.emplace(t->code[k].bc, k).second) {
        return Error{ErrorCode::kParseError, "tiered blob: duplicate span head"};
      }
    }
  }
  return t;
}

Status ValidateTieredMethod(const TieredMethod& t, const std::vector<Instr>& code,
                            const ConstantPool& pool, uint32_t max_stack,
                            uint32_t max_locals) {
  auto fail = [](const char* msg) { return Status(Error{ErrorCode::kVerifyError, msg}); };
  if (t.max_stack != max_stack || t.max_locals != max_locals ||
      t.source_len != code.size()) {
    return fail("tiered blob: method shape mismatch");
  }
  size_t n = t.code.size();
  if (n == 0 || t.code[0].charge == 0 || t.code[0].bc != 0) {
    return fail("tiered blob: missing entry span");
  }

  auto check_local = [&](int32_t ix) {
    return ix >= 0 && static_cast<uint32_t>(ix) < max_locals;
  };
  auto check_branch = [&](int32_t target) {
    return target >= 0 && static_cast<size_t>(target) < n &&
           t.code[static_cast<size_t>(target)].charge > 0;
  };

  // Span coverage: heads ordered by source position, each covering a
  // contiguous run of source instructions; interior instructions stay inside
  // their span's run.
  uint32_t span_bc = 0;
  uint32_t span_end = 0;
  for (size_t k = 0; k < n; k++) {
    const CInstr& in = t.code[k];
    if (in.bc >= code.size()) {
      return fail("tiered blob: source index out of range");
    }
    if (in.charge > 0) {
      if (k > 0 && in.bc < span_end) {
        return fail("tiered blob: overlapping spans");
      }
      span_bc = in.bc;
      span_end = in.bc + in.charge;
      if (span_end > code.size()) {
        return fail("tiered blob: span charge past method end");
      }
    } else if (k == 0 || in.bc < span_bc || in.bc >= span_end) {
      return fail("tiered blob: instruction outside its span");
    }

    Op site = NormalizeQuickOp(code[in.bc].op);
    switch (in.op) {
      case TOp::kNop:
      case TOp::kConstI:
      case TOp::kConstNull:
      case TOp::kPop:
      case TOp::kDup:
      case TOp::kDupX1:
      case TOp::kSwap:
      case TOp::kIneg:
      case TOp::kLneg:
      case TOp::kI2l:
      case TOp::kL2i:
      case TOp::kLcmp:
        break;
      case TOp::kConstL:
        if (in.a < 0 || static_cast<size_t>(in.a) >= t.consts.size()) {
          return fail("tiered blob: const index out of range");
        }
        break;
      case TOp::kLoad:
      case TOp::kStore:
      case TOp::kIinc:
        if (!check_local(in.a)) {
          return fail("tiered blob: local index out of range");
        }
        break;
      case TOp::kIAlu:
        if (!IsIntAluOp(static_cast<Op>(in.sub))) {
          return fail("tiered blob: bad int alu sub-op");
        }
        break;
      case TOp::kLAlu:
        if (!IsLongAluOp(static_cast<Op>(in.sub))) {
          return fail("tiered blob: bad long alu sub-op");
        }
        break;
      case TOp::kAluLL:
      case TOp::kAluLLS:
        if (!IsIntAluOp(static_cast<Op>(in.sub)) || !check_local(in.a) ||
            !check_local(in.b) ||
            (in.op == TOp::kAluLLS && !check_local(in.c))) {
          return fail("tiered blob: bad fused alu");
        }
        break;
      case TOp::kAluLC:
      case TOp::kAluLCS:
        if (!IsIntAluOp(static_cast<Op>(in.sub)) || !check_local(in.a) ||
            (in.op == TOp::kAluLCS && !check_local(in.c))) {
          return fail("tiered blob: bad fused alu");
        }
        break;
      case TOp::kGoto:
      case TOp::kBrI:
      case TOp::kBrII:
      case TOp::kBrA:
        if (!check_branch(in.a)) {
          return fail("tiered blob: branch target not a span head");
        }
        if (in.op == TOp::kBrI && !IsIfCond(static_cast<Op>(in.sub))) {
          return fail("tiered blob: bad branch condition");
        }
        if (in.op == TOp::kBrII && !IsIcmpCond(static_cast<Op>(in.sub))) {
          return fail("tiered blob: bad branch condition");
        }
        if (in.op == TOp::kBrA && !IsRefCond(static_cast<Op>(in.sub))) {
          return fail("tiered blob: bad branch condition");
        }
        break;
      case TOp::kBrLL:
      case TOp::kBrLC:
        if (!check_branch(in.c) || !IsIcmpCond(static_cast<Op>(in.sub)) ||
            !check_local(in.a) || (in.op == TOp::kBrLL && !check_local(in.b))) {
          return fail("tiered blob: bad fused branch");
        }
        break;
      // Checked ops must name the live site's op family: the runtime
      // re-dispatches through the bytecode site, so a mismatch would desync
      // the validated stack model from what actually executes.
      case TOp::kDivRem:
        if (site != static_cast<Op>(in.sub) ||
            (site != Op::kIdiv && site != Op::kIrem && site != Op::kLdiv &&
             site != Op::kLrem)) {
          return fail("tiered blob: div site mismatch");
        }
        break;
      case TOp::kArrLoad:
        if (site != static_cast<Op>(in.sub) ||
            (site != Op::kIaload && site != Op::kLaload && site != Op::kAaload)) {
          return fail("tiered blob: array load site mismatch");
        }
        break;
      case TOp::kArrStore:
        if (site != static_cast<Op>(in.sub) ||
            (site != Op::kIastore && site != Op::kLastore && site != Op::kAastore)) {
          return fail("tiered blob: array store site mismatch");
        }
        break;
      case TOp::kArrLen:
        if (site != Op::kArraylength) {
          return fail("tiered blob: arraylength site mismatch");
        }
        break;
      case TOp::kField:
        if (site != static_cast<Op>(in.sub) ||
            (site != Op::kGetstatic && site != Op::kPutstatic &&
             site != Op::kGetfield && site != Op::kPutfield)) {
          return fail("tiered blob: field site mismatch");
        }
        break;
      case TOp::kInvoke: {
        if (site != static_cast<Op>(in.sub) || !IsInvoke(site)) {
          return fail("tiered blob: invoke site mismatch");
        }
        int pops = 0;
        int pushes = 0;
        if (!SourceEffect(code[in.bc], pool, &pops, &pushes) || pops != in.a ||
            pushes != in.b) {
          return fail("tiered blob: invoke arity mismatch");
        }
        break;
      }
      case TOp::kNew:
        if (site != Op::kNew) {
          return fail("tiered blob: new site mismatch");
        }
        break;
      case TOp::kNewArray:
        if (site != Op::kNewarray || in.a != code[in.bc].a) {
          return fail("tiered blob: newarray site mismatch");
        }
        break;
      case TOp::kANewArray:
        if (site != Op::kAnewarray) {
          return fail("tiered blob: anewarray site mismatch");
        }
        break;
      case TOp::kRet:
        if (site != static_cast<Op>(in.sub) || !IsReturn(site)) {
          return fail("tiered blob: return site mismatch");
        }
        break;
    }
  }

  // Stack-depth abstract interpretation over the compiled form. A compiled
  // instruction has the stack effect of the source op it stands for; fused
  // forms take their operands from locals, and an invoke carries the arity
  // checked above.
  auto effect = [&](const CInstr& in, int* pops, int* pushes) {
    Instr source;
    switch (in.op) {
      case TOp::kAluLL:
      case TOp::kAluLC:
        *pops = 0;
        *pushes = 1;
        return true;
      case TOp::kAluLLS:
      case TOp::kAluLCS:
      case TOp::kBrLL:
      case TOp::kBrLC:
        *pops = 0;
        *pushes = 0;
        return true;
      case TOp::kInvoke:
        *pops = in.a;
        *pushes = in.b;
        return true;
      case TOp::kConstI: source.op = Op::kIconst0; break;
      case TOp::kConstL: source.op = Op::kLdc; break;
      case TOp::kConstNull: source.op = Op::kAconstNull; break;
      case TOp::kLoad: source.op = Op::kIload; break;
      case TOp::kStore: source.op = Op::kIstore; break;
      case TOp::kNop: source.op = Op::kNop; break;
      case TOp::kIinc: source.op = Op::kIinc; break;
      case TOp::kPop: source.op = Op::kPop; break;
      case TOp::kDup: source.op = Op::kDup; break;
      case TOp::kDupX1: source.op = Op::kDupX1; break;
      case TOp::kSwap: source.op = Op::kSwap; break;
      case TOp::kIneg: source.op = Op::kIneg; break;
      case TOp::kLneg: source.op = Op::kLneg; break;
      case TOp::kI2l: source.op = Op::kI2l; break;
      case TOp::kL2i: source.op = Op::kL2i; break;
      case TOp::kLcmp: source.op = Op::kLcmp; break;
      case TOp::kGoto: source.op = Op::kGoto; break;
      case TOp::kArrLen: source.op = Op::kArraylength; break;
      case TOp::kNew: source.op = Op::kNew; break;
      case TOp::kNewArray: source.op = Op::kNewarray; break;
      case TOp::kANewArray: source.op = Op::kAnewarray; break;
      default:
        // kIAlu kLAlu kBrI kBrII kBrA kDivRem kArrLoad kArrStore kField
        // kRet: the sub-op, validated above, is the source op.
        source.op = static_cast<Op>(in.sub);
        break;
    }
    return SourceEffect(source, pool, pops, pushes);
  };

  std::vector<int> depth(n, -1);
  std::vector<uint32_t> worklist = {0};
  depth[0] = 0;
  while (!worklist.empty()) {
    uint32_t k = worklist.back();
    worklist.pop_back();
    const CInstr& in = t.code[k];
    int pops = 0;
    int pushes = 0;
    int d = depth[k];
    if (!effect(in, &pops, &pushes) || d < pops ||
        d - pops + pushes > static_cast<int>(max_stack)) {
      return fail("tiered blob: stack depth out of bounds");
    }
    int out = d - pops + pushes;
    auto flow = [&](size_t succ) -> bool {
      if (succ >= n) {
        return false;
      }
      if (depth[succ] == -1) {
        depth[succ] = out;
        worklist.push_back(static_cast<uint32_t>(succ));
      } else if (depth[succ] != out) {
        return false;
      }
      return true;
    };
    bool falls = true;
    size_t target = 0;
    bool has_target = false;
    switch (in.op) {
      case TOp::kGoto:
        falls = false;
        target = static_cast<size_t>(in.a);
        has_target = true;
        break;
      case TOp::kBrI:
      case TOp::kBrII:
      case TOp::kBrA:
        target = static_cast<size_t>(in.a);
        has_target = true;
        break;
      case TOp::kBrLL:
      case TOp::kBrLC:
        target = static_cast<size_t>(in.c);
        has_target = true;
        break;
      case TOp::kRet:
        falls = false;
        break;
      default:
        break;
    }
    if (has_target && !flow(target)) {
      return fail("tiered blob: inconsistent branch depth");
    }
    if (falls && !flow(k + 1)) {
      return fail("tiered blob: control falls off compiled body");
    }
  }
  return Status::Ok();
}

Bytes PackTieredAttribute(const std::vector<std::pair<std::string, Bytes>>& blobs) {
  Bytes out;
  PutU16(&out, static_cast<uint16_t>(blobs.size()));
  for (const auto& [id, blob] : blobs) {
    PutU16(&out, static_cast<uint16_t>(id.size()));
    out.insert(out.end(), id.begin(), id.end());
    PutU32(&out, static_cast<uint32_t>(blob.size()));
    out.insert(out.end(), blob.begin(), blob.end());
  }
  return out;
}

Result<std::vector<std::pair<std::string, Bytes>>> UnpackTieredAttribute(const Bytes& data) {
  TierByteReader r{data};
  uint16_t count = 0;
  if (!r.U16(&count)) {
    return Error{ErrorCode::kParseError, "tiered attribute: truncated count"};
  }
  std::vector<std::pair<std::string, Bytes>> out;
  out.reserve(count);
  for (uint16_t k = 0; k < count; k++) {
    uint16_t id_len = 0;
    if (!r.U16(&id_len) || r.pos + id_len > data.size()) {
      return Error{ErrorCode::kParseError, "tiered attribute: truncated id"};
    }
    std::string id(data.begin() + static_cast<long>(r.pos),
                   data.begin() + static_cast<long>(r.pos + id_len));
    r.pos += id_len;
    uint32_t blob_len = 0;
    if (!r.U32(&blob_len) || r.pos + blob_len > data.size()) {
      return Error{ErrorCode::kParseError, "tiered attribute: truncated blob"};
    }
    Bytes blob(data.begin() + static_cast<long>(r.pos),
               data.begin() + static_cast<long>(r.pos + blob_len));
    r.pos += blob_len;
    out.emplace_back(std::move(id), std::move(blob));
  }
  if (r.pos != data.size()) {
    return Error{ErrorCode::kParseError, "tiered attribute: trailing bytes"};
  }
  return out;
}

}  // namespace dvm
