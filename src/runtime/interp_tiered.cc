// Tier-1 execution engine (DESIGN.md §16): runs a frame's compiled
// TieredMethod form. Spans charge the virtual clock and instruction counter in
// bulk at their head; pure superinstructions then execute with no bookkeeping,
// and checked ops synchronize the frame and mirror the quickened handlers
// exactly (same pop order, same error strings, same quickening rewrites), so
// every observable — outcomes, printed output, counters, the virtual clock,
// GC schedule — is bit-identical to interpreted execution.
//
// Deoptimization invariant: whenever a compiled frame is suspended (invoke,
// OSR entry, deopt), f->pc holds the interpreter resume point and f->cpc the
// compiled one, and both are span boundaries. Bailing out is therefore just
// clearing compiled_active.
#include <cstdint>
#include <string>
#include <utility>

#include "src/bytecode/descriptor.h"
#include "src/runtime/interp.h"
#include "src/runtime/opsem.h"
#include "src/runtime/tiered.h"
#include "src/support/interner.h"

// Same computed-goto policy as the quickened engine (interp.cc): threaded
// dispatch where the GNU labels-as-values extension exists, an identical
// switch loop elsewhere.
#if defined(DVM_THREADED_DISPATCH) && (defined(__GNUC__) || defined(__clang__))
#define DVM_TIER_COMPUTED_GOTO 1
#else
#define DVM_TIER_COMPUTED_GOTO 0
#endif

namespace dvm {
namespace {

Error HostErr(const std::string& message) { return Error{ErrorCode::kRuntimeError, message}; }

// A virtual call site that changed receiver type this many times is
// megamorphic: the monomorphic inline cache is thrashing, so the containing
// method's compiled code (built around direct-call sites) is retired for good.
constexpr uint64_t kMegamorphicTransitions = 4;

}  // namespace

TieredMethod* Interpreter::EnsureTierCode(RuntimeClass* cls, PreparedMethod* prepared) {
  if (prepared->tier_code != nullptr) {
    return prepared->tier_code.get();
  }
  if (prepared->tier_failed) {
    return nullptr;
  }
  if (prepared->method == nullptr || !prepared->method->code.has_value()) {
    prepared->tier_failed = true;
    return nullptr;
  }
  auto t = BaselineCompile(prepared->code, cls->file.pool(),
                           prepared->method->code->max_stack,
                           prepared->method->code->max_locals);
  if (t == nullptr) {
    prepared->tier_failed = true;
    return nullptr;
  }
  t->checksum = Fnv1a(prepared->method->code->code);
  prepared->tier_code = std::move(t);
  machine_.counters().tier_compiles++;
  return prepared->tier_code.get();
}

void Interpreter::MaybeTierOnEntry(ExecFrame& frame) {
  PreparedMethod* prepared = frame.prepared;
  TieredMethod* t = prepared->tier_code.get();
  if (t == nullptr) {
    if (prepared->tier_failed) {
      return;
    }
    // Entry trigger: hot by call count, or hot by loop evidence (so a loopy
    // method enters compiled on its next call, not only via OSR).
    bool hot = (tier_invocation_threshold_ != 0 &&
                prepared->invocations >= tier_invocation_threshold_) ||
               (tier_osr_threshold_ != 0 && prepared->backedges >= tier_osr_threshold_);
    if (!hot) {
      return;
    }
    t = EnsureTierCode(frame.cls, prepared);
    if (t == nullptr) {
      return;
    }
  }
  if (t->invalidated) {
    return;
  }
  // Proxy-installed blobs activate immediately (the warm-fleet path): tiered
  // execution is observable-invariant, so running below threshold is safe.
  frame.tcode = t;
  frame.cpc = 0;  // entry span head covers bytecode index 0
  frame.compiled_active = true;
}

bool Interpreter::MaybeOsr(ExecFrame& frame) {
  if (frame.tier_state == 2) {
    return false;  // forced-deopt ladder: this frame already bailed once
  }
  PreparedMethod* prepared = frame.prepared;
  TieredMethod* t = prepared->tier_code.get();
  if (t == nullptr) {
    if (prepared->tier_failed) {
      return false;
    }
    t = EnsureTierCode(frame.cls, prepared);
    if (t == nullptr) {
      return false;
    }
  }
  if (t->invalidated) {
    return false;
  }
  // A branch target is always a compiled span head; frame.pc holds the target.
  auto it = t->entry.find(frame.pc);
  if (it == t->entry.end()) {
    return false;
  }
  frame.tcode = t;
  frame.cpc = it->second;
  frame.compiled_active = true;
  machine_.counters().osr_entries++;
  return true;
}

// Sync helpers. CSYNC_AT mirrors QSYNC at a checked op: the interpreter's pc
// is one past the executing instruction, so exception dispatch computes
// fault_ix == bc and a resume continues after the op.
#define CSYNC_AT(bc_)                               \
  do {                                              \
    f->sp = static_cast<uint32_t>(sp - base);       \
    f->pc = (bc_) + 1;                              \
  } while (0)

// Deopt at a span head before it charged anything: the interpreter replays
// the span from its first bytecode, reproducing budget errors and all
// mid-span effects exactly.
#define CDEOPT_AT_HEAD()                            \
  do {                                              \
    f->sp = static_cast<uint32_t>(sp - base);       \
    f->pc = in->bc;                                 \
    f->cpc = static_cast<uint32_t>(in - code);      \
    f->compiled_active = false;                     \
    counters.tier_deopts++;                         \
    return Status::Ok();                            \
  } while (0)

// Guest throw from a checked op: sync (operands already popped), bail to the
// interpreter, raise. Loop owns dispatch, same as the quickened engine.
#define CTHROW(bc_, cls_, msg_)                     \
  do {                                              \
    CSYNC_AT(bc_);                                  \
    f->compiled_active = false;                     \
    counters.tier_deopts++;                         \
    machine_.ThrowGuest((cls_), (msg_));            \
    return Status::Ok();                            \
  } while (0)

#define CHOST(bc_, msg_)                            \
  do {                                              \
    CSYNC_AT(bc_);                                  \
    f->compiled_active = false;                     \
    return HostErr(msg_);                           \
  } while (0)

// An opsem fault from a checked op: a host error, or a guest throw that
// deopts like CTHROW.
#define CFAULT(bc_, fault_)                         \
  do {                                              \
    CSYNC_AT(bc_);                                  \
    f->compiled_active = false;                     \
    if (!(fault_).host()) {                         \
      counters.tier_deopts++;                       \
    }                                               \
    return Raise(fault_);                           \
  } while (0)

Status Interpreter::RunCompiled() {
  RuntimeCounters& counters = machine_.counters();
  const uint64_t budget = machine_.config().max_instructions;

  ExecFrame* f = nullptr;
  TieredMethod* t = nullptr;
  const CInstr* code = nullptr;
  Value* base = nullptr;
  Value* locals = nullptr;
  Value* sp = nullptr;
  uint32_t ci = 0;
  uint64_t step_nanos = 0;
  const CInstr* in = nullptr;

// Fetch + span accounting, shared by both dispatch modes. The cursor advances
// at fetch (branches overwrite it before re-dispatching), and a span head is
// the bulk accounting point and the only deopt-check point. Order matters —
// invalidation and forced deopt bail before charging, and a span that would
// cross the budget bails uncharged so the interpreter replay raises the
// budget error at the exact instruction.
#define TFETCH_BODY()                                       \
  do {                                                      \
    in = &code[ci];                                         \
    ci++;                                                   \
    if (in->charge != 0) {                                  \
      if (t->invalidated) {                                 \
        CDEOPT_AT_HEAD();                                   \
      }                                                     \
      if (tier_force_deopt_) {                              \
        if (f->tier_state >= 1) {                           \
          f->tier_state = 2;                                \
          CDEOPT_AT_HEAD();                                 \
        }                                                   \
        f->tier_state = 1;                                  \
      }                                                     \
      if (counters.instructions + in->charge > budget) {    \
        CDEOPT_AT_HEAD();                                   \
      }                                                     \
      counters.instructions += in->charge;                  \
      machine_.AddNanos(in->charge * step_nanos);           \
    }                                                       \
  } while (0)

#if DVM_TIER_COMPUTED_GOTO
  // Per-call jump table of label addresses, one slot per possible op byte;
  // values outside the validated TOp range land on the unhandled exit.
  const void* tjump[256];
  for (int i = 0; i < 256; i++) {
    tjump[i] = &&T_unhandled;
  }
#define TFILL(name) tjump[static_cast<uint8_t>(TOp::name)] = &&T_##name;
  TFILL(kNop) TFILL(kConstI) TFILL(kConstL) TFILL(kConstNull) TFILL(kLoad)
  TFILL(kStore) TFILL(kIinc) TFILL(kPop) TFILL(kDup) TFILL(kDupX1) TFILL(kSwap)
  TFILL(kIAlu) TFILL(kLAlu) TFILL(kIneg) TFILL(kLneg) TFILL(kI2l) TFILL(kL2i)
  TFILL(kLcmp) TFILL(kAluLL) TFILL(kAluLC) TFILL(kAluLLS) TFILL(kAluLCS)
  TFILL(kGoto) TFILL(kBrI) TFILL(kBrII) TFILL(kBrA) TFILL(kBrLL) TFILL(kBrLC)
  TFILL(kDivRem) TFILL(kArrLoad) TFILL(kArrStore) TFILL(kArrLen) TFILL(kField)
  TFILL(kInvoke) TFILL(kNew) TFILL(kNewArray) TFILL(kANewArray) TFILL(kRet)
#undef TFILL

#define TOP(name) T_##name:
#define TOP_DEFAULT T_unhandled:
#define TNEXT()                                             \
  do {                                                      \
    TFETCH_BODY();                                          \
    goto* tjump[static_cast<uint8_t>(in->op)];              \
  } while (0)
#else
#define TOP(name) case TOp::name:
#define TOP_DEFAULT default:
#define TNEXT() continue
#endif

// Re-entered after every frame transition (invoke, return, native call): the
// frames vector may have reallocated and the top frame changed, so everything
// is re-derived from frames_.back().
enter:
  if (frames_.empty() || !frames_.back().compiled_active) {
    return Status::Ok();  // an interpreted frame is on top; Loop dispatches it
  }
  f = &frames_.back();
  t = f->tcode;
  if (t == nullptr) {
    f->compiled_active = false;  // defensive: activation always sets tcode
    return Status::Ok();
  }
  code = t->code.data();
  base = arena_.data();
  locals = base + f->locals_base;
  sp = base + f->sp;
  ci = f->cpc;
  step_nanos = f->prepared->compiled ? machine_.config().cost.nanos_per_instr_compiled
                                     : machine_.config().cost.nanos_per_instr;

#if DVM_TIER_COMPUTED_GOTO
  TNEXT();
#else
  for (;;) {
    TFETCH_BODY();
    switch (in->op) {
#endif

      TOP(kNop)
        TNEXT();

      TOP(kConstI)
        *sp++ = Value::Int(in->a);
        TNEXT();

      TOP(kConstL)
        *sp++ = Value::Long(t->consts[static_cast<size_t>(in->a)]);
        TNEXT();

      TOP(kConstNull)
        *sp++ = Value::Null();
        TNEXT();

      TOP(kLoad)
        *sp++ = locals[static_cast<size_t>(in->a)];
        TNEXT();

      TOP(kStore)
        locals[static_cast<size_t>(in->a)] = *--sp;
        TNEXT();

      TOP(kIinc) {
        Value& local = locals[static_cast<size_t>(in->a)];
        local = Value::Int(opsem::IntInc(local.AsInt(), in->b));
        TNEXT();
      }

      TOP(kPop)
        --sp;
        TNEXT();

      TOP(kDup)
        *sp = sp[-1];
        sp++;
        TNEXT();

      TOP(kDupX1) {
        Value v1 = sp[-1];
        Value v2 = sp[-2];
        sp[-2] = v1;
        sp[-1] = v2;
        *sp++ = v1;
        TNEXT();
      }

      TOP(kSwap)
        std::swap(sp[-1], sp[-2]);
        TNEXT();

      TOP(kIAlu) {
        int32_t b = (--sp)->AsInt();
        int32_t a = (--sp)->AsInt();
        *sp++ = Value::Int(opsem::IntAlu(static_cast<Op>(in->sub), a, b));
        TNEXT();
      }

      TOP(kLAlu) {
        int64_t b = (--sp)->AsLong();
        int64_t a = (--sp)->AsLong();
        *sp++ = Value::Long(opsem::LongAlu(static_cast<Op>(in->sub), a, b));
        TNEXT();
      }

      TOP(kIneg)
        sp[-1] = Value::Int(opsem::IntNeg(sp[-1].AsInt()));
        TNEXT();

      TOP(kLneg)
        sp[-1] = Value::Long(opsem::LongNeg(sp[-1].AsLong()));
        TNEXT();

      TOP(kI2l)
        sp[-1] = Value::Long(opsem::I2l(sp[-1].AsInt()));
        TNEXT();

      TOP(kL2i)
        sp[-1] = Value::Int(opsem::L2i(sp[-1].AsLong()));
        TNEXT();

      TOP(kLcmp) {
        int64_t b = (--sp)->AsLong();
        int64_t a = (--sp)->AsLong();
        *sp++ = Value::Int(opsem::Lcmp(a, b));
        TNEXT();
      }

      // Fused load/op[/store] superinstructions: one dispatch instead of 3-4.
      TOP(kAluLL)
        *sp++ = Value::Int(opsem::IntAlu(static_cast<Op>(in->sub),
                                  locals[static_cast<size_t>(in->a)].AsInt(),
                                  locals[static_cast<size_t>(in->b)].AsInt()));
        TNEXT();

      TOP(kAluLC)
        *sp++ = Value::Int(opsem::IntAlu(static_cast<Op>(in->sub),
                                  locals[static_cast<size_t>(in->a)].AsInt(), in->b));
        TNEXT();

      TOP(kAluLLS)
        locals[static_cast<size_t>(in->c)] =
            Value::Int(opsem::IntAlu(static_cast<Op>(in->sub),
                              locals[static_cast<size_t>(in->a)].AsInt(),
                              locals[static_cast<size_t>(in->b)].AsInt()));
        TNEXT();

      TOP(kAluLCS)
        locals[static_cast<size_t>(in->c)] =
            Value::Int(opsem::IntAlu(static_cast<Op>(in->sub),
                              locals[static_cast<size_t>(in->a)].AsInt(), in->b));
        TNEXT();

      TOP(kGoto)
        if (in->flags & kTierFlagBackward) {
          ProfileBackedge(f->prepared);
        }
        ci = static_cast<uint32_t>(in->a);
        TNEXT();

      TOP(kBrI) {
        int32_t v = (--sp)->AsInt();
        if (opsem::IntCond(static_cast<Op>(in->sub), v)) {
          if (in->flags & kTierFlagBackward) {
            ProfileBackedge(f->prepared);
          }
          ci = static_cast<uint32_t>(in->a);
          TNEXT();
        }
        TNEXT();
      }

      TOP(kBrII) {
        int32_t b = (--sp)->AsInt();
        int32_t a = (--sp)->AsInt();
        if (opsem::IntCmpCond(static_cast<Op>(in->sub), a, b)) {
          if (in->flags & kTierFlagBackward) {
            ProfileBackedge(f->prepared);
          }
          ci = static_cast<uint32_t>(in->a);
          TNEXT();
        }
        TNEXT();
      }

      TOP(kBrA) {
        Op sub = static_cast<Op>(in->sub);
        bool taken;
        if (sub == Op::kIfnull || sub == Op::kIfnonnull) {
          taken = opsem::NullCond(sub, *--sp);
        } else {
          ObjRef b = (--sp)->AsRef();
          ObjRef a = (--sp)->AsRef();
          taken = opsem::RefCmpCond(sub, a, b);
        }
        if (taken) {
          if (in->flags & kTierFlagBackward) {
            ProfileBackedge(f->prepared);
          }
          ci = static_cast<uint32_t>(in->a);
          TNEXT();
        }
        TNEXT();
      }

      // Fused compare-and-branch over locals: the hot loop-bound pattern.
      TOP(kBrLL)
        if (opsem::IntCmpCond(static_cast<Op>(in->sub),
                       locals[static_cast<size_t>(in->a)].AsInt(),
                       locals[static_cast<size_t>(in->b)].AsInt())) {
          if (in->flags & kTierFlagBackward) {
            ProfileBackedge(f->prepared);
          }
          ci = static_cast<uint32_t>(in->c);
          TNEXT();
        }
        TNEXT();

      TOP(kBrLC)
        if (opsem::IntCmpCond(static_cast<Op>(in->sub),
                       locals[static_cast<size_t>(in->a)].AsInt(), in->b)) {
          if (in->flags & kTierFlagBackward) {
            ProfileBackedge(f->prepared);
          }
          ci = static_cast<uint32_t>(in->c);
          TNEXT();
        }
        TNEXT();

      TOP(kDivRem) {
        Op sub = static_cast<Op>(in->sub);
        opsem::Fault fault;
        if (sub == Op::kIdiv || sub == Op::kIrem) {
          int32_t b = (--sp)->AsInt();
          int32_t a = (--sp)->AsInt();
          int32_t r = 0;
          fault = opsem::IntDivRem(sub, a, b, &r);
          *sp = Value::Int(r);
        } else {
          int64_t b = (--sp)->AsLong();
          int64_t a = (--sp)->AsLong();
          int64_t r = 0;
          fault = opsem::LongDivRem(sub, a, b, &r);
          *sp = Value::Long(r);
        }
        if (!fault.ok()) {
          CFAULT(in->bc, fault);
        }
        sp++;
        TNEXT();
      }

      TOP(kArrLoad) {
        int32_t index = (--sp)->AsInt();
        Value array_ref = *--sp;
        opsem::Fault fault =
            opsem::ArrayLoad(machine_.heap(), static_cast<Op>(in->sub), array_ref, index, sp);
        if (!fault.ok()) {
          CFAULT(in->bc, fault);
        }
        sp++;
        TNEXT();
      }

      TOP(kArrStore) {
        Value value = *--sp;
        int32_t index = (--sp)->AsInt();
        Value array_ref = *--sp;
        opsem::Fault fault =
            opsem::ArrayStore(machine_.heap(), static_cast<Op>(in->sub), array_ref, index, value);
        if (!fault.ok()) {
          CFAULT(in->bc, fault);
        }
        TNEXT();
      }

      TOP(kArrLen) {
        Value arr_ref = *--sp;
        int32_t length = 0;
        opsem::Fault fault = opsem::ArrayLength(machine_.heap(), arr_ref, &length);
        if (!fault.ok()) {
          CFAULT(in->bc, fault);
        }
        *sp++ = Value::Int(length);
        TNEXT();
      }

      // Field access dispatches on the live bytecode site so lazy quickening
      // stays authoritative: the first compiled execution of a cold site
      // resolves and rewrites it exactly as the interpreter would have.
      TOP(kField) {
        const uint32_t bc = in->bc;
        Instr& site = f->prepared->code[bc];
        switch (site.op) {
          case Op::kGetstatic: {
            CSYNC_AT(bc);  // resolution may run <clinit>
            auto resolved = ResolveFieldSite(*f, bc, /*is_static=*/true);
            if (!resolved.ok()) {
              f->compiled_active = false;
              return resolved.error();
            }
            if (!resolved.value()) {
              f->compiled_active = false;
              counters.tier_deopts++;
              return Status::Ok();
            }
            site.op = Op::kGetstaticQuick;
            counters.quickened_sites++;
            const InlineCache& ic = f->prepared->cache[bc];
            *sp++ = ic.field_owner->statics[ic.field_slot];
            break;
          }
          case Op::kGetstaticQuick: {
            const InlineCache& ic = f->prepared->cache[bc];
            *sp++ = ic.field_owner->statics[ic.field_slot];
            break;
          }
          case Op::kPutstatic: {
            CSYNC_AT(bc);  // resolution may run <clinit>; value stays rooted
            auto resolved = ResolveFieldSite(*f, bc, /*is_static=*/true);
            if (!resolved.ok()) {
              f->compiled_active = false;
              return resolved.error();
            }
            if (!resolved.value()) {
              f->compiled_active = false;
              counters.tier_deopts++;
              return Status::Ok();
            }
            site.op = Op::kPutstaticQuick;
            counters.quickened_sites++;
            InlineCache& ic = f->prepared->cache[bc];
            ic.field_owner->statics[ic.field_slot] = *--sp;
            break;
          }
          case Op::kPutstaticQuick: {
            const InlineCache& ic = f->prepared->cache[bc];
            ic.field_owner->statics[ic.field_slot] = *--sp;
            break;
          }
          case Op::kGetfield: {
            Value obj_ref = *--sp;
            if (obj_ref.IsNullRef()) {
              CTHROW(bc, "java/lang/NullPointerException", "field access on null");
            }
            HeapObject* obj = machine_.heap().Get(obj_ref.AsRef());
            if (obj == nullptr || obj->kind != HeapObject::Kind::kInstance) {
              CHOST(bc, "field access on non-instance");
            }
            CSYNC_AT(bc);
            auto resolved = ResolveFieldSite(*f, bc, /*is_static=*/false);
            if (!resolved.ok()) {
              f->compiled_active = false;
              return resolved.error();
            }
            if (!resolved.value()) {
              f->compiled_active = false;
              counters.tier_deopts++;
              return Status::Ok();
            }
            InlineCache& ic = f->prepared->cache[bc];
            site.op = Op::kGetfieldQuick;
            site.a = static_cast<int32_t>(ic.field_slot);  // resolved slot in-line
            counters.quickened_sites++;
            if (ic.field_slot >= obj->fields.size()) {
              CHOST(bc, "field slot out of range in " + f->method->Id());
            }
            *sp++ = obj->fields[ic.field_slot];
            break;
          }
          case Op::kGetfieldQuick: {
            Value obj_ref = *--sp;
            if (obj_ref.IsNullRef()) {
              CTHROW(bc, "java/lang/NullPointerException", "field access on null");
            }
            HeapObject* obj = machine_.heap().Get(obj_ref.AsRef());
            if (obj == nullptr || obj->kind != HeapObject::Kind::kInstance) {
              CHOST(bc, "field access on non-instance");
            }
            uint32_t slot = static_cast<uint32_t>(site.a);
            if (slot >= obj->fields.size()) {
              CHOST(bc, "field slot out of range in " + f->method->Id());
            }
            *sp++ = obj->fields[slot];
            break;
          }
          case Op::kPutfield: {
            Value value = *--sp;
            Value obj_ref = *--sp;
            if (obj_ref.IsNullRef()) {
              CTHROW(bc, "java/lang/NullPointerException", "field access on null");
            }
            HeapObject* obj = machine_.heap().Get(obj_ref.AsRef());
            if (obj == nullptr || obj->kind != HeapObject::Kind::kInstance) {
              CHOST(bc, "field access on non-instance");
            }
            CSYNC_AT(bc);
            auto resolved = ResolveFieldSite(*f, bc, /*is_static=*/false);
            if (!resolved.ok()) {
              f->compiled_active = false;
              return resolved.error();
            }
            if (!resolved.value()) {
              f->compiled_active = false;
              counters.tier_deopts++;
              return Status::Ok();
            }
            InlineCache& ic = f->prepared->cache[bc];
            site.op = Op::kPutfieldQuick;
            site.a = static_cast<int32_t>(ic.field_slot);
            counters.quickened_sites++;
            if (ic.field_slot >= obj->fields.size()) {
              CHOST(bc, "field slot out of range in " + f->method->Id());
            }
            obj->fields[ic.field_slot] = value;
            break;
          }
          case Op::kPutfieldQuick: {
            Value value = *--sp;
            Value obj_ref = *--sp;
            if (obj_ref.IsNullRef()) {
              CTHROW(bc, "java/lang/NullPointerException", "field access on null");
            }
            HeapObject* obj = machine_.heap().Get(obj_ref.AsRef());
            if (obj == nullptr || obj->kind != HeapObject::Kind::kInstance) {
              CHOST(bc, "field access on non-instance");
            }
            uint32_t slot = static_cast<uint32_t>(site.a);
            if (slot >= obj->fields.size()) {
              CHOST(bc, "field slot out of range in " + f->method->Id());
            }
            obj->fields[slot] = value;
            break;
          }
          default:
            CHOST(bc, "unhandled opcode in prepared code of " + f->method->Id());
        }
        TNEXT();
      }

      TOP(kInvoke) {
        const uint32_t bc = in->bc;
        // Suspension point: both resume cursors are set before the call, so
        // any deopt while the callee runs lands after the invoke with the
        // result already in place (ci already points past the invoke).
        f->sp = static_cast<uint32_t>(sp - base);
        f->pc = bc + 1;
        f->cpc = ci;
        PreparedMethod* caller_prepared = f->prepared;
        Instr& site = caller_prepared->code[bc];
        Status st = Status::Ok();
        switch (site.op) {
          case Op::kInvokestatic:
          case Op::kInvokevirtual:
          case Op::kInvokespecial:
            st = QuickInvokeSlow(site.op, bc);
            break;
          case Op::kInvokestaticQuick: {
            const InlineCache& ic = caller_prepared->cache[bc];
            st = InvokeResolved(ic.invoke_owner, ic.invoke_method,
                                static_cast<uint32_t>(ic.arg_count));
            break;
          }
          case Op::kInvokespecialQuick: {
            const InlineCache& ic = caller_prepared->cache[bc];
            uint32_t argc = static_cast<uint32_t>(ic.arg_count);
            if (sp[-static_cast<ptrdiff_t>(argc)].IsNullRef()) {
              sp -= argc;
              CTHROW(bc, "java/lang/NullPointerException", "invoke on null receiver");
            }
            st = InvokeResolved(ic.invoke_owner, ic.invoke_method, argc);
            break;
          }
          case Op::kInvokevirtualQuick: {
            InlineCache& ic = caller_prepared->cache[bc];
            uint32_t argc = static_cast<uint32_t>(ic.arg_count);
            Value receiver = sp[-static_cast<ptrdiff_t>(argc)];
            if (receiver.IsNullRef()) {
              sp -= argc;
              CTHROW(bc, "java/lang/NullPointerException", "invoke on null receiver");
            }
            const HeapObject* obj = machine_.heap().Get(receiver.AsRef());
            if (obj == nullptr) {
              CHOST(bc, "dangling receiver reference");
            }
            if (obj->class_sym == ic.receiver_sym) {
              ic.hits++;
              st = InvokeResolved(ic.invoke_owner, ic.invoke_method, argc);
            } else {
              st = QuickInvokeSlow(Op::kInvokevirtual, bc);
              // Megamorphic transition: the direct-call assumption this
              // compiled body was built on is dead; retire it for good. The
              // frame notices t->invalidated at its resume span head.
              if (ic.transitions >= kMegamorphicTransitions) {
                machine_.RetireTieredCode(caller_prepared);
              }
            }
            break;
          }
          default:
            CHOST(bc, "unhandled opcode in prepared code of " + f->method->Id());
        }
        DVM_RETURN_IF_ERROR(st);
        if (machine_.HasPendingException() || frames_.empty()) {
          return Status::Ok();
        }
        goto enter;  // compiled callee (or inline native return): stay here
      }

      TOP(kNew) {
        const uint32_t bc = in->bc;
        Instr& site = f->prepared->code[bc];
        CSYNC_AT(bc);  // class load + <clinit> + allocation may all run here
        if (site.op == Op::kNew) {
          const ConstantPool& pool = f->cls->file.pool();
          auto class_name = pool.ClassNameAt(static_cast<uint16_t>(site.a));
          if (!class_name.ok()) {
            f->compiled_active = false;
            return class_name.error();
          }
          auto cls = machine_.registry().GetClass(class_name.value());
          if (!cls.ok()) {
            f->compiled_active = false;
            return cls.error();
          }
          Status init = EnsureInitialized(cls.value());
          if (!init.ok()) {
            f->compiled_active = false;
            return init.error();
          }
          if (machine_.HasPendingException()) {
            f->compiled_active = false;
            counters.tier_deopts++;
            return Status::Ok();
          }
          f->prepared->cache[bc].klass = cls.value();
          site.op = Op::kNewQuick;
          counters.quickened_sites++;
          auto obj = machine_.AllocInstance(cls.value());
          if (!obj.ok()) {
            CTHROW(bc, "java/lang/OutOfMemoryError", obj.error().message);
          }
          *sp++ = Value::Ref(obj.value());
        } else {  // kNewQuick
          auto obj = machine_.AllocInstance(f->prepared->cache[bc].klass);
          if (!obj.ok()) {
            CTHROW(bc, "java/lang/OutOfMemoryError", obj.error().message);
          }
          *sp++ = Value::Ref(obj.value());
        }
        TNEXT();
      }

      TOP(kNewArray) {
        int32_t length = (--sp)->AsInt();
        if (length < 0) {
          CTHROW(in->bc, "java/lang/NegativeArraySizeException", std::to_string(length));
        }
        CSYNC_AT(in->bc);  // allocation may collect
        auto arr = in->a == static_cast<int>(ArrayKind::kLong)
                       ? machine_.AllocLongArray(length)
                       : machine_.AllocIntArray(length);
        if (!arr.ok()) {
          CTHROW(in->bc, "java/lang/OutOfMemoryError", arr.error().message);
        }
        *sp++ = Value::Ref(arr.value());
        TNEXT();
      }

      TOP(kANewArray) {
        const uint32_t bc = in->bc;
        Instr& site = f->prepared->code[bc];
        if (site.op == Op::kAnewarray) {
          const ConstantPool& pool = f->cls->file.pool();
          auto element = pool.ClassNameAt(static_cast<uint16_t>(site.a));
          if (!element.ok()) {
            CSYNC_AT(bc);
            f->compiled_active = false;
            return element.error();
          }
          int32_t length = (--sp)->AsInt();
          if (length < 0) {
            CTHROW(bc, "java/lang/NegativeArraySizeException", std::to_string(length));
          }
          InlineCache& ic = f->prepared->cache[bc];
          ic.array_desc = "[" + DescriptorFromClassName(element.value());
          ic.array_desc_sym = InternSymbol(ic.array_desc);
          site.op = Op::kAnewarrayQuick;
          counters.quickened_sites++;
          CSYNC_AT(bc);
          auto arr = machine_.AllocRefArray(ic.array_desc, ic.array_desc_sym, length);
          if (!arr.ok()) {
            CTHROW(bc, "java/lang/OutOfMemoryError", arr.error().message);
          }
          *sp++ = Value::Ref(arr.value());
        } else {  // kAnewarrayQuick
          int32_t length = (--sp)->AsInt();
          if (length < 0) {
            CTHROW(bc, "java/lang/NegativeArraySizeException", std::to_string(length));
          }
          const InlineCache& ic = f->prepared->cache[bc];
          CSYNC_AT(bc);
          auto arr = machine_.AllocRefArray(ic.array_desc, ic.array_desc_sym, length);
          if (!arr.ok()) {
            CTHROW(bc, "java/lang/OutOfMemoryError", arr.error().message);
          }
          *sp++ = Value::Ref(arr.value());
        }
        TNEXT();
      }

      TOP(kRet) {
        Op sub = static_cast<Op>(in->sub);
        if (sub == Op::kReturn) {
          frames_.pop_back();
          machine_.call_stack().pop_back();
          if (frames_.empty()) {
            return_value_ = Value::Null();
            has_return_value_ = false;
            return Status::Ok();
          }
        } else {
          Value result = *--sp;
          frames_.pop_back();
          machine_.call_stack().pop_back();
          if (frames_.empty()) {
            return_value_ = result;
            has_return_value_ = true;
            return Status::Ok();
          }
          ExecFrame& caller = frames_.back();
          if (caller.sp >= caller.stack_limit) {
            return HostErr("operand stack overflow in " + caller.method->Id());
          }
          arena_[caller.sp++] = result;
        }
        goto enter;  // compiled caller resumes inline; interpreted exits there
      }

      TOP_DEFAULT
        CHOST(in->bc, "unhandled opcode in prepared code of " + f->method->Id());

#if !DVM_TIER_COMPUTED_GOTO
    }
  }
#endif
}

#undef TFETCH_BODY
#undef TOP
#undef TOP_DEFAULT
#undef TNEXT
#undef CSYNC_AT
#undef CDEOPT_AT_HEAD
#undef CTHROW
#undef CHOST
#undef CFAULT

}  // namespace dvm
