#include "src/runtime/interp.h"

#include <algorithm>

#include "src/bytecode/descriptor.h"
#include "src/runtime/opsem.h"
#include "src/runtime/profile.h"
#include "src/support/interner.h"
#include "src/verifier/link_checker.h"

// Computed-goto dispatch needs the GNU labels-as-values extension; elsewhere
// (or when DVM_THREADED_DISPATCH is off) the quickened engine falls back to a
// portable switch loop with identical semantics.
#if defined(DVM_THREADED_DISPATCH) && (defined(__GNUC__) || defined(__clang__))
#define DVM_INTERP_COMPUTED_GOTO 1
#else
#define DVM_INTERP_COMPUTED_GOTO 0
#endif

namespace dvm {
namespace {

Error HostErr(const std::string& message) { return Error{ErrorCode::kRuntimeError, message}; }

// Failure exits of the quickened engine. Each message is built here, out of
// line, so the dispatch loop carries only a call and keeps its registers.
[[gnu::cold, gnu::noinline]] Status HostFail(const char* what) { return HostErr(what); }

[[gnu::cold, gnu::noinline]] Status HostFailIn(const char* what, const MethodInfo* method) {
  return HostErr(what + method->Id());
}

[[gnu::cold, gnu::noinline]] Status Throw(Machine& machine, const char* exception_class,
                                          const char* message) {
  machine.ThrowGuest(exception_class, message);
  return Status::Ok();
}

[[gnu::cold, gnu::noinline]] Status ThrowNegativeArraySize(Machine& machine, int32_t length) {
  machine.ThrowGuest("java/lang/NegativeArraySizeException", std::to_string(length));
  return Status::Ok();
}

[[gnu::cold, gnu::noinline]] Status ThrowOutOfMemory(Machine& machine, const Error& error) {
  machine.ThrowGuest("java/lang/OutOfMemoryError", error.message);
  return Status::Ok();
}

[[gnu::cold, gnu::noinline]] Status ThrowClassCast(Machine& machine, const HeapObject* obj,
                                                   uint32_t target_sym) {
  machine.ThrowGuest("java/lang/ClassCastException",
                     obj->class_name + " -> " + SymbolName(target_sym));
  return Status::Ok();
}

}  // namespace

Status Interpreter::Raise(const opsem::Fault& fault) {
  if (fault.host()) {
    return HostErr(fault.Message());
  }
  machine_.ThrowGuest(fault.exception_class, fault.Message());
  return Status::Ok();
}

const char* InterpreterDispatchMode() {
#if DVM_INTERP_COMPUTED_GOTO
  return "threaded";
#else
  return "switch";
#endif
}

Interpreter::Interpreter(Machine& machine) : machine_(machine) {
  previous_root_provider_ = machine_.frame_root_provider();
  machine_.SetFrameRootProvider([this](std::vector<ObjRef>* roots) {
    if (previous_root_provider_) {
      previous_root_provider_(roots);
    }
    CollectFrameRoots(roots);
  });
}

Interpreter::~Interpreter() { machine_.SetFrameRootProvider(previous_root_provider_); }

void Interpreter::CollectFrameRoots(std::vector<ObjRef>* roots) const {
  auto add = [roots](const Value& v) {
    if (v.kind == Value::Kind::kRef && !v.IsNullRef()) {
      roots->push_back(v.AsRef());
    }
  };
  const Value* base = arena_.data();
  for (const auto& frame : frames_) {
    // Locals occupy [locals_base, stack_base); live stack is [stack_base, sp).
    for (uint32_t i = frame.locals_base; i < frame.stack_base; i++) {
      add(base[i]);
    }
    for (uint32_t i = frame.stack_base; i < frame.sp; i++) {
      add(base[i]);
    }
  }
  if (has_return_value_) {
    add(return_value_);
  }
  if (rooted_values_ != nullptr) {
    for (const Value& v : *rooted_values_) {
      add(v);
    }
  }
}

Result<PreparedMethod*> Interpreter::Prepare(RuntimeClass* cls, const MethodInfo* method) {
  auto it = cls->prepared.find(method->Id());
  if (it != cls->prepared.end()) {
    return it->second.get();
  }
  auto prepared = std::make_unique<PreparedMethod>();
  prepared->method = method;
  prepared->compiled = cls->file.FindAttribute(kAttrCompiledStamp) != nullptr;
  DVM_ASSIGN_OR_RETURN(DecodedCode decoded, DecodeCode(method->code->code));
  prepared->code = std::move(decoded.instrs);
  prepared->code.shrink_to_fit();  // the decoder sized it for the worst case
  prepared->cache.resize(prepared->code.size());

  const OffsetIndex& index_of = decoded.off_to_ix;
  for (const auto& h : method->code->handlers) {
    int32_t start = index_of.At(h.start_pc);
    int32_t end = index_of.At(h.end_pc);
    int32_t handler = index_of.At(h.handler_pc);
    if (start < 0 || end < 0 || handler < 0) {
      return HostErr("exception handler not on instruction boundary in " + method->Id());
    }
    PreparedMethod::Handler entry;
    entry.start_ix = static_cast<uint32_t>(start);
    entry.end_ix = static_cast<uint32_t>(end);
    entry.handler_ix = static_cast<uint32_t>(handler);
    if (h.catch_type != 0) {
      DVM_ASSIGN_OR_RETURN(entry.catch_class, cls->file.pool().ClassNameAt(h.catch_type));
    }
    prepared->handlers.push_back(std::move(entry));
  }

  PreparedMethod* out = prepared.get();
  cls->prepared[method->Id()] = std::move(prepared);
  return out;
}

void Interpreter::ProfileMethodEntry() {
  ExecutionProfiler* prof = machine_.profiler();
  if (prof != nullptr && prof->SampleDue(machine_.virtual_nanos())) {
    prof->TakeSample(machine_, machine_.virtual_nanos());
    machine_.counters().profile_events++;
  }
}

void Interpreter::ProfileBackedge(PreparedMethod* prepared) {
  prepared->backedges++;
  ExecutionProfiler* prof = machine_.profiler();
  if (prof != nullptr && prof->SampleDue(machine_.virtual_nanos())) {
    prof->TakeSample(machine_, machine_.virtual_nanos());
    machine_.counters().profile_events++;
  }
}

void Interpreter::EnsureArena(size_t slots) {
  if (arena_.size() < slots) {
    size_t grown = arena_.size() < 1024 ? size_t{1024} : arena_.size() * 2;
    arena_.resize(std::max(grown, slots));
  }
}

Status Interpreter::PushFrame(RuntimeClass* cls, const MethodInfo* method,
                              const std::vector<Value>& args) {
  if (frames_.size() >= machine_.config().max_frames) {
    machine_.ThrowGuest("java/lang/StackOverflowError", "frame limit reached");
    return Status::Ok();
  }
  if (!method->code.has_value()) {
    return HostErr("method has no code body: " + cls->name + "." + method->Id());
  }
  DVM_ASSIGN_OR_RETURN(PreparedMethod * prepared, Prepare(cls, method));
  uint32_t base = frames_.empty() ? 0 : frames_.back().stack_limit;
  uint32_t locals_count = method->code->max_locals;
  ExecFrame frame;
  frame.cls = cls;
  frame.method = method;
  frame.prepared = prepared;
  frame.locals_base = base;
  frame.stack_base = base + locals_count;
  frame.stack_limit = frame.stack_base + method->code->max_stack;
  frame.sp = frame.stack_base;
  frame.pc = 0;
  EnsureArena(frame.stack_limit);
  Value* locals = arena_.data() + base;
  for (uint32_t i = 0; i < locals_count; i++) {
    locals[i] = i < args.size() ? args[i] : Value::Null();
  }
  frames_.push_back(frame);
  machine_.call_stack().push_back(FrameInfo{cls, method});
  machine_.counters().method_invocations++;
  prepared->invocations++;
  machine_.AddNanos(machine_.config().cost.nanos_per_invoke);
  ProfileMethodEntry();
  return Status::Ok();
}

Status Interpreter::PushFrameSliced(InlineCache& ic, uint32_t argc) {
  RuntimeClass* cls = ic.invoke_owner;
  const MethodInfo* method = ic.invoke_method;
  ExecFrame& caller = frames_.back();
  uint32_t args_start = caller.sp - argc;  // caller validated the depth
  caller.sp = args_start;
  if (frames_.size() >= machine_.config().max_frames) {
    machine_.ThrowGuest("java/lang/StackOverflowError", "frame limit reached");
    return Status::Ok();
  }
  if (!method->code.has_value()) {
    return HostErr("method has no code body: " + cls->name + "." + method->Id());
  }
  if (ic.invoke_prepared == nullptr) {
    DVM_ASSIGN_OR_RETURN(ic.invoke_prepared, Prepare(cls, method));
  }
  PreparedMethod* prepared = ic.invoke_prepared;
  uint32_t max_locals = method->code->max_locals;
  uint32_t locals_count = std::max(max_locals, argc);
  ExecFrame frame;
  frame.cls = cls;
  frame.method = method;
  frame.prepared = prepared;
  frame.locals_base = args_start;
  frame.stack_base = args_start + locals_count;
  frame.stack_limit = frame.stack_base + method->code->max_stack;
  frame.sp = frame.stack_base;
  frame.pc = 0;
  EnsureArena(frame.stack_limit);
  Value* locals = arena_.data() + args_start;
  // Null-fill the non-argument locals, and drop any argument slots beyond
  // max_locals (the reference engine never copies them either, so the GC root
  // set stays identical across engines).
  for (uint32_t i = std::min(argc, max_locals); i < locals_count; i++) {
    locals[i] = Value::Null();
  }
  frames_.push_back(frame);
  machine_.call_stack().push_back(FrameInfo{cls, method});
  machine_.counters().method_invocations++;
  prepared->invocations++;
  machine_.AddNanos(machine_.config().cost.nanos_per_invoke);
  ProfileMethodEntry();
  return Status::Ok();
}

Status Interpreter::EnsureInitialized(RuntimeClass* cls) {
  if (cls->init_state != InitState::kUninitialized) {
    return Status::Ok();
  }
  cls->init_state = InitState::kInitializing;
  if (cls->super != nullptr) {
    DVM_RETURN_IF_ERROR(EnsureInitialized(cls->super));
    if (machine_.HasPendingException()) {
      cls->init_state = InitState::kUninitialized;
      return Status::Ok();
    }
  }

  // Monolithic clients discharge the verifier's link assumptions here, at
  // first active use — the same laziness the DVM gets via injected preambles.
  if (auto* pending = machine_.PendingLinkChecks(cls->name)) {
    LinkCheckStats stats;
    Status status = Status::Ok();
    for (const auto& assumption : *pending) {
      // Force-load the classes each assumption talks about, then check.
      (void)machine_.registry().GetClass(assumption.target_class);
      status = CheckAssumption(assumption, machine_.registry(), &stats);
      if (!status.ok()) {
        break;
      }
    }
    uint64_t cost = stats.dynamic_checks * machine_.config().cost.nanos_per_link_check;
    machine_.AddNanos(cost);
    machine_.AddServiceNanos("verify", cost);
    machine_.counters().dynamic_verify_checks += stats.dynamic_checks;
    machine_.ClearPendingLinkChecks(cls->name);
    if (!status.ok()) {
      cls->init_state = InitState::kInitialized;  // poisoned; never re-checked
      machine_.ThrowGuest("java/lang/VerifyError", status.error().message);
      return Status::Ok();
    }
  }

  const MethodInfo* clinit = cls->file.FindMethod("<clinit>", "()V");
  if (clinit != nullptr && clinit->code.has_value()) {
    Interpreter nested(machine_);
    DVM_ASSIGN_OR_RETURN(CallOutcome outcome, nested.RunMethod(cls, clinit, {}));
    if (outcome.threw) {
      cls->init_state = InitState::kInitialized;
      machine_.ThrowGuest("java/lang/ExceptionInInitializerError",
                          outcome.exception_class + ": " + outcome.exception_message);
      return Status::Ok();
    }
  }
  cls->init_state = InitState::kInitialized;
  return Status::Ok();
}

Result<CallOutcome> Interpreter::RunStatic(const std::string& class_name,
                                           const std::string& method_name,
                                           const std::string& descriptor,
                                           std::vector<Value> args) {
  DVM_ASSIGN_OR_RETURN(RuntimeClass * cls, machine_.registry().GetClass(class_name));
  const RuntimeClass::MethodEntry* entry =
      cls->FindMethodEntry(InternSymbol(method_name), InternSymbol(descriptor));
  if (entry == nullptr) {
    return HostErr("no such method: " + class_name + "." + method_name + ":" + descriptor);
  }
  if (!entry->method->IsStatic()) {
    return HostErr("method is not static: " + method_name);
  }
  return RunMethod(entry->owner, entry->method, std::move(args));
}

Result<CallOutcome> Interpreter::RunMethod(RuntimeClass* cls, const MethodInfo* method,
                                           std::vector<Value> args) {
  // Root the caller-supplied args while <clinit> (and any GC it triggers) runs.
  rooted_values_ = &args;
  Status init = EnsureInitialized(cls);
  rooted_values_ = nullptr;
  DVM_RETURN_IF_ERROR(init);
  if (!machine_.HasPendingException()) {
    if (method->IsNative()) {
      DVM_ASSIGN_OR_RETURN(const NativeFn* fn, FindNative(cls, method));
      auto sig = ParseMethodDescriptor(method->descriptor);
      bool has_result = sig.ok() && !sig->ReturnsVoid();
      DVM_RETURN_IF_ERROR(CallNative(*fn, has_result, args.data(), args.size()));
      if (!machine_.HasPendingException()) {
        CallOutcome outcome;
        if (has_return_value_) {
          outcome.value = return_value_;
        }
        return outcome;
      }
    } else {
      DVM_RETURN_IF_ERROR(PushFrame(cls, method, args));
    }
  }
  return Loop();
}

Result<CallOutcome> Interpreter::Loop() {
  const bool quicken = machine_.config().quicken;
  while (true) {
    if (machine_.HasPendingException()) {
      DVM_ASSIGN_OR_RETURN(bool handled, DispatchPendingException());
      if (!handled) {
        ObjRef exception = machine_.TakePendingException();
        CallOutcome outcome;
        outcome.threw = true;
        outcome.value = Value::Ref(exception);
        const HeapObject* obj = machine_.heap().Get(exception);
        if (obj != nullptr) {
          if (obj->kind == HeapObject::Kind::kString) {
            outcome.exception_class = "java/lang/Throwable";
            outcome.exception_message = obj->str;
          } else {
            outcome.exception_class = obj->class_name;
            RuntimeClass* cls = machine_.registry().FindLoaded(obj->class_name);
            const RuntimeClass* owner =
                cls != nullptr ? cls->FindFieldOwner("message") : nullptr;
            if (owner != nullptr) {
              auto slot = owner->own_field_slots.find("message");
              if (slot != owner->own_field_slots.end() &&
                  slot->second < obj->fields.size()) {
                Value message = obj->fields[slot->second];
                if (message.kind == Value::Kind::kRef && !message.IsNullRef()) {
                  auto str = machine_.StringValue(message.AsRef());
                  if (str.ok()) {
                    outcome.exception_message = str.value();
                  }
                }
              }
            }
          }
        }
        return outcome;
      }
      continue;
    }
    if (frames_.empty()) {
      CallOutcome outcome;
      if (has_return_value_) {
        outcome.value = return_value_;
      }
      return outcome;
    }
    if (quicken) {
      // The quickened engine does its own budget accounting.
      DVM_RETURN_IF_ERROR(RunQuick());
    } else {
      if (machine_.counters().instructions >= machine_.config().max_instructions) {
        return HostErr("instruction budget exceeded");
      }
      DVM_RETURN_IF_ERROR(Step());
    }
  }
}

Result<bool> Interpreter::DispatchPendingException() {
  ObjRef exception = machine_.TakePendingException();
  std::string exception_class = "java/lang/Throwable";
  const HeapObject* obj = machine_.heap().Get(exception);
  if (obj != nullptr && obj->kind == HeapObject::Kind::kInstance) {
    exception_class = obj->class_name;
  }

  // Handler-walk memo (quickened engine only, host-time optimization): keyed
  // by (fault instruction, exception class symbol). Entries are recorded only
  // from walks where every subclass query resolved cleanly, so a memoized
  // answer can never change (the class hierarchy is append-only) and the
  // virtual clock is unaffected (subclass walks over loaded chains are free).
  const bool memoize = machine_.config().quicken;
  const uint64_t memo_sym = memoize ? InternSymbol(exception_class) : 0;

  while (!frames_.empty()) {
    ExecFrame& frame = frames_.back();
    uint32_t fault_ix = frame.pc == 0 ? 0 : frame.pc - 1;
    int32_t handler_ix = -1;
    bool clean = true;
    const uint64_t memo_key = (static_cast<uint64_t>(fault_ix) << 32) | memo_sym;
    auto memo_it = memoize ? frame.prepared->handler_memo.find(memo_key)
                           : frame.prepared->handler_memo.end();
    if (memoize && memo_it != frame.prepared->handler_memo.end()) {
      handler_ix = memo_it->second;
    } else {
      for (size_t hi = 0; hi < frame.prepared->handlers.size(); hi++) {
        const auto& h = frame.prepared->handlers[hi];
        if (fault_ix < h.start_ix || fault_ix >= h.end_ix) {
          continue;
        }
        bool matches = h.catch_class.empty();
        if (!matches) {
          auto is_sub = machine_.registry().IsSubclass(exception_class, h.catch_class);
          clean = clean && is_sub.ok();
          matches = is_sub.ok() && is_sub.value();
        }
        if (matches) {
          handler_ix = static_cast<int32_t>(hi);
          break;
        }
      }
      if (memoize && clean) {
        frame.prepared->handler_memo.emplace(memo_key, handler_ix);
      }
    }
    if (handler_ix >= 0) {
      const auto& h = frame.prepared->handlers[static_cast<size_t>(handler_ix)];
      frame.sp = frame.stack_base;
      if (frame.sp >= frame.stack_limit) {
        // max_stack == 0 with a live handler: the exception slot still needs
        // a home (the verifier only meters explicit pushes).
        EnsureArena(frame.sp + 1);
        frame.stack_limit = frame.sp + 1;
      }
      arena_[frame.sp++] = Value::Ref(exception);
      frame.pc = h.handler_ix;
      return true;
    }
    frames_.pop_back();
    machine_.call_stack().pop_back();
  }
  // No handler anywhere: re-arm so Loop can report it.
  machine_.SetPendingExceptionObject(exception);
  return false;
}

Result<const NativeFn*> Interpreter::FindNative(const RuntimeClass* owner,
                                                const MethodInfo* method) const {
  const NativeFn* fn =
      machine_.natives().Find(owner->name, method->name, method->descriptor);
  if (fn == nullptr && method->name.rfind("__dvmSecured$", 0) == 0) {
    // The security service wraps hooked natives by renaming them; the
    // implementation stays bound under the original name.
    fn = machine_.natives().Find(owner->name, method->name.substr(13), method->descriptor);
  }
  if (fn == nullptr) {
    return HostErr("unbound native method " + owner->name + "." + method->Id());
  }
  return fn;
}

Status Interpreter::CallNative(const NativeFn& fn, bool has_result, const Value* args,
                               size_t argc) {
  machine_.counters().native_calls++;
  machine_.AddNanos(machine_.config().cost.nanos_per_native_call);
  // The arguments move to a vector outside the arena that is rooted for the
  // duration of the call (which may allocate and collect). It keeps its
  // capacity from call to call.
  native_args_.assign(args, args + argc);
  rooted_values_ = &native_args_;
  Result<Value> call = fn(machine_, native_args_);
  rooted_values_ = nullptr;
  if (!call.ok()) {
    return call.error();
  }
  if (machine_.HasPendingException() || !has_result) {
    return Status::Ok();
  }
  if (frames_.empty()) {
    return_value_ = call.value();
    has_return_value_ = true;
    return Status::Ok();
  }
  ExecFrame& caller = frames_.back();
  if (caller.sp >= caller.stack_limit) {
    return HostErr("operand stack overflow in " + caller.method->Id());
  }
  arena_[caller.sp++] = call.value();
  return Status::Ok();
}

// Resolves the field site at `site_ix` of frame `f` into its inline cache.
// Returns false when a guest exception (NoSuchFieldError, <clinit> failure) is
// now pending. Shared by both engines; the quickened engine additionally
// rewrites the opcode afterwards. For statics the owner is initialized before
// the cache is installed, so cache presence implies initialization.
Result<bool> Interpreter::ResolveFieldSite(ExecFrame& f, uint32_t site_ix, bool is_static) {
  InlineCache& ic = f.prepared->cache[site_ix];
  if (ic.field_owner != nullptr) {
    return true;
  }
  const ConstantPool& pool = f.cls->file.pool();
  const Instr& site = f.prepared->code[site_ix];
  DVM_ASSIGN_OR_RETURN(MemberRef ref, pool.FieldRefAt(static_cast<uint16_t>(site.a)));
  DVM_ASSIGN_OR_RETURN(RuntimeClass * ref_cls, machine_.registry().GetClass(ref.class_name));
  RuntimeClass* owner = nullptr;
  for (RuntimeClass* c = ref_cls; c != nullptr; c = c->super) {
    const auto& slots = is_static ? c->static_slots : c->own_field_slots;
    if (slots.count(ref.member_name) > 0) {
      owner = c;
      break;
    }
  }
  if (owner == nullptr) {
    machine_.ThrowGuest("java/lang/NoSuchFieldError", ref.ToString());
    return false;
  }
  if (is_static) {
    DVM_RETURN_IF_ERROR(EnsureInitialized(owner));
    if (machine_.HasPendingException()) {
      return false;
    }
    ic.field_slot = owner->static_slots[ref.member_name];
  } else {
    ic.field_slot = owner->own_field_slots.at(ref.member_name);
  }
  ic.field_owner = owner;  // set last: presence implies initialized
  return true;
}

Result<Value> Interpreter::LoadConstant(const ConstantPool& pool, uint16_t index) {
  if (pool.HasTag(index, CpTag::kInteger)) {
    return Value::Int(pool.IntegerAt(index).value());
  }
  if (pool.HasTag(index, CpTag::kLong)) {
    return Value::Long(pool.LongAt(index).value());
  }
  if (pool.HasTag(index, CpTag::kString)) {
    // Interned strings are machine roots, so the quickened engine may cache
    // the reference in the site.
    DVM_ASSIGN_OR_RETURN(ObjRef str, machine_.InternString(pool.StringAt(index).value()));
    return Value::Ref(str);
  }
  return HostErr("ldc on unsupported constant");
}

Result<bool> Interpreter::ResolveCallSite(Op op, uint32_t site_ix) {
  ExecFrame& caller = frames_.back();
  InlineCache& ic = caller.prepared->cache[site_ix];
  const ConstantPool& pool = caller.cls->file.pool();
  const uint16_t cp_index = static_cast<uint16_t>(caller.prepared->code[site_ix].a);

  if (ic.arg_count < 0) {
    DVM_ASSIGN_OR_RETURN(MemberRef ref, pool.MethodRefAt(cp_index));
    DVM_ASSIGN_OR_RETURN(MethodSignature sig, ParseMethodDescriptor(ref.descriptor));
    ic.arg_count = sig.ArgSlots() + (op == Op::kInvokestatic ? 0 : 1);
    ic.has_result = !sig.ReturnsVoid();
  }
  const uint32_t argc = static_cast<uint32_t>(ic.arg_count);
  if (caller.sp - caller.stack_base < argc) {
    return HostErr("operand stack underflow on invoke in " + caller.method->Id());
  }
  // The arguments stay on the caller's stack, rooted, through resolution and
  // any <clinit> it runs; a failed resolution pops them before it throws.
  const Value* args = arena_.data() + (caller.sp - argc);
  auto fail = [&](const char* exception_class, const std::string& message) {
    caller.sp -= argc;
    machine_.ThrowGuest(exception_class, message);
    return false;
  };
  if (op != Op::kInvokestatic && args[0].IsNullRef()) {
    return fail("java/lang/NullPointerException", "invoke on null receiver");
  }

  if (op == Op::kInvokevirtual) {
    const HeapObject* receiver = machine_.heap().Get(args[0].AsRef());
    if (receiver == nullptr) {
      return HostErr("dangling receiver reference");
    }
    if (ic.invoke_method != nullptr && ic.receiver_sym == receiver->class_sym) {
      ic.hits++;  // monomorphic hit
      return true;
    }
    // A receiver symbol change is the transition the megamorphic threshold
    // watches.
    ic.misses++;
    if (ic.receiver_sym != 0 && ic.receiver_sym != receiver->class_sym) {
      ic.transitions++;
    }
    DVM_ASSIGN_OR_RETURN(MemberRef ref, pool.MethodRefAt(cp_index));
    uint32_t method_sym = InternSymbol(ref.member_name);
    uint32_t desc_sym = InternSymbol(ref.descriptor);
    std::string dynamic_class = receiver->class_name;
    if (!dynamic_class.empty() && dynamic_class[0] == '[') {
      dynamic_class = "java/lang/Object";
    }
    DVM_ASSIGN_OR_RETURN(RuntimeClass * dispatch_cls,
                         machine_.registry().GetClass(dynamic_class));
    const RuntimeClass::MethodEntry* entry =
        dispatch_cls->FindMethodEntry(method_sym, desc_sym);
    if (entry == nullptr) {
      // Fall back to the static type (e.g. interface-typed receivers).
      DVM_ASSIGN_OR_RETURN(RuntimeClass * ref_cls,
                           machine_.registry().GetClass(ref.class_name));
      entry = ref_cls->FindMethodEntry(method_sym, desc_sym);
    }
    if (entry == nullptr) {
      return fail("java/lang/NoSuchMethodError", ref.ToString());
    }
    if (entry->method->IsStatic()) {
      return fail("java/lang/IncompatibleClassChangeError", ref.ToString() + " is static");
    }
    // Install the monomorphic cache entry (last receiver type wins).
    ic.Retarget(entry->owner, entry->method);
    ic.receiver_sym = receiver->class_sym;
    return true;
  }

  if (ic.invoke_method != nullptr) {
    // invokestatic / invokespecial bind statically: the cache is always valid
    // (and for statics implies the owner finished initialization).
    return true;
  }
  DVM_ASSIGN_OR_RETURN(MemberRef ref, pool.MethodRefAt(cp_index));
  DVM_ASSIGN_OR_RETURN(RuntimeClass * ref_cls, machine_.registry().GetClass(ref.class_name));
  const RuntimeClass::MethodEntry* entry =
      ref_cls->FindMethodEntry(InternSymbol(ref.member_name), InternSymbol(ref.descriptor));
  if (entry == nullptr) {
    return fail("java/lang/NoSuchMethodError", ref.ToString());
  }
  if (op == Op::kInvokestatic) {
    if (!entry->method->IsStatic()) {
      return fail("java/lang/IncompatibleClassChangeError", ref.ToString() + " is not static");
    }
    DVM_RETURN_IF_ERROR(EnsureInitialized(entry->owner));
    if (machine_.HasPendingException()) {
      caller.sp -= argc;
      return false;
    }
  } else if (entry->method->IsStatic()) {
    return fail("java/lang/IncompatibleClassChangeError", ref.ToString() + " is static");
  }
  ic.Retarget(entry->owner, entry->method);
  return true;
}

Status Interpreter::Invoke(Op op, uint32_t site_ix) {
  DVM_ASSIGN_OR_RETURN(bool resolved, ResolveCallSite(op, site_ix));
  if (!resolved) {
    return Status::Ok();
  }
  ExecFrame& caller = frames_.back();
  const InlineCache& ic = caller.prepared->cache[site_ix];
  RuntimeClass* owner = ic.invoke_owner;
  const MethodInfo* method = ic.invoke_method;
  const uint32_t argc = static_cast<uint32_t>(ic.arg_count);
  std::vector<Value> args(arena_.begin() + static_cast<ptrdiff_t>(caller.sp - argc),
                          arena_.begin() + static_cast<ptrdiff_t>(caller.sp));
  caller.sp -= argc;
  if (method->IsAbstract()) {
    machine_.ThrowGuest("java/lang/AbstractMethodError", owner->name + "." + method->Id());
    return Status::Ok();
  }
  if (method->IsNative()) {
    DVM_ASSIGN_OR_RETURN(const NativeFn* fn, FindNative(owner, method));
    return CallNative(*fn, ic.has_result, args.data(), args.size());
  }
  return PushFrame(owner, method, args);
}

Status Interpreter::Step() {
  ExecFrame& f = frames_.back();
  if (f.pc >= f.prepared->code.size()) {
    return HostErr("pc escaped method body in " + f.method->Id());
  }
  const Instr instr = f.prepared->code[f.pc];
  f.pc++;
  machine_.counters().instructions++;
  machine_.AddNanos(f.prepared->compiled ? machine_.config().cost.nanos_per_instr_compiled
                                         : machine_.config().cost.nanos_per_instr);

  const ConstantPool& pool = f.cls->file.pool();
  Value* base = arena_.data();
  Value* locals = base + f.locals_base;

  auto stack_size = [&]() { return f.sp - f.stack_base; };
  auto pop = [&]() { return base[--f.sp]; };
  auto push = [&](const Value& v) -> Status {
    if (f.sp >= f.stack_limit) {
      return HostErr("operand stack overflow in " + f.method->Id());
    }
    base[f.sp++] = v;
    return Status::Ok();
  };
  auto underflow_guard = [&](uint32_t need) -> Status {
    if (stack_size() < need) {
      return HostErr("operand stack underflow in " + f.method->Id());
    }
    return Status::Ok();
  };
  auto local_guard = [&](int32_t index) -> Status {
    if (static_cast<uint32_t>(index) >= f.method->code->max_locals) {
      return HostErr("local index out of range in " + f.method->Id());
    }
    return Status::Ok();
  };

  switch (instr.op) {
    case Op::kNop:
      break;
    case Op::kAconstNull:
      DVM_RETURN_IF_ERROR(push(Value::Null()));
      break;
    case Op::kIconst0:
      DVM_RETURN_IF_ERROR(push(Value::Int(0)));
      break;
    case Op::kIconst1:
      DVM_RETURN_IF_ERROR(push(Value::Int(1)));
      break;
    case Op::kBipush:
    case Op::kSipush:
      DVM_RETURN_IF_ERROR(push(Value::Int(instr.a)));
      break;
    case Op::kLdc: {
      DVM_ASSIGN_OR_RETURN(Value v, LoadConstant(pool, static_cast<uint16_t>(instr.a)));
      DVM_RETURN_IF_ERROR(push(v));
      break;
    }
    case Op::kIload:
    case Op::kLload:
    case Op::kAload:
      DVM_RETURN_IF_ERROR(local_guard(instr.a));
      DVM_RETURN_IF_ERROR(push(locals[static_cast<size_t>(instr.a)]));
      break;
    case Op::kIstore:
    case Op::kLstore:
    case Op::kAstore: {
      DVM_RETURN_IF_ERROR(underflow_guard(1));
      DVM_RETURN_IF_ERROR(local_guard(instr.a));
      locals[static_cast<size_t>(instr.a)] = pop();
      break;
    }
    case Op::kIaload:
    case Op::kLaload:
    case Op::kAaload: {
      DVM_RETURN_IF_ERROR(underflow_guard(2));
      int32_t index = pop().AsInt();
      Value array_ref = pop();
      Value v;
      opsem::Fault fault = opsem::ArrayLoad(machine_.heap(), instr.op, array_ref, index, &v);
      if (!fault.ok()) {
        return Raise(fault);
      }
      DVM_RETURN_IF_ERROR(push(v));
      break;
    }
    case Op::kIastore:
    case Op::kLastore:
    case Op::kAastore: {
      DVM_RETURN_IF_ERROR(underflow_guard(3));
      Value value = pop();
      int32_t index = pop().AsInt();
      Value array_ref = pop();
      opsem::Fault fault = opsem::ArrayStore(machine_.heap(), instr.op, array_ref, index, value);
      if (!fault.ok()) {
        return Raise(fault);
      }
      break;
    }
    case Op::kPop:
      DVM_RETURN_IF_ERROR(underflow_guard(1));
      pop();
      break;
    case Op::kDup: {
      DVM_RETURN_IF_ERROR(underflow_guard(1));
      DVM_RETURN_IF_ERROR(push(base[f.sp - 1]));
      break;
    }
    case Op::kDupX1: {
      DVM_RETURN_IF_ERROR(underflow_guard(2));
      Value v1 = pop();
      Value v2 = pop();
      DVM_RETURN_IF_ERROR(push(v1));
      DVM_RETURN_IF_ERROR(push(v2));
      DVM_RETURN_IF_ERROR(push(v1));
      break;
    }
    case Op::kSwap: {
      DVM_RETURN_IF_ERROR(underflow_guard(2));
      std::swap(base[f.sp - 1], base[f.sp - 2]);
      break;
    }
    case Op::kIadd:
    case Op::kIsub:
    case Op::kImul:
    case Op::kIand:
    case Op::kIor:
    case Op::kIxor:
    case Op::kIshl:
    case Op::kIshr:
    case Op::kIushr: {
      DVM_RETURN_IF_ERROR(underflow_guard(2));
      int32_t b = pop().AsInt();
      int32_t a = pop().AsInt();
      DVM_RETURN_IF_ERROR(push(Value::Int(opsem::IntAlu(instr.op, a, b))));
      break;
    }
    case Op::kIdiv:
    case Op::kIrem: {
      DVM_RETURN_IF_ERROR(underflow_guard(2));
      int32_t b = pop().AsInt();
      int32_t a = pop().AsInt();
      int32_t r = 0;
      opsem::Fault fault = opsem::IntDivRem(instr.op, a, b, &r);
      if (!fault.ok()) {
        return Raise(fault);
      }
      DVM_RETURN_IF_ERROR(push(Value::Int(r)));
      break;
    }
    case Op::kLadd:
    case Op::kLsub:
    case Op::kLmul: {
      DVM_RETURN_IF_ERROR(underflow_guard(2));
      int64_t b = pop().AsLong();
      int64_t a = pop().AsLong();
      DVM_RETURN_IF_ERROR(push(Value::Long(opsem::LongAlu(instr.op, a, b))));
      break;
    }
    case Op::kLdiv:
    case Op::kLrem: {
      DVM_RETURN_IF_ERROR(underflow_guard(2));
      int64_t b = pop().AsLong();
      int64_t a = pop().AsLong();
      int64_t r = 0;
      opsem::Fault fault = opsem::LongDivRem(instr.op, a, b, &r);
      if (!fault.ok()) {
        return Raise(fault);
      }
      DVM_RETURN_IF_ERROR(push(Value::Long(r)));
      break;
    }
    case Op::kIneg: {
      DVM_RETURN_IF_ERROR(underflow_guard(1));
      DVM_RETURN_IF_ERROR(push(Value::Int(opsem::IntNeg(pop().AsInt()))));
      break;
    }
    case Op::kLneg: {
      DVM_RETURN_IF_ERROR(underflow_guard(1));
      DVM_RETURN_IF_ERROR(push(Value::Long(opsem::LongNeg(pop().AsLong()))));
      break;
    }
    case Op::kIinc: {
      DVM_RETURN_IF_ERROR(local_guard(instr.a));
      Value& local = locals[static_cast<size_t>(instr.a)];
      local = Value::Int(opsem::IntInc(local.AsInt(), instr.b));
      break;
    }
    case Op::kI2l: {
      DVM_RETURN_IF_ERROR(underflow_guard(1));
      DVM_RETURN_IF_ERROR(push(Value::Long(opsem::I2l(pop().AsInt()))));
      break;
    }
    case Op::kL2i: {
      DVM_RETURN_IF_ERROR(underflow_guard(1));
      DVM_RETURN_IF_ERROR(push(Value::Int(opsem::L2i(pop().AsLong()))));
      break;
    }
    case Op::kLcmp: {
      DVM_RETURN_IF_ERROR(underflow_guard(2));
      int64_t b = pop().AsLong();
      int64_t a = pop().AsLong();
      DVM_RETURN_IF_ERROR(push(Value::Int(opsem::Lcmp(a, b))));
      break;
    }
    case Op::kIfeq:
    case Op::kIfne:
    case Op::kIflt:
    case Op::kIfge:
    case Op::kIfgt:
    case Op::kIfle: {
      DVM_RETURN_IF_ERROR(underflow_guard(1));
      if (opsem::IntCond(instr.op, pop().AsInt())) {
        uint32_t target = static_cast<uint32_t>(instr.a);
        if (target < f.pc) {
          ProfileBackedge(f.prepared);
        }
        f.pc = target;
      }
      break;
    }
    case Op::kIfIcmpeq:
    case Op::kIfIcmpne:
    case Op::kIfIcmplt:
    case Op::kIfIcmpge:
    case Op::kIfIcmpgt:
    case Op::kIfIcmple: {
      DVM_RETURN_IF_ERROR(underflow_guard(2));
      int32_t b = pop().AsInt();
      int32_t a = pop().AsInt();
      if (opsem::IntCmpCond(instr.op, a, b)) {
        uint32_t target = static_cast<uint32_t>(instr.a);
        if (target < f.pc) {
          ProfileBackedge(f.prepared);
        }
        f.pc = target;
      }
      break;
    }
    case Op::kIfAcmpeq:
    case Op::kIfAcmpne: {
      DVM_RETURN_IF_ERROR(underflow_guard(2));
      ObjRef b = pop().AsRef();
      ObjRef a = pop().AsRef();
      if (opsem::RefCmpCond(instr.op, a, b)) {
        uint32_t target = static_cast<uint32_t>(instr.a);
        if (target < f.pc) {
          ProfileBackedge(f.prepared);
        }
        f.pc = target;
      }
      break;
    }
    case Op::kIfnull:
    case Op::kIfnonnull: {
      DVM_RETURN_IF_ERROR(underflow_guard(1));
      if (opsem::NullCond(instr.op, pop())) {
        uint32_t target = static_cast<uint32_t>(instr.a);
        if (target < f.pc) {
          ProfileBackedge(f.prepared);
        }
        f.pc = target;
      }
      break;
    }
    case Op::kGoto: {
      uint32_t target = static_cast<uint32_t>(instr.a);
      if (target < f.pc) {
        ProfileBackedge(f.prepared);
      }
      f.pc = target;
      break;
    }
    case Op::kIreturn:
    case Op::kLreturn:
    case Op::kAreturn:
    case Op::kReturn: {
      Value result = Value::Null();
      bool has_result = instr.op != Op::kReturn;
      if (has_result) {
        DVM_RETURN_IF_ERROR(underflow_guard(1));
        result = pop();
      }
      frames_.pop_back();
      machine_.call_stack().pop_back();
      if (frames_.empty()) {
        return_value_ = result;
        has_return_value_ = has_result;
      } else if (has_result) {
        ExecFrame& caller = frames_.back();
        if (caller.sp >= caller.stack_limit) {
          return HostErr("operand stack overflow in " + caller.method->Id());
        }
        arena_[caller.sp++] = result;
      }
      break;
    }
    case Op::kGetstatic:
    case Op::kPutstatic: {
      InlineCache& ic = f.prepared->cache[f.pc - 1];
      DVM_ASSIGN_OR_RETURN(bool resolved, ResolveFieldSite(f, f.pc - 1, /*is_static=*/true));
      if (!resolved) {
        break;
      }
      if (instr.op == Op::kGetstatic) {
        DVM_RETURN_IF_ERROR(push(ic.field_owner->statics[ic.field_slot]));
      } else {
        DVM_RETURN_IF_ERROR(underflow_guard(1));
        ic.field_owner->statics[ic.field_slot] = pop();
      }
      break;
    }
    case Op::kGetfield:
    case Op::kPutfield: {
      InlineCache& ic = f.prepared->cache[f.pc - 1];
      Value value = Value::Null();
      if (instr.op == Op::kPutfield) {
        DVM_RETURN_IF_ERROR(underflow_guard(2));
        value = pop();
      } else {
        DVM_RETURN_IF_ERROR(underflow_guard(1));
      }
      Value obj_ref = pop();
      if (obj_ref.IsNullRef()) {
        machine_.ThrowGuest("java/lang/NullPointerException", "field access on null");
        break;
      }
      HeapObject* obj = machine_.heap().Get(obj_ref.AsRef());
      if (obj == nullptr || obj->kind != HeapObject::Kind::kInstance) {
        return HostErr("field access on non-instance");
      }
      DVM_ASSIGN_OR_RETURN(bool resolved, ResolveFieldSite(f, f.pc - 1, /*is_static=*/false));
      if (!resolved) {
        break;
      }
      if (ic.field_slot >= obj->fields.size()) {
        return HostErr("field slot out of range in " + f.method->Id());
      }
      if (instr.op == Op::kGetfield) {
        DVM_RETURN_IF_ERROR(push(obj->fields[ic.field_slot]));
      } else {
        obj->fields[ic.field_slot] = value;
      }
      break;
    }
    case Op::kInvokestatic:
    case Op::kInvokevirtual:
    case Op::kInvokespecial:
      DVM_RETURN_IF_ERROR(Invoke(instr.op, f.pc - 1));
      break;
    case Op::kNew: {
      DVM_ASSIGN_OR_RETURN(std::string class_name,
                           pool.ClassNameAt(static_cast<uint16_t>(instr.a)));
      DVM_ASSIGN_OR_RETURN(RuntimeClass * cls, machine_.registry().GetClass(class_name));
      DVM_RETURN_IF_ERROR(EnsureInitialized(cls));
      if (machine_.HasPendingException()) {
        break;
      }
      auto obj = machine_.AllocInstance(cls);
      if (!obj.ok()) {
        machine_.ThrowGuest("java/lang/OutOfMemoryError", obj.error().message);
        break;
      }
      DVM_RETURN_IF_ERROR(push(Value::Ref(obj.value())));
      break;
    }
    case Op::kNewarray: {
      DVM_RETURN_IF_ERROR(underflow_guard(1));
      int32_t length = pop().AsInt();
      if (length < 0) {
        machine_.ThrowGuest("java/lang/NegativeArraySizeException", std::to_string(length));
        break;
      }
      auto arr = instr.a == static_cast<int>(ArrayKind::kLong)
                     ? machine_.AllocLongArray(length)
                     : machine_.AllocIntArray(length);
      if (!arr.ok()) {
        machine_.ThrowGuest("java/lang/OutOfMemoryError", arr.error().message);
        break;
      }
      DVM_RETURN_IF_ERROR(push(Value::Ref(arr.value())));
      break;
    }
    case Op::kAnewarray: {
      DVM_ASSIGN_OR_RETURN(std::string element,
                           pool.ClassNameAt(static_cast<uint16_t>(instr.a)));
      DVM_RETURN_IF_ERROR(underflow_guard(1));
      int32_t length = pop().AsInt();
      if (length < 0) {
        machine_.ThrowGuest("java/lang/NegativeArraySizeException", std::to_string(length));
        break;
      }
      auto arr = machine_.AllocRefArray("[" + DescriptorFromClassName(element), 0, length);
      if (!arr.ok()) {
        machine_.ThrowGuest("java/lang/OutOfMemoryError", arr.error().message);
        break;
      }
      DVM_RETURN_IF_ERROR(push(Value::Ref(arr.value())));
      break;
    }
    case Op::kArraylength: {
      DVM_RETURN_IF_ERROR(underflow_guard(1));
      int32_t length = 0;
      opsem::Fault fault = opsem::ArrayLength(machine_.heap(), pop(), &length);
      if (!fault.ok()) {
        return Raise(fault);
      }
      DVM_RETURN_IF_ERROR(push(Value::Int(length)));
      break;
    }
    case Op::kAthrow: {
      DVM_RETURN_IF_ERROR(underflow_guard(1));
      Value exception = pop();
      if (exception.IsNullRef()) {
        machine_.ThrowGuest("java/lang/NullPointerException", "athrow on null");
        break;
      }
      machine_.counters().exceptions_thrown++;
      machine_.SetPendingExceptionObject(exception.AsRef());
      break;
    }
    case Op::kCheckcast: {
      DVM_ASSIGN_OR_RETURN(std::string target,
                           pool.ClassNameAt(static_cast<uint16_t>(instr.a)));
      DVM_RETURN_IF_ERROR(underflow_guard(1));
      Value v = base[f.sp - 1];
      if (!v.IsNullRef()) {
        const HeapObject* obj = machine_.heap().Get(v.AsRef());
        if (obj == nullptr) {
          return HostErr("checkcast on dangling reference");
        }
        auto is_sub = machine_.registry().IsSubclass(obj->class_name, target);
        if (!is_sub.ok() || !is_sub.value()) {
          pop();
          machine_.ThrowGuest("java/lang/ClassCastException",
                              obj->class_name + " -> " + target);
        }
      }
      break;
    }
    case Op::kInstanceof: {
      DVM_ASSIGN_OR_RETURN(std::string target,
                           pool.ClassNameAt(static_cast<uint16_t>(instr.a)));
      DVM_RETURN_IF_ERROR(underflow_guard(1));
      Value v = pop();
      if (v.IsNullRef()) {
        DVM_RETURN_IF_ERROR(push(Value::Int(0)));
        break;
      }
      const HeapObject* obj = machine_.heap().Get(v.AsRef());
      if (obj == nullptr) {
        return HostErr("instanceof on dangling reference");
      }
      auto is_sub = machine_.registry().IsSubclass(obj->class_name, target);
      DVM_RETURN_IF_ERROR(push(Value::Int(is_sub.ok() && is_sub.value() ? 1 : 0)));
      break;
    }
    case Op::kMonitorenter:
    case Op::kMonitorexit: {
      DVM_RETURN_IF_ERROR(underflow_guard(1));
      Value v = pop();
      if (v.IsNullRef()) {
        machine_.ThrowGuest("java/lang/NullPointerException", "monitor on null");
        break;
      }
      // Single simulated thread: always uncontended, but acquisition itself
      // is far from free (the point of the sync-elision optimizer).
      machine_.AddNanos(machine_.config().cost.nanos_per_monitor_op);
      break;
    }
    case Op::kLdcQuick:
    case Op::kGetfieldQuick:
    case Op::kPutfieldQuick:
    case Op::kGetstaticQuick:
    case Op::kPutstaticQuick:
    case Op::kInvokevirtualQuick:
    case Op::kInvokespecialQuick:
    case Op::kInvokestaticQuick:
    case Op::kNewQuick:
    case Op::kAnewarrayQuick:
    case Op::kCheckcastQuick:
    case Op::kInstanceofQuick:
      // The reference engine never rewrites sites, and prepared code is
      // per-machine, so quick forms cannot legitimately appear here.
      return HostErr("quick opcode reached the reference engine in " + f.method->Id());
  }
  return Status::Ok();
}

Status Interpreter::InvokeResolved(InlineCache& ic, uint32_t argc) {
  ExecFrame& caller = frames_.back();
  const MethodInfo* method = ic.invoke_method;
  if (method->IsAbstract()) {
    caller.sp -= argc;
    machine_.ThrowGuest("java/lang/AbstractMethodError",
                        ic.invoke_owner->name + "." + method->Id());
    return Status::Ok();
  }
  if (method->IsNative()) {
    caller.sp -= argc;
    if (ic.invoke_native == nullptr) {
      DVM_ASSIGN_OR_RETURN(ic.invoke_native, FindNative(ic.invoke_owner, method));
    }
    return CallNative(*ic.invoke_native, ic.has_result, arena_.data() + caller.sp, argc);
  }
  return PushFrameSliced(ic, argc);
}

// X-macro over every opcode the quickened engine handles; used to populate the
// computed-goto jump table. A missing handler label is a compile error.
#define DVM_INTERP_OPS(X)                                                      \
  X(kNop) X(kAconstNull) X(kIconst0) X(kIconst1) X(kBipush) X(kSipush)         \
  X(kLdc) X(kIload) X(kLload) X(kAload) X(kIstore) X(kLstore) X(kAstore)       \
  X(kIaload) X(kLaload) X(kAaload) X(kIastore) X(kLastore) X(kAastore)         \
  X(kPop) X(kDup) X(kDupX1) X(kSwap)                                           \
  X(kIadd) X(kIsub) X(kImul) X(kIand) X(kIor) X(kIxor) X(kIshl) X(kIshr)       \
  X(kIushr) X(kIdiv) X(kIrem) X(kLadd) X(kLsub) X(kLmul) X(kLdiv) X(kLrem)     \
  X(kIneg) X(kLneg) X(kIinc) X(kI2l) X(kL2i) X(kLcmp)                          \
  X(kIfeq) X(kIfne) X(kIflt) X(kIfge) X(kIfgt) X(kIfle)                        \
  X(kIfIcmpeq) X(kIfIcmpne) X(kIfIcmplt) X(kIfIcmpge) X(kIfIcmpgt)             \
  X(kIfIcmple) X(kIfAcmpeq) X(kIfAcmpne) X(kIfnull) X(kIfnonnull) X(kGoto)     \
  X(kIreturn) X(kLreturn) X(kAreturn) X(kReturn)                               \
  X(kGetstatic) X(kPutstatic) X(kGetfield) X(kPutfield)                        \
  X(kInvokestatic) X(kInvokevirtual) X(kInvokespecial)                         \
  X(kNew) X(kNewarray) X(kAnewarray) X(kArraylength) X(kAthrow)                \
  X(kCheckcast) X(kInstanceof) X(kMonitorenter) X(kMonitorexit)                \
  X(kLdcQuick) X(kGetfieldQuick) X(kPutfieldQuick) X(kGetstaticQuick)          \
  X(kPutstaticQuick) X(kInvokevirtualQuick) X(kInvokespecialQuick)             \
  X(kInvokestaticQuick) X(kNewQuick) X(kAnewarrayQuick) X(kCheckcastQuick)     \
  X(kInstanceofQuick)

// The hot loop keeps pc, sp, the frame's arena pointers and the instruction
// accounting in locals. `pending` counts the instructions run since the last
// flush and `limit` is what the budget has left beyond those already
// flushed, so the budget check is one register compare. QFLUSH charges `pending` to
// counters.instructions and the virtual clock; it runs before anything reads
// either (a profiler poll, a class load, a native, a nested <clinit>) and
// before the frame it was counted in is popped. QSYNC flushes and writes
// sp/pc back to the frame before anything that can GC, throw, load a class,
// or push or pop frames. QRELOAD re-reads the top frame after a frame change
// or a call, and QREBUDGET recomputes `limit` after any call that may have
// run guest code. QTHROW and the invoke/return handlers exit back to Loop(),
// which owns exception dispatch and outcome extraction for both engines.
#define QFLUSH()                                  \
  do {                                            \
    counters.instructions += pending;             \
    machine_.AddNanos(pending * step_nanos);      \
    limit -= pending;                             \
    pending = 0;                                  \
  } while (0)
#define QSYNC()                                   \
  do {                                            \
    QFLUSH();                                     \
    f->sp = static_cast<uint32_t>(sp - base);     \
    f->pc = pc;                                   \
  } while (0)
#define QREBUDGET() \
  (limit = counters.instructions < budget ? budget - counters.instructions : 0)
#define QRELOAD()                                                             \
  do {                                                                        \
    f = &frames_.back();                                                      \
    code = f->prepared->code.data();                                          \
    code_size = static_cast<uint32_t>(f->prepared->code.size());              \
    base = arena_.data();                                                     \
    locals = base + f->locals_base;                                           \
    floor = base + f->stack_base;                                             \
    ceil = base + f->stack_limit;                                             \
    sp = base + f->sp;                                                        \
    pc = f->pc;                                                               \
    max_locals = f->method->code->max_locals;                                 \
    step_nanos = f->prepared->compiled ? machine_.config().cost.nanos_per_instr_compiled \
                                       : machine_.config().cost.nanos_per_instr;         \
    QREBUDGET();                                                              \
  } while (0)
#define QHOST(msg)           \
  do {                       \
    QSYNC();                 \
    return HostFail(msg);    \
  } while (0)
// Host error whose message names the current method.
#define QHOST_IN(what)                    \
  do {                                    \
    QSYNC();                              \
    return HostFailIn(what, f->method);   \
  } while (0)
#define QTHROW(cls_, msg_)                    \
  do {                                        \
    QSYNC();                                  \
    return Throw(machine_, (cls_), (msg_));   \
  } while (0)
#define QFAULT(fault_)  \
  do {                  \
    QSYNC();            \
    return Raise(fault_); \
  } while (0)
#define QNEED(n)                                                   \
  do {                                                             \
    if (sp - floor < static_cast<ptrdiff_t>(n))                    \
      QHOST_IN("operand stack underflow in ");                     \
  } while (0)
#define QROOM()                                                    \
  do {                                                             \
    if (sp >= ceil) QHOST_IN("operand stack overflow in ");        \
  } while (0)
#define QLOCAL(ix)                                                 \
  do {                                                             \
    if (static_cast<uint32_t>(ix) >= max_locals)                   \
      QHOST_IN("local index out of range in ");                    \
  } while (0)
// Taken branch: pc is already past the branch instruction, so a target below
// it is a backward edge — the loop-trip evidence the profiler exports, and a
// profiler poll point (mirrored in the reference engine's Step).
#define QBRANCH(target_expr)                                                  \
  do {                                                                        \
    uint32_t target_ = (target_expr);                                         \
    if (target_ < pc) {                                                       \
      QFLUSH();                                                               \
      ProfileBackedge(f->prepared);                                           \
    }                                                                         \
    pc = target_;                                                             \
  } while (0)
// First execution of a resolving opcode: a resolution that raised a guest
// exception leaves for Loop() with the site unquickened; otherwise QQUICKEN
// rewrites the site to its quick form, counts it, and runs the quick form's
// handler on the same dispatch (no second fetch, count or budget check).
#define QRESOLVE(call)                           \
  do {                                           \
    DVM_ASSIGN_OR_RETURN(bool resolved_, call);  \
    if (!resolved_) {                            \
      return Status::Ok();                       \
    }                                            \
  } while (0)
#define QQUICKEN(quick)                          \
  do {                                           \
    f->prepared->code[pc - 1].op = Op::quick;    \
    counters.quickened_sites++;                  \
    goto L_##quick;                              \
  } while (0)
// After a call that may have pushed or popped frames, run a native or
// raised an exception: leave for Loop() or resume in the top frame.
#define QRESUME()                                                   \
  do {                                                              \
    if (machine_.HasPendingException() || frames_.empty()) {        \
      return Status::Ok();                                          \
    }                                                               \
    QRELOAD();                                                      \
  } while (0)

// One handler per opcode for the arithmetic, compare-branch and array groups.
// Each calls opsem with its own constant Op, so opsem.h stays the one
// implementation of the semantics and its switch on the opcode folds away.
// `As`/`Make` are the Value accessor and constructor of the operand type.
#define Q_ALU(name, As, Make, alu)                       \
  OP(name) {                                             \
    QNEED(2);                                            \
    auto b = (--sp)->As();                               \
    auto a = (--sp)->As();                               \
    *sp++ = Value::Make(opsem::alu(Op::name, a, b));     \
  }                                                      \
  NEXT();
#define Q_DIVREM(name, As, Make, divrem)                 \
  OP(name) {                                             \
    QNEED(2);                                            \
    auto b = (--sp)->As();                               \
    auto a = (--sp)->As();                               \
    decltype(a) r = 0;                                   \
    opsem::Fault fault = opsem::divrem(Op::name, a, b, &r); \
    if (!fault.ok()) {                                   \
      QFAULT(fault);                                     \
    }                                                    \
    *sp++ = Value::Make(r);                              \
  }                                                      \
  NEXT();
// Branch on one popped operand (`operand` pops it) or on two.
#define Q_IF(name, cond, operand)                        \
  OP(name) {                                             \
    QNEED(1);                                            \
    if (opsem::cond(Op::name, operand)) {                \
      QBRANCH(static_cast<uint32_t>(inst.a));            \
    }                                                    \
  }                                                      \
  NEXT();
#define Q_IF_CMP(name, As, cond)                         \
  OP(name) {                                             \
    QNEED(2);                                            \
    auto b = (--sp)->As();                               \
    auto a = (--sp)->As();                               \
    if (opsem::cond(Op::name, a, b)) {                   \
      QBRANCH(static_cast<uint32_t>(inst.a));            \
    }                                                    \
  }                                                      \
  NEXT();
#define Q_ARRAY_LOAD(name)                               \
  OP(name) {                                             \
    QNEED(2);                                            \
    int32_t index = (--sp)->AsInt();                     \
    Value array_ref = *--sp;                             \
    opsem::Fault fault = opsem::ArrayLoad(heap, Op::name, array_ref, index, sp); \
    if (!fault.ok()) {                                   \
      QFAULT(fault);                                     \
    }                                                    \
    sp++;                                                \
  }                                                      \
  NEXT();
#define Q_ARRAY_STORE(name)                              \
  OP(name) {                                             \
    QNEED(3);                                            \
    Value value = *--sp;                                 \
    int32_t index = (--sp)->AsInt();                     \
    Value array_ref = *--sp;                             \
    opsem::Fault fault = opsem::ArrayStore(heap, Op::name, array_ref, index, value); \
    if (!fault.ok()) {                                   \
      QFAULT(fault);                                     \
    }                                                    \
  }                                                      \
  NEXT();

Status Interpreter::RunQuick() {
  RuntimeCounters& counters = machine_.counters();
  Heap& heap = machine_.heap();
  const uint64_t budget = machine_.config().max_instructions;

  ExecFrame* f = nullptr;
  const Instr* code = nullptr;
  uint32_t code_size = 0;
  Value* base = nullptr;
  Value* locals = nullptr;
  Value* floor = nullptr;
  Value* ceil = nullptr;
  Value* sp = nullptr;
  uint32_t pc = 0;
  uint32_t max_locals = 0;
  uint64_t step_nanos = 0;
  uint64_t pending = 0;
  uint64_t limit = 0;
  Instr inst;

  QRELOAD();

#if DVM_INTERP_COMPUTED_GOTO
  // Per-call jump table of label addresses (function-local, so no shared
  // mutable state for TSan to worry about). Unlisted byte values fall through
  // to the unhandled-opcode exit.
  const void* jump[256];
  for (int i = 0; i < 256; i++) {
    jump[i] = &&L_unhandled;
  }
#define DVM_FILL(name) jump[static_cast<uint8_t>(Op::name)] = &&L_##name;
  DVM_INTERP_OPS(DVM_FILL)
#undef DVM_FILL

// Accounting order matches the reference engine exactly: budget check, pc
// escape check, then the instruction is counted.
#define QFETCH()                                                              \
  do {                                                                        \
    if (pending >= limit) QHOST("instruction budget exceeded");               \
    if (pc >= code_size) QHOST_IN("pc escaped method body in ");              \
    pending++;                                                                \
    inst = code[pc];                                                          \
    pc++;                                                                     \
    goto* jump[static_cast<uint8_t>(inst.op)];                                \
  } while (0)
#define OP(name) L_##name:
#define QUICK_OP(name) OP(name)
#define NEXT() QFETCH()

  QFETCH();
#else
#define OP(name) case Op::name:
// A quick form's handler, which its first execution also jumps to.
#define QUICK_OP(name) case Op::name: L_##name:
#define NEXT() continue

  for (;;) {
    if (pending >= limit) QHOST("instruction budget exceeded");
    if (pc >= code_size) QHOST_IN("pc escaped method body in ");
    pending++;
    inst = code[pc];
    pc++;
    switch (inst.op) {
#endif

  OP(kNop) {} NEXT();

  OP(kAconstNull) {
    QROOM();
    *sp++ = Value::Null();
  } NEXT();

  OP(kIconst0) {
    QROOM();
    *sp++ = Value::Int(0);
  } NEXT();

  OP(kIconst1) {
    QROOM();
    *sp++ = Value::Int(1);
  } NEXT();

  OP(kBipush) OP(kSipush) {
    QROOM();
    *sp++ = Value::Int(inst.a);
  } NEXT();

  OP(kLdc) {
    QSYNC();  // a string constant is interned, which may allocate and collect
    DVM_ASSIGN_OR_RETURN(f->prepared->cache[pc - 1].const_value,
                         LoadConstant(f->cls->file.pool(), static_cast<uint16_t>(inst.a)));
    QQUICKEN(kLdcQuick);
  }

  QUICK_OP(kLdcQuick) {
    QROOM();
    *sp++ = f->prepared->cache[pc - 1].const_value;
  } NEXT();

  OP(kIload) OP(kLload) OP(kAload) {
    QLOCAL(inst.a);
    QROOM();
    *sp++ = locals[static_cast<size_t>(inst.a)];
  } NEXT();

  OP(kIstore) OP(kLstore) OP(kAstore) {
    QNEED(1);
    QLOCAL(inst.a);
    locals[static_cast<size_t>(inst.a)] = *--sp;
  } NEXT();

  Q_ARRAY_LOAD(kIaload)
  Q_ARRAY_LOAD(kLaload)
  Q_ARRAY_LOAD(kAaload)
  Q_ARRAY_STORE(kIastore)
  Q_ARRAY_STORE(kLastore)
  Q_ARRAY_STORE(kAastore)

  OP(kPop) {
    QNEED(1);
    --sp;
  } NEXT();

  OP(kDup) {
    QNEED(1);
    QROOM();
    *sp = sp[-1];
    sp++;
  } NEXT();

  OP(kDupX1) {
    QNEED(2);
    QROOM();
    Value v1 = sp[-1];
    Value v2 = sp[-2];
    sp[-2] = v1;
    sp[-1] = v2;
    *sp++ = v1;
  } NEXT();

  OP(kSwap) {
    QNEED(2);
    std::swap(sp[-1], sp[-2]);
  } NEXT();

  Q_ALU(kIadd, AsInt, Int, IntAlu)
  Q_ALU(kIsub, AsInt, Int, IntAlu)
  Q_ALU(kImul, AsInt, Int, IntAlu)
  Q_ALU(kIand, AsInt, Int, IntAlu)
  Q_ALU(kIor, AsInt, Int, IntAlu)
  Q_ALU(kIxor, AsInt, Int, IntAlu)
  Q_ALU(kIshl, AsInt, Int, IntAlu)
  Q_ALU(kIshr, AsInt, Int, IntAlu)
  Q_ALU(kIushr, AsInt, Int, IntAlu)
  Q_DIVREM(kIdiv, AsInt, Int, IntDivRem)
  Q_DIVREM(kIrem, AsInt, Int, IntDivRem)
  Q_ALU(kLadd, AsLong, Long, LongAlu)
  Q_ALU(kLsub, AsLong, Long, LongAlu)
  Q_ALU(kLmul, AsLong, Long, LongAlu)
  Q_DIVREM(kLdiv, AsLong, Long, LongDivRem)
  Q_DIVREM(kLrem, AsLong, Long, LongDivRem)

  OP(kIneg) {
    QNEED(1);
    sp[-1] = Value::Int(opsem::IntNeg(sp[-1].AsInt()));
  } NEXT();

  OP(kLneg) {
    QNEED(1);
    sp[-1] = Value::Long(opsem::LongNeg(sp[-1].AsLong()));
  } NEXT();

  OP(kIinc) {
    QLOCAL(inst.a);
    Value& local = locals[static_cast<size_t>(inst.a)];
    local = Value::Int(opsem::IntInc(local.AsInt(), inst.b));
  } NEXT();

  OP(kI2l) {
    QNEED(1);
    sp[-1] = Value::Long(opsem::I2l(sp[-1].AsInt()));
  } NEXT();

  OP(kL2i) {
    QNEED(1);
    sp[-1] = Value::Int(opsem::L2i(sp[-1].AsLong()));
  } NEXT();

  OP(kLcmp) {
    QNEED(2);
    int64_t b = (--sp)->AsLong();
    int64_t a = (--sp)->AsLong();
    *sp++ = Value::Int(opsem::Lcmp(a, b));
  } NEXT();

  Q_IF(kIfeq, IntCond, (--sp)->AsInt())
  Q_IF(kIfne, IntCond, (--sp)->AsInt())
  Q_IF(kIflt, IntCond, (--sp)->AsInt())
  Q_IF(kIfge, IntCond, (--sp)->AsInt())
  Q_IF(kIfgt, IntCond, (--sp)->AsInt())
  Q_IF(kIfle, IntCond, (--sp)->AsInt())
  Q_IF_CMP(kIfIcmpeq, AsInt, IntCmpCond)
  Q_IF_CMP(kIfIcmpne, AsInt, IntCmpCond)
  Q_IF_CMP(kIfIcmplt, AsInt, IntCmpCond)
  Q_IF_CMP(kIfIcmpge, AsInt, IntCmpCond)
  Q_IF_CMP(kIfIcmpgt, AsInt, IntCmpCond)
  Q_IF_CMP(kIfIcmple, AsInt, IntCmpCond)
  Q_IF_CMP(kIfAcmpeq, AsRef, RefCmpCond)
  Q_IF_CMP(kIfAcmpne, AsRef, RefCmpCond)
  Q_IF(kIfnull, NullCond, *--sp)
  Q_IF(kIfnonnull, NullCond, *--sp)

  OP(kGoto) {
    QBRANCH(static_cast<uint32_t>(inst.a));
  } NEXT();

  OP(kIreturn) OP(kLreturn) OP(kAreturn) {
    QNEED(1);
    Value result = *--sp;
    QFLUSH();  // charged at this frame's instruction cost
    frames_.pop_back();
    machine_.call_stack().pop_back();
    if (frames_.empty()) {
      return_value_ = result;
      has_return_value_ = true;
      return Status::Ok();
    }
    ExecFrame& caller = frames_.back();
    if (caller.sp >= caller.stack_limit) {
      return HostFailIn("operand stack overflow in ", caller.method);
    }
    arena_[caller.sp++] = result;
    QRELOAD();
  } NEXT();

  OP(kReturn) {
    QFLUSH();
    frames_.pop_back();
    machine_.call_stack().pop_back();
    if (frames_.empty()) {
      return_value_ = Value::Null();
      has_return_value_ = false;
      return Status::Ok();
    }
    QRELOAD();
  } NEXT();

  OP(kGetstatic) {
    QSYNC();  // resolution may run <clinit>
    QRESOLVE(ResolveFieldSite(*f, pc - 1, /*is_static=*/true));
    QREBUDGET();
    QQUICKEN(kGetstaticQuick);
  }

  QUICK_OP(kGetstaticQuick) {
    const InlineCache& ic = f->prepared->cache[pc - 1];
    QROOM();
    *sp++ = ic.field_owner->statics[ic.field_slot];
  } NEXT();

  OP(kPutstatic) {
    QSYNC();  // resolution may run <clinit>; the value stays rooted on-stack
    QRESOLVE(ResolveFieldSite(*f, pc - 1, /*is_static=*/true));
    QREBUDGET();
    QQUICKEN(kPutstaticQuick);
  }

  QUICK_OP(kPutstaticQuick) {
    const InlineCache& ic = f->prepared->cache[pc - 1];
    QNEED(1);
    ic.field_owner->statics[ic.field_slot] = *--sp;
  } NEXT();

  OP(kGetfield) OP(kPutfield) {
    // As in the reference engine, the receiver is checked before resolution
    // and the operands are popped while it runs.
    const ptrdiff_t depth = inst.op == Op::kPutfield ? 2 : 1;
    QNEED(depth);
    sp -= depth;
    if (sp->IsNullRef()) {
      QTHROW("java/lang/NullPointerException", "field access on null");
    }
    const HeapObject* obj = heap.Get(sp->AsRef());
    if (obj == nullptr || obj->kind != HeapObject::Kind::kInstance) {
      QHOST("field access on non-instance");
    }
    QSYNC();  // resolution may load classes
    QRESOLVE(ResolveFieldSite(*f, pc - 1, /*is_static=*/false));
    sp += depth;
    // The quick forms carry the resolved slot in-line.
    inst.a = f->prepared->code[pc - 1].a =
        static_cast<int32_t>(f->prepared->cache[pc - 1].field_slot);
    if (inst.op == Op::kGetfield) {
      QQUICKEN(kGetfieldQuick);
    }
    QQUICKEN(kPutfieldQuick);
  }

  QUICK_OP(kGetfieldQuick) {
    QNEED(1);
    Value obj_ref = *--sp;
    if (obj_ref.IsNullRef()) {
      QTHROW("java/lang/NullPointerException", "field access on null");
    }
    HeapObject* obj = heap.Get(obj_ref.AsRef());
    if (obj == nullptr || obj->kind != HeapObject::Kind::kInstance) {
      QHOST("field access on non-instance");
    }
    uint32_t slot = static_cast<uint32_t>(inst.a);
    if (slot >= obj->fields.size()) {
      QHOST_IN("field slot out of range in ");
    }
    *sp++ = obj->fields[slot];
  } NEXT();

  QUICK_OP(kPutfieldQuick) {
    QNEED(2);
    Value value = *--sp;
    Value obj_ref = *--sp;
    if (obj_ref.IsNullRef()) {
      QTHROW("java/lang/NullPointerException", "field access on null");
    }
    HeapObject* obj = heap.Get(obj_ref.AsRef());
    if (obj == nullptr || obj->kind != HeapObject::Kind::kInstance) {
      QHOST("field access on non-instance");
    }
    uint32_t slot = static_cast<uint32_t>(inst.a);
    if (slot >= obj->fields.size()) {
      QHOST_IN("field slot out of range in ");
    }
    obj->fields[slot] = value;
  } NEXT();

  OP(kInvokestatic) {
    QSYNC();  // resolution may load classes and run <clinit>
    QRESOLVE(ResolveCallSite(Op::kInvokestatic, pc - 1));
    QREBUDGET();
    QQUICKEN(kInvokestaticQuick);
  }

  OP(kInvokespecial) {
    QSYNC();  // resolution may load classes
    QRESOLVE(ResolveCallSite(Op::kInvokespecial, pc - 1));
    QQUICKEN(kInvokespecialQuick);
  }

  OP(kInvokevirtual) {
    QSYNC();  // resolution may load classes
    QRESOLVE(ResolveCallSite(Op::kInvokevirtual, pc - 1));
    // Resolution counted this execution's miss and bound the target for this
    // receiver; what invokevirtual_quick would do after its hit check is
    // invokespecial_quick's direct call.
    f->prepared->code[pc - 1].op = Op::kInvokevirtualQuick;
    counters.quickened_sites++;
    goto L_kInvokespecialQuick;
  }

  QUICK_OP(kInvokestaticQuick) {
    InlineCache& ic = f->prepared->cache[pc - 1];
    uint32_t argc = static_cast<uint32_t>(ic.arg_count);
    if (sp - floor < static_cast<ptrdiff_t>(argc)) {
      QHOST_IN("operand stack underflow on invoke in ");
    }
    QSYNC();
    DVM_RETURN_IF_ERROR(InvokeResolved(ic, argc));
    QRESUME();
  } NEXT();

  QUICK_OP(kInvokespecialQuick) {
    InlineCache& ic = f->prepared->cache[pc - 1];
    uint32_t argc = static_cast<uint32_t>(ic.arg_count);
    if (sp - floor < static_cast<ptrdiff_t>(argc)) {
      QHOST_IN("operand stack underflow on invoke in ");
    }
    if (sp[-static_cast<ptrdiff_t>(argc)].IsNullRef()) {
      sp -= argc;
      QTHROW("java/lang/NullPointerException", "invoke on null receiver");
    }
    QSYNC();
    DVM_RETURN_IF_ERROR(InvokeResolved(ic, argc));
    QRESUME();
  } NEXT();

  OP(kInvokevirtualQuick) {
    InlineCache& ic = f->prepared->cache[pc - 1];
    uint32_t argc = static_cast<uint32_t>(ic.arg_count);
    if (sp - floor < static_cast<ptrdiff_t>(argc)) {
      QHOST_IN("operand stack underflow on invoke in ");
    }
    Value receiver = sp[-static_cast<ptrdiff_t>(argc)];
    if (receiver.IsNullRef()) {
      sp -= argc;
      QTHROW("java/lang/NullPointerException", "invoke on null receiver");
    }
    const HeapObject* obj = heap.Get(receiver.AsRef());
    if (obj == nullptr) {
      QHOST("dangling receiver reference");
    }
    QSYNC();
    if (obj->class_sym == ic.receiver_sym) {
      // Monomorphic hit: one integer compare, no constant-pool access.
      ic.hits++;
      DVM_RETURN_IF_ERROR(InvokeResolved(ic, argc));
    } else {
      DVM_ASSIGN_OR_RETURN(bool resolved, ResolveCallSite(Op::kInvokevirtual, pc - 1));
      if (resolved) {
        DVM_RETURN_IF_ERROR(InvokeResolved(ic, argc));
      }
    }
    QRESUME();
  } NEXT();

  OP(kNew) {
    QSYNC();  // class load and <clinit> may run here
    DVM_ASSIGN_OR_RETURN(std::string class_name,
                         f->cls->file.pool().ClassNameAt(static_cast<uint16_t>(inst.a)));
    DVM_ASSIGN_OR_RETURN(RuntimeClass * cls, machine_.registry().GetClass(class_name));
    DVM_RETURN_IF_ERROR(EnsureInitialized(cls));
    if (machine_.HasPendingException()) {
      return Status::Ok();
    }
    QREBUDGET();
    f->prepared->cache[pc - 1].klass = cls;
    QQUICKEN(kNewQuick);
  }

  QUICK_OP(kNewQuick) {
    QSYNC();  // allocation may collect
    auto obj = machine_.AllocInstance(f->prepared->cache[pc - 1].klass);
    if (!obj.ok()) {
      return ThrowOutOfMemory(machine_, obj.error());
    }
    QROOM();
    *sp++ = Value::Ref(obj.value());
  } NEXT();

  OP(kNewarray) {
    QNEED(1);
    int32_t length = (--sp)->AsInt();
    if (length < 0) {
      QSYNC();
      return ThrowNegativeArraySize(machine_, length);
    }
    QSYNC();
    auto arr = inst.a == static_cast<int>(ArrayKind::kLong)
                   ? machine_.AllocLongArray(length)
                   : machine_.AllocIntArray(length);
    if (!arr.ok()) {
      return ThrowOutOfMemory(machine_, arr.error());
    }
    *sp++ = Value::Ref(arr.value());
  } NEXT();

  OP(kAnewarray) {
    QSYNC();
    DVM_ASSIGN_OR_RETURN(std::string element,
                         f->cls->file.pool().ClassNameAt(static_cast<uint16_t>(inst.a)));
    f->prepared->cache[pc - 1].array_desc_sym =
        InternSymbol("[" + DescriptorFromClassName(element));
    QQUICKEN(kAnewarrayQuick);
  }

  QUICK_OP(kAnewarrayQuick) {
    QNEED(1);
    int32_t length = (--sp)->AsInt();
    QSYNC();
    if (length < 0) {
      return ThrowNegativeArraySize(machine_, length);
    }
    uint32_t desc_sym = f->prepared->cache[pc - 1].array_desc_sym;
    auto arr = machine_.AllocRefArray(SymbolName(desc_sym), desc_sym, length);
    if (!arr.ok()) {
      return ThrowOutOfMemory(machine_, arr.error());
    }
    *sp++ = Value::Ref(arr.value());
  } NEXT();

  OP(kArraylength) {
    QNEED(1);
    Value arr_ref = *--sp;
    int32_t length = 0;
    opsem::Fault fault = opsem::ArrayLength(heap, arr_ref, &length);
    if (!fault.ok()) {
      QFAULT(fault);
    }
    *sp++ = Value::Int(length);
  } NEXT();

  OP(kAthrow) {
    QNEED(1);
    Value exception = *--sp;
    if (exception.IsNullRef()) {
      QTHROW("java/lang/NullPointerException", "athrow on null");
    }
    counters.exceptions_thrown++;
    QSYNC();
    machine_.SetPendingExceptionObject(exception.AsRef());
    return Status::Ok();
  } NEXT();

  OP(kCheckcast) OP(kInstanceof) {
    QSYNC();
    DVM_ASSIGN_OR_RETURN(std::string target,
                         f->cls->file.pool().ClassNameAt(static_cast<uint16_t>(inst.a)));
    f->prepared->cache[pc - 1].cast_target_sym = InternSymbol(target);
    if (inst.op == Op::kCheckcast) {
      QQUICKEN(kCheckcastQuick);
    }
    QQUICKEN(kInstanceofQuick);
  }

  QUICK_OP(kCheckcastQuick) {
    QNEED(1);
    const InlineCache& ic = f->prepared->cache[pc - 1];
    Value v = sp[-1];
    if (!v.IsNullRef()) {
      const HeapObject* obj = heap.Get(v.AsRef());
      if (obj == nullptr) {
        QHOST("checkcast on dangling reference");
      }
      QFLUSH();  // the subtype test may load classes
      auto is_sub = machine_.registry().IsSubclassSym(obj->class_sym, ic.cast_target_sym);
      if (!is_sub.ok() || !is_sub.value()) {
        --sp;
        QSYNC();
        return ThrowClassCast(machine_, obj, ic.cast_target_sym);
      }
    }
  } NEXT();

  QUICK_OP(kInstanceofQuick) {
    QNEED(1);
    const InlineCache& ic = f->prepared->cache[pc - 1];
    Value v = *--sp;
    if (v.IsNullRef()) {
      *sp++ = Value::Int(0);
    } else {
      const HeapObject* obj = heap.Get(v.AsRef());
      if (obj == nullptr) {
        QHOST("instanceof on dangling reference");
      }
      QFLUSH();  // the subtype test may load classes
      auto is_sub = machine_.registry().IsSubclassSym(obj->class_sym, ic.cast_target_sym);
      *sp++ = Value::Int(is_sub.ok() && is_sub.value() ? 1 : 0);
    }
  } NEXT();

  OP(kMonitorenter) OP(kMonitorexit) {
    QNEED(1);
    Value v = *--sp;
    if (v.IsNullRef()) {
      QTHROW("java/lang/NullPointerException", "monitor on null");
    }
    // Single simulated thread: always uncontended, but acquisition itself
    // is far from free (the point of the sync-elision optimizer).
    machine_.AddNanos(machine_.config().cost.nanos_per_monitor_op);
  } NEXT();

#if DVM_INTERP_COMPUTED_GOTO
L_unhandled:
  QHOST_IN("unhandled opcode in prepared code of ");
#else
    default:
      QHOST_IN("unhandled opcode in prepared code of ");
    }
  }
#endif
}

#undef OP
#undef QUICK_OP
#undef NEXT
#undef QFETCH
#undef QFLUSH
#undef QSYNC
#undef QREBUDGET
#undef QRELOAD
#undef QHOST
#undef QHOST_IN
#undef QTHROW
#undef QFAULT
#undef QNEED
#undef QROOM
#undef QLOCAL
#undef QBRANCH
#undef QRESOLVE
#undef QQUICKEN
#undef QRESUME
#undef Q_ALU
#undef Q_DIVREM
#undef Q_IF
#undef Q_IF_CMP
#undef Q_ARRAY_LOAD
#undef Q_ARRAY_STORE

}  // namespace dvm
