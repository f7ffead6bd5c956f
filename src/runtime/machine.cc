#include "src/runtime/machine.h"

#include "src/runtime/interp.h"
#include "src/runtime/stack_security.h"
#include "src/runtime/syslib.h"
#include "src/verifier/verifier.h"

namespace dvm {

void NativeRegistry::Register(const std::string& class_name, const std::string& method_name,
                              const std::string& descriptor, NativeFn fn) {
  fns_[class_name + "." + method_name + ":" + descriptor] = std::move(fn);
}

const NativeFn* NativeRegistry::Find(const std::string& class_name,
                                     const std::string& method_name,
                                     const std::string& descriptor) const {
  auto it = fns_.find(class_name + "." + method_name + ":" + descriptor);
  return it == fns_.end() ? nullptr : &it->second;
}

int SimFileSystem::Open(const std::string& path) {
  if (!Exists(path)) {
    return -1;
  }
  handles_.push_back(Handle{path, 0});
  return static_cast<int>(handles_.size() - 1);
}

int SimFileSystem::Read(int handle) {
  if (handle < 0 || static_cast<size_t>(handle) >= handles_.size()) {
    return -1;
  }
  Handle& h = handles_[static_cast<size_t>(handle)];
  const std::string* contents = Get(h.path);
  if (contents == nullptr || h.pos >= contents->size()) {
    return -1;
  }
  return static_cast<uint8_t>((*contents)[h.pos++]);
}

const std::string* SimFileSystem::PathOf(int handle) const {
  if (handle < 0 || static_cast<size_t>(handle) >= handles_.size()) {
    return nullptr;
  }
  return &handles_[static_cast<size_t>(handle)].path;
}

Machine::Machine(MachineConfig config, ClassProvider* provider)
    : config_(config), heap_(config.heap_capacity_bytes), registry_(provider) {
  registry_.on_load = [this](RuntimeClass& cls) { return OnClassLoad(cls); };
  if (config_.stack_introspection_security) {
    stack_security_ = std::make_unique<StackIntrospectionSecurity>();
  }
  RegisterSystemNatives(*this);
}

Machine::~Machine() = default;

Status Machine::OnClassLoad(RuntimeClass& cls) {
  counters_.classes_loaded++;
  AddNanos(config_.cost.nanos_per_class_load);

  // System-library classes load through the trusted boot path on real JVMs and
  // skip verification there too; only application code is verified locally.
  if (config_.verify_on_load && !IsSystemClass(cls.name)) {
    // Monolithic client: full phases 1-3 locally, against the classes loaded so
    // far. Residual link assumptions are discharged at first active use.
    auto verified = VerifyClass(cls.file, registry_);
    if (!verified.ok()) {
      return verified.error();
    }
    uint64_t check_cost =
        verified->stats.TotalStaticChecks() * config_.cost.nanos_per_static_verify_check;
    AddNanos(check_cost);
    AddServiceNanos("verify", check_cost);
    if (!verified->assumptions.empty()) {
      pending_link_checks_[cls.name] = std::move(verified->assumptions);
    }
  }
  if (on_class_loaded) {
    on_class_loaded(cls);
  }
  return Status::Ok();
}

std::vector<Assumption>* Machine::PendingLinkChecks(const std::string& class_name) {
  auto it = pending_link_checks_.find(class_name);
  return it == pending_link_checks_.end() ? nullptr : &it->second;
}

void Machine::ClearPendingLinkChecks(const std::string& class_name) {
  pending_link_checks_.erase(class_name);
}

void Machine::AddServiceNanos(const std::string& service, uint64_t n) {
  service_nanos_[service] += n;
}

uint64_t Machine::ServiceNanos(const std::string& service) const {
  auto it = service_nanos_.find(service);
  return it == service_nanos_.end() ? 0 : it->second;
}

Result<ObjRef> Machine::NewString(const std::string& value) {
  if (heap_.NeedsGc(value.size() + 32)) {
    CollectGarbage();
  }
  counters_.allocations++;
  AddNanos(config_.cost.nanos_per_alloc);
  return heap_.AllocString(value);
}

Result<ObjRef> Machine::InternString(const std::string& value) {
  auto it = interned_strings_.find(value);
  if (it != interned_strings_.end()) {
    return it->second;
  }
  DVM_ASSIGN_OR_RETURN(ObjRef ref, NewString(value));
  interned_strings_[value] = ref;
  return ref;
}

Result<std::string> Machine::StringValue(ObjRef ref) const {
  const std::string* str = StringAt(ref);
  if (str == nullptr) {
    return Error{ErrorCode::kRuntimeError, "not a string object"};
  }
  return *str;
}

const std::string* Machine::StringAt(ObjRef ref) const {
  const HeapObject* obj = heap_.Get(ref);
  return obj == nullptr || obj->kind != HeapObject::Kind::kString ? nullptr : &obj->str;
}

Result<ObjRef> Machine::AllocInstance(RuntimeClass* cls) {
  size_t fields = cls->total_instance_fields;
  if (heap_.NeedsGc(fields * 8 + 32)) {
    CollectGarbage();
  }
  counters_.allocations++;
  AddNanos(config_.cost.nanos_per_alloc);
  return heap_.AllocInstance(cls->name, cls->name_sym, cls->field_template);
}

namespace {
// GC-trigger sizing shared by every array path. Kept identical across the
// typed helpers so the collection schedule does not depend on which engine or
// opcode form performed the allocation.
inline size_t ArrayTriggerBytes(int32_t length) {
  return static_cast<size_t>(length < 0 ? 0 : length) * 8 + 32;
}
}  // namespace

Result<ObjRef> Machine::AllocIntArray(int32_t length) {
  if (heap_.NeedsGc(ArrayTriggerBytes(length))) {
    CollectGarbage();
  }
  counters_.allocations++;
  AddNanos(config_.cost.nanos_per_alloc);
  return heap_.AllocIntArray(length);
}

Result<ObjRef> Machine::AllocLongArray(int32_t length) {
  if (heap_.NeedsGc(ArrayTriggerBytes(length))) {
    CollectGarbage();
  }
  counters_.allocations++;
  AddNanos(config_.cost.nanos_per_alloc);
  return heap_.AllocLongArray(length);
}

Result<ObjRef> Machine::AllocRefArray(const std::string& descriptor,
                                      uint32_t descriptor_sym, int32_t length) {
  if (heap_.NeedsGc(ArrayTriggerBytes(length))) {
    CollectGarbage();
  }
  counters_.allocations++;
  AddNanos(config_.cost.nanos_per_alloc);
  return heap_.AllocRefArray(descriptor, length, descriptor_sym);
}

Result<ObjRef> Machine::AllocArray(const std::string& descriptor, int32_t length) {
  if (descriptor == "[I") {
    return AllocIntArray(length);
  }
  if (descriptor == "[J") {
    return AllocLongArray(length);
  }
  return AllocRefArray(descriptor, 0, length);
}

void Machine::CollectGarbage() {
  std::vector<ObjRef> roots;
  // Statics of every loaded class.
  for (const auto& name : registry_.loaded_order()) {
    RuntimeClass* cls = registry_.FindLoaded(name);
    if (cls == nullptr) {
      continue;
    }
    for (const Value& v : cls->statics) {
      if (v.kind == Value::Kind::kRef && !v.IsNullRef()) {
        roots.push_back(v.AsRef());
      }
    }
  }
  if (pending_exception_ != kNullRef) {
    roots.push_back(pending_exception_);
  }
  for (const auto& [text, ref] : interned_strings_) {
    roots.push_back(ref);
  }
  if (frame_root_provider_) {
    frame_root_provider_(&roots);
  }
  heap_.Collect(roots);
  counters_.gc_runs++;
}

void Machine::ThrowGuest(const std::string& exception_class, const std::string& message) {
  counters_.exceptions_thrown++;
  // Materialize the exception object. Failures here (exception class missing)
  // degrade to a plain Throwable-shaped string object so the machine never
  // aborts while reporting a guest error.
  ObjRef message_ref = kNullRef;
  if (auto str = NewString(message); str.ok()) {
    message_ref = str.value();
  }
  auto cls = registry_.GetClass(exception_class);
  if (cls.ok()) {
    if (auto obj = AllocInstance(cls.value()); obj.ok()) {
      // Throwable declares "message" as its first field; subclasses inherit it.
      const RuntimeClass* owner = cls.value()->FindFieldOwner("message");
      if (owner != nullptr) {
        auto slot = owner->own_field_slots.find("message");
        if (slot != owner->own_field_slots.end()) {
          heap_.Get(obj.value())->fields[slot->second] = Value::Ref(message_ref);
        }
      }
      pending_exception_ = obj.value();
      return;
    }
  }
  // Fallback: a bare string masquerading as the exception payload.
  if (auto fallback = heap_.AllocString(exception_class + ": " + message); fallback.ok()) {
    pending_exception_ = fallback.value();
  }
}

ObjRef Machine::TakePendingException() {
  ObjRef out = pending_exception_;
  pending_exception_ = kNullRef;
  return out;
}

Result<CallOutcome> Machine::CallStatic(const std::string& class_name,
                                        const std::string& method_name,
                                        const std::string& descriptor,
                                        std::vector<Value> args) {
  Interpreter interp(*this);
  return interp.RunStatic(class_name, method_name, descriptor, std::move(args));
}

Result<CallOutcome> Machine::RunMain(const std::string& class_name) {
  return CallStatic(class_name, "main", "()V");
}

}  // namespace dvm
