// Loaded-class registry: fetches class bytes through a ClassProvider (the
// network in a real deployment, the simulated network in experiments), parses
// them, links superclass chains, and computes field layouts. Loading is lazy —
// a class is fetched the first time something references it, which is what
// makes the paper's deferred link checks (and its repartitioning optimizer)
// profitable.
#ifndef SRC_RUNTIME_CLASS_REGISTRY_H_
#define SRC_RUNTIME_CLASS_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/bytecode/classfile.h"
#include "src/bytecode/code.h"
#include "src/runtime/value.h"
#include "src/support/result.h"
#include "src/verifier/class_env.h"

namespace dvm {

// Source of class bytes. Implementations: in-memory maps (tests, local apps)
// and the simulated network client (charges transfer time per fetch).
class ClassProvider {
 public:
  virtual ~ClassProvider() = default;
  virtual Result<Bytes> FetchClass(const std::string& class_name) = 0;
};

class MapClassProvider : public ClassProvider {
 public:
  void Add(const std::string& class_name, Bytes data) {
    classes_[class_name] = std::move(data);
  }
  void AddClassFile(const ClassFile& cls);
  Result<Bytes> FetchClass(const std::string& class_name) override;
  bool Has(const std::string& class_name) const { return classes_.count(class_name) > 0; }

 private:
  std::map<std::string, Bytes> classes_;
};

class Machine;
struct PreparedMethod;
struct RuntimeClass;

// Native method implementation. `args` includes the receiver at index 0 for
// instance methods. May signal a guest exception via Machine::ThrowGuest and
// return any value (it is discarded); host-level errors abort the run.
using NativeFn = std::function<Result<Value>(Machine&, std::vector<Value>&)>;

// Per-instruction resolution cache ("quickening"): after the first execution
// of a field access or invoke, the resolved owner/slot/target is remembered so
// later executions skip constant-pool string resolution. Sound because loaded
// classes are immutable and initialization is monotonic. invokevirtual uses a
// monomorphic last-receiver cache with a slow-path fallback. Names are held
// as interned symbols; cold paths spell them with SymbolName.
struct InlineCache {
  // Field accesses.
  RuntimeClass* field_owner = nullptr;
  // Invokes: the resolved target, plus what calling it needs, memoized on
  // the first call through the site (the callee's prepared body, or its
  // native binding). Retarget() clears both memos.
  RuntimeClass* invoke_owner = nullptr;
  const MethodInfo* invoke_method = nullptr;
  PreparedMethod* invoke_prepared = nullptr;
  const NativeFn* invoke_native = nullptr;
  // Quick-form payloads, installed when the interpreter rewrites the site
  // (the 32-bit members are grouped to keep the struct small):
  Value const_value = Value::Null();  // ldc_quick: pre-materialized constant
  RuntimeClass* klass = nullptr;      // new_quick: resolved, initialized class
  uint32_t field_slot = 0;       // field accesses: slot within field_owner
  uint32_t receiver_sym = 0;     // invokevirtual: cached dynamic receiver type
  uint32_t array_desc_sym = 0;   // anewarray_quick: precomposed array descriptor
  uint32_t cast_target_sym = 0;  // checkcast/instanceof_quick: target class
  int32_t arg_count = -1;        // incl. receiver for instance methods; -1 = unresolved
  bool has_result = false;
  // Per-site profile, always compiled in (a counter bump on paths that were
  // already dispatching): monomorphic hits, slow-path misses, and receiver
  // transitions. transitions >= the megamorphic threshold marks a site the
  // method profile reports as megamorphic.
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t transitions = 0;

  // Points the site at a newly resolved target.
  void Retarget(RuntimeClass* owner, const MethodInfo* method) {
    if (method != invoke_method) {
      invoke_prepared = nullptr;
      invoke_native = nullptr;
    }
    invoke_owner = owner;
    invoke_method = method;
  }
};

// Interpreter-ready method body: decoded instructions and handler table
// converted to instruction indices. Built lazily, cached per method.
struct PreparedMethod {
  const MethodInfo* method = nullptr;
  std::vector<Instr> code;
  // Lazily sized to code.size() on first execution; indexed by instruction.
  std::vector<InlineCache> cache;
  // True when the class carries a CompiledStamp (translated ahead of time by
  // the network compiler); such code runs at the compiled-instruction cost.
  bool compiled = false;
  struct Handler {
    uint32_t start_ix = 0;   // [start_ix, end_ix) instruction range
    uint32_t end_ix = 0;
    uint32_t handler_ix = 0;
    std::string catch_class;  // "" = catch all
  };
  std::vector<Handler> handlers;
  // Method-hotness profile, always compiled in and identical across engines:
  // entry count plus taken backward branches (loop trip evidence). The
  // method profile (src/runtime/profile.h) exports both.
  uint64_t invocations = 0;
  uint64_t backedges = 0;
  // Exception-dispatch memo: (fault instruction, exception class symbol) ->
  // handler-table entry index, -1 = no handler in this method. Populated only
  // from walks where every subclass query resolved cleanly, so entries can
  // never change (class hierarchy of a registry is append-only).
  std::unordered_map<uint64_t, int32_t> handler_memo;
};

enum class InitState : uint8_t { kUninitialized, kInitializing, kInitialized };

struct RuntimeClass {
  std::string name;
  uint32_t name_sym = 0;  // interned `name`; doubles as the class id for
                          // monomorphic inline-cache compares
  ClassFile file;
  RuntimeClass* super = nullptr;

  // Instance field layout: slots [0, total_instance_fields) with inherited
  // fields first. own_field_slots maps names declared *by this class*.
  uint32_t field_layout_start = 0;
  uint32_t total_instance_fields = 0;
  std::unordered_map<std::string, uint32_t> own_field_slots;
  std::vector<std::string> own_field_descs;  // parallel to declaration order
  // Pre-parsed types and typed default values for every instance slot
  // (inherited + own), built at link time so allocation never touches
  // descriptor strings.
  std::vector<FieldKind> field_kinds;
  std::vector<Value> field_template;

  // Statics, declared by this class only.
  std::unordered_map<std::string, uint32_t> static_slots;
  std::vector<Value> statics;

  InitState init_state = InitState::kUninitialized;

  // Per-method prepared code cache, keyed by "name:descriptor".
  std::unordered_map<std::string, std::unique_ptr<PreparedMethod>> prepared;

  // Security identifier assigned by policy (used by both the DTOS-style DVM
  // service and the stack-introspection baseline). Empty = unprivileged.
  std::string security_domain;

  // Flattened virtual-method table keyed by packed (name_sym, descriptor_sym):
  // the superclass table copied at link time with own declarations overlaid,
  // so a lookup is one hash probe with integer keys instead of a superclass
  // walk doing string compares per class. Sound because loaded classes are
  // immutable.
  struct MethodEntry {
    RuntimeClass* owner = nullptr;
    const MethodInfo* method = nullptr;
  };
  std::unordered_map<uint64_t, MethodEntry> method_table;

  // Walks this chain for a field declared with `name`; nullptr if absent.
  const RuntimeClass* FindFieldOwner(const std::string& field_name) const;
  // Resolves a method against the flattened table; nullptr if absent.
  const RuntimeClass* FindMethodOwner(const std::string& method_name,
                                      const std::string& descriptor) const;
  const MethodEntry* FindMethodEntry(uint32_t method_sym, uint32_t desc_sym) const;
};

class ClassRegistry : public ClassEnv {
 public:
  explicit ClassRegistry(ClassProvider* provider) : provider_(provider) {}

  // Loads (if needed) and links the class and its superclass chain. Does not
  // run <clinit> — initialization is triggered by the interpreter on first
  // active use.
  Result<RuntimeClass*> GetClass(const std::string& class_name);

  // Already-loaded lookup; never triggers a fetch.
  RuntimeClass* FindLoaded(const std::string& class_name);

  // ClassEnv over loaded classes (used by phase-4 checks and checkcast).
  const ClassFile* Lookup(const std::string& class_name) const override;

  // Invoked after parse/link of each newly loaded class, before it becomes
  // visible. The machine installs load-time verification here (monolithic
  // configuration) and accounting. Returning an error aborts the load.
  std::function<Status(RuntimeClass&)> on_load;

  // Environment queries that force loading (used by instanceof/checkcast and
  // the dynamic link checker, which may fault in classes).
  Result<bool> IsSubclass(const std::string& sub, const std::string& super);
  // Memoized front door keyed by interned symbols (the quickened checkcast /
  // instanceof path). Results computed without any load failure are cached;
  // the class hierarchy of a registry is append-only, so a clean answer can
  // never change.
  Result<bool> IsSubclassSym(uint32_t sub_sym, uint32_t super_sym);

  uint64_t loaded_count() const { return loaded_order_.size(); }
  const std::vector<std::string>& loaded_order() const { return loaded_order_; }

 private:
  // `clean` is cleared when any lookup along the walk failed (e.g. an
  // unloadable interface), in which case the answer may legitimately change
  // if the provider later gains the class — such results are not memoized.
  Result<bool> IsSubclassUncached(const std::string& sub, const std::string& super,
                                  bool* clean);

  ClassProvider* provider_;
  std::map<std::string, std::unique_ptr<RuntimeClass>> classes_;
  std::set<std::string> loading_;  // cycle detection
  std::vector<std::string> loaded_order_;
  std::unordered_map<uint64_t, bool> subclass_memo_;
};

}  // namespace dvm

#endif  // SRC_RUNTIME_CLASS_REGISTRY_H_
