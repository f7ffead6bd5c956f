// Machine: one client virtual machine instance — heap, class registry, native
// method registry, runtime counters and the virtual clock. A Machine can be
// configured as a *monolithic* client (verification runs locally at class-load
// time, stack-introspection security) or as a *DVM* client (no local verifier;
// the injected service preambles call the dynamic components registered as
// natives). All experiment comparisons run both configurations on this same
// implementation, mirroring the paper's methodology.
#ifndef SRC_RUNTIME_MACHINE_H_
#define SRC_RUNTIME_MACHINE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/runtime/class_registry.h"
#include "src/runtime/counters.h"
#include "src/runtime/heap.h"
#include "src/runtime/value.h"
#include "src/support/result.h"
#include "src/verifier/assumptions.h"

namespace dvm {

class Machine;
class StackIntrospectionSecurity;
class ExecutionProfiler;

class NativeRegistry {
 public:
  void Register(const std::string& class_name, const std::string& method_name,
                const std::string& descriptor, NativeFn fn);
  const NativeFn* Find(const std::string& class_name, const std::string& method_name,
                       const std::string& descriptor) const;

 private:
  std::unordered_map<std::string, NativeFn> fns_;
};

// In-simulation file system: path -> contents, plus open-handle bookkeeping.
// The Fig. 9 microbenchmarks (OpenFile / ReadFile) run against this.
class SimFileSystem {
 public:
  void Put(const std::string& path, std::string contents) {
    files_[path] = std::move(contents);
  }
  bool Exists(const std::string& path) const { return files_.count(path) > 0; }
  const std::string* Get(const std::string& path) const {
    auto it = files_.find(path);
    return it == files_.end() ? nullptr : &it->second;
  }

  // Returns a handle id; -1 when the file does not exist.
  int Open(const std::string& path);
  // Returns next byte or -1 at EOF / bad handle.
  int Read(int handle);
  const std::string* PathOf(int handle) const;

 private:
  struct Handle {
    std::string path;
    size_t pos = 0;
  };
  std::map<std::string, std::string> files_;
  std::vector<Handle> handles_;
};

struct MachineConfig {
  // Monolithic-client behaviour: run verifier phases 1-3 when a class loads and
  // discharge its link assumptions at first active use.
  bool verify_on_load = false;
  // JDK 1.2-style stack-introspection access control (Fig. 9 baseline). The
  // DVM security service is independent of this flag; it arrives via rewriting.
  bool stack_introspection_security = false;
  // Quickened, threaded execution engine (default). When false the machine
  // runs the reference switch-per-Step engine with no opcode rewriting — the
  // `--no-quicken` baseline used by bench_interp and the differential tests.
  // Observable behaviour (outcomes, guest output, counters, virtual clock) is
  // identical between the two engines.
  bool quicken = true;
  size_t heap_capacity_bytes = 64 * 1024 * 1024;
  size_t max_frames = 2048;
  uint64_t max_instructions = 2'000'000'000;  // runaway-loop backstop
  CostModel cost;
};

struct CallOutcome {
  Value value = Value::Null();
  bool threw = false;
  std::string exception_class;
  std::string exception_message;
};

// One entry of the guest call stack, exposed for stack introspection.
struct FrameInfo {
  const RuntimeClass* cls = nullptr;
  const MethodInfo* method = nullptr;
};

class Machine {
 public:
  Machine(MachineConfig config, ClassProvider* provider);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // --- execution --------------------------------------------------------------
  // Runs a static method to completion. A guest exception that escapes is
  // reported in the outcome, not as a host error.
  Result<CallOutcome> CallStatic(const std::string& class_name, const std::string& method_name,
                                 const std::string& descriptor,
                                 std::vector<Value> args = {});
  // Convenience: static void main()V of `class_name`.
  Result<CallOutcome> RunMain(const std::string& class_name);

  Result<RuntimeClass*> EnsureLoaded(const std::string& class_name) {
    return registry_.GetClass(class_name);
  }

  // --- components --------------------------------------------------------------
  Heap& heap() { return heap_; }
  ClassRegistry& registry() { return registry_; }
  NativeRegistry& natives() { return natives_; }
  RuntimeCounters& counters() { return counters_; }
  const MachineConfig& config() const { return config_; }

  // --- virtual time ------------------------------------------------------------
  void AddNanos(uint64_t n) { virtual_nanos_ += n; }
  uint64_t virtual_nanos() const { return virtual_nanos_; }
  // Attributed service time (keys: "verify", "security", "audit", "profile").
  void AddServiceNanos(const std::string& service, uint64_t n);
  uint64_t ServiceNanos(const std::string& service) const;
  // The counter AddServiceNanos(service, ...) adds to, created at 0. Its
  // address is stable for the machine's lifetime, so a per-event charge can
  // skip the lookup.
  uint64_t* ServiceNanosSlot(const std::string& service) { return &service_nanos_[service]; }

  // --- guest objects -----------------------------------------------------------
  Result<ObjRef> NewString(const std::string& value);
  // Shared constant-pool strings (ldc). Interned objects are GC roots.
  Result<ObjRef> InternString(const std::string& value);
  // Fails unless `ref` is a string object.
  Result<std::string> StringValue(ObjRef ref) const;
  // The same payload read in place: nullptr unless `ref` is a string object.
  // Valid until the next allocation (which may collect).
  const std::string* StringAt(ObjRef ref) const;
  // Allocation helpers that trigger GC against the current roots when needed.
  Result<ObjRef> AllocInstance(RuntimeClass* cls);
  Result<ObjRef> AllocArray(const std::string& descriptor, int32_t length);
  // String-free primitive-array paths (newarray executes no constant-pool
  // resolution, so it should not build a descriptor string per allocation).
  Result<ObjRef> AllocIntArray(int32_t length);
  Result<ObjRef> AllocLongArray(int32_t length);
  // Ref-array path with a precomposed descriptor symbol (anewarray_quick).
  Result<ObjRef> AllocRefArray(const std::string& descriptor, uint32_t descriptor_sym,
                               int32_t length);

  // --- guest exceptions ---------------------------------------------------------
  // Signals a pending guest exception from native code or the interpreter.
  void ThrowGuest(const std::string& exception_class, const std::string& message);
  bool HasPendingException() const { return pending_exception_ != kNullRef; }
  ObjRef TakePendingException();
  void SetPendingExceptionObject(ObjRef exception) { pending_exception_ = exception; }

  // --- introspection & roots ------------------------------------------------------
  // Guest call stack, innermost last. Maintained by the interpreter.
  std::vector<FrameInfo>& call_stack() { return call_stack_; }
  const std::vector<FrameInfo>& call_stack() const { return call_stack_; }
  // Interpreter registers a provider for frame-held references during GC.
  void SetFrameRootProvider(std::function<void(std::vector<ObjRef>*)> provider) {
    frame_root_provider_ = std::move(provider);
  }
  const std::function<void(std::vector<ObjRef>*)>& frame_root_provider() const {
    return frame_root_provider_;
  }
  void CollectGarbage();

  // --- simulated OS resources -----------------------------------------------------
  std::map<std::string, std::string>& properties() { return properties_; }
  SimFileSystem& files() { return files_; }
  std::vector<std::string>& printed() { return printed_; }
  int thread_priority() const { return thread_priority_; }
  void set_thread_priority(int priority) { thread_priority_ = priority; }

  // Present (non-null) when config.stack_introspection_security is set; grants
  // are configured by the experiment harness.
  StackIntrospectionSecurity* stack_security() { return stack_security_.get(); }

  // Optional virtual-clock sampling profiler (not owned). Null = sampling off;
  // the always-on method/site counters are unaffected by this hook.
  void SetProfiler(ExecutionProfiler* profiler) { profiler_ = profiler; }
  ExecutionProfiler* profiler() const { return profiler_; }

  // Invoked after each class finishes loading and linking. Clients use it to
  // assign security domains from the organizational policy.
  std::function<void(RuntimeClass&)> on_class_loaded;

  // Classes loaded through this machine, with per-class verify assumptions kept
  // for first-use link checking (monolithic mode).
  std::vector<Assumption>* PendingLinkChecks(const std::string& class_name);
  void ClearPendingLinkChecks(const std::string& class_name);

 private:
  Status OnClassLoad(RuntimeClass& cls);

  MachineConfig config_;
  Heap heap_;
  ClassRegistry registry_;
  NativeRegistry natives_;
  RuntimeCounters counters_;
  uint64_t virtual_nanos_ = 0;
  std::map<std::string, uint64_t> service_nanos_;

  ObjRef pending_exception_ = kNullRef;
  std::vector<FrameInfo> call_stack_;
  std::function<void(std::vector<ObjRef>*)> frame_root_provider_;

  std::map<std::string, std::string> properties_;
  SimFileSystem files_;
  std::vector<std::string> printed_;
  int thread_priority_ = 5;

  std::map<std::string, std::vector<Assumption>> pending_link_checks_;
  std::map<std::string, ObjRef> interned_strings_;
  std::unique_ptr<StackIntrospectionSecurity> stack_security_;
  ExecutionProfiler* profiler_ = nullptr;
};

// Installs the java/* native implementations (System, String, Thread, File,
// StringBuilder-lite) into a machine. Called by Machine's constructor.
void RegisterSystemNatives(Machine& machine);

}  // namespace dvm

#endif  // SRC_RUNTIME_MACHINE_H_
