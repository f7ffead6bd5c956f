// The bytecode interpreter: an explicit-frame stack machine over prepared
// (decoded) method bodies. Guest exceptions unwind through the exception
// tables; class initialization (<clinit>) and monolithic first-use link checks
// run at first active use of a class.
//
// Two engines share one frame/unwind substrate:
//  - the quickened engine (MachineConfig::quicken, default): lazily rewrites
//    resolved sites to runtime-internal quick opcodes, dispatches via
//    computed-goto threading (DVM_THREADED_DISPATCH; portable switch fallback
//    otherwise), and passes call arguments by slicing the caller's operand
//    stack into the callee's locals inside one contiguous value arena;
//  - the reference engine: the original switch-per-Step interpreter with
//    per-invoke argument vectors and no opcode rewriting, kept as the
//    `--no-quicken` baseline and differential-testing oracle.
// Observable behaviour (outcomes, guest output, counters, the virtual clock)
// is identical between the two.
#ifndef SRC_RUNTIME_INTERP_H_
#define SRC_RUNTIME_INTERP_H_

#include <string>
#include <vector>

#include "src/runtime/machine.h"

namespace dvm {

namespace opsem {
struct Fault;
}  // namespace opsem

// "threaded" when compiled with computed-goto dispatch, "switch" otherwise.
const char* InterpreterDispatchMode();

class Interpreter {
 public:
  explicit Interpreter(Machine& machine);
  ~Interpreter();

  Interpreter(const Interpreter&) = delete;
  Interpreter& operator=(const Interpreter&) = delete;

  // Resolves and runs a static method to completion.
  Result<CallOutcome> RunStatic(const std::string& class_name, const std::string& method_name,
                                const std::string& descriptor, std::vector<Value> args);

  // Runs an already-resolved method (used for <clinit> and service callbacks).
  Result<CallOutcome> RunMethod(RuntimeClass* cls, const MethodInfo* method,
                                std::vector<Value> args);

 private:
  // Frames index into arena_ instead of owning vectors: a frame's slots are
  // [locals_base, stack_base) for locals and [stack_base, stack_limit) for the
  // operand stack, with sp the next free stack slot. A callee pushed by the
  // quickened engine overlaps the caller's popped argument slots (its
  // locals_base is the caller's sp after the args), so invocation copies
  // nothing and allocates nothing.
  struct ExecFrame {
    RuntimeClass* cls = nullptr;
    const MethodInfo* method = nullptr;
    PreparedMethod* prepared = nullptr;
    uint32_t locals_base = 0;
    uint32_t stack_base = 0;
    uint32_t stack_limit = 0;
    uint32_t sp = 0;
    uint32_t pc = 0;  // instruction index
  };

  Result<PreparedMethod*> Prepare(RuntimeClass* cls, const MethodInfo* method);
  // External entry: allocates a fresh frame at the arena top and copies args.
  Status PushFrame(RuntimeClass* cls, const MethodInfo* method,
                   const std::vector<Value>& args);
  // Quickened call path: the top `argc` caller stack slots become the callee's
  // first locals in place.
  Status PushFrameSliced(RuntimeClass* cls, const MethodInfo* method, uint32_t argc);
  void EnsureArena(size_t slots);
  Result<CallOutcome> Loop();

  // Ensures <clinit> has run (first active use). Guest failures surface as a
  // pending exception; the return value is a host-level status.
  Status EnsureInitialized(RuntimeClass* cls);

  // Raises an opsem fault for both engines: a guest exception is left
  // pending for Loop to dispatch, a host fault is the returned error. Kept
  // out of line so the engines' hot loops carry only the call.
  Status Raise(const opsem::Fault& fault);

  // Reference engine: executes one instruction of the top frame. Guest
  // exceptions are signalled through machine_.ThrowGuest; host errors abort.
  Status Step();
  // Quickened engine: runs until a guest exception is pending, the frame
  // stack empties, or a host error occurs.
  Status RunQuick();

  // Unwinds the pending guest exception to the nearest matching handler;
  // returns false when no handler exists and the frame stack is empty.
  Result<bool> DispatchPendingException();

  // Resolves a field site into its inline cache (shared by both engines).
  // Returns false when a guest exception is now pending.
  Result<bool> ResolveFieldSite(ExecFrame& f, uint32_t site_ix, bool is_static);

  // Reference-engine invocation helper shared by the three invoke opcodes.
  // `ic` is the quickening cache slot of the invoke instruction.
  Status Invoke(Op op, uint16_t cp_index, InlineCache& ic);
  // Quickened-engine slow path: resolves the site at `site_ix` of the top
  // frame, installs the quick form, and performs the call. Expects the top
  // frame's sp/pc to be synced.
  Status QuickInvokeSlow(Op op, uint32_t site_ix);
  // Transfers control to an already-resolved target: abstract check, native
  // trampoline, or sliced frame push. Args are the top `argc` caller slots.
  Status InvokeResolved(RuntimeClass* owner, const MethodInfo* method, uint32_t argc);
  Status CallNative(RuntimeClass* owner, const MethodInfo* method, std::vector<Value> args);

  void CollectFrameRoots(std::vector<ObjRef>* roots) const;

  // Profiler polls, shared by both engines so samples land at identical
  // virtual times: at method entry (after the invoke cost is charged) and at
  // taken backward branches. No-ops when no profiler is attached.
  void ProfileMethodEntry();
  void ProfileBackedge(PreparedMethod* prepared);

  Machine& machine_;
  std::vector<ExecFrame> frames_;
  // One contiguous backing store for every frame's locals and operand stack.
  std::vector<Value> arena_;
  Value return_value_ = Value::Null();
  bool has_return_value_ = false;
  // Values held outside the arena (native-call arguments, external entry args
  // during <clinit>) that must stay visible to the collector.
  const std::vector<Value>* rooted_values_ = nullptr;
  std::function<void(std::vector<ObjRef>*)> previous_root_provider_;
};

}  // namespace dvm

#endif  // SRC_RUNTIME_INTERP_H_
