// Pure value semantics of the JVM opcodes, defined once for the two
// execution engines: the reference Step and the quickened RunQuick
// (DESIGN.md §11). Every function here computes a result or reports a Fault
// and touches nothing else. Frames, operand-stack guards, resolution,
// unwinding and inline caches stay in the engines, and each engine raises a
// Fault at its own sync point (Step directly, RunQuick through QFAULT).
//
// The engine differential cannot see a bug that both engines share, so
// tests/opsem_test.cc is the oracle for this file: it checks every operation
// against literal JVM-spec results.
#ifndef SRC_RUNTIME_OPSEM_H_
#define SRC_RUNTIME_OPSEM_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/bytecode/opcodes.h"
#include "src/runtime/heap.h"
#include "src/runtime/value.h"

namespace dvm::opsem {

// Why an operation produced no result. A guest fault is raised as an
// exception of `exception_class`; a host fault is a host error (the guest
// broke an invariant the verifier would have caught). The message is
// `message`, or the decimal `index` for an out-of-bounds array access.
struct Fault {
  enum class Kind : uint8_t { kNone, kGuest, kHost };

  Kind kind = Kind::kNone;
  const char* exception_class = nullptr;
  const char* message = nullptr;
  int32_t index = 0;

  bool ok() const { return kind == Kind::kNone; }
  bool host() const { return kind == Kind::kHost; }
  std::string Message() const { return message != nullptr ? message : std::to_string(index); }
};

inline constexpr const char* kNullPointer = "java/lang/NullPointerException";
inline constexpr const char* kArithmetic = "java/lang/ArithmeticException";
inline constexpr const char* kIndexOutOfBounds = "java/lang/ArrayIndexOutOfBoundsException";

inline constexpr Fault kDivideByZero{Fault::Kind::kGuest, kArithmetic, "/ by zero"};

// --- int and long arithmetic -----------------------------------------------
// Arithmetic runs on the unsigned type, so overflow wraps (JVM semantics)
// instead of being undefined; shift counts use their low five bits.

// iadd isub imul iand ior ixor ishl ishr iushr.
inline int32_t IntAlu(Op op, int32_t a, int32_t b) {
  uint32_t ua = static_cast<uint32_t>(a);
  uint32_t ub = static_cast<uint32_t>(b);
  switch (op) {
    case Op::kIadd:
      return static_cast<int32_t>(ua + ub);
    case Op::kIsub:
      return static_cast<int32_t>(ua - ub);
    case Op::kImul:
      return static_cast<int32_t>(ua * ub);
    case Op::kIand:
      return a & b;
    case Op::kIor:
      return a | b;
    case Op::kIxor:
      return a ^ b;
    case Op::kIshl:
      return static_cast<int32_t>(ua << (b & 31));
    case Op::kIshr:
      return a >> (b & 31);
    case Op::kIushr:
      return static_cast<int32_t>(ua >> (b & 31));
    default:
      return 0;
  }
}

// ladd lsub lmul.
inline int64_t LongAlu(Op op, int64_t a, int64_t b) {
  uint64_t ua = static_cast<uint64_t>(a);
  uint64_t ub = static_cast<uint64_t>(b);
  uint64_t r = op == Op::kLadd ? ua + ub : op == Op::kLsub ? ua - ub : ua * ub;
  return static_cast<int64_t>(r);
}

inline int32_t IntNeg(int32_t a) { return static_cast<int32_t>(-static_cast<uint32_t>(a)); }
inline int64_t LongNeg(int64_t a) { return static_cast<int64_t>(-static_cast<uint64_t>(a)); }

// iinc: the increment wraps like iadd.
inline int32_t IntInc(int32_t v, int32_t delta) {
  return static_cast<int32_t>(static_cast<uint32_t>(v) + static_cast<uint32_t>(delta));
}

inline int64_t I2l(int32_t v) { return v; }
inline int32_t L2i(int64_t v) { return static_cast<int32_t>(v); }  // keeps the low 32 bits

inline int32_t Lcmp(int64_t a, int64_t b) { return a < b ? -1 : a > b ? 1 : 0; }

// idiv irem. MIN / -1 overflows (a hardware trap on x86); the JVM defines the
// quotient as MIN and the remainder as 0.
inline Fault IntDivRem(Op op, int32_t a, int32_t b, int32_t* out) {
  if (b == 0) {
    return kDivideByZero;
  }
  if (a == INT32_MIN && b == -1) {
    *out = op == Op::kIdiv ? INT32_MIN : 0;
  } else {
    *out = op == Op::kIdiv ? a / b : a % b;
  }
  return {};
}

// ldiv lrem, with the same MIN / -1 rule as IntDivRem.
inline Fault LongDivRem(Op op, int64_t a, int64_t b, int64_t* out) {
  if (b == 0) {
    return kDivideByZero;
  }
  if (a == INT64_MIN && b == -1) {
    *out = op == Op::kLdiv ? INT64_MIN : 0;
  } else {
    *out = op == Op::kLdiv ? a / b : a % b;
  }
  return {};
}

// --- branch conditions -----------------------------------------------------

// ifeq ifne iflt ifge ifgt ifle.
inline bool IntCond(Op op, int32_t v) {
  switch (op) {
    case Op::kIfeq:
      return v == 0;
    case Op::kIfne:
      return v != 0;
    case Op::kIflt:
      return v < 0;
    case Op::kIfge:
      return v >= 0;
    case Op::kIfgt:
      return v > 0;
    case Op::kIfle:
      return v <= 0;
    default:
      return false;
  }
}

// if_icmpeq if_icmpne if_icmplt if_icmpge if_icmpgt if_icmple.
inline bool IntCmpCond(Op op, int32_t a, int32_t b) {
  switch (op) {
    case Op::kIfIcmpeq:
      return a == b;
    case Op::kIfIcmpne:
      return a != b;
    case Op::kIfIcmplt:
      return a < b;
    case Op::kIfIcmpge:
      return a >= b;
    case Op::kIfIcmpgt:
      return a > b;
    case Op::kIfIcmple:
      return a <= b;
    default:
      return false;
  }
}

// if_acmpeq if_acmpne.
inline bool RefCmpCond(Op op, ObjRef a, ObjRef b) { return op == Op::kIfAcmpeq ? a == b : a != b; }

// ifnull ifnonnull.
inline bool NullCond(Op op, const Value& v) { return (op == Op::kIfnull) == v.IsNullRef(); }

// --- arrays ----------------------------------------------------------------
// Checks run in one order for every engine: null reference (guest NPE),
// dangling handle, element kind that does not match the opcode (both host
// errors: unverified code only), then bounds (guest AIOOBE).

namespace internal {

inline HeapObject::Kind ElementKind(Op op) {
  switch (op) {
    case Op::kIaload:
    case Op::kIastore:
      return HeapObject::Kind::kIntArray;
    case Op::kLaload:
    case Op::kLastore:
      return HeapObject::Kind::kLongArray;
    default:
      return HeapObject::Kind::kRefArray;
  }
}

inline Fault Element(Heap& heap, Op op, const Value& array_ref, int32_t index,
                     const char* null_message, HeapObject** out) {
  if (array_ref.IsNullRef()) {
    return {Fault::Kind::kGuest, kNullPointer, null_message};
  }
  HeapObject* array = heap.Get(array_ref.AsRef());
  if (array == nullptr) {
    return {Fault::Kind::kHost, nullptr, "dangling array reference"};
  }
  if (array->kind != ElementKind(op)) {
    return {Fault::Kind::kHost, nullptr, "array element kind mismatch"};
  }
  if (index < 0 || index >= array->ArrayLength()) {
    return {Fault::Kind::kGuest, kIndexOutOfBounds, nullptr, index};
  }
  *out = array;
  return {};
}

}  // namespace internal

// iaload laload aaload.
inline Fault ArrayLoad(Heap& heap, Op op, const Value& array_ref, int32_t index, Value* out) {
  HeapObject* array = nullptr;
  Fault fault = internal::Element(heap, op, array_ref, index, "array load on null", &array);
  if (!fault.ok()) {
    return fault;
  }
  size_t i = static_cast<size_t>(index);
  if (op == Op::kIaload) {
    *out = Value::Int(array->ints[i]);
  } else if (op == Op::kLaload) {
    *out = Value::Long(array->longs[i]);
  } else {
    *out = Value::Ref(array->refs[i]);
  }
  return {};
}

// iastore lastore aastore.
inline Fault ArrayStore(Heap& heap, Op op, const Value& array_ref, int32_t index,
                        const Value& value) {
  HeapObject* array = nullptr;
  Fault fault = internal::Element(heap, op, array_ref, index, "array store on null", &array);
  if (!fault.ok()) {
    return fault;
  }
  size_t i = static_cast<size_t>(index);
  if (op == Op::kIastore) {
    array->ints[i] = value.AsInt();
  } else if (op == Op::kLastore) {
    array->longs[i] = value.AsLong();
  } else {
    array->refs[i] = value.AsRef();
  }
  return {};
}

// arraylength.
inline Fault ArrayLength(Heap& heap, const Value& array_ref, int32_t* out) {
  if (array_ref.IsNullRef()) {
    return {Fault::Kind::kGuest, kNullPointer, "arraylength on null"};
  }
  const HeapObject* array = heap.Get(array_ref.AsRef());
  if (array == nullptr || array->ArrayLength() < 0) {
    return {Fault::Kind::kHost, nullptr, "arraylength on non-array"};
  }
  *out = array->ArrayLength();
  return {};
}

}  // namespace dvm::opsem

#endif  // SRC_RUNTIME_OPSEM_H_
