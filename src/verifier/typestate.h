// Verification type lattice and abstract frames for the phase-3 dataflow pass.
//
//            Top (unusable / conflict)
//           /  |   \___________
//        Int  Long  Ref(C) ... Ref(Object)
//                     |
//                    Null        (bottom of the reference sub-lattice)
//
// Uninit(C, site) values are produced by `new` and become Ref(C) when the
// matching <init> runs; they merge only with themselves.
#ifndef SRC_VERIFIER_TYPESTATE_H_
#define SRC_VERIFIER_TYPESTATE_H_

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "src/verifier/class_env.h"

namespace dvm {

// One slot of abstract state. Class names and array descriptors are ids into
// the TypeEnv of the verification call that made the value, so a VType is
// eight bytes, trivially copyable, and equality is an integer compare. A
// VType means nothing outside its call; certificates spell names out
// (certificate.h).
struct VType {
  enum class Kind : uint8_t {
    kTop,     // unknown / conflicting — cannot be used
    kInt,
    kLong,
    kNull,    // null constant, assignable to any reference type
    kRef,     // reference; `name` is a class name ("foo/Bar") or array descriptor ("[I")
    kUninit,  // allocated but unconstructed; `name` is the class, `site` the new-index
  };

  Kind kind = Kind::kTop;
  // kUninit only: instruction index of the `new`. 24 bits cover every index
  // of a code body, which is at most kMaxCodeLen (1 MiB) bytes long.
  uint32_t site : 24 = 0;
  // kRef / kUninit only: TypeEnv name id.
  uint32_t name = 0;

  static constexpr uint32_t kMaxSite = (1u << 24) - 1;

  static constexpr VType Top() { return {}; }
  static constexpr VType Int() { return {Kind::kInt, 0, 0}; }
  static constexpr VType Long() { return {Kind::kLong, 0, 0}; }
  static constexpr VType Null() { return {Kind::kNull, 0, 0}; }
  static constexpr VType Ref(uint32_t name_id) { return {Kind::kRef, 0, name_id}; }
  static constexpr VType Uninit(uint32_t name_id, uint32_t new_site) {
    return {Kind::kUninit, new_site, name_id};
  }

  bool IsRefLike() const { return kind == Kind::kRef || kind == Kind::kNull; }
  bool operator==(const VType& other) const = default;
};

static_assert(sizeof(VType) == 8 && std::is_trivially_copyable_v<VType>);

// Result of an assignability query against a partial environment.
enum class Assignability {
  kYes,      // provable in the environment
  kNo,       // provably wrong — verification error
  kUnknown,  // involves a class the environment has not seen — record assumption
};

// Abstract machine state at one instruction.
struct Frame {
  std::vector<VType> locals;
  std::vector<VType> stack;

  bool operator==(const Frame& other) const = default;
};

// The lattice as one verification call sees it: the ClassEnv it consults,
// the table naming every class its VTypes mention, and memoized hierarchy
// queries. Each VerifyClass / ValidateCertificate call owns one and drops it
// on return, so the names an origin or a certificate sender chooses live
// exactly as long as the call. (The process-wide symbol interner never frees;
// feeding it wire-supplied names would grow a long-running proxy or replica
// without bound.) Ids are handed out in first-use order, which depends on
// visit order, so anything order-sensitive compares names, never ids.
class TypeEnv {
 public:
  explicit TypeEnv(const ClassEnv& classes);
  explicit TypeEnv(const ClassEnv&& classes) = delete;  // must outlive the TypeEnv
  TypeEnv(const TypeEnv&) = delete;
  TypeEnv& operator=(const TypeEnv&) = delete;

  const ClassEnv& classes() const { return classes_; }

  // Id of a class name or array descriptor, assigned on first use.
  uint32_t Intern(std::string_view name);
  const std::string& Name(uint32_t id) const { return names_[id]; }

  VType Ref(std::string_view name) { return VType::Ref(Intern(name)); }
  // VType for a field/param descriptor ("I", "J", "Lfoo/Bar;", "[I").
  VType FromDescriptor(const std::string& desc);
  bool IsArray(const VType& t) const {
    return t.kind == VType::Kind::kRef && IsArrayName(t.name);
  }

  std::string ToString(const VType& t) const;
  std::string ToString(const Frame& frame) const;

 private:
  friend Assignability IsAssignable(const VType& src, uint32_t dst, TypeEnv& types);
  friend VType MergeTypes(const VType& a, const VType& b, TypeEnv& types);

  // Superclass chain of a class within the environment, the class first,
  // stopping at java/lang/Object, a cycle, or the first unknown class.
  struct Chain {
    std::vector<uint32_t> ids;
    bool hit_unknown = false;  // the walk ended at the environment's edge
  };
  const Chain& ChainOf(uint32_t id);

  bool IsArrayName(uint32_t id) const { return Name(id).starts_with('['); }
  static uint64_t PairKey(uint32_t a, uint32_t b) { return (uint64_t{a} << 32) | b; }

  const ClassEnv& classes_;
  std::deque<std::string> names_;
  std::unordered_map<std::string_view, uint32_t> ids_;  // views into names_
  uint32_t object_;
  std::unordered_map<uint32_t, Chain> chains_;
  std::unordered_map<uint64_t, Assignability> assignable_;
  std::unordered_map<uint64_t, uint32_t> joins_;  // distinct class pair -> ancestor id
};

// Walks superclass chains in the environment. Interfaces are treated as
// assignable targets when found in the chain's interface lists. `dst` is a
// TypeEnv name id. Memoized per (src, dst) within the call.
Assignability IsAssignable(const VType& src, uint32_t dst, TypeEnv& types);

// Least upper bound of two reference types in `env`; unknown hierarchy merges
// to java/lang/Object (safe: uses are re-checked by IsAssignable).
// Commutative: Merge(a, b) == Merge(b, a), even on degenerate (cyclic)
// hierarchies — the certificate validator's shadow joins rely on it.
VType MergeTypes(const VType& a, const VType& b, TypeEnv& types);

// a ⊑ b in the merge lattice: merging `a` into `b` leaves `b` unchanged. The
// one-pass certificate validator uses this instead of re-running the fixpoint.
bool FitsInto(const VType& a, const VType& b, TypeEnv& types);

// Pointwise merge of `from` into the equally long `into`; true when `into`
// changed.
bool MergeSlots(std::span<VType> into, std::span<const VType> from, TypeEnv& types);

// Pointwise merge. Sets *changed when the result differs from `into`.
void MergeFrames(Frame& into, const Frame& from, TypeEnv& types, bool* changed);

// Pointwise ⊑: same shape, every slot of `a` fits into the matching slot of
// `b`. A frame that fits an asserted merge-point frame may safely adopt it.
bool FrameFits(const Frame& a, const Frame& b, TypeEnv& types);

}  // namespace dvm

#endif  // SRC_VERIFIER_TYPESTATE_H_
