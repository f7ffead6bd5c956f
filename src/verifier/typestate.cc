#include "src/verifier/typestate.h"

#include <algorithm>
#include <set>

#include "src/bytecode/descriptor.h"

namespace dvm {
namespace {

constexpr const char* kObject = "java/lang/Object";

bool ImplementsInterfaceImpl(const std::string& cls, const std::string& iface,
                             const ClassEnv& env, bool* hit_unknown,
                             std::set<std::string>* visited) {
  std::string current = cls;
  while (true) {
    if (!visited->insert(current).second) {
      return false;  // hierarchy cycle — this class was already explored
    }
    const ClassFile* file = env.Lookup(current);
    if (file == nullptr) {
      *hit_unknown = true;
      return false;
    }
    for (uint16_t idx : file->interfaces) {
      auto name = file->pool().ClassNameAt(idx);
      if (name.ok()) {
        if (name.value() == iface) {
          return true;
        }
        // One level of interface inheritance is enough for our library shapes;
        // recurse through the named interface if it is known.
        bool sub_unknown = false;
        if (env.IsKnown(name.value()) &&
            ImplementsInterfaceImpl(name.value(), iface, env, &sub_unknown, visited)) {
          return true;
        }
        *hit_unknown |= sub_unknown;
      }
    }
    std::string super = file->super_name();
    if (super.empty()) {
      return false;
    }
    current = super;
  }
}

bool ImplementsInterface(const std::string& cls, const std::string& iface, const ClassEnv& env,
                         bool* hit_unknown) {
  std::set<std::string> visited;
  return ImplementsInterfaceImpl(cls, iface, env, hit_unknown, &visited);
}

}  // namespace

TypeEnv::TypeEnv(const ClassEnv& classes) : classes_(classes), object_(Intern(kObject)) {}

uint32_t TypeEnv::Intern(std::string_view name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) {
    return it->second;
  }
  const uint32_t id = static_cast<uint32_t>(names_.size());
  ids_.emplace(names_.emplace_back(name), id);
  return id;
}

VType TypeEnv::FromDescriptor(const std::string& desc) {
  if (desc == "I") {
    return VType::Int();
  }
  if (desc == "J") {
    return VType::Long();
  }
  if (!desc.empty() && desc[0] == '[') {
    return Ref(desc);
  }
  if (IsReferenceDescriptor(desc)) {
    return Ref(ClassNameFromDescriptor(desc));
  }
  return VType::Top();
}

std::string TypeEnv::ToString(const VType& t) const {
  switch (t.kind) {
    case VType::Kind::kTop:
      return "top";
    case VType::Kind::kInt:
      return "int";
    case VType::Kind::kLong:
      return "long";
    case VType::Kind::kNull:
      return "null";
    case VType::Kind::kRef:
      return Name(t.name);
    case VType::Kind::kUninit:
      return "uninit<" + Name(t.name) + "@" + std::to_string(t.site) + ">";
  }
  return "?";
}

std::string TypeEnv::ToString(const Frame& frame) const {
  std::string out = "locals=[";
  for (size_t i = 0; i < frame.locals.size(); i++) {
    if (i > 0) {
      out += ", ";
    }
    out += ToString(frame.locals[i]);
  }
  out += "] stack=[";
  for (size_t i = 0; i < frame.stack.size(); i++) {
    if (i > 0) {
      out += ", ";
    }
    out += ToString(frame.stack[i]);
  }
  out += "]";
  return out;
}

// Hostile hierarchies can cycle (A extends B extends A); the visited set ends
// the walk there — everything reachable is already in the chain — so a
// malicious class cannot spin the proxy forever.
const TypeEnv::Chain& TypeEnv::ChainOf(uint32_t id) {
  auto it = chains_.find(id);
  if (it != chains_.end()) {
    return it->second;
  }
  Chain chain;
  std::set<uint32_t> visited;
  uint32_t current = id;
  while (visited.insert(current).second) {
    chain.ids.push_back(current);
    if (current == object_) {
      break;
    }
    const ClassFile* file = classes_.Lookup(Name(current));
    if (file == nullptr) {
      chain.hit_unknown = true;  // hit the edge of the environment
      break;
    }
    std::string super = file->super_name();
    if (super.empty()) {
      break;
    }
    current = Intern(super);
  }
  return chains_.emplace(id, std::move(chain)).first->second;
}

Assignability IsAssignable(const VType& src, uint32_t dst, TypeEnv& types) {
  if (src.kind == VType::Kind::kNull) {
    return Assignability::kYes;
  }
  if (src.kind != VType::Kind::kRef) {
    return Assignability::kNo;
  }
  if (src.name == dst || dst == types.object_) {
    return Assignability::kYes;
  }
  const uint64_t key = TypeEnv::PairKey(src.name, dst);
  if (auto it = types.assignable_.find(key); it != types.assignable_.end()) {
    return it->second;
  }
  // Names live in a deque: interning below does not move them.
  const std::string& src_name = types.Name(src.name);
  const std::string& dst_name = types.Name(dst);
  const ClassEnv& env = types.classes();
  Assignability result = Assignability::kNo;
  // Arrays: "[X" assignable to "[Y" iff X assignable to Y (reference elements)
  // or X == Y (primitive elements).
  if (types.IsArrayName(src.name) || types.IsArrayName(dst)) {
    if (types.IsArrayName(src.name) && types.IsArrayName(dst)) {
      std::string src_elem = ArrayElementDescriptor(src_name);
      std::string dst_elem = ArrayElementDescriptor(dst_name);
      if (src_elem == dst_elem) {
        result = Assignability::kYes;
      } else if (IsReferenceDescriptor(src_elem) && IsReferenceDescriptor(dst_elem) &&
                 src_elem[0] == 'L' && dst_elem[0] == 'L') {
        result = IsAssignable(types.Ref(ClassNameFromDescriptor(src_elem)),
                              types.Intern(ClassNameFromDescriptor(dst_elem)), types);
      }
    }
  } else {
    const TypeEnv::Chain& chain = types.ChainOf(src.name);
    bool found = false;
    for (uint32_t ancestor : chain.ids) {
      found |= ancestor == dst;
    }
    // Interface implementation check along the known part of the chain.
    bool iface_unknown = false;
    if (found || (env.IsKnown(src_name) &&
                  ImplementsInterface(src_name, dst_name, env, &iface_unknown))) {
      result = Assignability::kYes;
    } else if (chain.hit_unknown || iface_unknown || !env.IsKnown(dst_name)) {
      result = Assignability::kUnknown;
    }
  }
  types.assignable_.emplace(key, result);
  return result;
}

VType MergeTypes(const VType& a, const VType& b, TypeEnv& types) {
  if (a == b) {
    return a;
  }
  using Kind = VType::Kind;
  if (a.kind == Kind::kNull && b.kind == Kind::kRef) {
    return b;
  }
  if (b.kind == Kind::kNull && a.kind == Kind::kRef) {
    return a;
  }
  if (a.kind != Kind::kRef || b.kind != Kind::kRef) {
    return VType::Top();
  }
  if (types.IsArray(a) || types.IsArray(b)) {
    // Array/array or array/class merges generalize to Object unless equal.
    return VType::Ref(types.object_);
  }
  const uint64_t key = TypeEnv::PairKey(a.name, b.name);
  if (auto it = types.joins_.find(key); it != types.joins_.end()) {
    return VType::Ref(it->second);
  }
  // Common ancestor within the known environment; unknown edges widen to
  // Object. The candidate is chosen symmetrically — minimize the deeper of
  // the two chain positions, then the shallower, then the name (never the
  // id, which follows visit order) — because a "first hit in chain_a order"
  // scan made Merge(a,b) != Merge(b,a) on degenerate hierarchies whose
  // chains are rotations of each other. On acyclic single inheritance the
  // common entries form a shared suffix of both chains, so this picks the
  // same junction the old scan did.
  const std::vector<uint32_t>& chain_a = types.ChainOf(a.name).ids;
  const std::vector<uint32_t>& chain_b = types.ChainOf(b.name).ids;
  uint32_t best = types.object_;
  bool found = false;
  size_t best_deep = 0;
  size_t best_shallow = 0;
  for (size_t i = 0; i < chain_a.size(); i++) {
    for (size_t j = 0; j < chain_b.size(); j++) {
      if (chain_a[i] != chain_b[j]) {
        continue;
      }
      size_t deep = std::max(i, j);
      size_t shallow = std::min(i, j);
      if (!found || deep < best_deep || (deep == best_deep && shallow < best_shallow) ||
          (deep == best_deep && shallow == best_shallow &&
           types.Name(chain_a[i]) < types.Name(best))) {
        best = chain_a[i];
        found = true;
        best_deep = deep;
        best_shallow = shallow;
      }
    }
  }
  types.joins_.emplace(key, best);
  return VType::Ref(best);
}

bool MergeSlots(std::span<VType> into, std::span<const VType> from, TypeEnv& types) {
  bool changed = false;
  for (size_t i = 0; i < into.size(); i++) {
    if (into[i] == from[i]) {
      continue;
    }
    VType merged = MergeTypes(into[i], from[i], types);
    if (!(merged == into[i])) {
      into[i] = merged;
      changed = true;
    }
  }
  return changed;
}

void MergeFrames(Frame& into, const Frame& from, TypeEnv& types, bool* changed) {
  *changed = MergeSlots(into.locals, from.locals, types);
  // Stack depths must match for code accepted by phase 3; a mismatch surfaces
  // as Top entries that fail the next use-check. The locals above still merge
  // — the old early return dropped them, leaving the merge asymmetric.
  if (into.stack.size() != from.stack.size()) {
    for (auto& entry : into.stack) {
      if (!(entry == VType::Top())) {
        entry = VType::Top();
        *changed = true;
      }
    }
    return;
  }
  *changed |= MergeSlots(into.stack, from.stack, types);
}

bool FitsInto(const VType& a, const VType& b, TypeEnv& types) {
  return MergeTypes(a, b, types) == b;
}

bool FrameFits(const Frame& a, const Frame& b, TypeEnv& types) {
  if (a.locals.size() != b.locals.size() || a.stack.size() != b.stack.size()) {
    return false;
  }
  for (size_t i = 0; i < a.locals.size(); i++) {
    if (!FitsInto(a.locals[i], b.locals[i], types)) {
      return false;
    }
  }
  for (size_t i = 0; i < a.stack.size(); i++) {
    if (!FitsInto(a.stack[i], b.stack[i], types)) {
      return false;
    }
  }
  return true;
}

}  // namespace dvm
