#include "src/verifier/certificate.h"

#include <algorithm>
#include <optional>

#include "src/verifier/dataflow.h"

namespace dvm {
namespace {

// "DVC1": distributed-vm certificate, format version 1.
constexpr uint32_t kCertMagic = 0x44564331;

Error Verr(const std::string& message) { return Error{ErrorCode::kVerifyError, message}; }
Error Perr(const std::string& message) { return Error{ErrorCode::kParseError, message}; }

void WriteType(ByteWriter& w, const NamedType& t) {
  w.U8(static_cast<uint8_t>(t.kind));
  // Only reference-like kinds carry a payload; writing nothing for the rest
  // keeps the encoding canonical (one byte string for every frame).
  if (t.kind == VType::Kind::kRef || t.kind == VType::Kind::kUninit) {
    w.Str(t.name);
  }
  if (t.kind == VType::Kind::kUninit) {
    w.I32(t.site);
  }
}

Result<NamedType> ReadType(ByteReader& r) {
  DVM_ASSIGN_OR_RETURN(uint8_t raw_kind, r.U8());
  if (raw_kind > static_cast<uint8_t>(VType::Kind::kUninit)) {
    return Perr("certificate type kind out of range");
  }
  NamedType t;
  t.kind = static_cast<VType::Kind>(raw_kind);
  if (t.kind == VType::Kind::kRef || t.kind == VType::Kind::kUninit) {
    DVM_ASSIGN_OR_RETURN(t.name, r.Str());
    if (t.name.empty()) {
      return Perr("certificate reference type without a class name");
    }
  }
  if (t.kind == VType::Kind::kUninit) {
    DVM_ASSIGN_OR_RETURN(t.site, r.I32());
    if (t.site < 0) {
      return Perr("certificate uninit type with negative allocation site");
    }
  }
  return t;
}

void WriteFrame(ByteWriter& w, const NamedFrame& frame) {
  w.U32(static_cast<uint32_t>(frame.locals.size()));
  for (const NamedType& t : frame.locals) {
    WriteType(w, t);
  }
  w.U32(static_cast<uint32_t>(frame.stack.size()));
  for (const NamedType& t : frame.stack) {
    WriteType(w, t);
  }
}

Result<NamedFrame> ReadFrame(ByteReader& r) {
  NamedFrame frame;
  DVM_ASSIGN_OR_RETURN(uint32_t locals, r.U32());
  if (locals > r.remaining()) {  // each type is at least one byte
    return Perr("certificate frame locals count exceeds payload");
  }
  frame.locals.reserve(locals);
  for (uint32_t i = 0; i < locals; i++) {
    DVM_ASSIGN_OR_RETURN(NamedType t, ReadType(r));
    frame.locals.push_back(std::move(t));
  }
  DVM_ASSIGN_OR_RETURN(uint32_t stack, r.U32());
  if (stack > r.remaining()) {
    return Perr("certificate frame stack count exceeds payload");
  }
  frame.stack.reserve(stack);
  for (uint32_t i = 0; i < stack; i++) {
    DVM_ASSIGN_OR_RETURN(NamedType t, ReadType(r));
    frame.stack.push_back(std::move(t));
  }
  return frame;
}

NamedType Spell(const VType& t, const TypeEnv& types) {
  switch (t.kind) {
    case VType::Kind::kRef:
      return NamedType::Ref(types.Name(t.name));
    case VType::Kind::kUninit:
      return NamedType::Uninit(types.Name(t.name), static_cast<int>(t.site));
    default:
      return {t.kind, "", -1};
  }
}

// Inverse of Spell. Fails on a slot Spell cannot produce — a payload on a
// kind that carries none, a reference without a name, a site no code body
// reaches — which no certificate the verifier emitted can contain.
bool Unspell(const NamedType& t, TypeEnv& types, VType* out) {
  switch (t.kind) {
    case VType::Kind::kRef:
      *out = types.Ref(t.name);
      return !t.name.empty() && t.site == -1;
    case VType::Kind::kUninit:
      *out = VType::Uninit(types.Intern(t.name), static_cast<uint32_t>(t.site));
      return !t.name.empty() && t.site >= 0 && static_cast<uint32_t>(t.site) <= VType::kMaxSite;
    default:
      *out = VType{t.kind, 0, 0};
      return t.name.empty() && t.site == -1;
  }
}

bool UnspellFrame(const NamedFrame& named, TypeEnv& types, Frame* out) {
  out->locals.resize(named.locals.size());
  out->stack.resize(named.stack.size());
  for (size_t i = 0; i < named.locals.size(); i++) {
    if (!Unspell(named.locals[i], types, &out->locals[i])) {
      return false;
    }
  }
  for (size_t i = 0; i < named.stack.size(); i++) {
    if (!Unspell(named.stack[i], types, &out->stack[i])) {
      return false;
    }
  }
  return true;
}

bool SameAssumption(const Assumption& a, const Assumption& b) {
  return a.kind == b.kind && a.scope == b.scope && a.method_id == b.method_id &&
         a.target_class == b.target_class && a.member_name == b.member_name &&
         a.descriptor == b.descriptor && a.expected_class == b.expected_class;
}

}  // namespace

bool operator==(const ClassCertificate& a, const ClassCertificate& b) {
  if (a.class_name != b.class_name || !(a.methods == b.methods) ||
      a.assumptions.size() != b.assumptions.size()) {
    return false;
  }
  for (size_t i = 0; i < a.assumptions.size(); i++) {
    if (!SameAssumption(a.assumptions[i], b.assumptions[i])) {
      return false;
    }
  }
  return true;
}

Bytes SerializeCertificate(const ClassCertificate& cert) {
  ByteWriter w;
  w.U32(kCertMagic);
  w.Str(cert.class_name);
  w.U32(static_cast<uint32_t>(cert.methods.size()));
  for (const MethodCertificate& method : cert.methods) {
    w.Str(method.method_id);
    w.U32(static_cast<uint32_t>(method.assertions.size()));
    for (const FrameAssertion& assertion : method.assertions) {
      w.U32(assertion.index);
      WriteFrame(w, assertion.frame);
    }
  }
  w.U32(static_cast<uint32_t>(cert.assumptions.size()));
  for (const Assumption& a : cert.assumptions) {
    w.U8(static_cast<uint8_t>(a.kind));
    w.U8(static_cast<uint8_t>(a.scope));
    w.Str(a.method_id);
    w.Str(a.target_class);
    w.Str(a.member_name);
    w.Str(a.descriptor);
    w.Str(a.expected_class);
  }
  return w.Take();
}

Result<ClassCertificate> ParseCertificate(const Bytes& data) {
  ByteReader r(data);
  DVM_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  if (magic != kCertMagic) {
    return Perr("bad certificate magic");
  }
  ClassCertificate cert;
  DVM_ASSIGN_OR_RETURN(cert.class_name, r.Str());
  DVM_ASSIGN_OR_RETURN(uint32_t methods, r.U32());
  if (methods > r.remaining()) {
    return Perr("certificate method count exceeds payload");
  }
  for (uint32_t m = 0; m < methods; m++) {
    MethodCertificate method;
    DVM_ASSIGN_OR_RETURN(method.method_id, r.Str());
    DVM_ASSIGN_OR_RETURN(uint32_t assertions, r.U32());
    if (assertions > r.remaining()) {
      return Perr("certificate assertion count exceeds payload");
    }
    for (uint32_t i = 0; i < assertions; i++) {
      FrameAssertion assertion;
      DVM_ASSIGN_OR_RETURN(assertion.index, r.U32());
      if (!method.assertions.empty() && assertion.index <= method.assertions.back().index) {
        return Perr("certificate assertion indices not strictly increasing");
      }
      DVM_ASSIGN_OR_RETURN(assertion.frame, ReadFrame(r));
      method.assertions.push_back(std::move(assertion));
    }
    cert.methods.push_back(std::move(method));
  }
  DVM_ASSIGN_OR_RETURN(uint32_t assumptions, r.U32());
  if (assumptions > r.remaining()) {
    return Perr("certificate assumption count exceeds payload");
  }
  for (uint32_t i = 0; i < assumptions; i++) {
    Assumption a;
    DVM_ASSIGN_OR_RETURN(uint8_t kind, r.U8());
    if (kind > static_cast<uint8_t>(AssumptionKind::kAssignable)) {
      return Perr("certificate assumption kind out of range");
    }
    a.kind = static_cast<AssumptionKind>(kind);
    DVM_ASSIGN_OR_RETURN(uint8_t scope, r.U8());
    if (scope > static_cast<uint8_t>(AssumptionScope::kMethod)) {
      return Perr("certificate assumption scope out of range");
    }
    a.scope = static_cast<AssumptionScope>(scope);
    DVM_ASSIGN_OR_RETURN(a.method_id, r.Str());
    DVM_ASSIGN_OR_RETURN(a.target_class, r.Str());
    DVM_ASSIGN_OR_RETURN(a.member_name, r.Str());
    DVM_ASSIGN_OR_RETURN(a.descriptor, r.Str());
    DVM_ASSIGN_OR_RETURN(a.expected_class, r.Str());
    cert.assumptions.push_back(std::move(a));
  }
  if (!r.AtEnd()) {
    return Perr("trailing bytes after certificate");
  }
  return cert;
}

namespace {

// One forward pass over one method, in the validator buffers of `ws`, whose
// `code` holds the method's decoded body. `current`/`live` track the frame
// flowing into the next instruction; every control-flow edge is checked at
// its source against the certificate's assertion for the target, and folded
// into a shadow join that must land exactly on the asserted frame.
Status ValidateMethod(ClassScope& scope, const MethodInfo& method, VerifierWorkspace& ws,
                      const MethodCertificate& mcert, ValidateStats* stats,
                      std::vector<Assumption>* assumptions) {
  const ClassFile& cls = scope.cls();
  TypeEnv& types = scope.types();
  const DecodedCode& mc = ws.code;
  const size_t count = mc.instrs.size();
  const size_t assertions = mcert.assertions.size();
  MergePoints(method, mc, &ws.merge);
  std::vector<Frame>& asserted = ws.asserted;
  std::vector<int32_t>& assertion_at = ws.assertion_at;
  asserted.resize(assertions);
  assertion_at.assign(count, -1);
  for (size_t a = 0; a < assertions; a++) {
    const FrameAssertion& assertion = mcert.assertions[a];
    stats->validate_checks++;
    if (assertion.index >= count || !ws.merge[assertion.index] ||
        assertion_at[assertion.index] >= 0) {
      return Verr(cls.name() + "." + method.Id() + ": certificate assertion @" +
                  std::to_string(assertion.index) + " is not at a unique merge point");
    }
    // The interpreter indexes locals by slot, so a frame of another width
    // must not be adopted (it could never be the exact join anyway).
    if (!UnspellFrame(assertion.frame, types, &asserted[a]) ||
        asserted[a].locals.size() != method.code->max_locals) {
      return Verr(cls.name() + "." + method.Id() + ": certificate assertion @" +
                  std::to_string(assertion.index) + " is not a well-formed frame");
    }
    assertion_at[assertion.index] = static_cast<int32_t>(a);
  }

  AbstractInterpreter interp(scope, method, mc, &stats->validate_checks, assumptions);
  // The join of the edges into each assertion so far; shadow[a] is stale
  // until shadow_set[a].
  std::vector<Frame>& shadow = ws.shadow;
  std::vector<bool>& shadow_set = ws.shadow_set;
  shadow.resize(assertions);
  shadow_set.assign(assertions, false);

  auto fold = [&](size_t target, const Frame& frame) -> Status {
    stats->validate_checks++;
    if (target >= count || assertion_at[target] < 0) {
      return Verr(cls.name() + "." + method.Id() + ": control-flow edge into @" +
                  std::to_string(target) + " has no certificate assertion");
    }
    const size_t a = static_cast<size_t>(assertion_at[target]);
    stats->validate_checks++;
    if (!FrameFits(frame, asserted[a], types)) {
      return Verr(cls.name() + "." + method.Id() + ": edge frame does not fit certificate "
                  "assertion @" + std::to_string(target));
    }
    if (!shadow_set[a]) {
      shadow[a] = frame;
      shadow_set[a] = true;
    } else {
      bool changed = false;
      MergeFrames(shadow[a], frame, types, &changed);
    }
    return Status::Ok();
  };

  Frame& current = ws.current;
  Frame& handler_entry = ws.handler_entry;
  interp.EntryFrame(current);
  bool live = true;
  for (size_t i = 0; i < count; i++) {
    if (assertion_at[i] >= 0) {
      if (live) {
        DVM_RETURN_IF_ERROR(fold(i, current));
      }
      // Adopting the assertion is sound: every edge into it (including this
      // fall-through) is checked to fit it, and the final exactness check
      // rejects an assertion wider than the true join.
      current = asserted[static_cast<size_t>(assertion_at[i])];
      live = true;
    }
    if (!live) {
      continue;  // unreachable and unasserted — the verifier never looked at it
    }
    stats->instructions_validated++;
    DVM_RETURN_IF_ERROR(interp.HandlerEdges(i, &ws.handler_edges));
    for (const auto& edge : ws.handler_edges) {
      handler_entry.locals = current.locals;
      handler_entry.stack.assign(1, edge.thrown);
      DVM_RETURN_IF_ERROR(fold(edge.target, handler_entry));
    }
    DVM_RETURN_IF_ERROR(interp.Step(i, current));
    const Instr& instr = mc.instrs[i];
    const OpEdges edges = EdgesOf(instr.op);
    if (edges.branch) {
      DVM_RETURN_IF_ERROR(fold(static_cast<size_t>(instr.a), current));
    }
    // A terminator leaves `current` dead until the next assertion replaces it.
    live = edges.fallthrough;
  }

  // In instruction order, which an in-memory certificate need not follow.
  for (size_t i = 0; i < count; i++) {
    if (assertion_at[i] < 0) {
      continue;
    }
    const size_t a = static_cast<size_t>(assertion_at[i]);
    stats->validate_checks++;
    if (!shadow_set[a]) {
      return Verr(cls.name() + "." + method.Id() + ": certificate assertion @" +
                  std::to_string(i) + " is justified by no control-flow edge");
    }
    if (!(shadow[a] == asserted[a])) {
      return Verr(cls.name() + "." + method.Id() + ": certificate assertion @" +
                  std::to_string(i) + " is not the exact join of its incoming edges");
    }
  }
  return Status::Ok();
}

}  // namespace

NamedFrame SpellFrame(std::span<const VType> locals, std::span<const VType> stack,
                      const TypeEnv& types) {
  NamedFrame frame;
  frame.locals.reserve(locals.size());
  for (const VType& t : locals) {
    frame.locals.push_back(Spell(t, types));
  }
  frame.stack.reserve(stack.size());
  for (const VType& t : stack) {
    frame.stack.push_back(Spell(t, types));
  }
  return frame;
}

Status ValidateCertificate(const ClassFile& cls, const ClassEnv& env,
                           const ClassCertificate& cert, ValidateStats* stats) {
  stats->validate_checks++;
  if (cert.class_name != cls.name()) {
    return Verr("certificate is for " + cert.class_name + ", class is " + cls.name());
  }

  DVM_RETURN_IF_ERROR(Phase1(cls, &stats->verify));

  std::vector<Assumption> derived;
  DVM_RETURN_IF_ERROR(
      CheckSuperclass(cls, env, &stats->verify.phase1_checks, &derived));

  TypeEnv types(env);
  ClassScope scope(cls, types);
  WorkspaceLease ws;

  size_t next_method = 0;
  for (const auto& method : cls.methods) {
    if (!method.code.has_value()) {
      continue;
    }
    stats->validate_checks++;
    if (next_method >= cert.methods.size() ||
        cert.methods[next_method].method_id != method.Id()) {
      return Verr(cls.name() + ": certificate method list does not match class");
    }
    DVM_RETURN_IF_ERROR(Phase2(cls, method, &stats->verify, &ws->code));
    DVM_RETURN_IF_ERROR(
        ValidateMethod(scope, method, *ws, cert.methods[next_method], stats, &derived));
    next_method++;
  }
  stats->validate_checks++;
  if (next_method != cert.methods.size()) {
    return Verr(cls.name() + ": certificate carries assertions for unknown methods");
  }

  // The assumptions the one-pass walk derived must equal the certificate's —
  // phase-4 dynamic checks on the client are driven by the certificate list,
  // so any difference would change runtime behavior.
  derived = DedupAssumptions(std::move(derived));
  stats->validate_checks++;
  if (derived.size() != cert.assumptions.size()) {
    return Verr(cls.name() + ": certificate assumption list does not match (" +
                std::to_string(derived.size()) + " derived vs " +
                std::to_string(cert.assumptions.size()) + " certified)");
  }
  for (size_t i = 0; i < derived.size(); i++) {
    stats->validate_checks++;
    if (derived[i].Key() != cert.assumptions[i].Key()) {
      return Verr(cls.name() + ": certificate assumption #" + std::to_string(i) +
                  " does not match: " + derived[i].ToString() + " vs " +
                  cert.assumptions[i].ToString());
    }
  }
  return Status::Ok();
}

namespace {

// True when `id` is MethodInfo::Id() of `method`, without building it.
bool IsIdOf(const std::string& id, const MethodInfo& method) {
  const std::string& name = method.name;
  return id.size() == name.size() + 1 + method.descriptor.size() &&
         id.compare(0, name.size(), name) == 0 && id[name.size()] == ':' &&
         id.compare(name.size() + 1, std::string::npos, method.descriptor) == 0;
}

// One local walk over the first `count` instructions of `mc`, the code a
// rewrite inserted, from `entry`. Only forward branches within the walked
// code are allowed and every walked instruction must be reachable, so one
// pass in index order reaches the fixpoint: the frame at each instruction is
// final when the walk gets there.
struct SnippetWalk {
  // The frame the walked code hands to instruction `count`, and whether a
  // walked branch targets it.
  std::optional<Frame> handover;
  bool handover_is_target = false;
  // Certificate assertions at the branch targets inside the walked code.
  std::vector<FrameAssertion> assertions;
};

Status WalkSnippet(AbstractInterpreter& interp, const ClassFile& cls, const MethodInfo& method,
                   const DecodedCode& mc, size_t count, const Frame& entry, TypeEnv& types,
                   VerifyStats* stats, SnippetWalk* walk) {
  walk->handover.reset();
  walk->handover_is_target = false;
  walk->assertions.clear();
  // Frames of the branches taken so far, by target; the fall-through frame
  // is `current`, stepped in place.
  std::vector<std::pair<size_t, Frame>> pending;
  Frame current = entry;
  bool live = true;
  for (size_t i = 0; i <= count; i++) {
    bool target = false;
    for (auto it = pending.begin(); it != pending.end();) {
      if (it->first != i) {
        ++it;
        continue;
      }
      target = true;
      if (!live) {
        current = std::move(it->second);
        live = true;
      } else if (current.stack.size() != it->second.stack.size()) {
        return Verr(method.Id() + ": inserted code merges stack depths " +
                    std::to_string(current.stack.size()) + " and " +
                    std::to_string(it->second.stack.size()) + " at @" + std::to_string(i));
      } else {
        bool changed = false;
        MergeFrames(current, it->second, types, &changed);
      }
      it = pending.erase(it);
    }
    if (i == count) {
      walk->handover_is_target = target;
      break;
    }
    if (!live) {
      return Verr(method.Id() + ": inserted instruction @" + std::to_string(i) +
                  " is unreachable");
    }
    if (target) {
      walk->assertions.push_back(
          {static_cast<uint32_t>(i), SpellFrame(current.locals, current.stack, types)});
    }
    const Instr& instr = mc.instrs[i];
    DVM_RETURN_IF_ERROR(CheckOperands(cls.pool(), method, instr, stats));
    DVM_RETURN_IF_ERROR(interp.Step(i, current));
    const OpEdges edges = EdgesOf(instr.op);
    if (edges.branch) {
      const size_t to = static_cast<size_t>(instr.a);
      if (to <= i || to > count) {
        return Verr(method.Id() + ": inserted branch @" + std::to_string(i) +
                    " leaves the inserted code or goes backward");
      }
      pending.emplace_back(to, current);
    }
    live = edges.fallthrough;
  }
  if (live) {
    walk->handover = std::move(current);
  }
  return Status::Ok();
}

// Moves an origin slot behind `shift` inserted instructions.
void Shift(NamedType& t, uint32_t shift) {
  if (t.kind == VType::Kind::kUninit) {
    t.site += static_cast<int>(shift);
  }
}

// The members `artifact` declares that the proved class did not: a field or
// method whose position is past the proved list, or holds another member.
struct AddedMembers {
  std::vector<const FieldInfo*> fields;
  std::vector<const MethodInfo*> methods;
};

AddedMembers FindAddedMembers(const ClassFile& artifact, const ClassProof& proof) {
  AddedMembers added;
  for (size_t i = 0; i < artifact.fields.size(); i++) {
    if (i >= proof.field_names.size() || artifact.fields[i].name != proof.field_names[i]) {
      added.fields.push_back(&artifact.fields[i]);
    }
  }
  for (size_t i = 0; i < artifact.methods.size(); i++) {
    if (i >= proof.method_ids.size() || !IsIdOf(proof.method_ids[i], artifact.methods[i])) {
      added.methods.push_back(&artifact.methods[i]);
    }
  }
  return added;
}

// Does an added member answer the member assumption `a`? Resolving it would
// then find that member, so the assumption would not carry over.
bool AnswersAssumption(const Assumption& a, const AddedMembers& added) {
  switch (a.kind) {
    case AssumptionKind::kFieldExists:
      return std::any_of(added.fields.begin(), added.fields.end(),
                         [&a](const FieldInfo* f) { return f->name == a.member_name; });
    case AssumptionKind::kMethodExists:
      return std::any_of(added.methods.begin(), added.methods.end(), [&a](const MethodInfo* m) {
        return m->name == a.member_name && m->descriptor == a.descriptor;
      });
    default:
      return false;
  }
}

}  // namespace

ClassProof ClassProof::Of(const ClassFile& cls, ClassCertificate cert) {
  ClassProof proof;
  proof.cert = std::move(cert);
  proof.super_class = cls.super_class;
  proof.interfaces = cls.interfaces;
  proof.field_names.reserve(cls.fields.size());
  for (const FieldInfo& field : cls.fields) {
    proof.field_names.push_back(field.name);
  }
  proof.method_ids.reserve(cls.methods.size());
  proof.bodies.reserve(proof.cert.methods.size());
  for (size_t m = 0; m < cls.methods.size(); m++) {
    const MethodInfo& method = cls.methods[m];
    proof.method_ids.push_back(method.Id());
    if (!method.code.has_value()) {
      continue;
    }
    Body body;
    body.method = static_cast<uint32_t>(m);
    body.is_static = method.IsStatic();
    body.max_stack = method.code->max_stack;
    body.max_locals = method.code->max_locals;
    body.code = method.code->code;
    body.handlers = method.code->handlers;
    proof.bodies.push_back(std::move(body));
  }
  return proof;
}

std::optional<size_t> ProvedBodyOffset(const ClassProof::Body& body, const CodeAttr& code) {
  if (code.code.size() < body.code.size() || code.handlers.size() != body.handlers.size() ||
      !std::equal(body.code.begin(), body.code.end(),
                  code.code.end() - static_cast<std::ptrdiff_t>(body.code.size()))) {
    return std::nullopt;
  }
  const size_t offset = code.code.size() - body.code.size();
  for (size_t h = 0; h < body.handlers.size(); h++) {
    const ExceptionHandler& was = body.handlers[h];
    const ExceptionHandler& now = code.handlers[h];
    if (now.start_pc != was.start_pc + offset || now.end_pc != was.end_pc + offset ||
        now.handler_pc != was.handler_pc + offset || now.catch_type != was.catch_type) {
      return std::nullopt;
    }
  }
  return offset;
}

Result<ClassCertificate> TransformCertificate(ClassProof proof, std::span<const CodeEdit> edits,
                                              const ClassFile& artifact, const ClassEnv& env,
                                              uint64_t* checks) {
  const std::string& name = artifact.name();
  if (proof.cert.class_name != name || proof.bodies.size() != proof.cert.methods.size() ||
      artifact.super_class != proof.super_class || artifact.interfaces != proof.interfaces) {
    return Verr(name + ": the artifact is not the proved class");
  }
  const AddedMembers added = FindAddedMembers(artifact, proof);
  for (const Assumption& a : proof.cert.assumptions) {
    if (AnswersAssumption(a, added)) {
      return Verr(name + ": an added member answers assumption " + a.ToString());
    }
  }

  const size_t method_count = artifact.methods.size();
  std::vector<uint32_t> inserted(method_count, 0);
  for (const CodeEdit& edit : edits) {
    if (edit.method >= method_count || edit.index != 0) {
      return Verr(name + ": an edit inserts code other than at a method's entry");
    }
    inserted[edit.method] += edit.count;
  }
  std::vector<int32_t> body_at(method_count, -1);
  for (size_t k = 0; k < proof.bodies.size(); k++) {
    const uint32_t m = proof.bodies[k].method;
    if (m >= method_count || !artifact.methods[m].code.has_value() ||
        !IsIdOf(proof.cert.methods[k].method_id, artifact.methods[m]) ||
        artifact.methods[m].IsStatic() != proof.bodies[k].is_static) {
      return Verr(name + ": proved method " + proof.cert.methods[k].method_id +
                  " is gone or changed");
    }
    body_at[m] = static_cast<int32_t>(k);
  }

  // Inserted code is walked in the artifact's own lattice; the scope is made
  // on first use, since a class whose methods gained no code needs none.
  VerifyStats stats;
  std::vector<Assumption> inserted_assumptions;
  std::optional<TypeEnv> types;
  std::optional<ClassScope> scope;
  SnippetWalk walk;
  auto walk_inserted = [&](const MethodInfo& method, const DecodedCode& mc,
                           size_t count) -> Result<Frame> {
    if (!types.has_value()) {
      types.emplace(env);
      scope.emplace(artifact, *types);
    }
    AbstractInterpreter interp(*scope, method, mc, &stats.phase3_checks, &inserted_assumptions);
    Frame entry;
    interp.EntryFrame(entry);
    DVM_RETURN_IF_ERROR(
        WalkSnippet(interp, artifact, method, mc, count, entry, *types, &stats, &walk));
    return entry;
  };

  ClassCertificate out;
  out.class_name = name;
  out.assumptions = std::move(proof.cert.assumptions);
  out.methods.reserve(proof.cert.methods.size());
  for (size_t m = 0; m < method_count; m++) {
    const MethodInfo& method = artifact.methods[m];
    const uint32_t count = inserted[m];
    if (!method.code.has_value()) {
      if (count != 0) {
        return Verr(name + ": an edit inserts code into bodyless " + method.Id());
      }
      continue;
    }
    const CodeAttr& code = *method.code;

    if (body_at[m] < 0) {
      // A method a filter added: all of it is inserted code.
      DecodedCode mc;
      DVM_RETURN_IF_ERROR(Phase2(artifact, method, &stats, &mc));
      if (count != mc.instrs.size() || !code.handlers.empty()) {
        return Verr(name + ": " + method.Id() + " is neither proved nor a reported addition");
      }
      DVM_RETURN_IF_ERROR(walk_inserted(method, mc, count));
      MethodCertificate mcert;
      mcert.method_id = method.Id();
      mcert.assertions = std::move(walk.assertions);
      out.methods.push_back(std::move(mcert));
      continue;
    }

    const ClassProof::Body& body = proof.bodies[static_cast<size_t>(body_at[m])];
    MethodCertificate& mcert = proof.cert.methods[static_cast<size_t>(body_at[m])];
    if (code.max_locals < body.max_locals || code.max_stack < body.max_stack ||
        code.handlers.size() != body.handlers.size()) {
      return Verr(name + ": " + method.Id() + " lost locals, stack or handlers");
    }
    const std::optional<size_t> body_offset = ProvedBodyOffset(body, code);
    if (!body_offset.has_value()) {
      return Verr(name + ": " + method.Id() + " does not end in its proved body and handlers");
    }
    const size_t prefix_bytes = *body_offset;
    // Proved frames grow by the slots past the proved max_locals, holding
    // what inserted code left there (Top when nothing was inserted).
    std::vector<NamedType> padding(code.max_locals - body.max_locals, NamedType::Top());
    if (count > 0 || prefix_bytes > 0) {
      DVM_ASSIGN_OR_RETURN(DecodedCode mc, DecodeCode(code.code, prefix_bytes));
      if (mc.instrs.size() != count) {
        return Verr(name + ": " + method.Id() + " has code in front that is not its insertions");
      }
      DVM_ASSIGN_OR_RETURN(Frame entry, walk_inserted(method, mc, count));
      // The proved code must start from the frame it was proved from.
      const std::optional<Frame>& handover = walk.handover;
      if (!handover.has_value() || !handover->stack.empty() ||
          !std::equal(entry.locals.begin(), entry.locals.begin() + body.max_locals,
                      handover->locals.begin())) {
        return Verr(name + ": inserted code in " + method.Id() + " changes the entry frame");
      }
      padding =
          SpellFrame(std::span(handover->locals).subspan(body.max_locals), {}, *types).locals;
      // The hand-over point is a merge point when inserted code branches to
      // it or the proved entry already was one; the latter's frame is the
      // proved join, which the hand-over frame equals on the proved slots.
      if (walk.handover_is_target &&
          (mcert.assertions.empty() || mcert.assertions.front().index != 0)) {
        walk.assertions.push_back({count, SpellFrame(handover->locals, {}, *types)});
      }
    }
    for (FrameAssertion& a : mcert.assertions) {
      stats.phase3_checks++;
      a.index += count;
      for (NamedType& t : a.frame.locals) {
        Shift(t, count);
      }
      for (NamedType& t : a.frame.stack) {
        Shift(t, count);
      }
      a.frame.locals.insert(a.frame.locals.end(), padding.begin(), padding.end());
    }
    if (count > 0 && !walk.assertions.empty()) {
      // Inserted code's assertions all precede the proved ones.
      walk.assertions.insert(walk.assertions.end(),
                             std::make_move_iterator(mcert.assertions.begin()),
                             std::make_move_iterator(mcert.assertions.end()));
      mcert.assertions = std::move(walk.assertions);
    }
    out.methods.push_back(std::move(mcert));
  }

  if (!inserted_assumptions.empty()) {
    return Verr(name + ": inserted code makes assumption " +
                inserted_assumptions.front().ToString());
  }
  if (checks != nullptr) {
    *checks = stats.TotalStaticChecks();
  }
  return out;
}

}  // namespace dvm
