#include "src/verifier/certificate.h"

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

// One forward pass over one method. `current`/`live` track the frame flowing
// into the next instruction; every control-flow edge is checked at its source
// against the certificate's assertion for the target, and folded into a
// shadow join that must land exactly on the asserted frame.
Status ValidateMethod(ClassScope& scope, const MethodInfo& method, const MethodCode& mc,
                      const MethodCertificate& mcert, ValidateStats* stats,
                      std::vector<Assumption>* assumptions) {
  const ClassFile& cls = scope.cls();
  TypeEnv& types = scope.types();
  const size_t count = mc.instrs.size();
  const std::vector<bool> merge = MergePoints(method, mc);
  std::vector<Frame> frames(mcert.assertions.size());
  std::vector<const Frame*> asserted(count, nullptr);
  for (size_t a = 0; a < mcert.assertions.size(); a++) {
    const FrameAssertion& assertion = mcert.assertions[a];
    stats->validate_checks++;
    if (assertion.index >= count || !merge[assertion.index] ||
        asserted[assertion.index] != nullptr) {
      return Verr(cls.name() + "." + method.Id() + ": certificate assertion @" +
                  std::to_string(assertion.index) + " is not at a unique merge point");
    }
    // The interpreter indexes locals by slot, so a frame of another width
    // must not be adopted (it could never be the exact join anyway).
    if (!UnspellFrame(assertion.frame, types, &frames[a]) ||
        frames[a].locals.size() != method.code->max_locals) {
      return Verr(cls.name() + "." + method.Id() + ": certificate assertion @" +
                  std::to_string(assertion.index) + " is not a well-formed frame");
    }
    asserted[assertion.index] = &frames[a];
  }

  AbstractInterpreter interp(scope, method, mc, &stats->validate_checks, assumptions);
  std::vector<std::optional<Frame>> shadow(count);

  auto fold = [&](size_t target, const Frame& frame) -> Status {
    stats->validate_checks++;
    if (target >= count || asserted[target] == nullptr) {
      return Verr(cls.name() + "." + method.Id() + ": control-flow edge into @" +
                  std::to_string(target) + " has no certificate assertion");
    }
    stats->validate_checks++;
    if (!FrameFits(frame, *asserted[target], types)) {
      return Verr(cls.name() + "." + method.Id() + ": edge frame does not fit certificate "
                  "assertion @" + std::to_string(target));
    }
    if (!shadow[target].has_value()) {
      shadow[target] = frame;
    } else {
      bool changed = false;
      MergeFrames(*shadow[target], frame, types, &changed);
    }
    return Status::Ok();
  };

  Frame current = interp.EntryFrame();
  Frame handler_entry;
  std::vector<AbstractInterpreter::HandlerEdge> handler_edges;
  bool live = true;
  for (size_t i = 0; i < count; i++) {
    if (asserted[i] != nullptr) {
      if (live) {
        DVM_RETURN_IF_ERROR(fold(i, current));
      }
      // Adopting the assertion is sound: every edge into it (including this
      // fall-through) is checked to fit it, and the final exactness check
      // rejects an assertion wider than the true join.
      current = *asserted[i];
      live = true;
    }
    if (!live) {
      continue;  // unreachable and unasserted — the verifier never looked at it
    }
    stats->instructions_validated++;
    DVM_RETURN_IF_ERROR(interp.HandlerEdges(i, &handler_edges));
    for (const auto& edge : handler_edges) {
      handler_entry.locals = current.locals;
      handler_entry.stack.assign(1, edge.thrown);
      DVM_RETURN_IF_ERROR(fold(edge.target, handler_entry));
    }
    DVM_ASSIGN_OR_RETURN(AbstractInterpreter::StepResult out, interp.Step(i, current));
    if (out.branch_target.has_value()) {
      DVM_RETURN_IF_ERROR(fold(*out.branch_target, current));
    }
    // A terminator leaves `current` dead until the next assertion replaces it.
    live = out.fallthrough;
  }

  for (size_t i = 0; i < count; i++) {
    if (asserted[i] == nullptr) {
      continue;
    }
    stats->validate_checks++;
    if (!shadow[i].has_value()) {
      return Verr(cls.name() + "." + method.Id() + ": certificate assertion @" +
                  std::to_string(i) + " is justified by no control-flow edge");
    }
    if (!(*shadow[i] == *asserted[i])) {
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
    DVM_ASSIGN_OR_RETURN(MethodCode mc, Phase2(cls, method, &stats->verify));
    DVM_RETURN_IF_ERROR(
        ValidateMethod(scope, method, mc, cert.methods[next_method], stats, &derived));
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

}  // namespace dvm
