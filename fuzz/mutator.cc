#include "fuzz/mutator.h"

#include "src/bytecode/builder.h"
#include "src/bytecode/serializer.h"
#include "src/runtime/syslib.h"
#include "src/verifier/certificate.h"

namespace dvm {
namespace fuzz {
namespace {

constexpr CpTag kAllTags[] = {CpTag::kUtf8,   CpTag::kInteger,  CpTag::kLong,
                              CpTag::kClass,  CpTag::kString,   CpTag::kFieldRef,
                              CpTag::kMethodRef};

// Indices of methods that carry code, or empty.
std::vector<size_t> CodeMethods(const ClassFile& cls) {
  std::vector<size_t> out;
  for (size_t i = 0; i < cls.methods.size(); i++) {
    if (cls.methods[i].code.has_value()) {
      out.push_back(i);
    }
  }
  return out;
}

// Constant-pool splice: redirect a cross-reference or swap an entry's tag so
// downstream consumers see a well-formed pool whose edges are wrong.
void SplicePool(ClassFile& cls, Rng& rng) {
  ConstantPool& pool = cls.pool();
  if (pool.size() < 2) {
    return;
  }
  uint16_t index = static_cast<uint16_t>(1 + rng.Below(static_cast<uint32_t>(pool.size() - 1)));
  CpEntry& e = pool.mutable_entry(index);
  switch (rng.Below(3)) {
    case 0:
      e.tag = kAllTags[rng.Below(7)];
      break;
    case 1:
      e.ref1 = static_cast<uint16_t>(rng.Next());
      break;
    default:
      e.ref2 = static_cast<uint16_t>(rng.Next());
      e.ref3 = static_cast<uint16_t>(rng.Next());
      break;
  }
}

// Opcode / operand byte flips inside a method body.
void FlipCode(ClassFile& cls, Rng& rng) {
  auto methods = CodeMethods(cls);
  if (methods.empty()) {
    return;
  }
  CodeAttr& code = *cls.methods[methods[rng.Below(static_cast<uint32_t>(methods.size()))]].code;
  if (code.code.empty()) {
    return;
  }
  uint32_t flips = 1 + rng.Below(4);
  for (uint32_t i = 0; i < flips; i++) {
    size_t pos = rng.Below(static_cast<uint32_t>(code.code.size()));
    if (rng.Coin()) {
      code.code[pos] ^= static_cast<uint8_t>(1u << rng.Below(8));
    } else {
      code.code[pos] = static_cast<uint8_t>(rng.Next());
    }
  }
}

// Exception-handler perturbation: inverted ranges, mid-instruction pcs,
// dangling catch types — the inputs the phase-2 handler checks exist for.
void PerturbHandlers(ClassFile& cls, Rng& rng) {
  auto methods = CodeMethods(cls);
  if (methods.empty()) {
    return;
  }
  CodeAttr& code = *cls.methods[methods[rng.Below(static_cast<uint32_t>(methods.size()))]].code;
  if (code.handlers.empty() || rng.Below(4) == 0) {
    ExceptionHandler h;
    h.start_pc = static_cast<uint16_t>(rng.Next());
    h.end_pc = static_cast<uint16_t>(rng.Next());
    h.handler_pc = static_cast<uint16_t>(rng.Next());
    h.catch_type = rng.Coin() ? 0 : static_cast<uint16_t>(rng.Next());
    code.handlers.push_back(h);
    return;
  }
  ExceptionHandler& h = code.handlers[rng.Below(static_cast<uint32_t>(code.handlers.size()))];
  switch (rng.Below(4)) {
    case 0:
      std::swap(h.start_pc, h.end_pc);  // inverted range
      break;
    case 1:
      h.handler_pc = static_cast<uint16_t>(h.handler_pc + 1);  // mid-instruction
      break;
    case 2:
      h.end_pc = static_cast<uint16_t>(rng.Next());  // overlap / escape the body
      break;
    default:
      h.catch_type = static_cast<uint16_t>(rng.Next());
      break;
  }
}

// Declared-budget perturbation: max_stack/max_locals lies and flag flips.
void PerturbCounts(ClassFile& cls, Rng& rng) {
  auto methods = CodeMethods(cls);
  if (methods.empty()) {
    cls.access_flags = static_cast<uint16_t>(rng.Next());
    return;
  }
  MethodInfo& m = cls.methods[methods[rng.Below(static_cast<uint32_t>(methods.size()))]];
  switch (rng.Below(4)) {
    case 0:
      m.code->max_stack = static_cast<uint16_t>(rng.Below(4));
      break;
    case 1:
      m.code->max_locals = static_cast<uint16_t>(rng.Below(4));
      break;
    case 2:
      m.access_flags = static_cast<uint16_t>(rng.Next());
      break;
    default:
      cls.this_class = static_cast<uint16_t>(rng.Next());
      break;
  }
}

// Table surgery: drop or duplicate members.
void PerturbTables(ClassFile& cls, Rng& rng) {
  if (!cls.methods.empty() && rng.Coin()) {
    size_t index = rng.Below(static_cast<uint32_t>(cls.methods.size()));
    if (rng.Coin()) {
      cls.methods.push_back(cls.methods[index]);  // duplicate id
    } else {
      cls.methods.erase(cls.methods.begin() + static_cast<long>(index));
    }
    return;
  }
  if (!cls.fields.empty()) {
    cls.fields.push_back(cls.fields[rng.Below(static_cast<uint32_t>(cls.fields.size()))]);
  } else {
    cls.interfaces.push_back(static_cast<uint16_t>(rng.Next()));
  }
}

Bytes MutateRaw(const Bytes& data, Rng& rng) {
  Bytes out = data;
  if (out.empty()) {
    out.push_back(static_cast<uint8_t>(rng.Next()));
    return out;
  }
  switch (rng.Below(5)) {
    case 0: {  // bit flip
      size_t pos = rng.Below(static_cast<uint32_t>(out.size()));
      out[pos] ^= static_cast<uint8_t>(1u << rng.Below(8));
      break;
    }
    case 1: {  // random byte
      out[rng.Below(static_cast<uint32_t>(out.size()))] = static_cast<uint8_t>(rng.Next());
      break;
    }
    case 2: {  // truncate: parser must fail closed at every prefix
      out.resize(1 + rng.Below(static_cast<uint32_t>(out.size())));
      break;
    }
    case 3: {  // u16 length-field tweak
      if (out.size() >= 2) {
        size_t pos = rng.Below(static_cast<uint32_t>(out.size() - 1));
        uint16_t v = static_cast<uint16_t>(rng.Next());
        out[pos] = static_cast<uint8_t>(v >> 8);
        out[pos + 1] = static_cast<uint8_t>(v);
      }
      break;
    }
    default: {  // splice one region over another
      size_t len = 1 + rng.Below(static_cast<uint32_t>(std::min<size_t>(out.size(), 16)));
      size_t src = rng.Below(static_cast<uint32_t>(out.size() - len + 1));
      size_t dst = rng.Below(static_cast<uint32_t>(out.size() - len + 1));
      std::copy(out.begin() + static_cast<long>(src),
                out.begin() + static_cast<long>(src + len),
                out.begin() + static_cast<long>(dst));
      break;
    }
  }
  return out;
}

}  // namespace

Bytes MutateClassBytes(const Bytes& data, Rng& rng) {
  // A quarter of the time mutate raw bytes even when the seed parses, so the
  // parser-level error paths stay covered alongside the semantic ones.
  if (rng.Below(4) != 0) {
    auto parsed = ReadClassFile(data);
    if (parsed.ok()) {
      ClassFile cls = std::move(parsed).value();
      switch (rng.Below(5)) {
        case 0:
          SplicePool(cls, rng);
          break;
        case 1:
          FlipCode(cls, rng);
          break;
        case 2:
          PerturbHandlers(cls, rng);
          break;
        case 3:
          PerturbCounts(cls, rng);
          break;
        default:
          PerturbTables(cls, rng);
          break;
      }
      auto wire = WriteClassFile(cls);
      if (wire.ok()) {
        return std::move(wire).value();
      }
      // Mutation pushed a table past its width — fall through to raw bytes.
    }
  }
  return MutateRaw(data, rng);
}

namespace {

// Picks a method certificate that actually has assertions, or nullptr.
MethodCertificate* AssertedMethod(ClassCertificate& cert, Rng& rng) {
  std::vector<MethodCertificate*> candidates;
  for (MethodCertificate& m : cert.methods) {
    if (!m.assertions.empty()) {
      candidates.push_back(&m);
    }
  }
  if (candidates.empty()) {
    return nullptr;
  }
  return candidates[rng.Below(static_cast<uint32_t>(candidates.size()))];
}

// Tampers with one frame slot. Widening to Top looks sound (every edge frame
// still fits) — only the validator's exact-join check can reject it, which is
// exactly what this mutation probes.
void PerturbSlot(NamedType& slot, Rng& rng) {
  switch (rng.Below(4)) {
    case 0:
      slot = NamedType::Top();
      break;
    case 1:
      slot = slot.kind == VType::Kind::kInt ? NamedType::Long() : NamedType::Int();
      break;
    case 2:
      slot = NamedType::Ref(slot.kind == VType::Kind::kRef ? slot.name + "X" : "java/lang/Object");
      break;
    default:
      slot = NamedType::Null();
      break;
  }
}

}  // namespace

Bytes MutateCertificateBytes(const Bytes& cert, Rng& rng) {
  if (rng.Below(4) != 0) {
    auto parsed = ParseCertificate(cert);
    if (parsed.ok()) {
      ClassCertificate c = std::move(parsed).value();
      MethodCertificate* m = AssertedMethod(c, rng);
      switch (rng.Below(8)) {
        case 0:
          c.class_name += "X";
          break;
        case 1:  // shift an assertion to a neighboring pc
          if (m != nullptr) {
            FrameAssertion& a = m->assertions[rng.Below(static_cast<uint32_t>(m->assertions.size()))];
            a.index = rng.Coin() ? a.index + 1 : (a.index > 0 ? a.index - 1 : a.index + 2);
          }
          break;
        case 2:  // tamper a locals slot
          if (m != nullptr) {
            NamedFrame& f = m->assertions[rng.Below(static_cast<uint32_t>(m->assertions.size()))].frame;
            if (!f.locals.empty()) {
              PerturbSlot(f.locals[rng.Below(static_cast<uint32_t>(f.locals.size()))], rng);
            }
          }
          break;
        case 3:  // tamper a stack slot, or fake a deeper stack
          if (m != nullptr) {
            NamedFrame& f = m->assertions[rng.Below(static_cast<uint32_t>(m->assertions.size()))].frame;
            if (!f.stack.empty() && rng.Coin()) {
              PerturbSlot(f.stack[rng.Below(static_cast<uint32_t>(f.stack.size()))], rng);
            } else {
              f.stack.push_back(NamedType::Int());
            }
          }
          break;
        case 4:  // drop an assertion (an edge then lands on a bare pc)
          if (m != nullptr) {
            m->assertions.erase(m->assertions.begin() +
                                rng.Below(static_cast<uint32_t>(m->assertions.size())));
          }
          break;
        case 5:  // invent an assertion at an unasserted pc
          if (m != nullptr) {
            FrameAssertion extra = m->assertions.back();
            extra.index += 1 + rng.Below(3);
            m->assertions.push_back(std::move(extra));
          }
          break;
        case 6:  // drop or duplicate a link-time assumption
          if (!c.assumptions.empty()) {
            size_t index = rng.Below(static_cast<uint32_t>(c.assumptions.size()));
            if (rng.Coin()) {
              c.assumptions.erase(c.assumptions.begin() + static_cast<long>(index));
            } else {
              c.assumptions.push_back(c.assumptions[index]);
            }
          }
          break;
        default:  // retarget an assumption (phase-4 would check the wrong class)
          if (!c.assumptions.empty()) {
            c.assumptions[rng.Below(static_cast<uint32_t>(c.assumptions.size()))].target_class += "X";
          }
          break;
      }
      return SerializeCertificate(c);
    }
  }
  return MutateRaw(cert, rng);
}

std::vector<Bytes> BuiltinSeeds() {
  std::vector<Bytes> seeds;
  for (const ClassFile& cls : BuildSystemLibrary()) {
    seeds.push_back(MustWriteClassFile(cls));
  }

  // One application-shaped class: fields, a loop, arrays, a handler.
  ClassBuilder cb("fuzz/Seed", "java/lang/Object");
  cb.AddField(AccessFlags::kStatic, "total", "I");
  cb.AddDefaultConstructor();
  MethodBuilder& m = cb.AddMethod(AccessFlags::kPublic | AccessFlags::kStatic, "run", "()I");
  Label loop = m.NewLabel();
  Label done = m.NewLabel();
  m.PushInt(10).StoreLocal("I", 0);
  m.Bind(loop);
  m.LoadLocal("I", 0).Branch(Op::kIfeq, done);
  m.LoadLocal("I", 0).GetStatic("fuzz/Seed", "total", "I").Emit(Op::kIadd);
  m.PutStatic("fuzz/Seed", "total", "I");
  m.Emit(Op::kIinc, 0, -1).Branch(Op::kGoto, loop);
  m.Bind(done);
  m.PushInt(4).Emit(Op::kNewarray, static_cast<int>(ArrayKind::kInt));
  m.Emit(Op::kArraylength).Emit(Op::kIreturn);
  if (m.Done().ok()) {
    auto built = cb.Build();
    if (built.ok()) {
      seeds.push_back(MustWriteClassFile(built.value()));
    }
  }
  return seeds;
}

}  // namespace fuzz
}  // namespace dvm
