#include "src/bytecode/disasm.h"

#include <sstream>

#include "src/bytecode/code.h"

namespace dvm {
namespace {

std::string OperandString(const ClassFile* cls, const Instr& instr) {
  const OpInfo* info = GetOpInfo(instr.op);
  if (info == nullptr) {
    return "<bad opcode>";
  }
  std::ostringstream out;
  // Field quick forms carry a resolved slot index, not a constant-pool index;
  // annotate it directly instead of dereferencing the pool.
  if (instr.op == Op::kGetfieldQuick || instr.op == Op::kPutfieldQuick) {
    out << " #" << instr.a << " (slot)";
    return out.str();
  }
  switch (info->operands) {
    case OperandKind::kNone:
      break;
    case OperandKind::kI8:
    case OperandKind::kI16:
    case OperandKind::kU8:
      out << " " << instr.a;
      break;
    case OperandKind::kArrayKind:
      out << " " << (instr.a == static_cast<int>(ArrayKind::kLong) ? "long" : "int");
      break;
    case OperandKind::kBranch16:
      out << " -> " << instr.a;
      break;
    case OperandKind::kLocalIncr:
      out << " " << instr.a << " by " << instr.b;
      break;
    case OperandKind::kCpIndex: {
      uint16_t index = static_cast<uint16_t>(instr.a);
      out << " #" << index;
      if (cls == nullptr) {
        break;
      }
      const ConstantPool& pool = cls->pool();
      if (pool.HasTag(index, CpTag::kFieldRef)) {
        out << " " << pool.FieldRefAt(index).value().ToString();
      } else if (pool.HasTag(index, CpTag::kMethodRef)) {
        out << " " << pool.MethodRefAt(index).value().ToString();
      } else if (pool.HasTag(index, CpTag::kClass)) {
        out << " " << pool.ClassNameAt(index).value();
      } else if (pool.HasTag(index, CpTag::kString)) {
        out << " \"" << pool.StringAt(index).value() << "\"";
      } else if (pool.HasTag(index, CpTag::kInteger)) {
        out << " " << pool.IntegerAt(index).value();
      } else if (pool.HasTag(index, CpTag::kLong)) {
        out << " " << pool.LongAt(index).value() << "L";
      }
      break;
    }
  }
  return out.str();
}

}  // namespace

std::string DisassembleInstr(const ClassFile* cls, const Instr& instr) {
  const OpInfo* info = GetOpInfo(instr.op);
  std::string name = info != nullptr ? std::string(info->name) : "<bad>";
  return name + OperandString(cls, instr);
}

std::string DisassembleCode(const ClassFile* cls, const std::vector<Instr>& code) {
  std::ostringstream out;
  for (size_t i = 0; i < code.size(); i++) {
    out << "    " << i << ": " << DisassembleInstr(cls, code[i]) << "\n";
  }
  return out.str();
}

std::string DisassembleMethod(const ClassFile& cls, const MethodInfo& method) {
  std::ostringstream out;
  out << "  method " << method.name << method.descriptor;
  if (method.IsNative()) {
    out << " (native)\n";
    return out.str();
  }
  if (method.IsAbstract()) {
    out << " (abstract)\n";
    return out.str();
  }
  if (!method.code.has_value()) {
    out << " (no code)\n";
    return out.str();
  }
  const CodeAttr& code = *method.code;
  out << " stack=" << code.max_stack << " locals=" << code.max_locals << "\n";
  auto decoded = DecodeCode(code.code);
  if (!decoded.ok()) {
    out << "    <undecodable: " << decoded.error().ToString() << ">\n";
    return out.str();
  }
  const auto& instrs = decoded->instrs;
  for (size_t i = 0; i < instrs.size(); i++) {
    const OpInfo* info = GetOpInfo(instrs[i].op);
    out << "    " << i << ": " << (info != nullptr ? info->name : "<bad>")
        << OperandString(&cls, instrs[i]) << "\n";
  }
  for (const auto& h : code.handlers) {
    out << "    handler [" << h.start_pc << "," << h.end_pc << ") -> " << h.handler_pc;
    if (h.catch_type != 0) {
      out << " catch " << cls.pool().ClassNameAt(h.catch_type).value();
    }
    out << "\n";
  }
  return out.str();
}

std::string DisassembleClass(const ClassFile& cls) {
  std::ostringstream out;
  out << "class " << cls.name();
  if (!cls.super_name().empty()) {
    out << " extends " << cls.super_name();
  }
  out << "\n";
  for (const auto& f : cls.fields) {
    out << "  field " << (f.IsStatic() ? "static " : "") << f.name << ":" << f.descriptor
        << "\n";
  }
  for (const auto& m : cls.methods) {
    out << DisassembleMethod(cls, m);
  }
  return out.str();
}

}  // namespace dvm
