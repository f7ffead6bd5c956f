#include "src/bytecode/assembler.h"

#include <map>
#include <sstream>

#include "src/bytecode/builder.h"
#include "src/bytecode/code.h"
#include "src/bytecode/descriptor.h"
#include "src/support/strings.h"

namespace dvm {
namespace {

Error AsmErr(size_t line, const std::string& message) {
  return Error{ErrorCode::kParseError,
               "asm line " + std::to_string(line) + ": " + message};
}

// Splits a line into tokens; double-quoted strings (with \" \\ \n \t escapes)
// become single tokens carrying a marker prefix '\x01' so later stages can
// tell "42" the string from 42 the integer.
Result<std::vector<std::string>> Tokenize(const std::string& line, size_t line_no) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < line.size()) {
    if (line[i] == ' ' || line[i] == '\t') {
      i++;
      continue;
    }
    if (line[i] == '"') {
      std::string value(1, '\x01');
      i++;
      while (i < line.size() && line[i] != '"') {
        if (line[i] == '\\' && i + 1 < line.size()) {
          char c = line[i + 1];
          value.push_back(c == 'n' ? '\n' : c == 't' ? '\t' : c);
          i += 2;
        } else {
          value.push_back(line[i++]);
        }
      }
      if (i >= line.size()) {
        return AsmErr(line_no, "unterminated string literal");
      }
      i++;  // closing quote
      tokens.push_back(std::move(value));
      continue;
    }
    size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') {
      i++;
    }
    tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

const std::map<std::string, Op>& OpByName() {
  static const auto* map = [] {
    auto* m = new std::map<std::string, Op>();
    for (int raw = 0; raw < 256; raw++) {
      const OpInfo* info = GetOpInfo(static_cast<uint8_t>(raw));
      if (info != nullptr) {
        (*m)[std::string(info->name)] = static_cast<Op>(raw);
      }
    }
    return m;
  }();
  return *map;
}

Result<uint16_t> ParseFlags(const std::vector<std::string>& tokens, size_t from,
                            size_t line_no) {
  uint16_t flags = 0;
  for (size_t i = from; i < tokens.size(); i++) {
    const std::string& f = tokens[i];
    if (f == "public") {
      flags |= AccessFlags::kPublic;
    } else if (f == "private") {
      flags |= AccessFlags::kPrivate;
    } else if (f == "protected") {
      flags |= AccessFlags::kProtected;
    } else if (f == "static") {
      flags |= AccessFlags::kStatic;
    } else if (f == "final") {
      flags |= AccessFlags::kFinal;
    } else if (f == "synchronized") {
      flags |= AccessFlags::kSynchronized;
    } else if (f == "native") {
      flags |= AccessFlags::kNative;
    } else if (f == "abstract") {
      flags |= AccessFlags::kAbstract;
    } else if (f == "interface") {
      flags |= AccessFlags::kInterface;
    } else {
      return AsmErr(line_no, "unknown flag '" + f + "'");
    }
  }
  return flags;
}

std::string FlagsToString(uint16_t flags) {
  std::vector<std::string> names;
  if (flags & AccessFlags::kPublic) {
    names.push_back("public");
  }
  if (flags & AccessFlags::kPrivate) {
    names.push_back("private");
  }
  if (flags & AccessFlags::kProtected) {
    names.push_back("protected");
  }
  if (flags & AccessFlags::kStatic) {
    names.push_back("static");
  }
  if (flags & AccessFlags::kFinal) {
    names.push_back("final");
  }
  if (flags & AccessFlags::kSynchronized) {
    names.push_back("synchronized");
  }
  if (flags & AccessFlags::kNative) {
    names.push_back("native");
  }
  if (flags & AccessFlags::kAbstract) {
    names.push_back("abstract");
  }
  if (flags & AccessFlags::kInterface) {
    names.push_back("interface");
  }
  return Join(names, " ");
}

Result<int64_t> ParseInt(const std::string& token, size_t line_no) {
  if (token.empty() || token[0] == '\x01') {
    return AsmErr(line_no, "expected integer, found string/empty");
  }
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(token.c_str(), &end, 10);
  if (end == token.c_str() || (*end != '\0' && !(*end == 'L' && end[1] == '\0'))) {
    return AsmErr(line_no, "malformed integer '" + token + "'");
  }
  return static_cast<int64_t>(v);
}

struct PendingHandler {
  std::string start, end, handler, catch_class;
  size_t line_no;
};

class Assembler {
 public:
  Result<ClassFile> Run(const std::string& text);

 private:
  Status HandleDirective(const std::vector<std::string>& tokens, size_t line_no);
  Status HandleInstruction(const std::vector<std::string>& tokens, size_t line_no);
  Status FinishMethod(size_t line_no);
  Result<Label> LabelFor(const std::string& name);

  std::unique_ptr<ClassBuilder> class_builder_;
  MethodBuilder* method_ = nullptr;
  std::map<std::string, Label> labels_;
  std::map<std::string, bool> label_bound_;
  std::vector<PendingHandler> handlers_;
  // True between a native/abstract .method and its .end (no body allowed).
  bool bodyless_open_ = false;
};

Result<Label> Assembler::LabelFor(const std::string& name) {
  auto it = labels_.find(name);
  if (it != labels_.end()) {
    return it->second;
  }
  Label label = method_->NewLabel();
  labels_[name] = label;
  label_bound_[name] = false;
  return label;
}

Status Assembler::FinishMethod(size_t line_no) {
  for (const auto& h : handlers_) {
    auto start = labels_.find(h.start);
    auto end = labels_.find(h.end);
    auto target = labels_.find(h.handler);
    if (start == labels_.end() || end == labels_.end() || target == labels_.end()) {
      return AsmErr(h.line_no, "handler references unknown label");
    }
    method_->AddHandler(start->second, end->second, target->second, h.catch_class);
  }
  for (const auto& [name, bound] : label_bound_) {
    if (!bound) {
      return AsmErr(line_no, "label '" + name + "' referenced but never defined");
    }
  }
  method_ = nullptr;
  labels_.clear();
  label_bound_.clear();
  handlers_.clear();
  return Status::Ok();
}

Status Assembler::HandleDirective(const std::vector<std::string>& tokens, size_t line_no) {
  const std::string& directive = tokens[0];
  if (directive == ".class") {
    if (class_builder_ != nullptr) {
      return AsmErr(line_no, "duplicate .class directive");
    }
    if (tokens.size() < 2) {
      return AsmErr(line_no, ".class requires a name");
    }
    std::string super = "java/lang/Object";
    size_t flags_from = 2;
    if (tokens.size() >= 4 && tokens[2] == "extends") {
      super = tokens[3];
      flags_from = 4;
    }
    uint16_t flags = AccessFlags::kPublic;
    if (flags_from < tokens.size()) {
      if (tokens[flags_from] != "flags") {
        return AsmErr(line_no, "expected 'flags' in .class");
      }
      DVM_ASSIGN_OR_RETURN(flags, ParseFlags(tokens, flags_from + 1, line_no));
    }
    class_builder_ = std::make_unique<ClassBuilder>(tokens[1], super, flags);
    return Status::Ok();
  }
  if (class_builder_ == nullptr) {
    return AsmErr(line_no, "directive before .class");
  }
  if (directive == ".interface") {
    if (tokens.size() != 2) {
      return AsmErr(line_no, ".interface requires a name");
    }
    class_builder_->AddInterface(tokens[1]);
    return Status::Ok();
  }
  if (directive == ".field") {
    if (tokens.size() < 3) {
      return AsmErr(line_no, ".field requires name and descriptor");
    }
    uint16_t flags = AccessFlags::kPublic;
    if (tokens.size() > 3) {
      if (tokens[3] != "flags") {
        return AsmErr(line_no, "expected 'flags' in .field");
      }
      DVM_ASSIGN_OR_RETURN(flags, ParseFlags(tokens, 4, line_no));
    }
    if (!IsValidTypeDescriptor(tokens[2])) {
      return AsmErr(line_no, "malformed field descriptor '" + tokens[2] + "'");
    }
    class_builder_->AddField(flags, tokens[1], tokens[2]);
    return Status::Ok();
  }
  if (directive == ".method") {
    if (method_ != nullptr) {
      return AsmErr(line_no, ".method inside a method (missing .end?)");
    }
    if (tokens.size() < 3) {
      return AsmErr(line_no, ".method requires name and descriptor");
    }
    uint16_t flags = AccessFlags::kPublic;
    if (tokens.size() > 3) {
      if (tokens[3] != "flags") {
        return AsmErr(line_no, "expected 'flags' in .method");
      }
      DVM_ASSIGN_OR_RETURN(flags, ParseFlags(tokens, 4, line_no));
    }
    if (!ParseMethodDescriptor(tokens[2]).ok()) {
      return AsmErr(line_no, "malformed method descriptor '" + tokens[2] + "'");
    }
    if ((flags & AccessFlags::kNative) != 0) {
      class_builder_->AddNativeMethod(flags, tokens[1], tokens[2]);
      method_ = nullptr;
      bodyless_open_ = true;
      return Status::Ok();
    }
    if ((flags & AccessFlags::kAbstract) != 0) {
      class_builder_->AddAbstractMethod(flags, tokens[1], tokens[2]);
      method_ = nullptr;
      bodyless_open_ = true;
      return Status::Ok();
    }
    method_ = &class_builder_->AddMethod(flags, tokens[1], tokens[2]);
    return Status::Ok();
  }
  if (directive == ".handler") {
    if (method_ == nullptr) {
      return AsmErr(line_no, ".handler outside a method");
    }
    if (tokens.size() < 4) {
      return AsmErr(line_no, ".handler requires start end target [class]");
    }
    PendingHandler h;
    h.start = tokens[1];
    h.end = tokens[2];
    h.handler = tokens[3];
    h.catch_class = tokens.size() > 4 ? tokens[4] : "";
    h.line_no = line_no;
    handlers_.push_back(std::move(h));
    return Status::Ok();
  }
  if (directive == ".end") {
    if (method_ != nullptr) {
      return FinishMethod(line_no);
    }
    if (bodyless_open_) {
      bodyless_open_ = false;
      return Status::Ok();
    }
    return AsmErr(line_no, ".end without open method");
  }
  return AsmErr(line_no, "unknown directive '" + directive + "'");
}

Status Assembler::HandleInstruction(const std::vector<std::string>& tokens, size_t line_no) {
  if (method_ == nullptr) {
    return AsmErr(line_no, "instruction outside a method");
  }
  auto it = OpByName().find(tokens[0]);
  if (it == OpByName().end()) {
    return AsmErr(line_no, "unknown instruction '" + tokens[0] + "'");
  }
  Op op = it->second;
  const OpInfo* info = GetOpInfo(op);

  auto need = [&](size_t n) -> Status {
    if (tokens.size() != n + 1) {
      return AsmErr(line_no, std::string(info->name) + " expects " + std::to_string(n) +
                                 " operand(s)");
    }
    return Status::Ok();
  };

  switch (info->operands) {
    case OperandKind::kNone:
      DVM_RETURN_IF_ERROR(need(0));
      method_->Emit(op);
      return Status::Ok();
    case OperandKind::kI8:
    case OperandKind::kI16:
    case OperandKind::kU8: {
      DVM_RETURN_IF_ERROR(need(1));
      DVM_ASSIGN_OR_RETURN(int64_t v, ParseInt(tokens[1], line_no));
      method_->Emit(op, static_cast<int32_t>(v));
      return Status::Ok();
    }
    case OperandKind::kLocalIncr: {
      DVM_RETURN_IF_ERROR(need(2));
      DVM_ASSIGN_OR_RETURN(int64_t local, ParseInt(tokens[1], line_no));
      DVM_ASSIGN_OR_RETURN(int64_t delta, ParseInt(tokens[2], line_no));
      method_->Emit(op, static_cast<int32_t>(local), static_cast<int32_t>(delta));
      return Status::Ok();
    }
    case OperandKind::kArrayKind: {
      DVM_RETURN_IF_ERROR(need(1));
      if (tokens[1] == "int") {
        method_->Emit(op, static_cast<int>(ArrayKind::kInt));
      } else if (tokens[1] == "long") {
        method_->Emit(op, static_cast<int>(ArrayKind::kLong));
      } else {
        return AsmErr(line_no, "newarray expects 'int' or 'long'");
      }
      return Status::Ok();
    }
    case OperandKind::kBranch16: {
      DVM_RETURN_IF_ERROR(need(1));
      DVM_ASSIGN_OR_RETURN(Label target, LabelFor(tokens[1]));
      method_->Branch(op, target);
      return Status::Ok();
    }
    case OperandKind::kCpIndex: {
      ConstantPool& pool = class_builder_->pool();
      if (op == Op::kLdc) {
        DVM_RETURN_IF_ERROR(need(1));
        const std::string& t = tokens[1];
        if (!t.empty() && t[0] == '\x01') {
          method_->Emit(op, pool.AddString(t.substr(1)));
        } else if (EndsWith(t, "L")) {
          DVM_ASSIGN_OR_RETURN(int64_t v, ParseInt(t, line_no));
          method_->Emit(op, pool.AddLong(v));
        } else {
          DVM_ASSIGN_OR_RETURN(int64_t v, ParseInt(t, line_no));
          method_->Emit(op, pool.AddInteger(static_cast<int32_t>(v)));
        }
        return Status::Ok();
      }
      if (IsFieldAccess(op)) {
        DVM_RETURN_IF_ERROR(need(3));
        if (!IsValidTypeDescriptor(tokens[3])) {
          return AsmErr(line_no, "malformed field descriptor '" + tokens[3] + "'");
        }
        method_->Emit(op, pool.AddFieldRef(tokens[1], tokens[2], tokens[3]));
        return Status::Ok();
      }
      if (IsInvoke(op)) {
        DVM_RETURN_IF_ERROR(need(3));
        if (!ParseMethodDescriptor(tokens[3]).ok()) {
          return AsmErr(line_no, "malformed method descriptor '" + tokens[3] + "'");
        }
        method_->Emit(op, pool.AddMethodRef(tokens[1], tokens[2], tokens[3]));
        return Status::Ok();
      }
      // new / anewarray / checkcast / instanceof
      DVM_RETURN_IF_ERROR(need(1));
      method_->Emit(op, pool.AddClass(tokens[1]));
      return Status::Ok();
    }
  }
  return AsmErr(line_no, "unhandled operand kind");
}

Result<ClassFile> Assembler::Run(const std::string& text) {
  std::istringstream stream(text);
  std::string raw_line;
  size_t line_no = 0;
  while (std::getline(stream, raw_line)) {
    line_no++;
    std::string line = Trim(raw_line);
    if (line.empty() || line[0] == ';' || line[0] == '#') {
      continue;
    }
    DVM_ASSIGN_OR_RETURN(std::vector<std::string> tokens, Tokenize(line, line_no));
    if (tokens.empty()) {
      continue;
    }
    if (tokens[0][0] == '.') {
      DVM_RETURN_IF_ERROR(HandleDirective(tokens, line_no));
      continue;
    }
    if (tokens.size() == 1 && EndsWith(tokens[0], ":")) {
      if (method_ == nullptr) {
        return AsmErr(line_no, "label outside a method");
      }
      std::string name = tokens[0].substr(0, tokens[0].size() - 1);
      DVM_ASSIGN_OR_RETURN(Label label, LabelFor(name));
      method_->Bind(label);
      label_bound_[name] = true;
      continue;
    }
    DVM_RETURN_IF_ERROR(HandleInstruction(tokens, line_no));
  }
  if (method_ != nullptr) {
    return AsmErr(line_no, "missing .end at end of input");
  }
  if (class_builder_ == nullptr) {
    return AsmErr(line_no, "no .class directive found");
  }
  return class_builder_->Build();
}

}  // namespace

Result<ClassFile> AssembleText(const std::string& text) { return Assembler().Run(text); }

std::string ToAssembly(const ClassFile& cls) {
  std::ostringstream out;
  out << ".class " << cls.name();
  if (!cls.super_name().empty()) {
    out << " extends " << cls.super_name();
  }
  if (cls.access_flags != 0) {
    out << " flags " << FlagsToString(cls.access_flags);
  }
  out << "\n";
  for (uint16_t iface : cls.interfaces) {
    auto name = cls.pool().ClassNameAt(iface);
    if (name.ok()) {
      out << ".interface " << name.value() << "\n";
    }
  }
  for (const auto& f : cls.fields) {
    out << ".field " << f.name << " " << f.descriptor << " flags "
        << FlagsToString(f.access_flags) << "\n";
  }

  for (const auto& m : cls.methods) {
    out << ".method " << m.name << " " << m.descriptor << " flags "
        << FlagsToString(m.access_flags) << "\n";
    if (m.code.has_value()) {
      auto decoded = DecodeCode(m.code->code);
      if (decoded.ok()) {
        const auto& instrs = decoded->instrs;
        const auto& offsets = decoded->offsets;
        // Collect label positions: branch targets and handler boundaries.
        std::map<size_t, std::string> labels;
        auto label_at = [&labels](size_t index) {
          auto it = labels.find(index);
          if (it == labels.end()) {
            it = labels.emplace(index, "L" + std::to_string(labels.size())).first;
          }
          return it->second;
        };
        for (const auto& instr : instrs) {
          if (IsBranch(instr.op)) {
            label_at(static_cast<size_t>(instr.a));
          }
        }
        struct HandlerIx {
          size_t start, end, handler;
          std::string catch_class;
        };
        std::vector<HandlerIx> handler_ixs;
        for (const auto& h : m.code->handlers) {
          HandlerIx ix{0, 0, 0, ""};
          for (size_t i = 0; i < offsets.size(); i++) {
            if (offsets[i] == h.start_pc) {
              ix.start = i;
            }
            if (offsets[i] == h.end_pc) {
              ix.end = i;
            }
            if (offsets[i] == h.handler_pc) {
              ix.handler = i;
            }
          }
          if (h.catch_type != 0) {
            auto name = cls.pool().ClassNameAt(h.catch_type);
            if (name.ok()) {
              ix.catch_class = name.value();
            }
          }
          label_at(ix.start);
          label_at(ix.end);
          label_at(ix.handler);
          handler_ixs.push_back(std::move(ix));
        }

        const ConstantPool& pool = cls.pool();
        for (size_t i = 0; i <= instrs.size(); i++) {
          if (labels.count(i)) {
            out << labels[i] << ":\n";
          }
          if (i == instrs.size()) {
            break;
          }
          const Instr& instr = instrs[i];
          const OpInfo* info = GetOpInfo(instr.op);
          out << "  " << info->name;
          switch (info->operands) {
            case OperandKind::kNone:
              break;
            case OperandKind::kI8:
            case OperandKind::kI16:
            case OperandKind::kU8:
              out << " " << instr.a;
              break;
            case OperandKind::kLocalIncr:
              out << " " << instr.a << " " << instr.b;
              break;
            case OperandKind::kArrayKind:
              out << (instr.a == static_cast<int>(ArrayKind::kLong) ? " long" : " int");
              break;
            case OperandKind::kBranch16:
              out << " " << labels[static_cast<size_t>(instr.a)];
              break;
            case OperandKind::kCpIndex: {
              uint16_t index = static_cast<uint16_t>(instr.a);
              if (pool.HasTag(index, CpTag::kInteger)) {
                out << " " << pool.IntegerAt(index).value();
              } else if (pool.HasTag(index, CpTag::kLong)) {
                out << " " << pool.LongAt(index).value() << "L";
              } else if (pool.HasTag(index, CpTag::kString)) {
                std::string value = pool.StringAt(index).value();
                out << " \"";
                for (char c : value) {
                  if (c == '"' || c == '\\') {
                    out << '\\' << c;
                  } else if (c == '\n') {
                    out << "\\n";
                  } else if (c == '\t') {
                    out << "\\t";
                  } else {
                    out << c;
                  }
                }
                out << "\"";
              } else if (pool.HasTag(index, CpTag::kClass)) {
                out << " " << pool.ClassNameAt(index).value();
              } else if (pool.HasTag(index, CpTag::kFieldRef)) {
                MemberRef ref = pool.FieldRefAt(index).value();
                out << " " << ref.class_name << " " << ref.member_name << " "
                    << ref.descriptor;
              } else if (pool.HasTag(index, CpTag::kMethodRef)) {
                MemberRef ref = pool.MethodRefAt(index).value();
                out << " " << ref.class_name << " " << ref.member_name << " "
                    << ref.descriptor;
              }
              break;
            }
          }
          out << "\n";
        }
        for (const auto& ix : handler_ixs) {
          out << ".handler " << labels[ix.start] << " " << labels[ix.end] << " "
              << labels[ix.handler];
          if (!ix.catch_class.empty()) {
            out << " " << ix.catch_class;
          }
          out << "\n";
        }
      }
    }
    out << ".end\n";
  }
  return out.str();
}

}  // namespace dvm
