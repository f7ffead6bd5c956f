#include "src/bytecode/descriptor.h"

namespace dvm {
namespace {

// Array descriptors deeper than this are malformed (JVM spec caps dimensions
// at 255). The cap also bounds the work done on a hostile 65535-char "[[[["…
// descriptor, which previously recursed once per bracket.
constexpr size_t kMaxArrayDims = 255;

// Consumes one type descriptor starting at *pos; returns false on malformed input.
bool ConsumeType(std::string_view desc, size_t* pos) {
  size_t dims = 0;
  while (*pos < desc.size() && desc[*pos] == '[') {
    if (++dims > kMaxArrayDims) {
      return false;
    }
    (*pos)++;
  }
  if (*pos >= desc.size()) {
    return false;
  }
  switch (desc[*pos]) {
    case 'I':
    case 'J':
      (*pos)++;
      return true;
    case 'L': {
      size_t semi = desc.find(';', *pos);
      if (semi == std::string_view::npos || semi == *pos + 1) {
        return false;
      }
      *pos = semi + 1;
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

bool IsValidTypeDescriptor(const std::string& desc) {
  size_t pos = 0;
  return ConsumeType(desc, &pos) && pos == desc.size();
}

bool IsValidReturnDescriptor(const std::string& desc) {
  return desc == "V" || IsValidTypeDescriptor(desc);
}

bool IsReferenceDescriptor(const std::string& desc) {
  return !desc.empty() && (desc[0] == 'L' || desc[0] == '[');
}

bool IsArrayDescriptor(const std::string& desc) { return !desc.empty() && desc[0] == '['; }

Result<MethodSignature> ParseMethodDescriptor(const std::string& desc) {
  if (desc.empty() || desc[0] != '(') {
    return Error{ErrorCode::kParseError, "method descriptor must start with '(': " + desc};
  }
  MethodSignature sig;
  size_t pos = 1;
  while (pos < desc.size() && desc[pos] != ')') {
    size_t start = pos;
    if (!ConsumeType(desc, &pos)) {
      return Error{ErrorCode::kParseError, "malformed parameter in descriptor: " + desc};
    }
    sig.params.push_back(desc.substr(start, pos - start));
  }
  if (pos >= desc.size() || desc[pos] != ')') {
    return Error{ErrorCode::kParseError, "unterminated parameter list in descriptor: " + desc};
  }
  pos++;
  sig.return_type = desc.substr(pos);
  if (!IsValidReturnDescriptor(sig.return_type)) {
    return Error{ErrorCode::kParseError, "malformed return type in descriptor: " + desc};
  }
  return sig;
}

std::optional<MethodShape> ScanMethodDescriptor(std::string_view desc) {
  // Mirrors ParseMethodDescriptor step for step.
  if (desc.empty() || desc[0] != '(') {
    return std::nullopt;
  }
  MethodShape shape;
  size_t pos = 1;
  while (pos < desc.size() && desc[pos] != ')') {
    if (!ConsumeType(desc, &pos)) {
      return std::nullopt;
    }
    shape.arg_slots++;
  }
  if (pos >= desc.size() || desc[pos] != ')') {
    return std::nullopt;
  }
  std::string_view ret = desc.substr(pos + 1);
  shape.returns_void = ret == "V";
  size_t ret_pos = 0;
  if (!shape.returns_void && !(ConsumeType(ret, &ret_pos) && ret_pos == ret.size())) {
    return std::nullopt;
  }
  return shape;
}

std::string MakeMethodDescriptor(const std::vector<std::string>& params,
                                 const std::string& return_type) {
  std::string out = "(";
  for (const auto& p : params) {
    out += p;
  }
  out += ")";
  out += return_type;
  return out;
}

std::string ClassNameFromDescriptor(const std::string& desc) {
  if (desc.size() >= 2 && desc.front() == 'L' && desc.back() == ';') {
    return desc.substr(1, desc.size() - 2);
  }
  return desc;  // array descriptors name themselves
}

std::string DescriptorFromClassName(const std::string& class_name) {
  if (!class_name.empty() && class_name[0] == '[') {
    return class_name;  // already an array descriptor
  }
  return "L" + class_name + ";";
}

std::string ArrayElementDescriptor(const std::string& desc) {
  if (desc.empty() || desc[0] != '[') {
    return desc;
  }
  return desc.substr(1);
}

}  // namespace dvm
