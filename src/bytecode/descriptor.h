// Type and method descriptors, in JVM notation:
//   I               32-bit int
//   J               64-bit long
//   Lpkg/Class;     object reference
//   [T              array of T
//   V               void (method returns only)
// Class names use slash form ("java/lang/System") throughout the codebase.
// Unlike the JVM, every type occupies exactly one local/stack slot.
#ifndef SRC_BYTECODE_DESCRIPTOR_H_
#define SRC_BYTECODE_DESCRIPTOR_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/result.h"

namespace dvm {

struct MethodSignature {
  std::vector<std::string> params;  // type descriptors
  std::string return_type;          // type descriptor or "V"

  // Number of argument slots, excluding the receiver.
  int ArgSlots() const { return static_cast<int>(params.size()); }
  bool ReturnsVoid() const { return return_type == "V"; }
};

// True for a well-formed field/value type descriptor (not "V").
bool IsValidTypeDescriptor(const std::string& desc);
// True for "V" or a well-formed value type descriptor.
bool IsValidReturnDescriptor(const std::string& desc);
bool IsReferenceDescriptor(const std::string& desc);
bool IsArrayDescriptor(const std::string& desc);

// Parses "(IJ[Lfoo/Bar;)V" style method descriptors.
Result<MethodSignature> ParseMethodDescriptor(const std::string& desc);

// What a stack-depth walk needs from a method descriptor, read without
// allocating: the argument slot count and whether the method returns void.
struct MethodShape {
  int arg_slots = 0;
  bool returns_void = false;
};
// Accepts exactly the descriptors ParseMethodDescriptor accepts (nullopt for
// the rest), with arg_slots == ArgSlots() and returns_void == ReturnsVoid().
std::optional<MethodShape> ScanMethodDescriptor(std::string_view desc);
std::string MakeMethodDescriptor(const std::vector<std::string>& params,
                                 const std::string& return_type);

// "Lfoo/Bar;" -> "foo/Bar". Precondition: IsReferenceDescriptor(desc) and not an array.
std::string ClassNameFromDescriptor(const std::string& desc);
// "foo/Bar" -> "Lfoo/Bar;"
std::string DescriptorFromClassName(const std::string& class_name);
// "[I" -> "I", "[[J" -> "[J"
std::string ArrayElementDescriptor(const std::string& desc);

}  // namespace dvm

#endif  // SRC_BYTECODE_DESCRIPTOR_H_
