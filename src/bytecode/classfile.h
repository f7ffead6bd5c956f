// In-memory model of a DVM class file: constant pool, fields, methods with code
// attributes, and generic named attributes. Generic attributes carry service
// annotations (e.g. the proxy's signature attribute and the reflection service's
// self-describing metadata, paper section 4.3).
#ifndef SRC_BYTECODE_CLASSFILE_H_
#define SRC_BYTECODE_CLASSFILE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/bytecode/constant_pool.h"
#include "src/support/bytes.h"

namespace dvm {

// Access and property flags, matching JVM bit positions where they exist.
struct AccessFlags {
  static constexpr uint16_t kPublic = 0x0001;
  static constexpr uint16_t kPrivate = 0x0002;
  static constexpr uint16_t kProtected = 0x0004;
  static constexpr uint16_t kStatic = 0x0008;
  static constexpr uint16_t kFinal = 0x0010;
  static constexpr uint16_t kSynchronized = 0x0020;
  static constexpr uint16_t kNative = 0x0100;
  static constexpr uint16_t kInterface = 0x0200;
  static constexpr uint16_t kAbstract = 0x0400;
};

struct Attribute {
  std::string name;
  Bytes data;
};

// Well-known attribute names.
inline constexpr const char* kAttrSignatureDigest = "dvm.SignatureDigest";
inline constexpr const char* kAttrServiceStamp = "dvm.ServiceStamp";
inline constexpr const char* kAttrReflectionInfo = "dvm.ReflectionInfo";
inline constexpr const char* kAttrSourceApp = "dvm.SourceApp";
// Present when the compilation service translated the class to the client's
// native format; the payload names the target platform.
inline constexpr const char* kAttrCompiledStamp = "dvm.CompiledStamp";

struct FieldInfo {
  uint16_t access_flags = 0;
  std::string name;
  std::string descriptor;
  std::vector<Attribute> attributes;

  bool IsStatic() const { return (access_flags & AccessFlags::kStatic) != 0; }
};

struct ExceptionHandler {
  uint16_t start_pc = 0;    // [start_pc, end_pc) byte range covered
  uint16_t end_pc = 0;
  uint16_t handler_pc = 0;  // byte offset of the handler
  uint16_t catch_type = 0;  // constant pool ClassRef index, 0 = catch all
};

struct CodeAttr {
  uint16_t max_stack = 0;
  uint16_t max_locals = 0;
  Bytes code;  // encoded instruction stream
  std::vector<ExceptionHandler> handlers;
};

struct MethodInfo {
  uint16_t access_flags = 0;
  std::string name;
  std::string descriptor;
  std::optional<CodeAttr> code;  // absent for native/abstract methods
  std::vector<Attribute> attributes;

  bool IsStatic() const { return (access_flags & AccessFlags::kStatic) != 0; }
  bool IsNative() const { return (access_flags & AccessFlags::kNative) != 0; }
  bool IsAbstract() const { return (access_flags & AccessFlags::kAbstract) != 0; }
  bool IsConstructor() const { return name == "<init>"; }
  bool IsClassInitializer() const { return name == "<clinit>"; }
  std::string Id() const { return name + ":" + descriptor; }
};

class ClassFile {
 public:
  static constexpr uint32_t kMagic = 0xCAFEDA7A;
  static constexpr uint16_t kVersion = 1;

  ConstantPool& pool() { return pool_; }
  const ConstantPool& pool() const { return pool_; }

  uint16_t access_flags = 0;
  uint16_t this_class = 0;   // ClassRef index
  uint16_t super_class = 0;  // ClassRef index, 0 only for the root class
  std::vector<uint16_t> interfaces;  // ClassRef indices
  std::vector<FieldInfo> fields;
  std::vector<MethodInfo> methods;
  std::vector<Attribute> attributes;

  // Convenience accessors; return "" on malformed indices (phase-1 verification
  // rejects those before any other component sees the class).
  std::string name() const;
  std::string super_name() const;

  const MethodInfo* FindMethod(const std::string& method_name,
                               const std::string& descriptor) const;
  MethodInfo* FindMethod(const std::string& method_name, const std::string& descriptor);
  const FieldInfo* FindField(const std::string& field_name) const;

  const Attribute* FindAttribute(const std::string& attr_name) const;
  void SetAttribute(const std::string& attr_name, Bytes data);
  bool RemoveAttribute(const std::string& attr_name);

  bool IsInterface() const { return (access_flags & AccessFlags::kInterface) != 0; }

 private:
  ConstantPool pool_;
};

}  // namespace dvm

#endif  // SRC_BYTECODE_CLASSFILE_H_
