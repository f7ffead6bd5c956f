#include "src/services/reflect_service.h"

namespace dvm {

Bytes EncodeReflectionInfo(const ClassFile& cls) {
  ByteWriter w;
  w.U16(static_cast<uint16_t>(cls.fields.size()));
  for (const auto& f : cls.fields) {
    w.Str(f.name);
    w.Str(f.descriptor);
  }
  w.U16(static_cast<uint16_t>(cls.methods.size()));
  for (const auto& m : cls.methods) {
    w.Str(m.name);
    w.Str(m.descriptor);
  }
  return w.Take();
}

Result<ReflectionInfo> DecodeReflectionInfo(const Bytes& data) {
  ByteReader r(data);
  ReflectionInfo info;
  DVM_ASSIGN_OR_RETURN(uint16_t field_count, r.U16());
  for (uint16_t i = 0; i < field_count; i++) {
    DVM_ASSIGN_OR_RETURN(std::string name, r.Str());
    DVM_ASSIGN_OR_RETURN(std::string desc, r.Str());
    info.fields.emplace_back(std::move(name), std::move(desc));
  }
  DVM_ASSIGN_OR_RETURN(uint16_t method_count, r.U16());
  for (uint16_t i = 0; i < method_count; i++) {
    DVM_ASSIGN_OR_RETURN(std::string name, r.Str());
    DVM_ASSIGN_OR_RETURN(std::string desc, r.Str());
    info.methods.emplace_back(std::move(name), std::move(desc));
  }
  if (!r.AtEnd()) {
    return Error{ErrorCode::kParseError, "trailing bytes in ReflectionInfo"};
  }
  return info;
}

Result<FilterOutcome> ReflectionFilter::Apply(ClassFile& cls, const FilterContext& ctx) const {
  FilterOutcome outcome;
  cls.SetAttribute(kAttrReflectionInfo, EncodeReflectionInfo(cls));
  outcome.modified = true;
  outcome.checks_performed = cls.fields.size() + cls.methods.size();
  return outcome;
}

}  // namespace dvm
