#include "src/proxy/signature.h"

#include "src/bytecode/serializer.h"

namespace dvm {

Md5Digest CodeSigner::Sign(const Bytes& data) const {
  Md5 md5;
  md5.Update(key_);
  md5.Update(data);
  md5.Update(key_);
  return md5.Finish();
}

Status CodeSigner::AttachSignature(ClassFile* cls) const {
  cls->RemoveAttribute(kAttrSignatureDigest);
  DVM_ASSIGN_OR_RETURN(Bytes wire, WriteClassFile(*cls));
  Md5Digest digest = Sign(wire);
  cls->SetAttribute(kAttrSignatureDigest, Bytes(digest.begin(), digest.end()));
  return Status::Ok();
}

Status CodeSigner::VerifyClassBytes(const Bytes& data) const {
  DVM_ASSIGN_OR_RETURN(ClassFile cls, ReadClassFile(data));
  const Attribute* attr = cls.FindAttribute(kAttrSignatureDigest);
  if (attr == nullptr || attr->data.size() != 16) {
    return Error{ErrorCode::kSecurityError, "class " + cls.name() + " is unsigned"};
  }
  Md5Digest claimed;
  std::copy(attr->data.begin(), attr->data.end(), claimed.begin());
  cls.RemoveAttribute(kAttrSignatureDigest);
  DVM_ASSIGN_OR_RETURN(Bytes unsigned_wire, WriteClassFile(cls));
  Md5Digest actual = Sign(unsigned_wire);
  if (claimed != actual) {
    return Error{ErrorCode::kSecurityError,
                 "signature mismatch on class " + cls.name() + " (code was modified)"};
  }
  return Status::Ok();
}

}  // namespace dvm
