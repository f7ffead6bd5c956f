// Code signing for rewritten classes (paper section 2): in environments where
// the proxy-to-client path is untrusted, the static services attach a keyed
// digest so injected checks are inseparable from the application; clients
// redirect incorrectly signed or unsigned code back to the centralized
// services. The digest is MD5(key || class-bytes || key) computed over the
// serialized class with the signature attribute removed.
#ifndef SRC_PROXY_SIGNATURE_H_
#define SRC_PROXY_SIGNATURE_H_

#include <string>

#include "src/bytecode/classfile.h"
#include "src/support/md5.h"
#include "src/support/result.h"

namespace dvm {

class CodeSigner {
 public:
  explicit CodeSigner(std::string key) : key_(std::move(key)) {}

  Md5Digest Sign(const Bytes& data) const;

  // Computes and attaches the signature attribute. Fails with kParseError if
  // the class cannot be serialized (oversized tables from hostile rewrites).
  Status AttachSignature(ClassFile* cls) const;

  // Verifies a serialized class; kSecurityError when unsigned or tampered.
  Status VerifyClassBytes(const Bytes& data) const;

 private:
  std::string key_;
};

}  // namespace dvm

#endif  // SRC_PROXY_SIGNATURE_H_
