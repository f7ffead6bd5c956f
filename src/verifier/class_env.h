// Environment interfaces the verifier consults about *other* classes.
//
// The key architectural idea (paper section 3.1): the static verifier on the
// proxy does NOT have the client's namespace. It runs phases 1-3 against a
// partial environment (the class under verification plus the standard library
// it ships), records every assumption it had to make about absent classes, and
// defers those to the client's small dynamic component (phase 4).
#ifndef SRC_VERIFIER_CLASS_ENV_H_
#define SRC_VERIFIER_CLASS_ENV_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/bytecode/classfile.h"

namespace dvm {

// Read-only view of a set of classes. The static service implements this over
// the class it rewrites and the library (ArtifactEnv); the runtime implements
// it over loaded classes.
class ClassEnv {
 public:
  virtual ~ClassEnv() = default;

  // nullptr when the class is not known to this environment. That is not an
  // error for the static verifier — it records an assumption instead.
  virtual const ClassFile* Lookup(const std::string& class_name) const = 0;

  bool IsKnown(const std::string& class_name) const { return Lookup(class_name) != nullptr; }
};

// Simple map-backed environment, used by the proxy pipeline and tests.
// Does not own the class files it serves.
class MapClassEnv : public ClassEnv {
 public:
  void Add(const ClassFile* cls) { classes_[cls->name()] = cls; }
  const ClassFile* Lookup(const std::string& class_name) const override {
    auto it = classes_.find(class_name);
    return it == classes_.end() ? nullptr : it->second;
  }

 private:
  std::map<std::string, const ClassFile*> classes_;
};

// Environment chaining: first hit wins.
class ChainedClassEnv : public ClassEnv {
 public:
  ChainedClassEnv(const ClassEnv* first, const ClassEnv* second)
      : first_(first), second_(second) {}
  const ClassFile* Lookup(const std::string& class_name) const override {
    const ClassFile* cls = first_->Lookup(class_name);
    return cls != nullptr ? cls : second_->Lookup(class_name);
  }

 private:
  const ClassEnv* first_;
  const ClassEnv* second_;
};

// The one environment a proxy verifies, proves and checks a class in: the
// class answers for its own name, the trusted library for every other name,
// then the companions a filter synthesized for the class. Nothing else: no
// other application class and no request history, so a verdict depends only
// on the class and the library, and no origin class, whatever it declares,
// can shadow a library type it does not itself name. A rewritten library
// class (say, java/lang/System with its natives wrapped) resolves its own
// members in its rewritten form. Does not own the class files it serves.
class ArtifactEnv : public ClassEnv {
 public:
  ArtifactEnv(const ClassEnv* library, const ClassFile& main,
              const std::vector<ClassFile>& companions = {})
      : library_(library), main_(&main) {
    for (const ClassFile& c : companions) {
      companions_.Add(&c);
    }
  }
  const ClassFile* Lookup(const std::string& class_name) const override {
    if (class_name == main_->name()) {
      return main_;
    }
    const ClassFile* trusted = library_->Lookup(class_name);
    return trusted != nullptr ? trusted : companions_.Lookup(class_name);
  }

 private:
  const ClassEnv* library_;
  const ClassFile* main_;
  MapClassEnv companions_;
};

}  // namespace dvm

#endif  // SRC_VERIFIER_CLASS_ENV_H_
