// Result<T>: value-or-error return type used by every fallible operation in the
// DVM. The codebase does not use C++ exceptions; guest-level (bytecode) exceptions
// are modelled as interpreter values instead.
#ifndef SRC_SUPPORT_RESULT_H_
#define SRC_SUPPORT_RESULT_H_

#include <cassert>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>

namespace dvm {

// Broad error categories. Services map these onto their own failure channels
// (e.g. the verification service turns kVerifyError into a replacement class
// that raises a guest exception, per paper section 3.1).
enum class ErrorCode {
  kParseError,       // malformed class file or policy document
  kVerifyError,      // safety axiom violated (phases 1-4)
  kLinkError,        // unresolved class/field/method at link time
  kRuntimeError,     // interpreter-level failure (host-side bug surface)
  kSecurityError,    // access denied by policy
  kNotFound,         // missing class, file, or cache entry
  kInvalidArgument,  // caller misuse of a public API
  kCapacity,         // resource limit exceeded (heap, proxy memory, ...)
  kNetwork,          // simulated transfer failure
  kUnavailable,      // every service replica down; fail-closed policies map
                     // this to "no code runs" (see DESIGN.md failure semantics)
  kOverloaded,       // admission control shed the request (bounded queue /
                     // token bucket); retry after the hinted backoff
  kInternal,         // invariant violation
};

const char* ErrorCodeName(ErrorCode code);

struct Error {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;

  std::string ToString() const { return std::string(ErrorCodeName(code)) + ": " + message; }
};

inline const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kParseError:
      return "ParseError";
    case ErrorCode::kVerifyError:
      return "VerifyError";
    case ErrorCode::kLinkError:
      return "LinkError";
    case ErrorCode::kRuntimeError:
      return "RuntimeError";
    case ErrorCode::kSecurityError:
      return "SecurityError";
    case ErrorCode::kNotFound:
      return "NotFound";
    case ErrorCode::kInvalidArgument:
      return "InvalidArgument";
    case ErrorCode::kCapacity:
      return "Capacity";
    case ErrorCode::kNetwork:
      return "Network";
    case ErrorCode::kUnavailable:
      return "Unavailable";
    case ErrorCode::kOverloaded:
      return "Overloaded";
    case ErrorCode::kInternal:
      return "Internal";
  }
  return "Unknown";
}

namespace result_internal {

// Failures are the cold path: keep the Error allocation out of line, so a
// caller's inlined success path carries none of its code.
[[gnu::cold, gnu::noinline, gnu::returns_nonnull]] inline Error* NewError(Error error) {
  return new Error(std::move(error));
}
[[gnu::cold, gnu::noinline, gnu::returns_nonnull]] inline Error* CopyError(const Error& error) {
  return new Error(error);
}

}  // namespace result_internal

// Result<T> and Status hold a failure's Error out of line, behind one
// pointer that is null on success. Success, the common case on every hot path
// (the verifier's Push/Pop, a stack-effect lookup), then builds and destroys
// no ErrorCode + std::string pair: a Status is one pointer and a Result<T> is
// a T plus one pointer. Copying a failure deep-copies its Error; moving one
// moves the Error into a fresh allocation, so the moved-from object still
// reports the failure it had, and a moved-from success stays a success.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) { new (&value_) T(std::move(value)); }  // NOLINT(google-explicit-constructor)
  Result(Error error)  // NOLINT(google-explicit-constructor)
      : error_(result_internal::NewError(std::move(error))) {}

  Result(const Result& other)
    requires std::is_copy_constructible_v<T>
  {
    if (other.error_ != nullptr) {
      error_ = result_internal::CopyError(*other.error_);
    } else {
      new (&value_) T(other.value_);
    }
  }
  Result(Result&& other) noexcept {
    if (other.error_ != nullptr) {
      error_ = result_internal::NewError(std::move(*other.error_));
    } else {
      new (&value_) T(std::move(other.value_));
    }
  }
  Result& operator=(const Result& other)
    requires std::is_copy_constructible_v<T>
  {
    if (this != &other) {
      Destroy();
      new (this) Result(other);
    }
    return *this;
  }
  Result& operator=(Result&& other) noexcept {
    if (this != &other) {
      Destroy();
      new (this) Result(std::move(other));
    }
    return *this;
  }
  ~Result() { Destroy(); }

  bool ok() const { return error_ == nullptr; }

  const T& value() const& {
    assert(ok());
    return value_;
  }
  T& value() & {
    assert(ok());
    return value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(value_);
  }

  const Error& error() const {
    assert(!ok());
    return *error_;
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void Destroy() {
    if (error_ != nullptr) {
      delete error_;
    } else {
      value_.~T();
    }
  }

  union {
    T value_;  // alive exactly when error_ is null
  };
  Error* error_ = nullptr;
};

// Result<void> analogue.
class [[nodiscard]] Status {
 public:
  Status() = default;
  Status(Error error) : error_(result_internal::NewError(std::move(error))) {}  // NOLINT

  Status(const Status& other)
      : error_(other.error_ != nullptr ? result_internal::CopyError(*other.error_) : nullptr) {}
  Status(Status&& other) noexcept
      : error_(other.error_ != nullptr ? result_internal::NewError(std::move(*other.error_))
                                       : nullptr) {}
  Status& operator=(const Status& other) {
    if (this != &other) {
      error_.reset(other.error_ != nullptr ? result_internal::CopyError(*other.error_) : nullptr);
    }
    return *this;
  }
  Status& operator=(Status&& other) noexcept {
    if (this != &other) {
      error_.reset(other.error_ != nullptr ? result_internal::NewError(std::move(*other.error_))
                                           : nullptr);
    }
    return *this;
  }

  static Status Ok() { return Status(); }

  bool ok() const { return error_ == nullptr; }
  const Error& error() const {
    assert(!ok());
    return *error_;
  }

 private:
  std::unique_ptr<Error> error_;
};

// Propagation helpers. Usage:
//   DVM_ASSIGN_OR_RETURN(auto cls, reader.ReadClass());
//   DVM_RETURN_IF_ERROR(CheckSomething());
#define DVM_CONCAT_INNER(a, b) a##b
#define DVM_CONCAT(a, b) DVM_CONCAT_INNER(a, b)

#define DVM_ASSIGN_OR_RETURN(decl, expr)              \
  auto DVM_CONCAT(_res_, __LINE__) = (expr);          \
  if (!DVM_CONCAT(_res_, __LINE__).ok()) {            \
    return DVM_CONCAT(_res_, __LINE__).error();       \
  }                                                   \
  decl = std::move(DVM_CONCAT(_res_, __LINE__)).value()

#define DVM_RETURN_IF_ERROR(expr)                     \
  do {                                                \
    auto _status = (expr);                            \
    if (!_status.ok()) {                              \
      return _status.error();                         \
    }                                                 \
  } while (0)

}  // namespace dvm

#endif  // SRC_SUPPORT_RESULT_H_
