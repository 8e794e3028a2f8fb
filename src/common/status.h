// Status and Result<T>: error-handling primitives in the Arrow/RocksDB idiom.
// Fallible public APIs return Status (or Result<T>); internal invariants use
// PUSHSIP_DCHECK. No exceptions are thrown on hot paths.
#ifndef PUSHSIP_COMMON_STATUS_H_
#define PUSHSIP_COMMON_STATUS_H_

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <variant>

namespace pushsip {

/// Error category for a failed operation.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfMemory,
  kInternal,
  kNotImplemented,
  kCancelled,
  kIOError,
  /// A (simulated) remote resource is temporarily unreachable — a downed
  /// link or site. The distributed driver treats this as transient and
  /// retries restartable fragments; everything else surfaces it as fatal.
  kUnavailable,
};

/// \brief Outcome of a fallible operation.
///
/// A Status is either OK or carries a StatusCode plus a human-readable
/// message. Statuses are cheap to copy in the OK case.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string msg)
      : code_(code), msg_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfMemory(std::string msg) {
    return Status(StatusCode::kOutOfMemory, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// Renders "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  /// Aborts the process if this status is not OK. Use only in contexts
  /// (tests, examples) where failure is a programming error.
  void CheckOK() const {
    if (!ok()) {
      std::fprintf(stderr, "fatal status: %s\n", ToString().c_str());
      std::abort();
    }
  }

  bool operator==(const Status& other) const {
    return code_ == other.code_ && msg_ == other.msg_;
  }

 private:
  StatusCode code_;
  std::string msg_;
};

/// \brief A value of type T or an error Status.
///
/// Analogous to arrow::Result. Access the value with ValueOrDie() (aborts on
/// error) or check ok() first and use operator*.
template <typename T>
class Result {
 public:
  Result(T value) : var_(std::move(value)) {}  // NOLINT implicit
  Result(Status status) : var_(std::move(status)) {  // NOLINT implicit
    assert(!std::get<Status>(var_).ok());
  }

  bool ok() const { return std::holds_alternative<T>(var_); }

  const Status& status() const {
    static const Status kOk;
    return ok() ? kOk : std::get<Status>(var_);
  }

  T& operator*() & {
    assert(ok());
    return std::get<T>(var_);
  }
  const T& operator*() const& {
    assert(ok());
    return std::get<T>(var_);
  }
  /// On a temporary Result the value moves out, so `*f()` stays valid
  /// after the Result dies (e.g. as a range-for expression).
  T operator*() && {
    assert(ok());
    return std::move(std::get<T>(var_));
  }
  T* operator->() { return &**this; }
  const T* operator->() const { return &**this; }

  /// Returns the contained value, aborting the process on error.
  T ValueOrDie() && {
    if (!ok()) {
      std::fprintf(stderr, "fatal result: %s\n",
                   std::get<Status>(var_).ToString().c_str());
      std::abort();
    }
    return std::move(std::get<T>(var_));
  }

 private:
  std::variant<T, Status> var_;
};

/// Returns the given status from the current function if it is an error.
#define PUSHSIP_RETURN_NOT_OK(expr)        \
  do {                                     \
    ::pushsip::Status _st = (expr);        \
    if (!_st.ok()) return _st;             \
  } while (0)

#define PUSHSIP_CONCAT_IMPL(a, b) a##b
#define PUSHSIP_CONCAT(a, b) PUSHSIP_CONCAT_IMPL(a, b)

#define PUSHSIP_ASSIGN_OR_RETURN_IMPL(tmp, lhs, rexpr) \
  auto&& tmp = (rexpr);                                \
  if (!tmp.ok()) return tmp.status();                  \
  lhs = std::move(*tmp)

/// Evaluates a Result expression; on error returns its status, otherwise
/// binds the value to `lhs`.
#define PUSHSIP_ASSIGN_OR_RETURN(lhs, rexpr) \
  PUSHSIP_ASSIGN_OR_RETURN_IMPL(PUSHSIP_CONCAT(_res_, __LINE__), lhs, rexpr)

#ifndef NDEBUG
#define PUSHSIP_DCHECK(cond) assert(cond)
#else
#define PUSHSIP_DCHECK(cond) ((void)0)
#endif

}  // namespace pushsip

#endif  // PUSHSIP_COMMON_STATUS_H_
