#ifndef TERMILOG_UTIL_STATUS_H_
#define TERMILOG_UTIL_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "util/check.h"

namespace termilog {

/// Error codes used across the library's public API. The library does not
/// throw exceptions; fallible operations return Status or Result<T>.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,  // malformed input (e.g. parse error)
  kUnsupported,      // input outside the method's preconditions
  kInternal,         // invariant violation that was recoverable
  kResourceExhausted,  // configured limit (rows, iterations) exceeded
  kNotFound,           // a named file does not exist
};

/// Lightweight status object: a code plus a human-readable message.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status Unsupported(std::string msg) {
    return Status(StatusCode::kUnsupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders "OK" or "<code>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Result<T> carries either a value or an error Status.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value or from an error status keeps call
  /// sites terse: `return value;` / `return Status::InvalidArgument(...)`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    TERMILOG_CHECK_MSG(!status_.ok(), "Result built from OK status");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  /// Value accessors; it is a checked error to call these on a non-OK result.
  const T& value() const& {
    TERMILOG_CHECK(value_.has_value());
    return *value_;
  }
  T& value() & {
    TERMILOG_CHECK(value_.has_value());
    return *value_;
  }
  T&& value() && {
    TERMILOG_CHECK(value_.has_value());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace termilog

#endif  // TERMILOG_UTIL_STATUS_H_
