#ifndef TERMILOG_UTIL_STRING_UTIL_H_
#define TERMILOG_UTIL_STRING_UTIL_H_

#include <charconv>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace termilog {

/// Joins the elements of `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `text` on the single character `sep`; keeps empty fields.
std::vector<std::string> Split(std::string_view text, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// JSON string escaping (quotes, backslashes, control characters).
std::string JsonEscape(std::string_view text);

namespace string_util_internal {

// Appends one StrAppend argument as the bytes `std::ostream <<` prints for
// it: a `bool` as 1 or 0, `char`, `signed char` and `unsigned char` as a
// character, any other integer in decimal, text verbatim, and a type with
// an `AppendTo(std::string*) const` member (Rational, BigInt) through it.
template <typename T>
void AppendPiece(std::string* out, const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    out->push_back(value ? '1' : '0');
  } else if constexpr (std::is_same_v<T, char> ||
                       std::is_same_v<T, signed char> ||
                       std::is_same_v<T, unsigned char>) {
    out->push_back(static_cast<char>(value));
  } else if constexpr (std::is_integral_v<T>) {
    char digits[24];  // INT64_MIN and UINT64_MAX take 20
    out->append(digits,
                std::to_chars(digits, digits + sizeof(digits), value).ptr);
  } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
    out->append(std::string_view(value));
  } else {
    value.AppendTo(out);
  }
}

}  // namespace string_util_internal

/// Appends every argument to `*out` in place (see StrCat for the forms).
template <typename... Args>
void StrAppend([[maybe_unused]] std::string* out, const Args&... args) {
  (string_util_internal::AppendPiece(out, args), ...);
}

/// Concatenates the arguments into one string, printing each as an
/// `std::ostream` would (replacement for std::format, which libstdc++ 12
/// does not ship) but with no stream: integers go through std::to_chars.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::string out;
  StrAppend(&out, args...);
  return out;
}

}  // namespace termilog

#endif  // TERMILOG_UTIL_STRING_UTIL_H_
