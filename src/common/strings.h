#ifndef WEBDIS_COMMON_STRINGS_H_
#define WEBDIS_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace webdis {

/// ASCII lower-casing (the paper's `contains` predicate is case-insensitive
/// over HTML text, which is ASCII-oriented).
std::string ToLower(std::string_view s);

/// True if `haystack` contains `needle` (case-sensitive).
bool Contains(std::string_view haystack, std::string_view needle);

/// True if `haystack` contains `needle` ignoring ASCII case: the same
/// answer as searching ToLower(needle) in ToLower(haystack), computed in
/// place without allocating.
bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle);

/// True if `s` starts with / ends with the given prefix/suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Splits on a single character; empty pieces are preserved.
std::vector<std::string> Split(std::string_view s, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Joins pieces with a separator.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// Parses a non-negative decimal integer. Returns false on any non-digit or
/// overflow.
bool ParseUint64(std::string_view s, uint64_t* out);

}  // namespace webdis

#endif  // WEBDIS_COMMON_STRINGS_H_
