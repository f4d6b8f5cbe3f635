//===- support/StringUtil.h - Small string helpers -------------*- C++ -*-===//
///
/// \file
/// printf-style formatting into std::string, joining, and identifier
/// sanitization used by the code generator and source printers.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_SUPPORT_STRINGUTIL_H
#define STENO_SUPPORT_STRINGUTIL_H

#include <cstdint>
#include <string>
#include <vector>

namespace steno {
namespace support {

/// printf-style formatting that returns a std::string.
std::string strFormat(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Joins \p Parts with \p Sep between consecutive elements.
std::string join(const std::vector<std::string> &Parts,
                 const std::string &Sep);

/// Replaces every character that cannot appear in a C++ identifier with '_'.
/// Used when deriving generated-code symbol names from user-provided names.
std::string sanitizeIdentifier(const std::string &Name);

/// Formats a double as a C++ literal that round-trips exactly (uses %.17g and
/// appends ".0" when the result would otherwise parse as an integer literal).
/// NaN and the infinities print as calls into steno/Rt.h, the one header
/// generated code includes.
std::string doubleLiteral(double Value);

/// 64-bit FNV-1a hash of \p S's bytes.
std::uint64_t fnv1a(const std::string &S);

} // namespace support
} // namespace steno

#endif // STENO_SUPPORT_STRINGUTIL_H
