//===- support/StringUtil.cpp ---------------------------------*- C++ -*-===//

#include "support/StringUtil.h"

#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>

using namespace steno;

std::string support::strFormat(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  if (Needed < 0) {
    va_end(ArgsCopy);
    return std::string();
  }
  std::string Out(static_cast<size_t>(Needed), '\0');
  std::vsnprintf(Out.data(), Out.size() + 1, Fmt, ArgsCopy);
  va_end(ArgsCopy);
  return Out;
}

std::string support::join(const std::vector<std::string> &Parts,
                          const std::string &Sep) {
  std::string Out;
  for (size_t I = 0; I != Parts.size(); ++I) {
    if (I)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}

std::string support::sanitizeIdentifier(const std::string &Name) {
  std::string Out = Name.empty() ? std::string("anon") : Name;
  for (char &C : Out)
    if (!std::isalnum(static_cast<unsigned char>(C)) && C != '_')
      C = '_';
  if (std::isdigit(static_cast<unsigned char>(Out[0])))
    Out.insert(Out.begin(), '_');
  return Out;
}

std::string support::doubleLiteral(double Value) {
  if (std::isnan(Value))
    return "steno::rt::quiet_NaN()";
  if (std::isinf(Value))
    return Value > 0 ? "steno::rt::infinity()" : "(-steno::rt::infinity())";
  std::string Out = strFormat("%.17g", Value);
  bool LooksIntegral = Out.find_first_of(".eE") == std::string::npos;
  if (LooksIntegral)
    Out += ".0";
  return Out;
}

std::uint64_t support::fnv1a(const std::string &S) {
  std::uint64_t H = 1469598103934665603ULL;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ULL;
  }
  return H;
}
