//===- tests/rt_header_test.cpp - Generated-code header hygiene -*- C++ -*-===//
//
// steno/Rt.h is the one header every generated translation unit includes,
// so what it includes is parsed on every native compile (the §7.1 one-off
// cost). This TU includes it first and alone, and fails to build if it
// pulls in any of the STL headers that used to dominate that cost.
//
//===----------------------------------------------------------------------===//

#include "steno/Rt.h"

#ifdef _GLIBCXX_VECTOR
static_assert(false, "steno/Rt.h must not include <vector>");
#endif
#ifdef _GLIBCXX_UNORDERED_MAP
static_assert(false, "steno/Rt.h must not include <unordered_map>");
#endif
#ifdef _GLIBCXX_CHRONO
static_assert(false, "steno/Rt.h must not include <chrono>");
#endif
#ifdef _GLIBCXX_CMATH
static_assert(false, "steno/Rt.h must not include <cmath>");
#endif
#ifdef _GLIBCXX_ALGORITHM
static_assert(false, "steno/Rt.h must not include <algorithm>");
#endif

#include "gtest/gtest.h"

// The checks above run at compile time; this test makes them visible in
// the suite (it exists only if this TU compiled).
TEST(RtHeader, IncludesNoHeavyStlHeaders) { SUCCEED(); }
