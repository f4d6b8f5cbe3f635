//===- tests/jit_test.cpp - Native backend differentials -------*- C++ -*-===//
//
// Validates the compile-load-invoke pipeline (paper §3.3): the native
// backend must agree with the reference executor on the full catalog, the
// one-off compilation cost must be observable (§7.1), and compiled query
// objects must be reusable across bindings.
//
//===----------------------------------------------------------------------===//

#include "QueryTestUtil.h"
#include "jit/Jit.h"
#include "support/TempFile.h"

#include "gtest/gtest.h"

#include <cstdio>

using namespace steno;
using namespace steno::expr;
using namespace steno::expr::dsl;
using namespace steno::testutil;
using query::Query;

TEST(JitCatalog, AllQueriesMatchReference) {
  Catalog C(/*Seed=*/31);
  for (const auto &[Name, Q] : C.Queries) {
    SCOPED_TRACE(Name);
    expectMatchesReference(Q, C.B, Backend::Native, Name);
  }
}

TEST(JitCatalog, GeneratedSourcesPreprocessSmall) {
  // The one-off compile cost (§7.1) is dominated by what the compiler
  // parses. Every generated TU includes only steno/Rt.h, which stays
  // STL-free, so each preprocesses to a few thousand lines (~80k with
  // <vector>, <unordered_map>, <chrono>, <algorithm> and <cmath>).
  Catalog C(/*Seed=*/31);
  for (const auto &[Name, Q] : C.Queries) {
    SCOPED_TRACE(Name);
    CompileOptions Options;
    Options.Exec = Backend::Interp;
    Options.Name = Name;
    std::string Path = support::processTempDir() + "/pp_" + Name + ".cpp";
    support::writeFile(Path, compileQuery(Q, Options).generatedSource());
    std::string Cmd = "'" STENO_HOST_CXX "' -std=c++20 -E -I '"
                      STENO_SOURCE_INCLUDE "' '" + Path + "' | wc -l";
    FILE *Pipe = ::popen(Cmd.c_str(), "r");
    ASSERT_NE(Pipe, nullptr);
    long Lines = -1;
    ASSERT_EQ(std::fscanf(Pipe, "%ld", &Lines), 1);
    ASSERT_EQ(::pclose(Pipe), 0);
    EXPECT_GT(Lines, 0);
    EXPECT_LT(Lines, 6000);
  }
}

TEST(JitModule, CompileCostIsMeasured) {
  auto X = param("x", Type::doubleTy());
  Query Q = Query::doubleArray(0).select(lambda({X}, X * X)).sum();
  CompiledQuery CQ = compileQuery(Q, {});
  EXPECT_GT(CQ.compileMillis(), 0.0)
      << "the §7.1 one-off cost must be observable";
}

TEST(JitModule, GeneratedSourceIsAvailable) {
  auto X = param("x", Type::doubleTy());
  Query Q = Query::doubleArray(0).where(lambda({X}, X > 0.0)).count();
  CompiledQuery CQ = compileQuery(Q, {});
  EXPECT_NE(CQ.generatedSource().find("extern \"C\""), std::string::npos);
  EXPECT_NE(CQ.generatedSource().find("for ("), std::string::npos);
}

TEST(JitModule, CompileFailureIsReported) {
  std::string Err;
  auto Module = jit::CompiledModule::compile("this is not C++ at all;",
                                             "broken_entry", &Err);
  EXPECT_EQ(Module, nullptr);
  EXPECT_FALSE(Err.empty());
}

TEST(JitModule, MissingSymbolIsReported) {
  std::string Err;
  auto Module = jit::CompiledModule::compile(
      "extern \"C\" void some_other_name(void*, void*) {}\n",
      "expected_name", &Err);
  EXPECT_EQ(Module, nullptr);
  EXPECT_NE(Err.find("dlsym"), std::string::npos) << Err;
}

TEST(JitModule, ReusableAcrossBindings) {
  // The query-cache usage pattern: compile once, run many (paper §7.1).
  auto X = param("x", Type::doubleTy());
  Query Q = Query::doubleArray(0).sum();
  CompiledQuery CQ = compileQuery(Q, {});
  for (std::uint64_t Seed = 0; Seed != 5; ++Seed) {
    std::vector<double> Xs = randomDoubles(100, Seed);
    Bindings B;
    B.bindDoubleArray(0, Xs.data(), 100);
    double Expected = 0;
    for (double V : Xs)
      Expected += V;
    EXPECT_DOUBLE_EQ(CQ.run(B).scalarValue().asDouble(), Expected);
  }
  (void)X;
}

TEST(JitModule, TwoQueriesCoexist) {
  auto X = param("x", Type::doubleTy());
  Query QSum = Query::doubleArray(0).sum();
  Query QCount = Query::doubleArray(0).count();
  CompiledQuery A = compileQuery(QSum, {});
  CompiledQuery B2 = compileQuery(QCount, {});
  std::vector<double> Xs = {1, 2, 3};
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), 3);
  EXPECT_DOUBLE_EQ(A.run(B).scalarValue().asDouble(), 6.0);
  EXPECT_EQ(B2.run(B).scalarValue().asInt64(), 3);
  (void)X;
}

TEST(JitProperty, RandomPipelinesMatchInterp) {
  // A handful of random pipelines through BOTH backends (kept small:
  // each native compile costs hundreds of ms).
  for (std::uint64_t Seed : {3u, 17u, 29u}) {
    std::vector<double> Xs = randomDoubles(150, Seed + 1000);
    Bindings B;
    B.bindDoubleArray(0, Xs.data(),
                      static_cast<std::int64_t>(Xs.size()));
    auto X = param("x", Type::doubleTy());
    Query Q = Query::doubleArray(0)
                  .where(lambda({X}, X > -20.0))
                  .select(lambda({X}, X * X - 1.0))
                  .skip(E(static_cast<std::int64_t>(Seed % 7)))
                  .sum();
    CompileOptions Native;
    Native.Exec = Backend::Native;
    CompileOptions Interp;
    Interp.Exec = Backend::Interp;
    double VN =
        compileQuery(Q, Native).run(B).scalarValue().asDouble();
    double VI =
        compileQuery(Q, Interp).run(B).scalarValue().asDouble();
    EXPECT_DOUBLE_EQ(VN, VI) << "seed " << Seed;
  }
}
