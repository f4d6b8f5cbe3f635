//===- bench/sec71_breakeven.cpp - Reproduces §7.1's cost model -*-C++-*-===//
//
// §7.1's one-off-cost analysis: "Summing 10 million doubles with LINQ
// takes approximately 83 ms, whereas with Steno it takes 25 ms plus 69 ms
// for compilation. The break-even point is approximately 12 million
// doubles."
//
// This binary measures the same three quantities on this machine —
// LINQ per-element cost, Steno per-element cost, Steno one-off
// compile+load cost — solves for the break-even input size, and verifies
// it empirically with a sweep.
//
// Gate: the process exits 1 when the best of three cold compile+load
// times of Sum exceeds 400 ms (the compile cost steno/Rt.h's STL-free
// contract keeps near 0.1 s). Writes BENCH_sec71_breakeven.json (see
// BenchUtil.h JsonReport).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "expr/Dsl.h"
#include "linq/Linq.h"
#include "steno/Steno.h"

#include <cstdio>

using namespace steno;
using namespace steno::bench;
using namespace steno::expr;
using namespace steno::expr::dsl;
using query::Query;

/// Ceiling on the best cold compile+load of Sum, in milliseconds.
constexpr double MaxCompileMs = 400.0;

int main() {
  JsonReport Json("sec71_breakeven");
  const std::int64_t N = scaled(10000000);
  std::vector<double> Xs = uniformDoubles(N, 11);
  header("Section 7.1: one-off compilation cost and break-even point");

  // The three measured quantities, on the paper's Sum query.
  double LinqS = bestSeconds([&] {
    doNotOptimize(linq::fromSpan(Xs.data(), Xs.size()).sum());
  });

  Query Q = Query::doubleArray(0).sum();

  // Compile cost: repeat a few fresh compilations and take the median-ish
  // best (the paper's 69 ms is an average).
  double CompileMs = 1e300;
  for (int I = 0; I < 3; ++I) {
    CompiledQuery Fresh = compileQuery(Q, {});
    if (Fresh.compileMillis() < CompileMs)
      CompileMs = Fresh.compileMillis();
  }

  CompiledQuery CQ = compileQuery(Q, {});
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), N);
  double StenoS = bestSeconds(
      [&] { doNotOptimize(CQ.run(B).scalarValue().asDouble()); });

  double LinqPerElemNs = 1e9 * LinqS / static_cast<double>(N);
  double StenoPerElemNs = 1e9 * StenoS / static_cast<double>(N);
  std::printf("\nLINQ Sum(%lld):  %8.1f ms  (%.2f ns/element)\n",
              static_cast<long long>(N), LinqS * 1e3, LinqPerElemNs);
  std::printf("Steno Sum(%lld): %8.1f ms  (%.2f ns/element)\n",
              static_cast<long long>(N), StenoS * 1e3, StenoPerElemNs);
  std::printf("Steno one-off compile+load: %.0f ms\n", CompileMs);
  Json.add("linq_sum", LinqS, N);
  Json.add("steno_sum", StenoS, N);
  Json.add("compile_load", CompileMs / 1e3, 1);

  // Model: LINQ(n) = a_linq * n; Steno(n) = compile + a_steno * n.
  double BreakEven =
      CompileMs * 1e6 / (LinqPerElemNs - StenoPerElemNs);
  std::printf("\nmodelled break-even: %.2g elements "
              "(paper: ~1.2e7 with csc's 69 ms compile)\n",
              BreakEven);

  // Empirical sweep: total time (compile amortized over ONE run) for
  // LINQ vs Steno across input sizes.
  std::printf("\n%14s %14s %20s %12s\n", "n", "LINQ (ms)",
              "Steno+compile (ms)", "winner");
  for (double Frac :
       {0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0}) {
    std::int64_t M = static_cast<std::int64_t>(
        static_cast<double>(N) * Frac);
    if (M < 1 || static_cast<size_t>(M) > Xs.size() * 4)
      continue;
    std::vector<double> Sub = uniformDoubles(M, 12);
    double L = bestSeconds(
        [&] {
          doNotOptimize(linq::fromSpan(Sub.data(), Sub.size()).sum());
        },
        2);
    Bindings SubB;
    SubB.bindDoubleArray(0, Sub.data(), M);
    double S = bestSeconds(
        [&] { doNotOptimize(CQ.run(SubB).scalarValue().asDouble()); },
        2);
    double StenoTotalMs = CompileMs + S * 1e3;
    std::printf("%14lld %14.1f %20.1f %12s\n",
                static_cast<long long>(M), L * 1e3, StenoTotalMs,
                L * 1e3 < StenoTotalMs ? "LINQ" : "Steno");
  }
  std::printf("\n(cached compiled queries pay the compile cost zero "
              "times after the first use — the amortized column is the "
              "Steno run time alone, %.1f ms at n=%lld)\n",
              StenoS * 1e3, static_cast<long long>(N));
  if (CompileMs > MaxCompileMs) {
    std::printf("FAIL: cold compile+load %.0f ms exceeds %.0f ms\n",
                CompileMs, MaxCompileMs);
    return 1;
  }
  return 0;
}
