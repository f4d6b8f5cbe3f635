//===- bench/fig01_sumsq.cpp - Reproduces paper Figure 1 -------*- C++ -*-===//
//
// Figure 1: "Relative execution time for computing the sum of squares of
// 10^7 doubles using LINQ, an imperative loop, and a Steno-optimized
// query. Steno achieves a 7.4x speedup over LINQ." The paper normalizes
// to LINQ = 100%; the for loop and Steno land at 13.5% / 13.6%.
//
// This binary reports the same three bars (plus the static fused variant)
// normalized the same way, timing the variants interleaved so their
// ratios are robust to CPU-frequency drift. Gate (CI bench-smoke): exits
// 1 when the default-configuration Steno query is more than 10% slower
// than the for loop — the paper's headline is that they match.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "expr/Dsl.h"
#include "fused/Fused.h"
#include "linq/Linq.h"
#include "steno/Steno.h"

#include <cstdio>

using namespace steno;
using namespace steno::bench;

int main() {
  const std::int64_t N = scaled(10000000); // the paper's 10^7 doubles
  std::vector<double> Xs = uniformDoubles(N, 1);
  header("Figure 1: sum of squares of " + std::to_string(N) +
         " doubles");

  // Steno: the declarative query, optimized and JIT-compiled once (the
  // figure's Steno bar excludes the one-off compilation, which §7.1
  // reports separately; we print it for reference).
  using namespace steno::expr;
  using namespace steno::expr::dsl;
  auto X = param("x", Type::doubleTy());
  query::Query Q = query::Query::doubleArray(0)
                       .select(lambda({X}, X * X))
                       .sum();
  CompiledQuery CQ = compileQuery(Q, {});
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), N);

  std::vector<double> Best = bestSecondsInterleaved(
      {// LINQ: xs.Select(x => x * x).Sum() through lazy iterators.
       [&] {
         double V = linq::fromSpan(Xs.data(), Xs.size())
                        .select([](double X) { return X * X; })
                        .sum();
         doNotOptimize(V);
       },
       // Imperative for loop.
       [&] {
         double Acc = 0;
         for (double X : Xs)
           Acc += X * X;
         doNotOptimize(Acc);
       },
       [&] { doNotOptimize(CQ.run(B).scalarValue().asDouble()); },
       // Static fused (the §9 compile-time endpoint).
       [&] {
         double V = fused::from(Xs) |
                    fused::select([](double V2) { return V2 * V2; }) |
                    fused::sum();
         doNotOptimize(V);
       }},
      /*Reps=*/9);
  double LinqS = Best[0], LoopS = Best[1], StenoS = Best[2],
         FusedS = Best[3];

  std::printf("\n%-22s %12s %14s %10s\n", "variant", "time (ms)",
              "rel. to LINQ", "speedup");
  auto Row = [&](const char *Name, double S) {
    std::printf("%-22s %12.1f %13.1f%% %9.2fx\n", Name, S * 1e3,
                100.0 * S / LinqS, LinqS / S);
  };
  Row("LINQ .Sum()", LinqS);
  Row("for loop", LoopS);
  Row("Steno .Sum() (jit)", StenoS);
  Row("Steno (static fused)", FusedS);
  std::printf("\none-off Steno compile+load: %.0f ms (paper: ~69 ms with "
              "csc; §7.1)\n",
              CQ.compileMillis());
  std::printf("paper's Figure 1: for loop 13.5%%, Steno 13.6%%, "
              "7.4x speedup over LINQ\n");

  JsonReport Json("fig01_sumsq");
  Json.add("linq_sum", LinqS, N);
  Json.add("for_loop", LoopS, N);
  Json.add("steno_jit", StenoS, N);
  Json.add("static_fused", FusedS, N);

  double Pct = 100.0 * (StenoS / LoopS - 1.0);
  std::printf("Steno-vs-for-loop overhead: %+.1f%% (gate: <= +10%%)\n",
              Pct);
  if (Pct > 10.0) {
    std::fprintf(stderr,
                 "fig01_sumsq: FAIL: Steno is %+.1f%% over the for loop, "
                 "above the +10%% gate\n",
                 Pct);
    return 1;
  }
  return 0;
}
