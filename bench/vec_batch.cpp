//===- bench/vec_batch.cpp - Batched vs scalar interpretation --*- C++ -*-===//
//
// Measures the vectorized columnar batch path (DESIGN.md §5i) against
// the element-at-a-time scalar path on the paper's single-thread
// workloads: the Figure 1 sum-of-squares chain, a Figure 13-style
// filtered chain that exercises selection vectors, and a §4.3
// GroupByAggregate (skewed doubles, bucketed key, Sum step) whose sink
// folds batch-at-a-time into the flat hash table generated code uses.
// Sweeps the batch size (64 / 256 / 1024 / 4096) to show the
// amortization curve — per-element interpreter dispatch is replaced by
// one dispatch per batch, so the win should saturate once the batch
// covers the dispatch cost. Batching is an interpreter tier only: the
// native backend always runs the §4.2 fused loop.
//
// Gate (CI bench-smoke): at the default batch size the batched
// interpreter must hold at least a 1.5x throughput advantage over the
// scalar interpreter on the Figure 1 chain and at least 5x on the
// GroupByAggregate; exits 1 otherwise.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "expr/Dsl.h"
#include "steno/Steno.h"

#include <cstdio>
#include <cstdlib>

using namespace steno;
using namespace steno::bench;
using namespace steno::expr;
using namespace steno::expr::dsl;
using query::Query;

namespace {

CompiledQuery compileVariant(const Query &Q, bool Vectorize,
                             const std::string &Name) {
  CompileOptions O;
  O.Exec = Backend::Interp;
  O.Vectorize = Vectorize;
  O.Name = Name;
  return compileQuery(Q, O);
}

double runSeconds(const CompiledQuery &CQ, const Bindings &B) {
  return bestSeconds(
      [&] { doNotOptimize(static_cast<double>(CQ.run(B).rows().size())); });
}

} // namespace

int main() {
  const std::int64_t N = scaled(10000000);
  std::vector<double> Xs = uniformDoubles(N, 1);
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), N);
  const std::int64_t GroupN = scaled(1000000);
  std::vector<double> Skewed = mixtureOfGaussians(GroupN, 2);
  Bindings GroupB;
  GroupB.bindDoubleArray(0, Skewed.data(), GroupN);

  auto X = param("x", Type::doubleTy());
  auto A = param("a", Type::doubleTy());
  // Figure 1: Select(x => x*x).Sum().
  Query Fig01 = Query::doubleArray(0).select(lambda({X}, X * X)).sum();
  // Figure 13-style filtered chain: Where survivors go sparse, so the
  // batched path runs its selection-vector kernels.
  Query Fig13F = Query::doubleArray(0)
                     .where(lambda({X}, X > E(250.0)))
                     .select(lambda({X}, X * X + E(1.0)))
                     .sum();
  // §4.3 GroupByAggregate: 40 buckets of 25, summed per bucket.
  Query GroupAgg = Query::doubleArray(0).groupByAggregate(
      lambda({X}, toInt64(X / E(25.0))), E(0.0), lambda({A, X}, A + X));

  struct Shape {
    const char *Name;
    const Query *Q;
    const Bindings *B;
    std::int64_t N;
    double MinSpeedup; ///< Gate on batch=1024 vs scalar interp.
    double Speedup = 0;
  } Shapes[] = {{"fig01", &Fig01, &B, N, 1.5},
                {"fig13_filtered", &Fig13F, &B, N, 0},
                {"groupagg", &GroupAgg, &GroupB, GroupN, 5.0}};

  const char *BatchSizes[] = {"64", "256", "1024", "4096"};

  header("Vectorized batch execution: interpreter, " + std::to_string(N) +
         " doubles (groupagg: " + std::to_string(GroupN) + ")");
  std::printf("%-28s %12s %12s %10s\n", "variant", "time (ms)",
              "Melem/s", "speedup");

  JsonReport Json("vec_batch");
  for (Shape &S : Shapes) {
    CompiledQuery Scalar = compileVariant(
        *S.Q, false, std::string(S.Name) + "_scalar");
    double ScalarS = runSeconds(Scalar, *S.B);
    Json.add(std::string(S.Name) + "_interp_scalar", ScalarS, S.N);
    std::printf("%-28s %12.1f %12.1f %9s\n",
                (std::string(S.Name) + " interp scalar").c_str(),
                ScalarS * 1e3, static_cast<double>(S.N) / ScalarS / 1e6,
                "1.00x");

    for (const char *BS : BatchSizes) {
      ::setenv("STENO_BATCH_SIZE", BS, 1); // read at plan time
      CompiledQuery Vec = compileVariant(
          *S.Q, true, std::string(S.Name) + "_vec_b" + BS);
      ::unsetenv("STENO_BATCH_SIZE");
      if (!Vec.vectorized()) {
        std::fprintf(stderr, "vec_batch: %s did not vectorize\n", S.Name);
        return 1;
      }
      double VecS = runSeconds(Vec, *S.B);
      Json.add(std::string(S.Name) + "_interp_vec_b" + BS, VecS, S.N);
      std::printf("%-28s %12.1f %12.1f %9.2fx\n",
                  (std::string(S.Name) + " interp batch=" + BS).c_str(),
                  VecS * 1e3, static_cast<double>(S.N) / VecS / 1e6,
                  ScalarS / VecS);
      if (std::string(BS) == "1024")
        S.Speedup = ScalarS / VecS;
    }
  }

  bool Ok = true;
  std::printf("\n");
  for (const Shape &S : Shapes) {
    if (S.MinSpeedup == 0)
      continue;
    std::printf("%s batched(1024) vs scalar interp: %.2fx (gate: >= "
                "%.2fx)\n",
                S.Name, S.Speedup, S.MinSpeedup);
    if (S.Speedup < S.MinSpeedup) {
      std::fprintf(stderr,
                   "vec_batch: FAIL: %s batched interpreter speedup %.2fx "
                   "below the %.2fx floor\n",
                   S.Name, S.Speedup, S.MinSpeedup);
      Ok = false;
    }
  }
  return Ok ? 0 : 1;
}
