//===- perfbench/src/Figs.cpp - The paper's figures, in process -*- C++ -*-===//
///
/// \file
/// The `figs` workload: Figure 13's Sum, SumSq (also Figure 1), Cart and
/// Group at bench/fig13_micro.cpp's sizes, plus one Figure 14 k-means step
/// at d = 10 through dryad::DistributedQuery on a 2-worker pool. All run
/// on the calling thread with the default CompileOptions (native backend).
/// Set-up compiles each figure query cold several times (§7.1's one-off
/// cost); the timed phase runs the five compiled queries in interleaved
/// rounds, so CPU-frequency drift hits them all alike, and reports the
/// geometric mean of their medians.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Workloads.h"

#include "dryad/Dist.h"
#include "expr/Dsl.h"
#include "obs/Metrics.h"
#include "steno/Steno.h"
#include "support/Random.h"
#include "workloads/Kmeans.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <unordered_map>

using namespace perfbench;
using namespace steno;
using namespace steno::expr;
using namespace steno::expr::dsl;
using query::Query;

namespace {

constexpr std::int64_t N = 10000000;       // Sum, SumSq, Group elements
constexpr std::int64_t CartOuter = 100000; // Cart: 10^5 x 10^3 pairs
constexpr std::int64_t CartInner = 1000;
constexpr std::int64_t KmPoints = 1000000; // k-means: 10^6 points ...
constexpr std::int64_t KmDim = 10;         // ... at d = 10 ...
constexpr std::int64_t KmK = 10;           // ... and k = 10
constexpr int ColdCompiles = 3;            // cold compiles per query
constexpr std::int64_t InterpN = 1000000;  // interpreter probe size ...
constexpr std::int64_t InterpCartOuter = 1000; // ... and Cart's 10^6 pairs

std::vector<double> uniform(std::int64_t Count, std::uint64_t Seed,
                            double Lo, double Hi) {
  support::SplitMix64 Rng(Seed);
  std::vector<double> Out(static_cast<std::size_t>(Count));
  for (double &V : Out)
    V = Rng.nextDouble(Lo, Hi);
  return Out;
}

/// Figure 13's Group input: a 1-D mixture of three Gaussians in [0, 1000).
std::vector<double> mixtureOfGaussians(std::int64_t Count,
                                       std::uint64_t Seed) {
  support::SplitMix64 Rng(Seed);
  const double Means[] = {100.0, 400.0, 750.0};
  const double Sigmas[] = {40.0, 90.0, 30.0};
  std::vector<double> Out;
  Out.reserve(static_cast<std::size_t>(Count));
  while (Out.size() < static_cast<std::size_t>(Count)) {
    double U = Rng.nextDouble();
    int C = U < 0.5 ? 0 : (U < 0.8 ? 1 : 2);
    double V = Means[C] + Sigmas[C] * Rng.nextGaussian();
    if (V >= 0.0 && V < 1000.0)
      Out.push_back(V);
  }
  return Out;
}

Query sumQuery() { return Query::doubleArray(0).sum(); }

Query sumSqQuery() {
  auto X = param("x", Type::doubleTy());
  return Query::doubleArray(0).select(lambda({X}, X * X)).sum();
}

Query cartQuery() {
  auto X = param("x", Type::doubleTy());
  auto Y = param("y", Type::doubleTy());
  return Query::doubleArray(0)
      .selectMany(X, Query::doubleArray(1).select(lambda({Y}, X * Y)))
      .sum();
}

/// GroupBy + count per bin, which §4.3 specializes into GroupByAggregate.
Query groupQuery() {
  auto X = param("x", Type::doubleTy());
  auto G = param("g", Type::pairTy(Type::int64Ty(), Type::vecTy()));
  auto C = param("c", Type::int64Ty());
  auto V = param("v", Type::doubleTy());
  Query BagCount = Query::overVec(G.second())
                       .aggregate(E(0), lambda({C, V}, C + 1),
                                  lambda({C}, pair(G.first(), C)));
  return Query::doubleArray(0)
      .groupBy(lambda({X}, toInt64(X)))
      .selectNested(G, BagCount);
}

/// Independent expectations, computed by hand loops in long double.
struct Expected {
  long double Sum = 0, SumAbs = 0, SumSq = 0;
  long double CartX = 0, CartY = 0;
  std::unordered_map<std::int64_t, std::int64_t> Hist;
  std::vector<double> KmSlots;
  double KmMaxAbs = 0;
};

bool checkScalar(const QueryResult &R, long double Want, double Terms,
                 long double Magnitude) {
  return R.isScalar() && R.rows().size() == 1 &&
         R.rows()[0].kind() == TypeKind::Double &&
         withinSumBound(R.rows()[0].asDouble(), Want, Terms, Magnitude);
}

bool checkGroup(const QueryResult &R, const Expected &X) {
  if (R.rows().size() != X.Hist.size())
    return false;
  std::int64_t Total = 0;
  for (const Value &Row : R.rows()) {
    auto It = X.Hist.find(Row.first().asInt64());
    if (It == X.Hist.end() || It->second != Row.second().asInt64())
      return false;
    Total += Row.second().asInt64();
  }
  return Total == N;
}

bool checkKmeans(const QueryResult &R, const Expected &X) {
  if (R.rows().size() != X.KmSlots.size())
    return false;
  std::vector<bool> Seen(X.KmSlots.size(), false);
  for (const Value &Row : R.rows()) {
    std::int64_t Slot = Row.first().asInt64();
    if (Slot < 0 || Slot >= static_cast<std::int64_t>(X.KmSlots.size()) ||
        Seen[static_cast<std::size_t>(Slot)])
      return false;
    Seen[static_cast<std::size_t>(Slot)] = true;
    // A cluster's component sums add Count terms of magnitude at most
    // KmMaxAbs; its count must match exactly.
    double Want = X.KmSlots[static_cast<std::size_t>(Slot)];
    std::int64_t CountSlot = Slot / (KmDim + 1) * (KmDim + 1) + KmDim;
    double Count = X.KmSlots[static_cast<std::size_t>(CountSlot)];
    if (Slot == CountSlot ? Row.second().asDouble() != Want
                          : !withinSumBound(Row.second().asDouble(), Want,
                                            Count,
                                            static_cast<long double>(Count) *
                                                X.KmMaxAbs))
      return false;
  }
  return true;
}

} // namespace

int perfbench::runFigs(const RunOptions &O) {
  Report Rep;
  Clock::time_point T0 = fromNs(O.T0Ns);
  if (O.Trace)
    Tracer::get().enable();

  // Inputs, all from the seed.
  std::vector<double> Uniform = uniform(N, O.Seed * 16 + 1, 0, 1000);
  std::vector<double> CartXs = uniform(CartOuter, O.Seed * 16 + 2, 0, 1);
  std::vector<double> CartYs = uniform(CartInner, O.Seed * 16 + 3, 0, 1);
  std::vector<double> Mog = mixtureOfGaussians(N, O.Seed * 16 + 4);
  workloads::KmeansData Km =
      workloads::KmeansData::make(KmPoints, KmDim, KmK, O.Seed * 16 + 5);
  dryad::DoublePartition KmAll{std::move(Km.Points), KmDim};

  Expected X;
  for (double V : Uniform) {
    X.Sum += V;
    X.SumAbs += std::fabs(V);
    X.SumSq += static_cast<long double>(V) * V;
  }
  for (double V : CartXs)
    X.CartX += V;
  for (double V : CartYs)
    X.CartY += V;
  for (double V : Mog)
    ++X.Hist[static_cast<std::int64_t>(V)];
  X.KmSlots = workloads::handVertexPartials(KmAll, Km.Centroids, KmK, KmDim);
  for (double V : KmAll.Data)
    X.KmMaxAbs = std::max(X.KmMaxAbs, std::fabs(V));

  Bindings SumB, CartB, GroupB, KmB;
  SumB.bindDoubleArray(0, Uniform.data(), N);
  CartB.bindDoubleArray(0, CartXs.data(), CartOuter);
  CartB.bindDoubleArray(1, CartYs.data(), CartInner);
  GroupB.bindDoubleArray(0, Mog.data(), N);
  KmB.bindPointArray(0, KmAll.Data.data(), KmPoints, KmDim);
  KmB.bindDoubleArray(1, Km.Centroids.data(),
                      static_cast<std::int64_t>(Km.Centroids.size()));
  // The inputs and expected values are the harness's own memory (about
  // 230 MiB); peak_rss_mb is the peak above them, i.e. the program's.
  double InputsRssMb = selfMemMb("VmRSS:");
  std::fprintf(stderr, "perfbench: inputs hold %.1f MiB (peak so far %.1f)\n",
               InputsRssMb, selfMemMb("VmHWM:"));

  // The five timed operations and their independent checks.
  struct Op {
    const char *Name;
    std::function<QueryResult()> Run;
    std::function<bool(const QueryResult &)> Check;
    std::vector<double> Ms;
  };
  const Query Figure[4] = {sumQuery(), sumSqQuery(), cartQuery(),
                           groupQuery()};
  CompiledQuery Compiled[4];
  std::vector<double> CompileMs[4];
  for (int Rep0 = 0; Rep0 != ColdCompiles; ++Rep0)
    for (int Q = 0; Q != 4; ++Q) {
      Span S("steno.compileQuery");
      Clock::time_point C0 = Clock::now();
      Compiled[Q] = compileQuery(Figure[Q]);
      CompileMs[Q].push_back(msSince(C0));
    }
  // The pool's two workers each get a CPU of their own. Left to the
  // scheduler, they and the calling thread sometimes share one CPU for a
  // whole run (no migrations, hundreds of involuntary switches), which
  // doubles the k-means time in that run only.
  std::vector<int> Before = selfThreadIds();
  dryad::ThreadPool Pool(2);
  std::vector<int> Workers;
  for (int Tid : selfThreadIds())
    if (!std::binary_search(Before.begin(), Before.end(), Tid))
      Workers.push_back(Tid);
  std::vector<int> Cpus = pinToOwnCpus(Workers);
  if (Cpus.size() == 2)
    std::fprintf(stderr, "perfbench: k-means workers pinned to CPUs %d, %d\n",
                 Cpus[0], Cpus[1]);
  else
    std::fprintf(stderr, "perfbench: k-means workers left unpinned (%zu new "
                         "threads)\n",
                 Workers.size());
  dryad::DistributedQuery Kmeans = [] {
    Span S("dryad.DistributedQuery.compile");
    return dryad::DistributedQuery::compile(
        workloads::buildStepQuery(KmK, KmDim));
  }();
  if (!Kmeans.parallel())
    Rep.fail("the k-means step compiled into the sequential fallback");

  double Terms = static_cast<double>(N);
  double CartTerms = static_cast<double>(CartOuter * CartInner);
  std::vector<Op> Ops = {
      {"sum", [&] { return Compiled[0].run(SumB); },
       [&](const QueryResult &R) {
         return checkScalar(R, X.Sum, Terms, X.SumAbs);
       },
       {}},
      {"sumsq", [&] { return Compiled[1].run(SumB); },
       [&](const QueryResult &R) {
         return checkScalar(R, X.SumSq, Terms, X.SumSq);
       },
       {}},
      // Σ_{x,y} x·y = (Σx)(Σy); inputs are non-negative, so the product
      // is also the magnitude.
      {"cart", [&] { return Compiled[2].run(CartB); },
       [&](const QueryResult &R) {
         return checkScalar(R, X.CartX * X.CartY, CartTerms,
                            X.CartX * X.CartY);
       },
       {}},
      {"group", [&] { return Compiled[3].run(GroupB); },
       [&](const QueryResult &R) { return checkGroup(R, X); }, {}},
      {"kmeans", [&] { return Kmeans.runParallel(Pool, KmB); },
       [&](const QueryResult &R) { return checkKmeans(R, X); }, {}},
  };

  // The checks must reject a wrong answer: feed each one a perturbed copy
  // of a correct result.
  for (Op &P : Ops) {
    QueryResult R = P.Run();
    if (!P.Check(R))
      Rep.fail(std::string(P.Name) + ": output differs from the "
                                       "independent computation");
    std::vector<Value> Rows = R.rows();
    Value &Last = Rows.back();
    Last = Last.kind() == TypeKind::Double
               ? Value(Last.asDouble() * (1 + 1e-6) + 1e-3)
               : Value::makePair(Last.first(),
                                 Last.second().kind() == TypeKind::Int64
                                     ? Value(Last.second().asInt64() + 1)
                                     : Value(Last.second().asDouble() +
                                             1.0));
    if (P.Check(QueryResult(R.isScalar(), std::move(Rows), nullptr)))
      Rep.fail(std::string(P.Name) +
               ": self-test: a perturbed value passed the check");
  }
  double SetupS = msSince(T0) / 1e3;

  // Timed phase: whole rounds of the five operations.
  Clock::time_point End =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(O.Seconds));
  std::uint64_t Round = 0;
  while (Clock::now() < End) {
    ++Round;
    Span RoundSpan("figs.round", Round);
    for (Op &P : Ops) {
      ++Rep.Attempted;
      QueryResult R;
      {
        Span S(P.Name, Round);
        Clock::time_point R0 = Clock::now();
        R = P.Run();
        P.Ms.push_back(msSince(R0));
      }
      if (!P.Check(R))
        Rep.fail(std::string(P.Name) + ": wrong output in round " +
                 std::to_string(Round));
    }
  }
  std::fprintf(stderr, "perfbench: figs ran %llu rounds\n",
               static_cast<unsigned long long>(Round));

  // query_ms is the geometric mean of the five medians, so each query's
  // relative change weighs alike.
  std::vector<double> Medians;
  for (const Op &P : Ops) {
    Medians.push_back(median(P.Ms));
    std::fprintf(stderr, "perfbench: %-9s median %9.3f ms\n", P.Name,
                 Medians.back());
  }
  Report EndToEnd = Rep;
  EndToEnd.add("setup_s", SetupS, "s");
  std::vector<double> CompileMedians;
  for (const std::vector<double> &Ms : CompileMs)
    CompileMedians.push_back(median(Ms));
  EndToEnd.add("compile_ms", geomean(CompileMedians), "ms");
  EndToEnd.add("query_ms", geomean(Medians), "ms");
  EndToEnd.add("peak_rss_mb", selfMemMb("VmHWM:") - InputsRssMb, "MB");
  if (!O.Trace) {
    std::printf("%s\n", EndToEnd.json().c_str());
    return 0;
  }
  // With spans on, the same figures show what tracing costs.
  std::fprintf(stderr, "perfbench: traced end-to-end: %s\n",
               EndToEnd.json().c_str());

  // Traced run: the per-layer probes on the four compileQuery figures,
  // the interpreter at reduced sizes.
  Bindings SumI, CartI, GroupI;
  SumI.bindDoubleArray(0, Uniform.data(), InterpN);
  CartI.bindDoubleArray(0, CartXs.data(), InterpCartOuter);
  CartI.bindDoubleArray(1, CartYs.data(), CartInner);
  GroupI.bindDoubleArray(0, Mog.data(), InterpN);
  const Bindings *Full[4] = {&SumB, &SumB, &CartB, &GroupB};
  const Bindings *Reduced[4] = {&SumI, &SumI, &CartI, &GroupI};
  std::vector<LayerQuery> Layers;
  for (int Q = 0; Q != 4; ++Q)
    Layers.push_back({Ops[Q].Name, Figure[Q], Full[Q], Reduced[Q],
                      Ops[Q].Check});
  probeLayers(Layers, Rep);

  // Morsel-scheduler counters around k-means steps.
  {
    obs::Counter &Morsels = obs::counter("dryad.morsel.dispatched");
    obs::Counter &Steals = obs::counter("dryad.morsel.steals");
    std::uint64_t M0 = Morsels.value(), S0 = Steals.value();
    const int Steps = 10;
    for (int I = 0; I != Steps; ++I)
      if (!checkKmeans(Kmeans.runParallel(Pool, KmB), X))
        Rep.fail("k-means step: wrong output in the counter probe");
    std::fprintf(stderr,
                 "perfbench: k-means step: %.1f morsels, %.1f steals\n",
                 static_cast<double>(Morsels.value() - M0) / Steps,
                 static_cast<double>(Steals.value() - S0) / Steps);
  }

  Tracer::get().dump(O.TraceOut);
  std::printf("%s\n", Rep.json().c_str());
  return 0;
}
