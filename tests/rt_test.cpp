//===- tests/rt_test.cpp - Generated-code runtime tests --------*- C++ -*-===//

#include "steno/RefExec.h"
#include "steno/Rt.h"
#include "steno/Steno.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_map>
#include <vector>

using namespace steno::rt;

TEST(RtGroupSink, InsertionOrderPreserved) {
  GroupSink S;
  S.put(5, 1.0);
  S.put(2, 2.0);
  S.put(5, 3.0);
  ASSERT_EQ(S.size(), 2);
  Pair<std::int64_t, VecView> G0 = S.group(0);
  EXPECT_EQ(G0.First, 5);
  ASSERT_EQ(G0.Second.Len, 2);
  EXPECT_DOUBLE_EQ(G0.Second.Data[0], 1.0);
  EXPECT_DOUBLE_EQ(G0.Second.Data[1], 3.0);
  EXPECT_EQ(S.group(1).First, 2);
}

TEST(RtGroupSink, ManyKeys) {
  GroupSink S;
  for (int I = 0; I < 1000; ++I)
    S.put(I % 37, static_cast<double>(I));
  EXPECT_EQ(S.size(), 37);
  std::int64_t Total = 0;
  for (std::int64_t I = 0; I != S.size(); ++I)
    Total += S.group(I).Second.Len;
  EXPECT_EQ(Total, 1000);
}

TEST(RtGroupAggSink, SlotInsertsSeedOnce) {
  GroupAggSink<double> S;
  double &A = S.slot(7, 100.0);
  EXPECT_DOUBLE_EQ(A, 100.0);
  A = 150.0;
  double &B = S.slot(7, 100.0);
  EXPECT_DOUBLE_EQ(B, 150.0) << "existing accumulator, not a fresh seed";
  EXPECT_EQ(S.size(), 1);
}

TEST(RtGroupAggSink, KeyAndAccByIndex) {
  GroupAggSink<std::int64_t> S;
  S.slot(9, 0) += 1;
  S.slot(4, 0) += 2;
  S.slot(9, 0) += 3;
  ASSERT_EQ(S.size(), 2);
  EXPECT_EQ(S.keyAt(0), 9);
  EXPECT_EQ(S.accAt(0), 4);
  EXPECT_EQ(S.keyAt(1), 4);
  EXPECT_EQ(S.accAt(1), 2);
}

TEST(RtGroupAggSink, PairAccumulators) {
  GroupAggSink<Pair<double, std::int64_t>> S;
  auto &A = S.slot(0, Pair<double, std::int64_t>{0.0, 0});
  A = Pair<double, std::int64_t>{A.First + 2.5, A.Second + 1};
  EXPECT_DOUBLE_EQ(S.accAt(0).First, 2.5);
  EXPECT_EQ(S.accAt(0).Second, 1);
}

TEST(RtGroupAggSink, RehashGrowthKeepsInsertionOrder) {
  // Past 10^5 distinct keys the index rehashes a dozen times. The keys
  // mix negatives, the int64 extremes, and a run that all land in the
  // first bucket of the initial 16-slot index (the top four bits of the
  // Fibonacci hash are zero), so early probes collide.
  std::vector<std::int64_t> Keys = {INT64_MIN, INT64_MAX, 0, -1,
                                    INT64_MIN + 1, INT64_MAX - 1};
  for (std::int64_t K = 1; Keys.size() < 2000; ++K)
    if ((static_cast<std::uint64_t>(K) * 0x9E3779B97F4A7C15ull) >> 60 == 0)
      Keys.push_back(K);
  for (std::int64_t K = 1; K <= 60000; ++K) {
    Keys.push_back(-7 * K);
    Keys.push_back(K << 20);
  }
  GroupAggSink<std::int64_t> S;
  std::unordered_map<std::int64_t, std::int64_t> Want;
  std::vector<std::int64_t> FirstSeen;
  // Every key three times, interleaved, so repeats hit grown tables.
  for (int Round = 0; Round != 3; ++Round)
    for (std::size_t I = 0; I != Keys.size(); ++I) {
      std::int64_t K = Keys[(I * 7919 + static_cast<std::size_t>(Round)) %
                            Keys.size()];
      if (Round == 0 && !Want.count(K))
        FirstSeen.push_back(K);
      S.slot(K, 0) += 1;
      ++Want[K];
    }
  ASSERT_GT(S.size(), 100000);
  ASSERT_EQ(S.size(), static_cast<std::int64_t>(FirstSeen.size()));
  for (std::int64_t I = 0; I != S.size(); ++I) {
    ASSERT_EQ(S.keyAt(I), FirstSeen[static_cast<std::size_t>(I)]) << I;
    ASSERT_EQ(S.accAt(I), Want[S.keyAt(I)]) << I;
  }
}

TEST(RtGroupSink, BagsSurviveGrowth) {
  GroupSink S;
  for (std::int64_t I = 0; I != 200000; ++I)
    S.put((I % 50000) - 25000, static_cast<double>(I));
  ASSERT_EQ(S.size(), 50000);
  for (std::int64_t G = 0; G != S.size(); ++G) {
    Pair<std::int64_t, VecView> Bag = S.group(G);
    ASSERT_EQ(Bag.First, G - 25000);
    ASSERT_EQ(Bag.Second.Len, 4);
    for (std::int64_t J = 0; J != 4; ++J)
      ASSERT_EQ(Bag.Second.Data[J], static_cast<double>(G + 50000 * J));
  }
}

TEST(RtBuf, GrowthKeepsElements) {
  Buf<Pair<double, std::int64_t>> B;
  EXPECT_EQ(B.size(), 0);
  for (std::int64_t I = 0; I != 100000; ++I)
    B.push_back(Pair<double, std::int64_t>{0.5 * static_cast<double>(I), I});
  ASSERT_EQ(B.size(), 100000);
  for (std::int64_t I = 0; I != B.size(); ++I) {
    ASSERT_EQ(B[I].First, 0.5 * static_cast<double>(I));
    ASSERT_EQ(B[I].Second, I);
  }
  EXPECT_EQ(B.data(), &B[0]);
}

TEST(RtBuf, PushOfOwnElementAcrossGrowth) {
  // push_back takes its element by value: pushing B[0] at the moment the
  // buffer is full (1, 2, 4, 8 ...) must not read the freed old storage.
  Buf<std::int64_t> B;
  B.push_back(42);
  for (int I = 0; I != 100; ++I)
    B.push_back(B[0]);
  ASSERT_EQ(B.size(), 101);
  for (std::int64_t I = 0; I != B.size(); ++I)
    ASSERT_EQ(B[I], 42);
}

TEST(RtBuf, ResizeFillsNewElements) {
  Buf<double> B;
  B.push_back(1.0);
  B.resize(1000, 7.0);
  ASSERT_EQ(B.size(), 1000);
  EXPECT_EQ(B[0], 1.0);
  EXPECT_EQ(B[999], 7.0);
}

TEST(RtStableSort, MatchesStdStableSortOnTies) {
  // Keys drawn from 5 values, so most comparisons are ties: the sort is
  // stable exactly when it reproduces std::stable_sort's permutation.
  using Elem = Pair<double, std::int64_t>;
  for (std::int64_t N : {0, 1, 2, 31, 32, 33, 64, 65, 1000, 4097}) {
    std::vector<Elem> Got;
    std::uint64_t X = 12345;
    for (std::int64_t I = 0; I != N; ++I) {
      X = X * 6364136223846793005ull + 1442695040888963407ull;
      Got.push_back(Elem{static_cast<double>((X >> 33) % 5), I});
    }
    for (bool Descending : {false, true}) {
      std::vector<Elem> Want = Got;
      std::vector<Elem> Mine = Got;
      auto Less = [Descending](const Elem &A, const Elem &B) {
        return Descending ? B.First < A.First : A.First < B.First;
      };
      std::stable_sort(Want.begin(), Want.end(), Less);
      stableSort(Mine.data(), N, Less);
      for (std::int64_t I = 0; I != N; ++I) {
        auto U = static_cast<std::size_t>(I);
        ASSERT_EQ(Mine[U].First, Want[U].First) << N << " @" << I;
        ASSERT_EQ(Mine[U].Second, Want[U].Second) << N << " @" << I;
      }
    }
  }
}

TEST(RtDenseAggSink, SeededAndIndexed) {
  DenseAggSink<double> S(4, 1.5);
  ASSERT_EQ(S.size(), 4);
  for (std::int64_t I = 0; I != 4; ++I) {
    EXPECT_EQ(S.keyAt(I), I);
    EXPECT_DOUBLE_EQ(S.accAt(I), 1.5);
  }
  S.slot(2) += 10.0;
  EXPECT_DOUBLE_EQ(S.accAt(2), 11.5);
  EXPECT_DOUBLE_EQ(S.accAt(1), 1.5);
}

TEST(RtDenseAggSink, ZeroAndNegativeBounds) {
  DenseAggSink<double> Empty(0, 0.0);
  EXPECT_EQ(Empty.size(), 0);
  DenseAggSink<double> Neg(-3, 0.0);
  EXPECT_EQ(Neg.size(), 0);
}

//===--------------------------------------------------------------------===//
// Emitter / cell flattening
//===--------------------------------------------------------------------===//

namespace {

struct CapturedRows {
  std::vector<std::vector<Cell>> Rows;

  static void callback(void *Ctx, const Cell *Cells, std::int64_t N) {
    auto *Self = static_cast<CapturedRows *>(Ctx);
    Self->Rows.emplace_back(Cells, Cells + N);
  }

  Emitter emitter() { return Emitter{this, &callback}; }
};

} // namespace

TEST(RtEmit, ScalarCellKinds) {
  CapturedRows Out;
  Emitter E = Out.emitter();
  emitRow(&E, 2.5);
  emitRow(&E, std::int64_t{42});
  emitRow(&E, true);
  ASSERT_EQ(Out.Rows.size(), 3u);
  EXPECT_EQ(Out.Rows[0][0].Kind, 2);
  EXPECT_DOUBLE_EQ(Out.Rows[0][0].D, 2.5);
  EXPECT_EQ(Out.Rows[1][0].Kind, 1);
  EXPECT_EQ(Out.Rows[1][0].I, 42);
  EXPECT_EQ(Out.Rows[2][0].Kind, 0);
  EXPECT_EQ(Out.Rows[2][0].I, 1);
}

TEST(RtEmit, VecCellBorrows) {
  double Buf[] = {1, 2, 3};
  CapturedRows Out;
  Emitter E = Out.emitter();
  emitRow(&E, VecView{Buf, 3});
  ASSERT_EQ(Out.Rows.size(), 1u);
  EXPECT_EQ(Out.Rows[0][0].Kind, 3);
  EXPECT_EQ(Out.Rows[0][0].VData, Buf);
  EXPECT_EQ(Out.Rows[0][0].VLen, 3);
}

TEST(RtEmit, PairFlattensPreOrder) {
  CapturedRows Out;
  Emitter E = Out.emitter();
  Pair<std::int64_t, Pair<double, bool>> Row{7, {1.5, true}};
  emitRow(&E, Row);
  ASSERT_EQ(Out.Rows.size(), 1u);
  ASSERT_EQ(Out.Rows[0].size(), 3u);
  EXPECT_EQ(Out.Rows[0][0].I, 7);
  EXPECT_DOUBLE_EQ(Out.Rows[0][1].D, 1.5);
  EXPECT_EQ(Out.Rows[0][2].I, 1);
}

TEST(RtEmit, CellCounts) {
  EXPECT_EQ(CellCount<double>::value, 1);
  EXPECT_EQ((CellCount<Pair<double, std::int64_t>>::value), 2);
  EXPECT_EQ((CellCount<Pair<Pair<bool, double>, VecView>>::value), 3);
}

TEST(RtBindings, CaptureValueDefaults) {
  CaptureValue V;
  EXPECT_EQ(V.I, 0);
  EXPECT_EQ(V.VData, nullptr);
  SourceBinding S;
  EXPECT_EQ(S.Dim, 1);
}

//===--------------------------------------------------------------------===//
// Math builtins: native vs the reference executor on special values
//===--------------------------------------------------------------------===//

namespace {

using steno::Backend;
using steno::Bindings;
using steno::CompileOptions;
using steno::QueryResult;
using steno::query::Query;
namespace dsl = steno::expr::dsl;
using steno::expr::Type;

/// Same value, bit for bit (so -0.0 differs from 0.0), or both NaN.
bool sameDouble(double A, double B) {
  if (std::isnan(A) && std::isnan(B))
    return true;
  return std::memcmp(&A, &B, sizeof A) == 0;
}

/// Runs \p Q natively and checks every row against runReference.
void expectNativeMatchesReference(const Query &Q, const Bindings &B,
                                  const std::string &Name) {
  SCOPED_TRACE(Name);
  QueryResult Ref = steno::runReference(Q, B);
  CompileOptions Options;
  Options.Exec = Backend::Native;
  Options.Name = "rt_math_" + Name;
  QueryResult Got = steno::compileQuery(Q, Options).run(B);
  ASSERT_EQ(Got.rows().size(), Ref.rows().size());
  for (std::size_t I = 0; I != Ref.rows().size(); ++I) {
    const steno::expr::Value &R = Ref.rows()[I];
    const steno::expr::Value &G = Got.rows()[I];
    if (R.isInt64())
      EXPECT_EQ(G.asInt64(), R.asInt64()) << "row " << I;
    else
      EXPECT_TRUE(sameDouble(G.asDouble(), R.asDouble()))
          << "row " << I << ": native " << G.asDouble() << ", reference "
          << R.asDouble();
  }
}

const std::vector<double> &specialDoubles() {
  static const std::vector<double> V = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      2.5,
      -2.5,
      1e300,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      2.2250738585072009e-308, // the largest subnormal
  };
  return V;
}

} // namespace

TEST(RtMath, UnaryBuiltinsMatchReference) {
  const std::vector<double> &Xs = specialDoubles();
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), static_cast<std::int64_t>(Xs.size()));
  dsl::E X = dsl::param("x", Type::doubleTy());
  std::vector<std::pair<std::string, dsl::E>> Fns = {
      {"sqrt", dsl::sqrt(X)},   {"abs", dsl::abs(X)}, {"floor", dsl::floor(X)},
      {"ceil", dsl::ceil(X)},   {"exp", dsl::exp(X)}, {"log", dsl::log(X)}};
  for (const auto &[Name, Body] : Fns)
    expectNativeMatchesReference(
        Query::doubleArray(0).select(dsl::lambda({X}, Body)).toArray(), B,
        Name);
}

TEST(RtMath, BinaryBuiltinsMatchReference) {
  // Every ordered pair of special values, through a nested loop.
  const std::vector<double> &Xs = specialDoubles();
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), static_cast<std::int64_t>(Xs.size()));
  B.bindDoubleArray(1, Xs.data(), static_cast<std::int64_t>(Xs.size()));
  dsl::E X = dsl::param("x", Type::doubleTy());
  dsl::E Y = dsl::param("y", Type::doubleTy());
  std::vector<std::pair<std::string, dsl::E>> Fns = {
      {"min", dsl::min(X, Y)},
      {"max", dsl::max(X, Y)},
      {"pow", dsl::pow(X, Y)},
      {"fmod", X % Y}};
  for (const auto &[Name, Body] : Fns)
    expectNativeMatchesReference(
        Query::doubleArray(0)
            .selectMany(X, Query::doubleArray(1).select(dsl::lambda({Y}, Body)))
            .toArray(),
        B, Name);
}

TEST(RtMath, Int64BuiltinsMatchReference) {
  std::vector<std::int64_t> Is = {0,         1,         -1,
                                  42,        -42,       INT64_MAX,
                                  INT64_MIN + 1};
  std::vector<std::int64_t> Js = Is;
  Js.push_back(INT64_MIN); // abs(INT64_MIN) overflows; min/max do not
  Bindings B;
  B.bindInt64Array(0, Is.data(), static_cast<std::int64_t>(Is.size()));
  B.bindInt64Array(1, Js.data(), static_cast<std::int64_t>(Js.size()));
  dsl::E I = dsl::param("i", Type::int64Ty());
  dsl::E J = dsl::param("j", Type::int64Ty());
  expectNativeMatchesReference(
      Query::int64Array(0).select(dsl::lambda({I}, dsl::abs(I))).toArray(), B,
      "abs_i64");
  for (const auto &[Name, Body] :
       std::vector<std::pair<std::string, dsl::E>>{{"min_i64", dsl::min(I, J)},
                                                   {"max_i64", dsl::max(I, J)}})
    expectNativeMatchesReference(
        Query::int64Array(0)
            .selectMany(I, Query::int64Array(1).select(dsl::lambda({J}, Body)))
            .toArray(),
        B, Name);
}
