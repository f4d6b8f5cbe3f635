//===- tests/cse_test.cpp - Common-subexpression elimination ---*- C++ -*-===//

#include "expr/Analysis.h"
#include "expr/Cse.h"
#include "expr/Dsl.h"
#include "expr/Eval.h"

#include "gtest/gtest.h"

using namespace steno::expr;
using namespace steno::expr::dsl;

namespace {

/// Runs CSE with deterministic names cse0, cse1, ...
CseResult runCse(const E &Handle) {
  unsigned Counter = 0;
  return eliminateCommonSubexprs(Handle.node(), [&Counter] {
    return "cse" + std::to_string(Counter++);
  });
}

/// Evaluates a CSE result (lets then body) with a parameter binding.
Value evalResult(const CseResult &R, const std::string &Name, Value V) {
  Env Environment;
  Environment.bind(Name, std::move(V));
  for (const auto &[LetName, LetExpr] : R.Lets)
    Environment.bind(LetName, evalExpr(*LetExpr, Environment));
  return evalExpr(*R.Rewritten, Environment);
}

} // namespace

TEST(Cse, HoistsRepeatedSubtree) {
  E X = param("x", Type::doubleTy());
  // (x*x + 1) / (x*x + 2): x*x occurs twice.
  CseResult R = runCse((X * X + 1.0) / (X * X + 2.0));
  ASSERT_EQ(R.Lets.size(), 1u);
  EXPECT_EQ(R.Lets[0].first, "cse0");
  EXPECT_EQ(R.Lets[0].second->str(), "(x * x)");
  // The rewritten tree references the let, not the product.
  EXPECT_EQ(freeParams(*R.Rewritten),
            (std::set<std::string>{"cse0"}));
  Value V = evalResult(R, "x", Value(3.0));
  EXPECT_DOUBLE_EQ(V.asDouble(), 10.0 / 11.0);
}

TEST(Cse, NoRepeatsNoChange) {
  E X = param("x", Type::doubleTy());
  E Body = X * 2.0 + 1.0;
  CseResult R = runCse(Body);
  EXPECT_TRUE(R.Lets.empty());
  EXPECT_EQ(R.Rewritten, Body.node()) << "untouched tree is shared";
}

TEST(Cse, LeavesAreNeverHoisted) {
  E X = param("x", Type::doubleTy());
  // x appears four times but is trivial.
  CseResult R = runCse(X + X + X + X);
  EXPECT_TRUE(R.Lets.empty());
}

TEST(Cse, MaximalSubtreeWins) {
  E X = param("x", Type::doubleTy());
  // sqrt(x*x+1) twice: hoist the whole sqrt, not x*x separately.
  CseResult R = runCse(sqrt(X * X + 1.0) * sqrt(X * X + 1.0));
  ASSERT_EQ(R.Lets.size(), 1u);
  EXPECT_EQ(R.Lets[0].second->str(), "steno::rt::sqrt(((x * x) + 1))");
  Value V = evalResult(R, "x", Value(2.0));
  EXPECT_DOUBLE_EQ(V.asDouble(), 5.0);
}

TEST(Cse, LazyCondArmsNotCounted) {
  E X = param("x", Type::doubleTy());
  // 10/x appears in both arms of a guarded conditional; hoisting it
  // would divide by zero when x == 0.
  E Guarded = cond(X != 0.0, 10.0 / X, -(10.0 / X));
  CseResult R = runCse(Guarded);
  EXPECT_TRUE(R.Lets.empty())
      << "conditional arms are lazy; nothing may be hoisted";
}

TEST(Cse, LazyAndRhsNotCounted) {
  E X = param("x", Type::int64Ty());
  E Guarded = ((X != 0) && (E(10) / X > 1)) &&
              ((X != 0) && (E(10) / X > 1));
  // The whole rhs conjunct is lazy; only the strict lhs occurrence of
  // each subtree counts once — nothing repeats strictly.
  CseResult R = runCse(Guarded);
  EXPECT_TRUE(R.Lets.empty());
  // Semantics check at the dangerous input.
  Env Environment;
  Environment.bind("x", Value(std::int64_t{0}));
  EXPECT_FALSE(evalExpr(*R.Rewritten, Environment).asBool());
}

TEST(Cse, StrictConditionOfCondCounts) {
  E X = param("x", Type::doubleTy());
  // (x*x > 1) is strict in both conds; x*x repeats strictly.
  E Body = cond(X * X > 1.0, E(1.0), E(2.0)) +
           cond(X * X > 2.0, E(3.0), E(4.0));
  CseResult R = runCse(Body);
  ASSERT_EQ(R.Lets.size(), 1u);
  EXPECT_EQ(R.Lets[0].second->str(), "(x * x)");
}

TEST(Cse, StrictOccurrenceAlsoReplacesLazyOnes) {
  E X = param("x", Type::doubleTy());
  // x*x twice strictly, once lazily: all three reference the let (the
  // value is computed regardless).
  E Body = (X * X) + (X * X) + cond(X > 0.0, X * X, E(0.0));
  CseResult R = runCse(Body);
  ASSERT_EQ(R.Lets.size(), 1u);
  Value V = evalResult(R, "x", Value(2.0));
  EXPECT_DOUBLE_EQ(V.asDouble(), 12.0);
}

TEST(Cse, MultipleIndependentLets) {
  E X = param("x", Type::doubleTy());
  E A = sqrt(X + 1.0);
  E B = sqrt(X + 2.0);
  CseResult R = runCse(A * A + B * B);
  EXPECT_EQ(R.Lets.size(), 2u);
  Value V = evalResult(R, "x", Value(3.0));
  EXPECT_DOUBLE_EQ(V.asDouble(), 9.0);
}

TEST(Cse, VecIndexingHoisted) {
  // The k-means inner-loop shape: (p[d] - c[d]) * (p[d] - c[d]).
  E P = param("p", Type::vecTy());
  E C = param("c", Type::vecTy());
  E D = param("d", Type::int64Ty());
  CseResult R = runCse((P[D] - C[D]) * (P[D] - C[D]));
  ASSERT_GE(R.Lets.size(), 1u);
  EXPECT_EQ(R.Lets[0].second->str(), "(p[d] - c[d])");
  double Pd[] = {1, 5};
  double Cd[] = {0, 2};
  Env Environment;
  Environment.bind("p", Value(VecView{Pd, 2}));
  Environment.bind("c", Value(VecView{Cd, 2}));
  Environment.bind("d", Value(std::int64_t{1}));
  for (const auto &[Name, Let] : R.Lets)
    Environment.bind(Name, evalExpr(*Let, Environment));
  EXPECT_DOUBLE_EQ(evalExpr(*R.Rewritten, Environment).asDouble(), 9.0);
}

TEST(Cse, PairProjectionChainsNotHoistedAlone) {
  // .first of a param is trivial (no computation).
  E P = param("p", Type::pairTy(Type::doubleTy(), Type::doubleTy()));
  CseResult R = runCse(P.first() + P.first());
  EXPECT_TRUE(R.Lets.empty());
}
