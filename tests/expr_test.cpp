//===- tests/expr_test.cpp - Expression language tests ---------*- C++ -*-===//

#include "expr/Analysis.h"
#include "expr/CxxPrinter.h"
#include "expr/Dsl.h"
#include "expr/Eval.h"

#include "gtest/gtest.h"

#include <cmath>

using namespace steno::expr;
using namespace steno::expr::dsl;

namespace {

/// Evaluates a closed expression.
Value evalClosed(const E &Handle) {
  Env Environment;
  return evalExpr(*Handle.node(), Environment);
}

/// Evaluates with one bound parameter.
Value evalWith(const E &Handle, const std::string &Name, Value V) {
  Env Environment;
  Environment.bind(Name, std::move(V));
  return evalExpr(*Handle.node(), Environment);
}

} // namespace

//===--------------------------------------------------------------------===//
// Types
//===--------------------------------------------------------------------===//

TEST(ExprType, ScalarSingletons) {
  EXPECT_EQ(Type::int64Ty(), Type::int64Ty());
  EXPECT_EQ(Type::doubleTy(), Type::doubleTy());
  EXPECT_EQ(Type::boolTy(), Type::boolTy());
  EXPECT_EQ(Type::vecTy(), Type::vecTy());
}

TEST(ExprType, StructuralEquality) {
  TypeRef P1 = Type::pairTy(Type::int64Ty(), Type::doubleTy());
  TypeRef P2 = Type::pairTy(Type::int64Ty(), Type::doubleTy());
  EXPECT_NE(P1, P2) << "pairs are not interned";
  EXPECT_TRUE(sameType(P1, P2));
  EXPECT_FALSE(
      sameType(P1, Type::pairTy(Type::doubleTy(), Type::doubleTy())));
}

TEST(ExprType, Str) {
  EXPECT_EQ(Type::pairTy(Type::int64Ty(), Type::vecTy())->str(),
            "pair<int64, vec>");
}

TEST(ExprType, CxxNames) {
  EXPECT_EQ(Type::doubleTy()->cxxName(), "double");
  EXPECT_EQ(Type::int64Ty()->cxxName(), "std::int64_t");
  EXPECT_EQ(Type::vecTy()->cxxName(), "steno::rt::VecView");
  EXPECT_EQ(Type::pairTy(Type::boolTy(), Type::doubleTy())->cxxName(),
            "steno::rt::Pair<bool, double>");
}

TEST(ExprType, Predicates) {
  EXPECT_TRUE(Type::int64Ty()->isNumeric());
  EXPECT_TRUE(Type::doubleTy()->isNumeric());
  EXPECT_FALSE(Type::boolTy()->isNumeric());
  EXPECT_TRUE(Type::boolTy()->isScalar());
  EXPECT_FALSE(Type::vecTy()->isScalar());
}

//===--------------------------------------------------------------------===//
// Construction and typing
//===--------------------------------------------------------------------===//

TEST(ExprBuild, ConstTypes) {
  EXPECT_TRUE(E(1).type()->isInt64());
  EXPECT_TRUE(E(1.5).type()->isDouble());
  EXPECT_TRUE(E(true).type()->isBool());
}

TEST(ExprBuild, ArithmeticPromotion) {
  E Mixed = E(1) + E(2.5);
  EXPECT_TRUE(Mixed.type()->isDouble())
      << "int64 + double promotes to double";
  E Same = E(1) + E(2);
  EXPECT_TRUE(Same.type()->isInt64());
}

TEST(ExprBuild, ComparisonIsBool) {
  EXPECT_TRUE((E(1) < E(2.0)).type()->isBool());
  EXPECT_TRUE((E(true) == E(false)).type()->isBool());
}

TEST(ExprBuild, ConvertIsIdempotent) {
  ExprRef D = Expr::constDouble(1.0);
  EXPECT_EQ(Expr::convert(D, Type::doubleTy()), D)
      << "no-op conversions are not materialized";
  EXPECT_NE(Expr::convert(D, Type::int64Ty()), D);
}

TEST(ExprBuild, PairProjectionTypes) {
  E P = pair(E(1), E(2.0));
  EXPECT_TRUE(P.type()->isPair());
  EXPECT_TRUE(P.first().type()->isInt64());
  EXPECT_TRUE(P.second().type()->isDouble());
}

TEST(ExprBuild, VecOps) {
  E V = param("v", Type::vecTy());
  EXPECT_TRUE(V[E(0)].type()->isDouble());
  EXPECT_TRUE(len(V).type()->isInt64());
}

TEST(ExprBuild, BuiltinResultTypes) {
  EXPECT_TRUE(sqrt(E(4)).type()->isDouble());
  EXPECT_TRUE(abs(E(-2)).type()->isInt64());
  EXPECT_TRUE(abs(E(-2.0)).type()->isDouble());
  EXPECT_TRUE(min(E(1), E(2.0)).type()->isDouble());
  EXPECT_TRUE(pow(E(2), E(3)).type()->isDouble());
}

TEST(ExprBuild, CondPromotesArms) {
  E C = cond(E(true), E(1), E(2.5));
  EXPECT_TRUE(C.type()->isDouble());
}

TEST(ExprBuild, DebugStr) {
  E X = param("x", Type::int64Ty());
  EXPECT_EQ((X % 2 == 0).node()->str(), "((x % 2) == 0)");
}

//===--------------------------------------------------------------------===//
// Evaluation
//===--------------------------------------------------------------------===//

TEST(ExprEval, IntArithmetic) {
  EXPECT_EQ(evalClosed(E(7) + E(3)).asInt64(), 10);
  EXPECT_EQ(evalClosed(E(7) - E(3)).asInt64(), 4);
  EXPECT_EQ(evalClosed(E(7) * E(3)).asInt64(), 21);
  EXPECT_EQ(evalClosed(E(7) / E(3)).asInt64(), 2);
  EXPECT_EQ(evalClosed(E(7) % E(3)).asInt64(), 1);
  EXPECT_EQ(evalClosed(-E(7)).asInt64(), -7);
}

TEST(ExprEval, DoubleArithmetic) {
  EXPECT_DOUBLE_EQ(evalClosed(E(7.0) / E(2.0)).asDouble(), 3.5);
  EXPECT_DOUBLE_EQ(evalClosed(E(7.5) % E(2.0)).asDouble(),
                   std::fmod(7.5, 2.0));
}

TEST(ExprEval, MixedPromotes) {
  Value V = evalClosed(E(1) + E(0.5));
  EXPECT_TRUE(V.isDouble());
  EXPECT_DOUBLE_EQ(V.asDouble(), 1.5);
}

TEST(ExprEval, Comparisons) {
  EXPECT_TRUE(evalClosed(E(1) < E(2)).asBool());
  EXPECT_FALSE(evalClosed(E(2) < E(1)).asBool());
  EXPECT_TRUE(evalClosed(E(2) <= E(2)).asBool());
  EXPECT_TRUE(evalClosed(E(3) > E(2)).asBool());
  EXPECT_TRUE(evalClosed(E(2) >= E(2)).asBool());
  EXPECT_TRUE(evalClosed(E(2) == E(2.0)).asBool());
  EXPECT_TRUE(evalClosed(E(2) != E(3)).asBool());
  EXPECT_TRUE(evalClosed(E(true) == E(true)).asBool());
  EXPECT_TRUE(evalClosed(E(true) != E(false)).asBool());
}

TEST(ExprEval, LogicShortCircuits) {
  // Division by zero in the unevaluated arm must not run.
  E X = param("x", Type::int64Ty());
  E Guarded = (X != 0) && (E(10) / X > 1);
  EXPECT_FALSE(evalWith(Guarded, "x", Value(std::int64_t{0})).asBool());
  EXPECT_TRUE(evalWith(Guarded, "x", Value(std::int64_t{2})).asBool());
  E GuardedOr = (X == 0) || (E(10) / X > 1);
  EXPECT_TRUE(evalWith(GuardedOr, "x", Value(std::int64_t{0})).asBool());
}

TEST(ExprEval, NotNeg) {
  EXPECT_FALSE(evalClosed(!E(true)).asBool());
  EXPECT_DOUBLE_EQ(evalClosed(-E(2.5)).asDouble(), -2.5);
}

TEST(ExprEval, Builtins) {
  EXPECT_DOUBLE_EQ(evalClosed(sqrt(E(9.0))).asDouble(), 3.0);
  EXPECT_DOUBLE_EQ(evalClosed(abs(E(-2.5))).asDouble(), 2.5);
  EXPECT_EQ(evalClosed(abs(E(-3))).asInt64(), 3);
  EXPECT_EQ(evalClosed(min(E(2), E(5))).asInt64(), 2);
  EXPECT_EQ(evalClosed(max(E(2), E(5))).asInt64(), 5);
  EXPECT_DOUBLE_EQ(evalClosed(dsl::floor(E(2.7))).asDouble(), 2.0);
  EXPECT_DOUBLE_EQ(evalClosed(dsl::ceil(E(2.2))).asDouble(), 3.0);
  EXPECT_DOUBLE_EQ(evalClosed(dsl::exp(E(0.0))).asDouble(), 1.0);
  EXPECT_DOUBLE_EQ(evalClosed(dsl::log(E(1.0))).asDouble(), 0.0);
  EXPECT_DOUBLE_EQ(evalClosed(pow(E(2.0), E(10.0))).asDouble(), 1024.0);
}

TEST(ExprEval, Cond) {
  EXPECT_EQ(evalClosed(cond(E(true), E(1), E(2))).asInt64(), 1);
  EXPECT_EQ(evalClosed(cond(E(false), E(1), E(2))).asInt64(), 2);
}

TEST(ExprEval, Pairs) {
  Value V = evalClosed(pair(E(1), pair(E(2.5), E(true))));
  EXPECT_EQ(V.first().asInt64(), 1);
  EXPECT_DOUBLE_EQ(V.second().first().asDouble(), 2.5);
  EXPECT_TRUE(V.second().second().asBool());
  EXPECT_EQ(evalClosed(pair(E(1), E(2)).first()).asInt64(), 1);
  EXPECT_EQ(evalClosed(pair(E(1), E(2)).second()).asInt64(), 2);
}

TEST(ExprEval, VecAccess) {
  double Data[] = {1.0, 2.0, 3.0};
  E V = param("v", Type::vecTy());
  Value Bound = Value(VecView{Data, 3});
  EXPECT_EQ(evalWith(len(V), "v", Bound).asInt64(), 3);
  EXPECT_DOUBLE_EQ(evalWith(V[E(1)], "v", Bound).asDouble(), 2.0);
}

TEST(ExprEval, BufferSliceAndSourceLen) {
  std::vector<double> Buf = {0, 1, 2, 3, 4, 5};
  SourceBuffer Src;
  Src.DoubleData = Buf.data();
  Src.Count = 3;
  Src.Dim = 2;
  std::vector<SourceBuffer> Sources = {Src};
  Env Environment;
  Environment.setSources(&Sources);
  // Slice point 2 (doubles 4..5).
  ExprRef Slice = Expr::bufferSlice(0, Expr::constInt64(4),
                                    Expr::constInt64(2));
  Value V = evalExpr(*Slice, Environment);
  EXPECT_EQ(V.asVec().Len, 2);
  EXPECT_DOUBLE_EQ(V.asVec()[0], 4.0);
  ExprRef Len = Expr::sourceLen(0);
  EXPECT_EQ(evalExpr(*Len, Environment).asInt64(), 3);
}

TEST(ExprEval, Captures) {
  std::vector<Value> Caps = {Value(2.5), Value(std::int64_t{4})};
  Env Environment;
  Environment.setCaptures(&Caps);
  E Sum = capture(0, Type::doubleTy()) +
          toDouble(capture(1, Type::int64Ty()));
  EXPECT_DOUBLE_EQ(evalExpr(*Sum.node(), Environment).asDouble(), 6.5);
}

TEST(ExprEval, LambdaApplication) {
  E X = param("x", Type::int64Ty());
  E Y = param("y", Type::int64Ty());
  Lambda L = lambda({X, Y}, X * 10 + Y);
  Env Environment;
  Value V = applyLambda(L, {Value(std::int64_t{3}), Value(std::int64_t{4})},
                        Environment);
  EXPECT_EQ(V.asInt64(), 34);
}

TEST(ExprEval, NestedShadowing) {
  // Inner binding of the same name shadows the outer one.
  E X = param("x", Type::int64Ty());
  Env Environment;
  Environment.bind("x", Value(std::int64_t{1}));
  Environment.bind("x", Value(std::int64_t{2}));
  EXPECT_EQ(evalExpr(*X.node(), Environment).asInt64(), 2);
  Environment.pop();
  EXPECT_EQ(evalExpr(*X.node(), Environment).asInt64(), 1);
}

//===--------------------------------------------------------------------===//
// Value semantics
//===--------------------------------------------------------------------===//

TEST(ExprValue, Equality) {
  EXPECT_EQ(Value(1.5), Value(1.5));
  EXPECT_FALSE(Value(1.5) == Value(std::int64_t{1}));
  EXPECT_EQ(Value::makePair(Value(1.5), Value(true)),
            Value::makePair(Value(1.5), Value(true)));
  double A[] = {1, 2};
  double B[] = {1, 2};
  EXPECT_EQ(Value(VecView{A, 2}), Value(VecView{B, 2}))
      << "vec equality is element-wise";
}

TEST(ExprValue, NumericCoercion) {
  EXPECT_DOUBLE_EQ(Value(std::int64_t{3}).asNumericDouble(), 3.0);
  EXPECT_DOUBLE_EQ(Value(2.5).asNumericDouble(), 2.5);
}

//===--------------------------------------------------------------------===//
// Analysis
//===--------------------------------------------------------------------===//

TEST(ExprAnalysis, FreeParams) {
  E X = param("x", Type::doubleTy());
  E Y = param("y", Type::doubleTy());
  std::set<std::string> Free = freeParams(*(X * Y + X).node());
  EXPECT_EQ(Free, (std::set<std::string>{"x", "y"}));
  EXPECT_TRUE(freeParams(*E(1.0).node()).empty());
}

TEST(ExprAnalysis, UsedCaptureSlots) {
  E Expr2 = capture(3, Type::doubleTy()) + capture(1, Type::doubleTy());
  EXPECT_EQ(usedCaptureSlots(*Expr2.node()),
            (std::set<unsigned>{1, 3}));
}

TEST(ExprAnalysis, UsedSourceSlots) {
  E S = slice(2, E(0), E(4))[E(0)] + toDouble(sourceLen(5));
  EXPECT_EQ(usedSourceSlots(*S.node()), (std::set<unsigned>{2, 5}));
}

TEST(ExprAnalysis, SubstituteReplacesAll) {
  E X = param("x", Type::int64Ty());
  ExprRef Body = (X * X + X).node();
  ExprRef Replaced = substituteParams(Body, {{"x", E(3).node()}});
  Env Environment;
  EXPECT_EQ(evalExpr(*Replaced, Environment).asInt64(), 12);
  EXPECT_TRUE(freeParams(*Replaced).empty());
}

TEST(ExprAnalysis, SubstituteLeavesOthers) {
  E X = param("x", Type::int64Ty());
  E Y = param("y", Type::int64Ty());
  ExprRef Replaced = substituteParams((X + Y).node(), {{"x", E(1).node()}});
  EXPECT_EQ(freeParams(*Replaced), (std::set<std::string>{"y"}));
}

TEST(ExprAnalysis, SubstituteSharesUnchangedSubtrees) {
  E Y = param("y", Type::int64Ty());
  ExprRef Body = (Y + Y).node();
  EXPECT_EQ(substituteParams(Body, {{"x", E(1).node()}}), Body)
      << "no-op substitution returns the same node";
}

TEST(ExprAnalysis, RenameParams) {
  E X = param("x", Type::int64Ty());
  ExprRef Renamed = renameParams((X * 2).node(), {{"x", "z"}});
  EXPECT_EQ(freeParams(*Renamed), (std::set<std::string>{"z"}));
}

//===--------------------------------------------------------------------===//
// C++ printing
//===--------------------------------------------------------------------===//

namespace {

CxxNames identityNames() {
  CxxNames Names;
  Names.Param = [](const std::string &N) { return N; };
  Names.Capture = [](unsigned Slot, const Type &) {
    return "cap" + std::to_string(Slot);
  };
  Names.SourceData = [](unsigned Slot) {
    return "src" + std::to_string(Slot) + "_d";
  };
  Names.SourceCount = [](unsigned Slot) {
    return "src" + std::to_string(Slot) + "_count";
  };
  return Names;
}

std::string printed(const E &Handle) {
  return printExprCxx(*Handle.node(), identityNames());
}

} // namespace

TEST(ExprPrint, Literals) {
  EXPECT_EQ(printed(E(42)), "INT64_C(42)");
  EXPECT_EQ(printed(E(INT64_MIN)), "INT64_MIN");
  EXPECT_EQ(printed(E(true)), "true");
  EXPECT_EQ(printed(E(2.0)), "2.0");
}

TEST(ExprPrint, Arithmetic) {
  E X = param("x", Type::int64Ty());
  EXPECT_EQ(printed(X + 1), "(x + INT64_C(1))");
  EXPECT_EQ(printed(X % 2 == 0),
            "((x % INT64_C(2)) == INT64_C(0))");
}

TEST(ExprPrint, DoubleModuloIsFmod) {
  E X = param("x", Type::doubleTy());
  EXPECT_EQ(printed(X % 2.0), "steno::rt::fmod(x, 2.0)");
}

TEST(ExprPrint, ConvertIsStaticCast) {
  E X = param("x", Type::int64Ty());
  EXPECT_EQ(printed(toDouble(X)), "static_cast<double>(x)");
}

TEST(ExprPrint, BuiltinSpelling) {
  E X = param("x", Type::doubleTy());
  EXPECT_EQ(printed(sqrt(X)), "steno::rt::sqrt(x)");
  EXPECT_EQ(printed(min(X, E(1.0))), "steno::rt::min(x, 1.0)");
}

TEST(ExprPrint, PairAndVec) {
  E P = param("p", Type::pairTy(Type::int64Ty(), Type::vecTy()));
  EXPECT_EQ(printed(P.first()), "(p).First");
  EXPECT_EQ(printed(P.second()[E(0)]), "((p).Second).Data[INT64_C(0)]");
  EXPECT_EQ(printed(len(P.second())), "((p).Second).Len");
}

TEST(ExprPrint, BufferSlice) {
  std::string S = printed(slice(1, E(0), E(3)));
  EXPECT_NE(S.find("steno::rt::VecView{src1_d"), std::string::npos) << S;
}

TEST(ExprPrint, Captures) {
  EXPECT_EQ(printed(capture(2, Type::doubleTy()) + 1.0),
            "(cap2 + 1.0)");
}

TEST(ExprPrint, CondTernary) {
  EXPECT_EQ(printed(cond(E(true), E(1), E(2))),
            "(true ? INT64_C(1) : INT64_C(2))");
}
