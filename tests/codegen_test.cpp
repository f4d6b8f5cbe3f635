//===- tests/codegen_test.cpp - Automaton & generated-code shape -*-C++-*-===//
//
// Checks the *structure* of the code the pushdown automaton emits against
// the paper's figures: one loop per Src, element-wise code spliced at μ
// (Figure 6), aggregation declarations at α and updates at μ (Figure 7),
// nested SelectMany producing plain nested for-loops with the outer
// query's aggregation innermost (Figures 9, 11, 12), and the new-loop-
// over-sink behaviour of the SINKING state.
//
//===----------------------------------------------------------------------===//

#include "codegen/Generator.h"
#include "cpptree/Printer.h"
#include "quil/Quil.h"

#include "gtest/gtest.h"

using namespace steno;
using namespace steno::expr;
using namespace steno::expr::dsl;
using query::Query;

namespace {

E x() { return param("x", Type::doubleTy()); }

std::string sourceFor(const Query &Q, bool Specialize = true) {
  quil::Chain C = quil::lower(Q);
  EXPECT_FALSE(quil::validate(C).has_value());
  if (Specialize)
    C = quil::specializeGroupByAggregate(C);
  cpptree::Program P = codegen::generate(C, "test_query");
  return cpptree::printProgram(P);
}

size_t countOccurrences(const std::string &Haystack,
                        const std::string &Needle) {
  size_t Count = 0;
  for (size_t Pos = Haystack.find(Needle); Pos != std::string::npos;
       Pos = Haystack.find(Needle, Pos + Needle.size()))
    ++Count;
  return Count;
}

} // namespace

TEST(Codegen, SumSqIsASingleLoop) {
  std::string Src = sourceFor(
      Query::doubleArray(0).select(lambda({x()}, x() * x())).sum());
  EXPECT_EQ(countOccurrences(Src, "for ("), 1u)
      << "iterator fusion yields exactly one loop:\n"
      << Src;
  EXPECT_EQ(Src.find("while ("), std::string::npos)
      << "no iterator state machines remain";
  // Figure 7(a): declaration before the loop, update inside it.
  size_t Decl = Src.find("agg");
  size_t Loop = Src.find("for (");
  ASSERT_NE(Decl, std::string::npos);
  EXPECT_LT(Decl, Loop) << "aggregation variable declared at alpha";
}

TEST(Codegen, WhereBecomesContinue) {
  std::string Src = sourceFor(
      Query::doubleArray(0).where(lambda({x()}, x() > 0.0)).count());
  EXPECT_NE(Src.find("continue;"), std::string::npos)
      << "Figure 6(b): if (!pred) continue;\n"
      << Src;
}

TEST(Codegen, LambdaIsInlinedNotCalled) {
  std::string Src = sourceFor(
      Query::doubleArray(0).select(lambda({x()}, x() * 3.0 + 1.0)).sum());
  EXPECT_NE(Src.find("* 3.0"), std::string::npos)
      << "transformation body inlined into the loop:\n"
      << Src;
  EXPECT_EQ(Src.find("std::function"), std::string::npos)
      << "no function objects in generated code";
}

TEST(Codegen, CartesianBecomesNestedForLoops) {
  // The §5 example: three plain nested loops, accumulation innermost,
  // accumulator declaration outermost.
  auto Y = param("y", Type::doubleTy());
  auto Z = param("z", Type::doubleTy());
  Query Level3 = Query::doubleArray(2).select(
      lambda({Z}, x() * Y * Z));
  Query Level2 = Query::doubleArray(1).selectMany(Y, Level3);
  Query Q = Query::doubleArray(0).selectMany(x(), Level2).sum();
  std::string Src = sourceFor(Q);
  EXPECT_EQ(countOccurrences(Src, "for ("), 3u) << Src;

  size_t AggDecl = Src.find(" agg");
  size_t FirstFor = Src.find("for (");
  ASSERT_NE(AggDecl, std::string::npos);
  EXPECT_LT(AggDecl, FirstFor)
      << "Figure 12: total declared before the outermost loop";

  // The update is inside the innermost loop: it appears after the third
  // "for (" and before the first closing sequence.
  size_t ThirdFor = Src.find(
      "for (", Src.find("for (", Src.find("for (") + 1) + 1);
  size_t Update = Src.find("agg", ThirdFor);
  EXPECT_NE(Update, std::string::npos)
      << "accumulation innermost (Figure 11)";
}

TEST(Codegen, NestedScalarAggregateRedeclaredPerOuterElement) {
  // select(p => inner.sum()): the inner accumulator must be initialized
  // inside the outer loop (once per outer element), i.e. after the first
  // "for (".
  auto P = param("p", Type::vecTy());
  auto V = param("v", Type::doubleTy());
  Query Q = Query::pointArray(0)
                .selectNested(P, Query::overVec(P)
                                     .select(lambda({V}, V * V))
                                     .sum())
                .sum();
  std::string Src = sourceFor(Q);
  EXPECT_EQ(countOccurrences(Src, "for ("), 2u) << Src;
  // Two accumulators: the outer one before the first loop, the inner one
  // between the loops.
  size_t FirstFor = Src.find("for (");
  size_t SecondFor = Src.find("for (", FirstFor + 1);
  size_t InnerDecl = Src.find("double agg", FirstFor);
  ASSERT_NE(InnerDecl, std::string::npos);
  EXPECT_GT(InnerDecl, FirstFor);
  EXPECT_LT(InnerDecl, SecondFor)
      << "inner accumulator lives in the outer loop body:\n"
      << Src;
}

TEST(Codegen, TakeGeneratesCounterAtAlpha) {
  std::string Src = sourceFor(Query::doubleArray(0).take(E(5)).count());
  size_t Counter = Src.find("take");
  size_t Loop = Src.find("for (");
  ASSERT_NE(Counter, std::string::npos);
  EXPECT_LT(Counter, Loop) << "take counter declared in the prelude:\n"
                           << Src;
}

TEST(Codegen, GroupBySinkThenNewLoop) {
  // Ret in SINKING: the generator inserts a loop over the sink (§4.2).
  auto G = param("g", Type::pairTy(Type::int64Ty(), Type::vecTy()));
  Query Q = Query::doubleArray(0)
                .groupBy(lambda({x()}, toInt64(x())))
                .select(lambda({G}, G.first()));
  std::string Src = sourceFor(Q);
  EXPECT_NE(Src.find("steno::rt::GroupSink"), std::string::npos) << Src;
  EXPECT_EQ(countOccurrences(Src, "for ("), 2u)
      << "fill loop plus sink-iteration loop:\n"
      << Src;
  EXPECT_NE(Src.find(".group("), std::string::npos);
}

TEST(Codegen, SpecializedGroupByUsesAggSink) {
  auto G = param("g", Type::pairTy(Type::int64Ty(), Type::vecTy()));
  auto A = param("a", Type::doubleTy());
  auto V = param("v", Type::doubleTy());
  Query BagSum = Query::overVec(G.second())
                     .aggregate(E(0.0), lambda({A, V}, A + V),
                                lambda({A}, pair(G.first(), A)));
  Query Q = Query::doubleArray(0)
                .groupBy(lambda({x()}, toInt64(x())))
                .selectNested(G, BagSum);
  std::string Fused = sourceFor(Q, /*Specialize=*/true);
  EXPECT_NE(Fused.find("GroupAggSink"), std::string::npos) << Fused;
  EXPECT_EQ(Fused.find("GroupSink "), std::string::npos)
      << "§4.3: no materialized bags after specialization";
  std::string Unfused = sourceFor(Q, /*Specialize=*/false);
  EXPECT_NE(Unfused.find("GroupSink"), std::string::npos)
      << "without the pass the bags are materialized";
}

TEST(Codegen, OrderBySortsAtOmega) {
  Query Q = Query::doubleArray(0).orderBy(lambda({x()}, x())).toArray();
  std::string Src = sourceFor(Q);
  size_t FillLoop = Src.find("for (");
  size_t Sort = Src.find("steno::rt::stableSort");
  ASSERT_NE(Sort, std::string::npos) << Src;
  EXPECT_GT(Sort, FillLoop) << "sort in the postlude, after the fill loop";
}

TEST(Codegen, ScalarEmitsOneRowAtOmega) {
  std::string Src = sourceFor(Query::doubleArray(0).sum());
  EXPECT_EQ(countOccurrences(Src, "emitRow"), 1u);
  EXPECT_GT(Src.find("emitRow"), Src.rfind("}") == std::string::npos
                ? 0
                : Src.find("for ("))
      << "scalar emitted after the loop";
}

TEST(Codegen, CollectionEmitsFromLoopBody) {
  std::string Src = sourceFor(
      Query::doubleArray(0).select(lambda({x()}, x() + 1.0)));
  size_t Loop = Src.find("for (");
  size_t Emit = Src.find("emitRow");
  ASSERT_NE(Emit, std::string::npos);
  EXPECT_GT(Emit, Loop) << "Figure 8(c): yield from the loop body";
}

TEST(Codegen, TypeSpecializedSourceIteration) {
  std::string DblSrc = sourceFor(Query::doubleArray(0).sum());
  EXPECT_NE(DblSrc.find("double elem"), std::string::npos);
  std::string IntSrc = sourceFor(Query::int64Array(0).sum());
  EXPECT_NE(IntSrc.find("std::int64_t elem"), std::string::npos);
  auto P = param("p", Type::vecTy());
  auto V = param("v", Type::doubleTy());
  std::string PtSrc = sourceFor(
      Query::pointArray(0)
          .selectNested(P, Query::overVec(P).sum())
          .sum());
  EXPECT_NE(PtSrc.find("steno::rt::VecView elem"), std::string::npos)
      << PtSrc;
  (void)V;
}

TEST(Codegen, RangeSourceHoistsBound) {
  auto D = param("d", Type::int64Ty());
  std::string Src =
      sourceFor(Query::range(E(3), E(10)).select(lambda({D}, D * D)).sum());
  EXPECT_NE(Src.find("const std::int64_t n"), std::string::npos) << Src;
}

TEST(Codegen, SlotUsageScan) {
  auto V = param("v", Type::doubleTy());
  Query Q = Query::doubleArray(2)
                .select(lambda({V}, V * capture(4, Type::doubleTy())))
                .sum();
  quil::Chain C = quil::lower(Q);
  cpptree::Program P = codegen::generate(C, "scan_test");
  cpptree::SlotUsage Slots = cpptree::scanSlots(P);
  EXPECT_EQ(Slots.SourceSlots, (std::set<unsigned>{2}));
  EXPECT_EQ(Slots.ValueSlots, (std::set<unsigned>{4}));
}

TEST(Codegen, DenseSinkUsesArrayAndNoSeedArgument) {
  auto A = param("a", Type::doubleTy());
  Query Q = Query::doubleArray(0).groupByAggregateDense(
      lambda({x()}, toInt64(x())), E(64), E(0.0),
      lambda({A, x()}, A + x()));
  std::string Src = sourceFor(Q);
  EXPECT_NE(Src.find("steno::rt::DenseAggSink<double>"),
            std::string::npos)
      << Src;
  EXPECT_EQ(Src.find("GroupAggSink<"), std::string::npos)
      << "dense query must not declare the hash sink";
  // The per-element update takes only the key (slots pre-seeded at α).
  EXPECT_NE(Src.find(".slot(static_cast"), std::string::npos) << Src;
}

TEST(Codegen, EarlyExitAggregateBreaksInSingleLoop) {
  std::string Src = sourceFor(
      Query::doubleArray(0).where(lambda({x()}, x() > 0.5)).any());
  EXPECT_NE(Src.find("break;"), std::string::npos)
      << "Any over one loop must break out:\n"
      << Src;
}

TEST(Codegen, EarlyExitAggregateUsesFlagAcrossNestedLoops) {
  auto Y = param("y", Type::doubleTy());
  Query Q = Query::doubleArray(0)
                .selectMany(x(), Query::doubleArray(1)
                                     .select(lambda({Y}, x() + Y)))
                .any();
  std::string Src = sourceFor(Q);
  EXPECT_NE(Src.find("stop"), std::string::npos)
      << "flattened early exit is flag-guarded:\n"
      << Src;
  EXPECT_EQ(Src.find("break;"), std::string::npos)
      << "a break would only exit the innermost loop";
}

TEST(Codegen, GeneratedNamesAreUnique) {
  // Two Selects and a Where must not reuse element variable names.
  std::string Src = sourceFor(Query::doubleArray(0)
                                  .select(lambda({x()}, x() + 1.0))
                                  .where(lambda({x()}, x() > 0.0))
                                  .select(lambda({x()}, x() * 2.0))
                                  .sum());
  // elem0 (source), elem appearing at least three times with distinct ids:
  EXPECT_GE(countOccurrences(Src, "double elem"), 3u) << Src;
}
