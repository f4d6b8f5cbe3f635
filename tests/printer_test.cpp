//===- tests/printer_test.cpp - cpptree source printer tests ---*- C++ -*-===//
//
// Statement-level tests of the C++ source renderer: each statement kind
// must print the exact construct the JIT compiles. (End-to-end
// compilability is covered by the jit differential suite; these pin the
// source shapes.)
//
//===----------------------------------------------------------------------===//

#include "cpptree/Printer.h"
#include "expr/Dsl.h"

#include "gtest/gtest.h"

using namespace steno;
using namespace steno::cpptree;
using namespace steno::expr;
using namespace steno::expr::dsl;

namespace {

std::string printOf(StmtList Body) {
  Program P;
  P.Name = "t";
  P.Body = std::move(Body);
  return printProgram(P);
}

} // namespace

TEST(Printer, ProgramSkeleton) {
  std::string Src = printOf({});
  EXPECT_NE(Src.find("#include \"steno/Rt.h\""), std::string::npos);
  EXPECT_NE(Src.find("extern \"C\" void t(const steno::rt::Captures "
                     "*Caps_,"),
            std::string::npos);
  EXPECT_NE(Src.find("steno::rt::Emitter *Out_"), std::string::npos);
}

TEST(Printer, DeclareAndAssign) {
  std::string Src = printOf(
      {Stmt::declareLocal("a", Type::doubleTy(), E(1.5).node()),
       Stmt::assign("a", (param("a", Type::doubleTy()) + 1.0).node())});
  EXPECT_NE(Src.find("double a = 1.5;"), std::string::npos) << Src;
  EXPECT_NE(Src.find("a = (a + 1.0);"), std::string::npos) << Src;
}

TEST(Printer, PairTypesSpelled) {
  TypeRef PairTy = Type::pairTy(Type::int64Ty(), Type::doubleTy());
  std::string Src = printOf({Stmt::declareLocal(
      "p", PairTy,
      pair(E(1), E(2.0)).node())});
  EXPECT_NE(
      Src.find("steno::rt::Pair<std::int64_t, double> p = "
               "steno::rt::Pair<std::int64_t, double>{INT64_C(1), 2.0};"),
      std::string::npos)
      << Src;
}

TEST(Printer, IfContinueBreak) {
  std::string Src = printOf({Stmt::ifThen(
      E(true).node(), {Stmt::continueStmt(), Stmt::breakStmt()})});
  EXPECT_NE(Src.find("if (true) {"), std::string::npos);
  EXPECT_NE(Src.find("continue;"), std::string::npos);
  EXPECT_NE(Src.find("break;"), std::string::npos);
}

TEST(Printer, SourceLoopHoistsPreamble) {
  LoopInfo L;
  L.Kind = LoopKind::Source;
  L.Src.Kind = query::SourceKind::DoubleArray;
  L.Src.Slot = 2;
  L.IndexVar = "i0";
  L.ElemVar = "e0";
  L.ElemType = Type::doubleTy();
  std::string Src = printOf({Stmt::loop(L)});
  EXPECT_NE(Src.find("const double *src2_d = Caps_->Sources[2].D;"),
            std::string::npos)
      << Src;
  EXPECT_NE(Src.find("for (std::int64_t i0 = 0; i0 < src2_count; ++i0)"),
            std::string::npos)
      << Src;
  EXPECT_NE(Src.find("double e0 = src2_d[i0];"), std::string::npos);
}

TEST(Printer, PointArrayLoopIsStrided) {
  LoopInfo L;
  L.Kind = LoopKind::Source;
  L.Src.Kind = query::SourceKind::PointArray;
  L.Src.Slot = 0;
  L.IndexVar = "i0";
  L.ElemVar = "p0";
  L.ElemType = Type::vecTy();
  std::string Src = printOf({Stmt::loop(L)});
  EXPECT_NE(
      Src.find("steno::rt::VecView p0{src0_d + i0 * src0_dim, src0_dim};"),
      std::string::npos)
      << Src;
}

TEST(Printer, SinkDeclarations) {
  SinkDecl Group;
  Group.Kind = SinkKind::Group;
  SinkDecl Agg;
  Agg.Kind = SinkKind::GroupAgg;
  Agg.AccType = Type::doubleTy();
  SinkDecl Dense = Agg;
  Dense.DenseKeys = E(16).node();
  Dense.DenseSeed = E(0.0).node();
  SinkDecl Vec;
  Vec.Kind = SinkKind::Vec;
  Vec.ElemType = Type::int64Ty();
  std::string Src = printOf(
      {Stmt::declareSink("g", Group), Stmt::declareSink("a", Agg),
       Stmt::declareSink("d", Dense), Stmt::declareSink("v", Vec)});
  EXPECT_NE(Src.find("steno::rt::GroupSink g;"), std::string::npos);
  EXPECT_NE(Src.find("steno::rt::GroupAggSink<double> a;"),
            std::string::npos);
  EXPECT_NE(
      Src.find("steno::rt::DenseAggSink<double> d(INT64_C(16), 0.0);"),
      std::string::npos);
  EXPECT_NE(Src.find("steno::rt::Buf<std::int64_t> v;"), std::string::npos);
}

TEST(Printer, SortUsesStableSortWithInlinedKey) {
  auto K = param("k", Type::doubleTy());
  std::string Src = printOf({Stmt::sortSinkVec(
      "s", Type::doubleTy(), lambda({K}, -K), false)});
  EXPECT_NE(Src.find("steno::rt::stableSort(s.data(), s.size(),"),
            std::string::npos)
      << Src;
  EXPECT_NE(Src.find("return (-(A_)) < (-(B_));"), std::string::npos)
      << Src;
}

TEST(Printer, EmitUsesRuntimeHelper) {
  std::string Src = printOf({Stmt::emit(E(1.0).node())});
  EXPECT_NE(Src.find("steno::rt::emitRow(Out_, 1.0);"),
            std::string::npos);
}

TEST(Printer, CaptureAccessByType) {
  StmtList Body;
  Body.push_back(Stmt::declareLocal("a", Type::doubleTy(),
                                    capture(3, Type::doubleTy()).node()));
  Body.push_back(Stmt::declareLocal("b", Type::int64Ty(),
                                    capture(1, Type::int64Ty()).node()));
  Body.push_back(Stmt::declareLocal("c", Type::vecTy(),
                                    capture(0, Type::vecTy()).node()));
  std::string Src = printOf(std::move(Body));
  EXPECT_NE(Src.find("Caps_->Values[3].D"), std::string::npos);
  EXPECT_NE(Src.find("Caps_->Values[1].I"), std::string::npos);
  EXPECT_NE(Src.find("steno::rt::VecView{Caps_->Values[0].VData, "
                     "Caps_->Values[0].VLen}"),
            std::string::npos);
}

TEST(Printer, SlotScanIncludesSinkExprs) {
  SinkDecl Dense;
  Dense.Kind = SinkKind::GroupAgg;
  Dense.AccType = Type::doubleTy();
  Dense.DenseKeys = capture(5, Type::int64Ty()).node();
  Dense.DenseSeed = E(0.0).node();
  Program P;
  P.Body.push_back(Stmt::declareSink("d", Dense));
  SlotUsage Slots = scanSlots(P);
  EXPECT_EQ(Slots.ValueSlots, (std::set<unsigned>{5}));
}
