//===- cpptree/Printer.cpp ------------------------------------*- C++ -*-===//

#include "cpptree/Printer.h"
#include "expr/Analysis.h"
#include "expr/CxxPrinter.h"
#include "support/Error.h"
#include "support/StringUtil.h"

#include <cassert>
#include <cstdarg>

using namespace steno;
using namespace steno::cpptree;
using expr::Type;
using expr::TypeRef;
using support::strFormat;

//===----------------------------------------------------------------===//
// Slot scanning
//===----------------------------------------------------------------===//

namespace {

void scanExpr(const expr::ExprRef &E, SlotUsage &Out) {
  if (!E)
    return;
  for (unsigned Slot : expr::usedSourceSlots(*E))
    Out.SourceSlots.insert(Slot);
  for (unsigned Slot : expr::usedCaptureSlots(*E))
    Out.ValueSlots.insert(Slot);
}

void scanSource(const query::SourceDesc &Src, SlotUsage &Out) {
  switch (Src.Kind) {
  case query::SourceKind::DoubleArray:
  case query::SourceKind::Int64Array:
  case query::SourceKind::PointArray:
    Out.SourceSlots.insert(Src.Slot);
    break;
  case query::SourceKind::Range:
    scanExpr(Src.Start, Out);
    scanExpr(Src.CountE, Out);
    break;
  case query::SourceKind::VecExpr:
    scanExpr(Src.Vec, Out);
    break;
  }
}

void scanStmts(const StmtList &Stmts, SlotUsage &Out) {
  for (const StmtRef &S : Stmts) {
    scanExpr(S->E, Out);
    scanExpr(S->E2, Out);
    scanExpr(S->E3, Out);
    if (S->KeyFn.valid())
      scanExpr(S->KeyFn.body(), Out);
    if (S->K == StmtKind::Loop && S->Loop.Kind == LoopKind::Source)
      scanSource(S->Loop.Src, Out);
    scanExpr(S->Sink.DenseKeys, Out);
    scanExpr(S->Sink.DenseSeed, Out);
    scanStmts(S->Body, Out);
  }
}

} // namespace

SlotUsage cpptree::scanSlots(const Program &P) {
  SlotUsage Out;
  scanStmts(P.Body, Out);
  return Out;
}

//===----------------------------------------------------------------===//
// Source rendering
//===----------------------------------------------------------------===//

namespace {

/// Stateful pretty printer.
class SourcePrinter {
public:
  explicit SourcePrinter(const Program &P) : P(P) {
    Names.Param = [](const std::string &Name) { return Name; };
    Names.Capture = [](unsigned Slot, const Type &Ty) {
      switch (Ty.kind()) {
      case expr::TypeKind::Bool:
        return strFormat("Caps_->Values[%u].B", Slot);
      case expr::TypeKind::Int64:
        return strFormat("Caps_->Values[%u].I", Slot);
      case expr::TypeKind::Double:
        return strFormat("Caps_->Values[%u].D", Slot);
      case expr::TypeKind::Vec:
        return strFormat(
            "steno::rt::VecView{Caps_->Values[%u].VData, "
            "Caps_->Values[%u].VLen}",
            Slot, Slot);
      case expr::TypeKind::Pair:
        break;
      }
      stenoUnreachable("pair-typed captures are not supported");
    };
    Names.SourceData = [](unsigned Slot) {
      return strFormat("src%u_d", Slot);
    };
    Names.SourceCount = [](unsigned Slot) {
      return strFormat("src%u_count", Slot);
    };
  }

  std::string run() {
    Out = printPrelude("iterator fusion + nested loop generation", P.Name,
                       scanSlots(P), P.ProfOps.size());
    Indent = 1;
    printStmts(P.Body);
    if (!P.ProfOps.empty()) {
      line("if (Caps_->ProfCounts)");
      line("  for (std::size_t pi_ = 0; pi_ != %zu; ++pi_)",
           P.ProfOps.size() * 2);
      line("    Caps_->ProfCounts[pi_] += prof_c_[pi_];");
      line("if (Caps_->ProfNanos)");
      line("  for (std::size_t pi_ = 0; pi_ != %zu; ++pi_)",
           P.ProfOps.size());
      line("    Caps_->ProfNanos[pi_] += prof_ns_[pi_];");
    }
    Indent = 0;
    line("}");
    return std::move(Out);
  }

private:
  void line(const char *Fmt, ...) __attribute__((format(printf, 2, 3))) {
    va_list Args;
    va_start(Args, Fmt);
    int Needed = std::vsnprintf(nullptr, 0, Fmt, Args);
    va_end(Args);
    std::string Text(Needed < 0 ? 0 : static_cast<size_t>(Needed), '\0');
    va_start(Args, Fmt);
    std::vsnprintf(Text.data(), Text.size() + 1, Fmt, Args);
    va_end(Args);
    for (int I = 0; I < Indent; ++I)
      Out += "  ";
    Out += Text;
    Out += "\n";
  }

  std::string expr(const expr::ExprRef &E) {
    assert(E && "printing a null expression");
    return expr::printExprCxx(*E, Names);
  }

  void printStmts(const StmtList &Stmts) {
    for (const StmtRef &S : Stmts)
      printStmt(*S);
  }

  void printStmt(const Stmt &S) {
    switch (S.K) {
    case StmtKind::Region:
      printStmts(S.Body);
      return;
    case StmtKind::DeclareLocal:
      line("%s %s = %s;", S.Ty->cxxName().c_str(), S.Name.c_str(),
           expr(S.E).c_str());
      // Element locals ("elem_i" in the Figure 4 naming) may go unread
      // when the consumer ignores the element (Count, Any); counters,
      // flags, and accumulators are always read by construction.
      if (S.Name.compare(0, 4, "elem") == 0)
        line("(void)%s;", S.Name.c_str());
      return;
    case StmtKind::DeclareSinkView:
      line("steno::rt::VecView %s{%s.data(), "
           "static_cast<std::int64_t>(%s.size())};",
           S.Name.c_str(), S.SlotVar.c_str(), S.SlotVar.c_str());
      return;
    case StmtKind::Assign:
      line("%s = %s;", S.Name.c_str(), expr(S.E).c_str());
      return;
    case StmtKind::If:
      line("if (%s) {", expr(S.E).c_str());
      ++Indent;
      printStmts(S.Body);
      --Indent;
      line("}");
      return;
    case StmtKind::Continue:
      line("continue;");
      return;
    case StmtKind::Break:
      line("break;");
      return;
    case StmtKind::Loop:
      printLoop(S);
      return;
    case StmtKind::DeclareSink:
      printDeclareSink(S);
      return;
    case StmtKind::SinkGroupPut:
      line("%s.put(%s, %s);", S.Name.c_str(), expr(S.E).c_str(),
           expr(S.E2).c_str());
      return;
    case StmtKind::SinkGroupAggUpdate:
      line("{");
      ++Indent;
      if (S.E2) // hash sink: the seed is inserted on first sight
        line("auto &%s = %s.slot(%s, %s);", S.SlotVar.c_str(),
             S.Name.c_str(), expr(S.E).c_str(), expr(S.E2).c_str());
      else // dense sink: slots were seeded at declaration
        line("auto &%s = %s.slot(%s);", S.SlotVar.c_str(), S.Name.c_str(),
             expr(S.E).c_str());
      line("%s = %s;", S.SlotVar.c_str(), expr(S.E3).c_str());
      --Indent;
      line("}");
      return;
    case StmtKind::SinkVecPush:
      line("%s.push_back(%s);", S.Name.c_str(), expr(S.E).c_str());
      return;
    case StmtKind::SortSinkVec:
      printSort(S);
      return;
    case StmtKind::Emit:
      line("steno::rt::emitRow(Out_, %s);", expr(S.E).c_str());
      return;
    case StmtKind::ProfileCount:
      line("++prof_c_[%u];", S.ProfSlot);
      return;
    case StmtKind::ProfileTimed:
      // Not a brace scope: locals declared by the body must stay visible
      // downstream. The timer's destructor charges the op if a
      // continue/break exits the iteration before the explicit stop().
      line("steno::rt::ProfTimer prof_t%u_(&prof_ns_[%u]);", S.ProfSlot,
           S.ProfSlot);
      printStmts(S.Body);
      line("prof_t%u_.stop();", S.ProfSlot);
      return;
    }
    stenoUnreachable("bad StmtKind");
  }

  void printLoop(const Stmt &S) {
    const LoopInfo &L = S.Loop;
    const char *I = L.IndexVar.c_str();
    switch (L.Kind) {
    case LoopKind::Source:
      printSourceLoopHeader(L);
      // A consumer like Count never reads the element; keep -Wall clean
      // (STENO_JIT_LINT) the same way the prelude does.
      line("(void)%s;", L.ElemVar.c_str());
      break;
    case LoopKind::GroupSink:
      line("const std::int64_t %s = %s.size();", L.BoundVar.c_str(),
           L.SinkName.c_str());
      line("for (std::int64_t %s = 0; %s < %s; ++%s) {", I, I,
           L.BoundVar.c_str(), I);
      ++Indent;
      line("steno::rt::Pair<std::int64_t, steno::rt::VecView> %s = "
           "%s.group(%s);",
           L.ElemVar.c_str(), L.SinkName.c_str(), I);
      line("(void)%s;", L.ElemVar.c_str());
      break;
    case LoopKind::GroupAggSink:
      line("const std::int64_t %s = %s.size();", L.BoundVar.c_str(),
           L.SinkName.c_str());
      line("for (std::int64_t %s = 0; %s < %s; ++%s) {", I, I,
           L.BoundVar.c_str(), I);
      ++Indent;
      line("std::int64_t %s = %s.keyAt(%s);", L.KeyVar.c_str(),
           L.SinkName.c_str(), I);
      line("%s %s = %s.accAt(%s);", L.Sink.AccType->cxxName().c_str(),
           L.AccVar.c_str(), L.SinkName.c_str(), I);
      line("(void)%s; (void)%s;", L.KeyVar.c_str(), L.AccVar.c_str());
      break;
    case LoopKind::VecSink:
      line("const std::int64_t %s = "
           "static_cast<std::int64_t>(%s.size());",
           L.BoundVar.c_str(), L.SinkName.c_str());
      line("for (std::int64_t %s = 0; %s < %s; ++%s) {", I, I,
           L.BoundVar.c_str(), I);
      ++Indent;
      line("%s %s = %s[static_cast<size_t>(%s)];",
           L.ElemType->cxxName().c_str(), L.ElemVar.c_str(),
           L.SinkName.c_str(), I);
      line("(void)%s;", L.ElemVar.c_str());
      break;
    }
    printStmts(S.Body);
    --Indent;
    line("}");
  }

  void printSourceLoopHeader(const LoopInfo &L) {
    const char *I = L.IndexVar.c_str();
    const query::SourceDesc &Src = L.Src;
    switch (Src.Kind) {
    case query::SourceKind::DoubleArray:
      line("for (std::int64_t %s = 0; %s < src%u_count; ++%s) {", I, I,
           Src.Slot, I);
      ++Indent;
      line("double %s = src%u_d[%s];", L.ElemVar.c_str(), Src.Slot, I);
      return;
    case query::SourceKind::Int64Array:
      line("for (std::int64_t %s = 0; %s < src%u_count; ++%s) {", I, I,
           Src.Slot, I);
      ++Indent;
      line("std::int64_t %s = src%u_i[%s];", L.ElemVar.c_str(), Src.Slot,
           I);
      return;
    case query::SourceKind::PointArray:
      line("for (std::int64_t %s = 0; %s < src%u_count; ++%s) {", I, I,
           Src.Slot, I);
      ++Indent;
      line("steno::rt::VecView %s{src%u_d + %s * src%u_dim, src%u_dim};",
           L.ElemVar.c_str(), Src.Slot, I, Src.Slot, Src.Slot);
      return;
    case query::SourceKind::Range:
      line("const std::int64_t %s = %s;", L.BoundVar.c_str(),
           expr(Src.CountE).c_str());
      line("for (std::int64_t %s = 0; %s < %s; ++%s) {", I, I,
           L.BoundVar.c_str(), I);
      ++Indent;
      line("std::int64_t %s = (%s) + %s;", L.ElemVar.c_str(),
           expr(Src.Start).c_str(), I);
      return;
    case query::SourceKind::VecExpr:
      line("const steno::rt::VecView %s = %s;", L.VecVar.c_str(),
           expr(Src.Vec).c_str());
      line("for (std::int64_t %s = 0; %s < %s.Len; ++%s) {", I, I,
           L.VecVar.c_str(), I);
      ++Indent;
      line("double %s = %s.Data[%s];", L.ElemVar.c_str(), L.VecVar.c_str(),
           I);
      return;
    }
    stenoUnreachable("bad SourceKind");
  }

  void printDeclareSink(const Stmt &S) {
    switch (S.Sink.Kind) {
    case SinkKind::Group:
      line("steno::rt::GroupSink %s;", S.Name.c_str());
      return;
    case SinkKind::GroupAgg:
      if (S.Sink.isDense())
        line("steno::rt::DenseAggSink<%s> %s(%s, %s);",
             S.Sink.AccType->cxxName().c_str(), S.Name.c_str(),
             expr(S.Sink.DenseKeys).c_str(),
             expr(S.Sink.DenseSeed).c_str());
      else
        line("steno::rt::GroupAggSink<%s> %s;",
             S.Sink.AccType->cxxName().c_str(), S.Name.c_str());
      return;
    case SinkKind::Vec:
      line("steno::rt::Buf<%s> %s;", S.Sink.ElemType->cxxName().c_str(),
           S.Name.c_str());
      return;
    }
    stenoUnreachable("bad SinkKind");
  }

  void printSort(const Stmt &S) {
    // Inline the key selector twice, over the two comparands.
    const std::string &Param = S.KeyFn.param(0).Name;
    expr::CxxNames ANames = Names;
    ANames.Param = [&Param](const std::string &Name) {
      return Name == Param ? std::string("A_") : Name;
    };
    expr::CxxNames BNames = Names;
    BNames.Param = [&Param](const std::string &Name) {
      return Name == Param ? std::string("B_") : Name;
    };
    std::string KeyA = expr::printExprCxx(*S.KeyFn.body(), ANames);
    std::string KeyB = expr::printExprCxx(*S.KeyFn.body(), BNames);
    line("steno::rt::stableSort(%s.data(), %s.size(),", S.Name.c_str(),
         S.Name.c_str());
    line("    [&](const %s &A_, const %s &B_) {",
         S.Ty->cxxName().c_str(), S.Ty->cxxName().c_str());
    if (S.Descending)
      line("      return (%s) < (%s);", KeyB.c_str(), KeyA.c_str());
    else
      line("      return (%s) < (%s);", KeyA.c_str(), KeyB.c_str());
    line("    });");
  }

  const Program &P;
  expr::CxxNames Names;
  std::string Out;
  int Indent = 0;
};

} // namespace

std::string cpptree::printPrelude(const std::string &Generator,
                                  const std::string &Entry,
                                  const SlotUsage &Slots,
                                  std::size_t NumProfOps) {
  std::string Out = strFormat("// Generated by Steno (%s).\n"
                              "// Query entry point: %s\n"
                              "#include \"steno/Rt.h\"\n"
                              "\n"
                              "extern \"C\" void %s(const steno::rt::Captures "
                              "*Caps_,\n"
                              "                     steno::rt::Emitter "
                              "*Out_) {\n"
                              "  (void)Caps_;\n"
                              "  (void)Out_;\n",
                              Generator.c_str(), Entry.c_str(),
                              Entry.c_str());
  for (unsigned Slot : Slots.SourceSlots)
    Out += strFormat(
        "  const double *src%u_d = Caps_->Sources[%u].D;\n"
        "  const std::int64_t *src%u_i = Caps_->Sources[%u].I;\n"
        "  const std::int64_t src%u_count = Caps_->Sources[%u].Count;\n"
        "  const std::int64_t src%u_dim = Caps_->Sources[%u].Dim;\n"
        "  (void)src%u_d; (void)src%u_i; (void)src%u_count; "
        "(void)src%u_dim;\n",
        Slot, Slot, Slot, Slot, Slot, Slot, Slot, Slot, Slot, Slot, Slot,
        Slot);
  // Per-run profile accumulators: stack-local, non-atomic, flushed once
  // through Captures at exit so the hot loop never shares.
  if (NumProfOps)
    Out += strFormat("  std::uint64_t prof_c_[%zu] = {};\n"
                     "  std::uint64_t prof_ns_[%zu] = {};\n",
                     NumProfOps * 2, NumProfOps);
  return Out;
}

std::string cpptree::printProgram(const Program &P) {
  return SourcePrinter(P).run();
}
