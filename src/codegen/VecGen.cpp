//===- codegen/VecGen.cpp -------------------------------------*- C++ -*-===//

#include "codegen/VecGen.h"
#include "expr/CxxPrinter.h"
#include "support/Error.h"
#include "support/StringUtil.h"

#include <cassert>
#include <cstdarg>

using namespace steno;
using namespace steno::codegen;
using namespace steno::vec;
using expr::Type;
using expr::TypeKind;
using support::strFormat;

namespace {

/// Stack arrays hold the batch columns; cap the generated batch size so a
/// deep chain of Trans stages stays within a sane frame (4096 lanes x 8
/// bytes = 32 KiB per column). The interpreter path has no such cap (its
/// columns live in a heap scratch pool).
constexpr std::size_t MaxNativeBatch = 4096;

const char *kindCxx(TypeKind K) {
  switch (K) {
  case TypeKind::Bool:
    return "bool";
  case TypeKind::Int64:
    return "std::int64_t";
  case TypeKind::Double:
    return "double";
  case TypeKind::Vec:
  case TypeKind::Pair:
    break;
  }
  stenoUnreachable("non-scalar column type in a vec plan");
}

/// Prints the batch-loop translation unit for one VecPlan.
class VecPrinter {
public:
  VecPrinter(const VecPlan &P, const cpptree::SlotUsage &Slots,
             const std::string &Entry, bool Profile)
      : P(P), Slots(Slots), Entry(Entry),
        Prof(Profile && P.NumProfOps != 0),
        VB(P.BatchSize < MaxNativeBatch ? P.BatchSize : MaxNativeBatch) {
    // Same name-resolution hooks as the scalar printer (cpptree/Printer):
    // captures through the Captures block, sources through the slot
    // locals declared in the preamble.
    Base.Param = [](const std::string &Name) { return Name; };
    Base.Capture = [](unsigned Slot, const Type &Ty) {
      switch (Ty.kind()) {
      case TypeKind::Bool:
        return strFormat("Caps_->Values[%u].B", Slot);
      case TypeKind::Int64:
        return strFormat("Caps_->Values[%u].I", Slot);
      case TypeKind::Double:
        return strFormat("Caps_->Values[%u].D", Slot);
      case TypeKind::Vec:
        return strFormat(
            "steno::rt::VecView{Caps_->Values[%u].VData, "
            "Caps_->Values[%u].VLen}",
            Slot, Slot);
      case TypeKind::Pair:
        break;
      }
      stenoUnreachable("pair-typed captures are not supported");
    };
    Base.SourceData = [](unsigned Slot) {
      return strFormat("src%u_d", Slot);
    };
    Base.SourceCount = [](unsigned Slot) {
      return strFormat("src%u_count", Slot);
    };
  }

  std::string run() {
    preamble();
    prologue();
    sourceSetup();
    batchState();
    line("for (std::int64_t vbase_ = 0; vbase_ < vN_; vbase_ += VB_) {");
    ++Indent;
    line("const std::int64_t vm_ = vN_ - vbase_ < VB_ ? vN_ - vbase_ : "
         "VB_;");
    if (Prof)
      line("prof_c_[%zu] += static_cast<std::uint64_t>(vm_);",
           2 * P.SrcProfSlot + 1);
    line("std::int64_t vlo_ = 0;");
    line("std::int64_t vhi_ = vm_;");
    line("(void)vlo_; (void)vhi_;");
    if (anyWhere())
      line("std::int64_t vn_ = 0;");
    Sparse = false;
    Cur = sourceAccessor();
    for (std::size_t I = 0; I != P.Steps.size(); ++I)
      printStep(I);
    if (P.Agg != VAggMode::None)
      printAggFold();
    else
      printEmitLoop();
    --Indent;
    line("}");
    if (P.Agg != VAggMode::None)
      printScalarEpilogue();
    profFlush();
    Indent = 0;
    line("}");
    return std::move(Out);
  }

private:
  //===--------------------------------------------------------------===//
  // Low-level emission
  //===--------------------------------------------------------------===//

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

  /// Prints \p E with free occurrences of \p ElemName replaced by the
  /// current lane accessor (native short-circuit keeps lazy contexts and
  /// trap order identical to scalar execution).
  std::string elemExpr(const expr::ExprRef &E, const std::string &ElemName) {
    assert(E && "printing a null expression");
    expr::CxxNames Names = Base;
    std::string Acc = Cur;
    Names.Param = [ElemName, Acc](const std::string &Name) {
      return Name == ElemName ? Acc : Name;
    };
    return expr::printExprCxx(*E, Names);
  }

  /// Prints a param-free expression (counts, seeds, source bounds).
  std::string plainExpr(const expr::ExprRef &E) {
    assert(E && "printing a null expression");
    return expr::printExprCxx(*E, Base);
  }

  //===--------------------------------------------------------------===//
  // Preamble / prologue
  //===--------------------------------------------------------------===//

  void preamble() {
    Out += cpptree::printPrelude("vectorized batch loops, DESIGN.md [5i]",
                                 Entry, Slots, Prof ? P.NumProfOps : 0);
    Indent = 1;
  }

  /// Per-op counter/flag seeds and the aggregate seed, in chain-op order
  /// (the batched interpreter's prologue discipline: op seeds first, then
  /// Range bounds).
  void prologue() {
    for (std::size_t I = 0; I != P.Steps.size(); ++I) {
      const VStep &S = P.Steps[I];
      switch (S.K) {
      case VStepKind::Take:
      case VStepKind::Skip:
        line("std::int64_t vcnt%zu_ = %s;", I, plainExpr(S.Count).c_str());
        break;
      case VStepKind::TakeWhile:
        line("bool vdone%zu_ = false;", I);
        break;
      case VStepKind::SkipWhile:
        line("bool vskip%zu_ = true;", I);
        break;
      case VStepKind::Trans:
      case VStepKind::Where:
        break;
      }
    }
    if (P.Agg != VAggMode::None)
      line("%s vacc_ = %s;", accCxx().c_str(),
           plainExpr(P.AggSeed).c_str());
  }

  void sourceSetup() {
    const query::SourceDesc &Src = P.Src;
    switch (Src.Kind) {
    case query::SourceKind::DoubleArray:
      line("const double *__restrict vsrc_ = src%u_d;", Src.Slot);
      line("const std::int64_t vN_ = src%u_count;", Src.Slot);
      line("(void)vsrc_;");
      return;
    case query::SourceKind::Int64Array:
      line("const std::int64_t *__restrict vsrc_ = src%u_i;", Src.Slot);
      line("const std::int64_t vN_ = src%u_count;", Src.Slot);
      line("(void)vsrc_;");
      return;
    case query::SourceKind::Range:
      line("const std::int64_t vNr_ = %s;", plainExpr(Src.CountE).c_str());
      line("const std::int64_t vN_ = vNr_ < 0 ? 0 : vNr_;");
      // Start is evaluated lazily, only when the range is non-empty —
      // the scalar loop reads it inside the first iteration.
      line("std::int64_t vstart_ = 0;");
      line("if (vN_ > 0)");
      line("  vstart_ = %s;", plainExpr(Src.Start).c_str());
      line("(void)vstart_;");
      return;
    case query::SourceKind::VecExpr:
      line("const steno::rt::VecView vview_ = %s;",
           plainExpr(Src.Vec).c_str());
      line("const double *__restrict vsrc_ = vview_.Data;");
      line("const std::int64_t vN_ = vview_.Len;");
      line("(void)vsrc_;");
      return;
    case query::SourceKind::PointArray:
      break;
    }
    stenoUnreachable("unvectorizable source kind in a vec plan");
  }

  void batchState() {
    line("constexpr std::int64_t VB_ = %zu;", VB);
    for (std::size_t I = 0; I != P.Steps.size(); ++I)
      if (P.Steps[I].K == VStepKind::Trans) {
        // A column the consumer ignores (Count) is written, never read.
        line("alignas(64) %s vcol%zu_[VB_];", kindCxx(P.Steps[I].OutK), I);
        line("(void)vcol%zu_;", I);
      }
    if (anyWhere())
      line("std::int32_t vsel_[VB_];");
  }

  bool anyWhere() const {
    for (const VStep &S : P.Steps)
      if (S.K == VStepKind::Where)
        return true;
    return false;
  }

  std::string sourceAccessor() const {
    switch (P.Src.Kind) {
    case query::SourceKind::DoubleArray:
    case query::SourceKind::Int64Array:
    case query::SourceKind::VecExpr:
      return "vsrc_[vbase_ + vj_]";
    case query::SourceKind::Range:
      return "(vstart_ + vbase_ + vj_)";
    case query::SourceKind::PointArray:
      break;
    }
    stenoUnreachable("unvectorizable source kind in a vec plan");
  }

  //===--------------------------------------------------------------===//
  // Per-batch stages
  //===--------------------------------------------------------------===//

  std::string liveCount() const {
    return Sparse ? std::string("vn_") : std::string("(vhi_ - vlo_)");
  }

  void profIn(std::size_t Slot) {
    if (Prof)
      line("prof_c_[%zu] += static_cast<std::uint64_t>(%s);", 2 * Slot,
           liveCount().c_str());
  }

  void profOut(std::size_t Slot) {
    if (Prof)
      line("prof_c_[%zu] += static_cast<std::uint64_t>(%s);",
           2 * Slot + 1, liveCount().c_str());
  }

  void timerOpen(std::size_t I, std::size_t Slot) {
    if (Prof)
      line("steno::rt::ProfTimer vt%zu_(&prof_ns_[%zu]);", I, Slot);
  }

  void timerClose(std::size_t I) {
    if (Prof)
      line("vt%zu_.stop();", I);
  }

  /// Opens the per-lane loop for the current selection mode; the loop
  /// body sees the lane index as vj_.
  void openLaneLoop() {
    if (Sparse) {
      line("for (std::int64_t vs_ = 0; vs_ < vn_; ++vs_) {");
      ++Indent;
      // A body that ignores the element (Count) never reads the lane.
      line("const std::int64_t vj_ = vsel_[vs_];");
      line("(void)vj_;");
    } else {
      line("for (std::int64_t vj_ = vlo_; vj_ < vhi_; ++vj_) {");
      ++Indent;
    }
  }

  void closeLaneLoop() {
    --Indent;
    line("}");
  }

  void printStep(std::size_t I) {
    const VStep &S = P.Steps[I];
    profIn(S.ProfSlot);
    timerOpen(I, S.ProfSlot);
    switch (S.K) {
    case VStepKind::Trans:
      printTrans(I, S);
      break;
    case VStepKind::Where:
      printWhere(S);
      break;
    case VStepKind::Take:
      printTake(I);
      break;
    case VStepKind::Skip:
      printSkip(I);
      break;
    case VStepKind::TakeWhile:
      printTakeWhile(I, S);
      break;
    case VStepKind::SkipWhile:
      printSkipWhile(I, S);
      break;
    }
    timerClose(I);
    profOut(S.ProfSlot);
  }

  void printTrans(std::size_t I, const VStep &S) {
    openLaneLoop();
    line("vcol%zu_[vj_] = %s;", I,
         elemExpr(S.Body.Root, S.ElemName).c_str());
    closeLaneLoop();
    Cur = strFormat("vcol%zu_[vj_]", I);
  }

  void printWhere(const VStep &S) {
    if (!Sparse) {
      // Dense -> sparse: compact surviving lane indices with a branchless
      // increment; the predicate still runs per lane in source order.
      line("vn_ = 0;");
      line("for (std::int64_t vj_ = vlo_; vj_ < vhi_; ++vj_) {");
      ++Indent;
      line("vsel_[vn_] = static_cast<std::int32_t>(vj_);");
      line("vn_ += (%s) ? 1 : 0;", elemExpr(S.Body.Root, S.ElemName).c_str());
      --Indent;
      line("}");
      Sparse = true;
      return;
    }
    // Sparse: in-place compaction (write index trails the read index).
    line("{");
    ++Indent;
    line("std::int64_t vk_ = 0;");
    line("for (std::int64_t vs_ = 0; vs_ < vn_; ++vs_) {");
    ++Indent;
    line("const std::int64_t vj_ = vsel_[vs_];");
    line("vsel_[vk_] = static_cast<std::int32_t>(vj_);");
    line("vk_ += (%s) ? 1 : 0;", elemExpr(S.Body.Root, S.ElemName).c_str());
    --Indent;
    line("}");
    line("vn_ = vk_;");
    --Indent;
    line("}");
  }

  /// Take/Skip window math over the remaining-count counter (negative
  /// counts clamp to zero, like the scalar `cnt >= n` test).
  void printTake(std::size_t I) {
    line("{");
    ++Indent;
    line("std::int64_t vk_ = vcnt%zu_ < 0 ? 0 : vcnt%zu_;", I, I);
    line("if (vk_ > %s) vk_ = %s;", liveCount().c_str(),
         liveCount().c_str());
    if (Sparse)
      line("vn_ = vk_;");
    else
      line("vhi_ = vlo_ + vk_;");
    line("vcnt%zu_ -= vk_;", I);
    --Indent;
    line("}");
  }

  void printSkip(std::size_t I) {
    line("{");
    ++Indent;
    line("std::int64_t vk_ = vcnt%zu_ < 0 ? 0 : vcnt%zu_;", I, I);
    line("if (vk_ > %s) vk_ = %s;", liveCount().c_str(),
         liveCount().c_str());
    if (Sparse) {
      line("for (std::int64_t vs_ = vk_; vs_ < vn_; ++vs_)");
      line("  vsel_[vs_ - vk_] = vsel_[vs_];");
      line("vn_ -= vk_;");
    } else {
      line("vlo_ += vk_;");
    }
    line("vcnt%zu_ -= vk_;", I);
    --Indent;
    line("}");
  }

  void printTakeWhile(std::size_t I, const VStep &S) {
    line("if (vdone%zu_) {", I);
    line("  %s;", Sparse ? "vn_ = 0" : "vhi_ = vlo_");
    line("} else {");
    ++Indent;
    // Sequential scan, exactly the scalar element order: the predicate
    // runs on each lane until (and including) the first false.
    if (Sparse) {
      line("std::int64_t vs_ = 0;");
      line("for (; vs_ < vn_; ++vs_) {");
      ++Indent;
      line("const std::int64_t vj_ = vsel_[vs_];");
      line("if (!(%s))", elemExpr(S.Body.Root, S.ElemName).c_str());
      line("  break;");
      --Indent;
      line("}");
      line("if (vs_ < vn_) {");
      line("  vdone%zu_ = true;", I);
      line("  vn_ = vs_;");
      line("}");
    } else {
      line("std::int64_t vj_ = vlo_;");
      line("for (; vj_ < vhi_; ++vj_)");
      line("  if (!(%s))", elemExpr(S.Body.Root, S.ElemName).c_str());
      line("    break;");
      line("if (vj_ < vhi_) {");
      line("  vdone%zu_ = true;", I);
      line("  vhi_ = vj_;");
      line("}");
    }
    --Indent;
    line("}");
  }

  void printSkipWhile(std::size_t I, const VStep &S) {
    line("if (vskip%zu_) {", I);
    ++Indent;
    if (Sparse) {
      line("std::int64_t vs_ = 0;");
      line("for (; vs_ < vn_; ++vs_) {");
      ++Indent;
      line("const std::int64_t vj_ = vsel_[vs_];");
      line("if (!(%s))", elemExpr(S.Body.Root, S.ElemName).c_str());
      line("  break;");
      --Indent;
      line("}");
      line("if (vs_ < vn_)");
      line("  vskip%zu_ = false;", I);
      line("for (std::int64_t vt_ = vs_; vt_ < vn_; ++vt_)");
      line("  vsel_[vt_ - vs_] = vsel_[vt_];");
      line("vn_ -= vs_;");
    } else {
      line("std::int64_t vj_ = vlo_;");
      line("for (; vj_ < vhi_; ++vj_)");
      line("  if (!(%s))", elemExpr(S.Body.Root, S.ElemName).c_str());
      line("    break;");
      line("if (vj_ < vhi_)");
      line("  vskip%zu_ = false;", I);
      line("vlo_ = vj_;");
    }
    --Indent;
    line("}");
  }

  //===--------------------------------------------------------------===//
  // Tail: aggregate fold / row emission / scalar epilogue
  //===--------------------------------------------------------------===//

  std::string accCxx() const {
    if (P.Agg == VAggMode::Reduce)
      return kindCxx(P.AccK);
    return P.AggStep.param(0).Ty->cxxName();
  }

  void printAggFold() {
    const std::size_t TI = P.Steps.size(); // unique timer suffix
    profIn(P.AggProfSlot);
    timerOpen(TI, P.AggProfSlot);
    openLaneLoop();
    if (P.Agg == VAggMode::Reduce) {
      std::string G = elemExpr(P.AggArg.Root, aggElemName());
      switch (P.ROp) {
      case VReduceOp::Add:
        line("vacc_ += %s;", G.c_str());
        break;
      case VReduceOp::Sub:
        line("vacc_ -= %s;", G.c_str());
        break;
      case VReduceOp::Mul:
        line("vacc_ *= %s;", G.c_str());
        break;
      case VReduceOp::Min:
        line("{ const %s vx_ = %s;", kindCxx(P.AccK), G.c_str());
        if (P.AccFirst) // steno::rt::min(vacc_, vx_)
          line("  vacc_ = vx_ < vacc_ ? vx_ : vacc_; }");
        else
          line("  vacc_ = vacc_ < vx_ ? vacc_ : vx_; }");
        break;
      case VReduceOp::Max:
        line("{ const %s vx_ = %s;", kindCxx(P.AccK), G.c_str());
        if (P.AccFirst) // steno::rt::max(vacc_, vx_)
          line("  vacc_ = vacc_ < vx_ ? vx_ : vacc_; }");
        else
          line("  vacc_ = vx_ < vacc_ ? vacc_ : vx_; }");
        break;
      }
    } else {
      // Generic fold: inline the full Fn2 body with acc -> vacc_ and the
      // element parameter -> the lane accessor.
      line("vacc_ = %s;", aggStepExpr().c_str());
    }
    closeLaneLoop();
    timerClose(TI);
    profOut(P.AggProfSlot);
  }

  std::string aggElemName() const {
    return P.AggStep.arity() >= 2 ? P.AggStep.param(1).Name
                                  : std::string();
  }

  std::string aggStepExpr() {
    const std::string AccName = P.AggStep.param(0).Name;
    const std::string ElemName = P.AggStep.param(1).Name;
    expr::CxxNames Names = Base;
    std::string Acc = Cur;
    Names.Param = [AccName, ElemName, Acc](const std::string &Name) {
      if (Name == AccName)
        return std::string("vacc_");
      return Name == ElemName ? Acc : Name;
    };
    return expr::printExprCxx(*P.AggStep.body(), Names);
  }

  void printEmitLoop() {
    openLaneLoop();
    line("steno::rt::emitRow(Out_, %s);", Cur.c_str());
    closeLaneLoop();
    profOut(P.RetProfSlot);
  }

  void printScalarEpilogue() {
    if (P.AggResult.valid()) {
      const std::string AccName = P.AggResult.param(0).Name;
      expr::CxxNames Names = Base;
      Names.Param = [AccName](const std::string &Name) {
        return Name == AccName ? std::string("vacc_") : Name;
      };
      line("steno::rt::emitRow(Out_, %s);",
           expr::printExprCxx(*P.AggResult.body(), Names).c_str());
    } else {
      line("steno::rt::emitRow(Out_, vacc_);");
    }
    if (Prof)
      line("prof_c_[%zu] += 1;", 2 * P.RetProfSlot + 1);
  }

  void profFlush() {
    if (!Prof)
      return;
    line("if (Caps_->ProfCounts)");
    line("  for (std::size_t pi_ = 0; pi_ != %zu; ++pi_)",
         P.NumProfOps * 2);
    line("    Caps_->ProfCounts[pi_] += prof_c_[pi_];");
    line("if (Caps_->ProfNanos)");
    line("  for (std::size_t pi_ = 0; pi_ != %zu; ++pi_)", P.NumProfOps);
    line("    Caps_->ProfNanos[pi_] += prof_ns_[pi_];");
  }

  const VecPlan &P;
  const cpptree::SlotUsage &Slots;
  std::string Entry;
  bool Prof;
  std::size_t VB;
  expr::CxxNames Base;
  std::string Out;
  int Indent = 0;
  bool Sparse = false;
  std::string Cur; ///< Lane accessor for the current element (uses vj_).
};

} // namespace

std::string codegen::printVectorizedProgram(const VecPlan &Plan,
                                            const cpptree::SlotUsage &Slots,
                                            const std::string &EntryName,
                                            bool Profile) {
  assert(Plan.Ok && "printing an unvectorizable plan");
  return VecPrinter(Plan, Slots, EntryName, Profile).run();
}
