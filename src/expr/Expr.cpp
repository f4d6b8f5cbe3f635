//===- expr/Expr.cpp ------------------------------------------*- C++ -*-===//

#include "expr/Expr.h"
#include "support/Error.h"
#include "support/StringUtil.h"

#include <cassert>

using namespace steno;
using namespace steno::expr;

const ConstValue &Expr::constValue() const {
  assert(Kind == ExprKind::Const && "not a Const node");
  return Literal;
}

const std::string &Expr::paramName() const {
  assert(Kind == ExprKind::Param && "not a Param node");
  return Name;
}

unsigned Expr::captureSlot() const {
  assert(Kind == ExprKind::Capture && "not a Capture node");
  return Slot;
}

unsigned Expr::sourceSlot() const {
  assert((Kind == ExprKind::BufferSlice || Kind == ExprKind::SourceLen) &&
         "not a source-buffer node");
  return Slot;
}

UnaryOp Expr::unaryOp() const {
  assert(Kind == ExprKind::Unary && "not a Unary node");
  return UOp;
}

BinaryOp Expr::binaryOp() const {
  assert(Kind == ExprKind::Binary && "not a Binary node");
  return BOp;
}

Builtin Expr::builtin() const {
  assert(Kind == ExprKind::Call && "not a Call node");
  return Fn;
}

const ExprRef &Expr::operand(unsigned I) const {
  assert(I < Operands.size() && "operand index out of range");
  return Operands[I];
}

ExprRef Expr::withDivSafe(const ExprRef &E) {
  assert(E && E->Kind == ExprKind::Binary &&
         (E->BOp == BinaryOp::Div || E->BOp == BinaryOp::Mod) &&
         E->Ty->isInt64() && "divSafe only applies to int64 Div/Mod");
  if (E->DivSafeFlag)
    return E;
  auto *N = new Expr(*E);
  N->DivSafeFlag = true;
  return ExprRef(N);
}

bool expr::isComparison(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Eq:
  case BinaryOp::Ne:
  case BinaryOp::Lt:
  case BinaryOp::Le:
  case BinaryOp::Gt:
  case BinaryOp::Ge:
    return true;
  default:
    return false;
  }
}

bool expr::isArithmetic(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add:
  case BinaryOp::Sub:
  case BinaryOp::Mul:
  case BinaryOp::Div:
  case BinaryOp::Mod:
    return true;
  default:
    return false;
  }
}

const char *expr::binaryOpSpelling(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add:
    return "+";
  case BinaryOp::Sub:
    return "-";
  case BinaryOp::Mul:
    return "*";
  case BinaryOp::Div:
    return "/";
  case BinaryOp::Mod:
    return "%";
  case BinaryOp::Eq:
    return "==";
  case BinaryOp::Ne:
    return "!=";
  case BinaryOp::Lt:
    return "<";
  case BinaryOp::Le:
    return "<=";
  case BinaryOp::Gt:
    return ">";
  case BinaryOp::Ge:
    return ">=";
  case BinaryOp::And:
    return "&&";
  case BinaryOp::Or:
    return "||";
  }
  stenoUnreachable("bad BinaryOp");
}

const char *expr::builtinSpelling(Builtin Fn) {
  switch (Fn) {
  case Builtin::Sqrt:
    return "steno::rt::sqrt";
  case Builtin::Abs:
    return "steno::rt::abs";
  case Builtin::Min:
    return "steno::rt::min";
  case Builtin::Max:
    return "steno::rt::max";
  case Builtin::Floor:
    return "steno::rt::floor";
  case Builtin::Ceil:
    return "steno::rt::ceil";
  case Builtin::Exp:
    return "steno::rt::exp";
  case Builtin::Log:
    return "steno::rt::log";
  case Builtin::Pow:
    return "steno::rt::pow";
  }
  stenoUnreachable("bad Builtin");
}

//===----------------------------------------------------------------===//
// Factories
//===----------------------------------------------------------------===//

namespace {

/// Promotes two numeric operands to a common type (int64 + double ->
/// double), returning the common type.
TypeRef promote(ExprRef &L, ExprRef &R) {
  assert(L->type()->isNumeric() && R->type()->isNumeric() &&
         "promotion needs numeric operands");
  if (sameType(L->type(), R->type()))
    return L->type();
  TypeRef D = Type::doubleTy();
  L = Expr::convert(L, D);
  R = Expr::convert(R, D);
  return D;
}

} // namespace

ExprRef Expr::constBool(bool V) {
  auto *N = new Expr(ExprKind::Const, Type::boolTy());
  N->Literal = V;
  return ExprRef(N);
}

ExprRef Expr::constInt64(std::int64_t V) {
  auto *N = new Expr(ExprKind::Const, Type::int64Ty());
  N->Literal = V;
  return ExprRef(N);
}

ExprRef Expr::constDouble(double V) {
  auto *N = new Expr(ExprKind::Const, Type::doubleTy());
  N->Literal = V;
  return ExprRef(N);
}

ExprRef Expr::param(std::string Name, TypeRef Ty) {
  assert(!Name.empty() && "parameter must be named");
  auto *N = new Expr(ExprKind::Param, std::move(Ty));
  N->Name = std::move(Name);
  return ExprRef(N);
}

ExprRef Expr::capture(unsigned Slot, TypeRef Ty) {
  auto *N = new Expr(ExprKind::Capture, std::move(Ty));
  N->Slot = Slot;
  return ExprRef(N);
}

ExprRef Expr::convert(ExprRef E, TypeRef To) {
  assert(E && "null operand");
  assert(E->type()->isNumeric() && To->isNumeric() &&
         "convert only between numeric types");
  if (sameType(E->type(), To))
    return E;
  auto *N = new Expr(ExprKind::Convert, std::move(To));
  N->Operands = {std::move(E)};
  return ExprRef(N);
}

ExprRef Expr::unary(UnaryOp Op, ExprRef E) {
  assert(E && "null operand");
  TypeRef Ty;
  if (Op == UnaryOp::Neg) {
    assert(E->type()->isNumeric() && "negating a non-number");
    Ty = E->type();
  } else {
    assert(E->type()->isBool() && "logical not of a non-bool");
    Ty = Type::boolTy();
  }
  auto *N = new Expr(ExprKind::Unary, std::move(Ty));
  N->UOp = Op;
  N->Operands = {std::move(E)};
  return ExprRef(N);
}

ExprRef Expr::binary(BinaryOp Op, ExprRef L, ExprRef R) {
  assert(L && R && "null operand");
  TypeRef Ty;
  if (isArithmetic(Op)) {
    Ty = promote(L, R);
  } else if (isComparison(Op)) {
    if (L->type()->isBool() && R->type()->isBool()) {
      assert((Op == BinaryOp::Eq || Op == BinaryOp::Ne) &&
             "ordering comparison on bools");
    } else {
      promote(L, R);
    }
    Ty = Type::boolTy();
  } else { // And / Or
    assert(L->type()->isBool() && R->type()->isBool() &&
           "logical op needs bool operands");
    Ty = Type::boolTy();
  }
  auto *N = new Expr(ExprKind::Binary, std::move(Ty));
  N->BOp = Op;
  N->Operands = {std::move(L), std::move(R)};
  return ExprRef(N);
}

ExprRef Expr::call(Builtin Fn, std::vector<ExprRef> Args) {
  TypeRef Ty;
  switch (Fn) {
  case Builtin::Sqrt:
  case Builtin::Floor:
  case Builtin::Ceil:
  case Builtin::Exp:
  case Builtin::Log:
    assert(Args.size() == 1 && Args[0]->type()->isNumeric() &&
           "unary math builtin wants one number");
    Args[0] = convert(Args[0], Type::doubleTy());
    Ty = Type::doubleTy();
    break;
  case Builtin::Abs:
    assert(Args.size() == 1 && Args[0]->type()->isNumeric() &&
           "abs wants one number");
    Ty = Args[0]->type();
    break;
  case Builtin::Min:
  case Builtin::Max:
    assert(Args.size() == 2 && "min/max want two numbers");
    Ty = promote(Args[0], Args[1]);
    break;
  case Builtin::Pow:
    assert(Args.size() == 2 && "pow wants two numbers");
    Args[0] = convert(Args[0], Type::doubleTy());
    Args[1] = convert(Args[1], Type::doubleTy());
    Ty = Type::doubleTy();
    break;
  }
  auto *N = new Expr(ExprKind::Call, std::move(Ty));
  N->Fn = Fn;
  N->Operands = std::move(Args);
  return ExprRef(N);
}

ExprRef Expr::cond(ExprRef C, ExprRef T, ExprRef F) {
  assert(C && T && F && "null operand");
  assert(C->type()->isBool() && "condition must be bool");
  if (!sameType(T->type(), F->type())) {
    assert(T->type()->isNumeric() && F->type()->isNumeric() &&
           "conditional arms have incompatible types");
    promote(T, F);
  }
  auto *N = new Expr(ExprKind::Cond, T->type());
  N->Operands = {std::move(C), std::move(T), std::move(F)};
  return ExprRef(N);
}

ExprRef Expr::pairNew(ExprRef First, ExprRef Second) {
  assert(First && Second && "null operand");
  auto *N = new Expr(ExprKind::PairNew,
                     Type::pairTy(First->type(), Second->type()));
  N->Operands = {std::move(First), std::move(Second)};
  return ExprRef(N);
}

ExprRef Expr::pairFirst(ExprRef P) {
  assert(P && P->type()->isPair() && "pairFirst of a non-pair");
  auto *N = new Expr(ExprKind::PairFirst, P->type()->first());
  N->Operands = {std::move(P)};
  return ExprRef(N);
}

ExprRef Expr::pairSecond(ExprRef P) {
  assert(P && P->type()->isPair() && "pairSecond of a non-pair");
  auto *N = new Expr(ExprKind::PairSecond, P->type()->second());
  N->Operands = {std::move(P)};
  return ExprRef(N);
}

ExprRef Expr::vecLen(ExprRef V) {
  assert(V && V->type()->isVec() && "vecLen of a non-vec");
  auto *N = new Expr(ExprKind::VecLen, Type::int64Ty());
  N->Operands = {std::move(V)};
  return ExprRef(N);
}

ExprRef Expr::vecIndex(ExprRef V, ExprRef I) {
  assert(V && V->type()->isVec() && "vecIndex of a non-vec");
  assert(I && I->type()->isInt64() && "vec index must be int64");
  auto *N = new Expr(ExprKind::VecIndex, Type::doubleTy());
  N->Operands = {std::move(V), std::move(I)};
  return ExprRef(N);
}

ExprRef Expr::bufferSlice(unsigned Slot, ExprRef Start, ExprRef Len) {
  assert(Start && Start->type()->isInt64() && "slice start must be int64");
  assert(Len && Len->type()->isInt64() && "slice length must be int64");
  auto *N = new Expr(ExprKind::BufferSlice, Type::vecTy());
  N->Slot = Slot;
  N->Operands = {std::move(Start), std::move(Len)};
  return ExprRef(N);
}

ExprRef Expr::sourceLen(unsigned Slot) {
  auto *N = new Expr(ExprKind::SourceLen, Type::int64Ty());
  N->Slot = Slot;
  return ExprRef(N);
}

//===----------------------------------------------------------------===//
// Debug printing
//===----------------------------------------------------------------===//

std::string Expr::str() const {
  switch (Kind) {
  case ExprKind::Const:
    if (std::holds_alternative<bool>(Literal))
      return std::get<bool>(Literal) ? "true" : "false";
    if (std::holds_alternative<std::int64_t>(Literal))
      return std::to_string(std::get<std::int64_t>(Literal));
    return support::strFormat("%g", std::get<double>(Literal));
  case ExprKind::Param:
    return Name;
  case ExprKind::Capture:
    return support::strFormat("cap%u", Slot);
  case ExprKind::Convert:
    return "(" + Ty->str() + ")" + Operands[0]->str();
  case ExprKind::Unary:
    return std::string(UOp == UnaryOp::Neg ? "-" : "!") + "(" +
           Operands[0]->str() + ")";
  case ExprKind::Binary:
    return "(" + Operands[0]->str() + " " + binaryOpSpelling(BOp) + " " +
           Operands[1]->str() + ")";
  case ExprKind::Call: {
    std::vector<std::string> Parts;
    for (const ExprRef &Op : Operands)
      Parts.push_back(Op->str());
    return std::string(builtinSpelling(Fn)) + "(" +
           support::join(Parts, ", ") + ")";
  }
  case ExprKind::Cond:
    return "(" + Operands[0]->str() + " ? " + Operands[1]->str() + " : " +
           Operands[2]->str() + ")";
  case ExprKind::PairNew:
    return "{" + Operands[0]->str() + ", " + Operands[1]->str() + "}";
  case ExprKind::PairFirst:
    return Operands[0]->str() + ".first";
  case ExprKind::PairSecond:
    return Operands[0]->str() + ".second";
  case ExprKind::VecLen:
    return Operands[0]->str() + ".len";
  case ExprKind::VecIndex:
    return Operands[0]->str() + "[" + Operands[1]->str() + "]";
  case ExprKind::BufferSlice:
    return support::strFormat("src%u[%s .. +%s]", Slot,
                              Operands[0]->str().c_str(),
                              Operands[1]->str().c_str());
  case ExprKind::SourceLen:
    return support::strFormat("len(src%u)", Slot);
  }
  stenoUnreachable("bad ExprKind");
}
