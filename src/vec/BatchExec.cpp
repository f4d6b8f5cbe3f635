//===- vec/BatchExec.cpp - Batched chain planning and execution -*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "vec/BatchExec.h"

#include "expr/Analysis.h"
#include "steno/Rt.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <optional>

using namespace steno;
using namespace steno::vec;
using expr::BinaryOp;
using expr::Builtin;
using expr::Expr;
using expr::ExprKind;
using expr::ExprRef;
using expr::TypeKind;
using expr::Value;
using query::SourceKind;
using quil::Chain;
using quil::Op;
using quil::PredOp;
using quil::SinkOp;
using quil::Sym;

//===----------------------------------------------------------------------===//
// Planning
//===----------------------------------------------------------------------===//

namespace {

VecPlan reject(std::string Why) {
  VecPlan P;
  P.WhyNot = std::move(Why);
  return P;
}

bool hasNoFreeParams(const ExprRef &E) {
  return !E || expr::freeParams(*E).empty();
}

/// Recognizes `(acc, x) => acc op g(x)` (and the Min/Max call form) so the
/// fold runs as a typed tight loop. Conservative: the accumulator operand
/// must be exactly the bare acc parameter, acc must not occur in g, and
/// acc/g/result must share one numeric type. Everything else (Average's
/// pair accumulator, user folds) takes the Generic per-lane path.
bool recognizeReduce(const expr::Lambda &Fn2, VecPlan &P) {
  if (Fn2.arity() != 2)
    return false;
  const std::string &Acc = Fn2.param(0).Name;
  const std::string &Elem = Fn2.param(1).Name;
  const Expr &B = *Fn2.body();
  auto IsAccParam = [&](const ExprRef &E) {
    return E->kind() == ExprKind::Param && E->paramName() == Acc;
  };
  ExprRef G;
  if (B.kind() == ExprKind::Binary) {
    switch (B.binaryOp()) {
    case BinaryOp::Add:
      P.ROp = VReduceOp::Add;
      break;
    case BinaryOp::Sub:
      P.ROp = VReduceOp::Sub;
      break;
    case BinaryOp::Mul:
      P.ROp = VReduceOp::Mul;
      break;
    default:
      return false;
    }
    if (IsAccParam(B.operand(0))) {
      P.AccFirst = true;
      G = B.operand(1);
    } else if (IsAccParam(B.operand(1)) && P.ROp != VReduceOp::Sub) {
      P.AccFirst = false;
      G = B.operand(0);
    } else {
      return false;
    }
  } else if (B.kind() == ExprKind::Call &&
             (B.builtin() == Builtin::Min || B.builtin() == Builtin::Max)) {
    if (B.operands().size() != 2)
      return false;
    P.ROp = B.builtin() == Builtin::Min ? VReduceOp::Min : VReduceOp::Max;
    if (IsAccParam(B.operand(0))) {
      P.AccFirst = true;
      G = B.operand(1);
    } else if (IsAccParam(B.operand(1))) {
      P.AccFirst = false;
      G = B.operand(0);
    } else {
      return false;
    }
  } else {
    return false;
  }
  if (expr::freeParams(*G).count(Acc))
    return false;
  const expr::TypeRef &Ty = Fn2.body()->type();
  if (!Ty->isNumeric() || !expr::sameType(Ty, Fn2.param(0).Ty) ||
      !expr::sameType(Ty, G->type()))
    return false;
  CompiledExpr CG = compileVecExpr(G, Elem);
  if (!CG.Ok)
    return false;
  P.AggArg = std::move(CG);
  P.AccK = Ty->kind();
  return true;
}

/// Scalars and pairs of them, nested to any depth: values that hold no
/// vec payload and so need no arena.
bool isVecFree(const expr::TypeRef &T) {
  return T && (T->isScalar() || (T->isPair() && isVecFree(T->first()) &&
                                 isVecFree(T->second())));
}

/// Plans the key side of a Sink(GroupByAggregate) tail \p O into \p P;
/// returns why the sink stays scalar, or null.
const char *planGroup(const Op &O, VecPlan &P) {
  if (O.Fn.arity() != 1 || !O.Fn.body()->type()->isInt64())
    return "malformed GroupByAggregate";
  // The scalar loop evaluates a hash sink's seed per element, a dense
  // sink's key bound and seed once up front; the batch path evaluates
  // both up front, so a hash seed that could trap stays scalar.
  if (O.DenseKeys ? !hasNoFreeParams(O.DenseKeys) : exprMayTrap(*O.Seed))
    return "group seed or key bound not evaluable up front";
  if (!isVecFree(O.Seed->type()) || !isVecFree(O.OutElem))
    return "vec-typed group accumulator or row";
  P.KeyElemName = O.Fn.param(0).Name;
  P.GroupKey = compileVecExpr(O.Fn.body(), P.KeyElemName);
  if (!P.GroupKey.Ok)
    return "unvectorizable group key";
  P.Group = true;
  P.DenseKeys = O.DenseKeys;
  P.LaneOrder = P.GroupKey.Tree.MayTrap || exprMayTrap(*O.Fn2.body());
  return nullptr;
}

} // namespace

VecPlan vec::planChain(const Chain &C) {
  if (C.Ops.size() < 2)
    return reject("degenerate chain");
  const Op &SrcOp = C.Ops.front();
  if (SrcOp.S != Sym::Src)
    return reject("chain does not start with Src");
  VecPlan P;
  P.Src = SrcOp.Src;
  switch (SrcOp.Src.Kind) {
  case SourceKind::DoubleArray:
  case SourceKind::Int64Array:
    break;
  case SourceKind::Range:
    if (!hasNoFreeParams(SrcOp.Src.Start) ||
        !hasNoFreeParams(SrcOp.Src.CountE))
      return reject("range bounds reference outer parameters");
    break;
  case SourceKind::VecExpr:
    if (!SrcOp.Src.Vec || !hasNoFreeParams(SrcOp.Src.Vec))
      return reject("vec source references outer parameters");
    break;
  case SourceKind::PointArray:
    return reject("point (vec-element) source");
  }
  expr::TypeRef ElemTy = SrcOp.Src.elemType();
  if (!ElemTy || !ElemTy->isScalar())
    return reject("non-scalar source element");
  P.SrcK = ElemTy->kind();
  P.SrcProfSlot = 0;
  P.NumProfOps = C.Ops.size();
  P.RetProfSlot = C.Ops.size() - 1;
  P.ScalarResult = C.Scalar;
  P.BatchSize = batchSizeFromEnv();

  for (std::size_t I = 1; I + 1 < C.Ops.size(); ++I) {
    const Op &O = C.Ops[I];
    VStep S;
    S.ProfSlot = I;
    switch (O.S) {
    case Sym::Trans: {
      if (O.Fn.arity() != 1)
        return reject("non-unary Trans lambda");
      if (!O.OutElem || !O.OutElem->isScalar())
        return reject("non-scalar Trans output");
      S.K = VStepKind::Trans;
      S.ElemName = O.Fn.param(0).Name;
      S.Body = compileVecExpr(O.Fn.body(), S.ElemName);
      if (!S.Body.Ok)
        return reject("unvectorizable Trans body");
      S.OutK = O.OutElem->kind();
      break;
    }
    case Sym::Pred: {
      if (O.P == PredOp::Take || O.P == PredOp::Skip) {
        if (!O.Seed || !hasNoFreeParams(O.Seed))
          return reject("Take/Skip count references outer parameters");
        S.K = O.P == PredOp::Take ? VStepKind::Take : VStepKind::Skip;
        S.Count = O.Seed;
      } else {
        if (O.Fn.arity() != 1)
          return reject("non-unary Pred lambda");
        S.K = O.P == PredOp::Where       ? VStepKind::Where
              : O.P == PredOp::TakeWhile ? VStepKind::TakeWhile
                                         : VStepKind::SkipWhile;
        S.ElemName = O.Fn.param(0).Name;
        S.Body = compileVecExpr(O.Fn.body(), S.ElemName);
        if (!S.Body.Ok)
          return reject("unvectorizable Pred body");
      }
      if (!O.OutElem || !O.OutElem->isScalar())
        return reject("non-scalar Pred element");
      S.OutK = O.OutElem->kind();
      break;
    }
    case Sym::Agg:
    case Sym::Sink: {
      bool IsGroup = O.S == Sym::Sink;
      if (IsGroup && O.K != SinkOp::GroupByAggregate)
        return reject("sink operator");
      if (I + 2 != C.Ops.size())
        return reject("aggregate not in tail position");
      if (O.StopWhen.valid())
        return reject("early-exit aggregate");
      if (!O.Fn2.valid() || O.Fn2.arity() != 2 || !O.Seed)
        return reject("malformed Agg");
      if (!hasNoFreeParams(O.Seed))
        return reject("Agg seed references outer parameters");
      if (!O.InElem || !O.InElem->isScalar())
        return reject("non-scalar Agg input");
      if (IsGroup)
        if (const char *Why = planGroup(O, P))
          return reject(Why);
      P.AggProfSlot = I;
      P.AggStep = O.Fn2;
      P.AggSeed = O.Seed;
      P.AggResult = O.Fn3;
      // A group fold that must run lane by lane gains nothing from the
      // typed loop, so it takes the Generic per-lane path.
      P.Agg = !P.LaneOrder && recognizeReduce(O.Fn2, P) ? VAggMode::Reduce
                                                       : VAggMode::Generic;
      break;
    }
    case Sym::Nested:
      return reject("nested query");
    default:
      return reject("unexpected operator");
    }
    if (O.S != Sym::Agg && O.S != Sym::Sink)
      P.Steps.push_back(std::move(S));
  }
  if (C.Ops.back().S != Sym::Ret)
    return reject("chain does not end with Ret");
  if (P.Agg == VAggMode::None && C.Scalar)
    return reject("scalar chain without vectorizable Agg");
  P.Ok = true;
  return P;
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

namespace {

std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Lanes fromSel(const std::vector<std::int32_t> &S) {
  return Lanes{false, 0, 0, S.data(), 0,
               static_cast<std::int64_t>(S.size())};
}

void trimToFirst(Lanes &L, std::int64_t K) {
  if (L.Dense)
    L.Hi = L.Lo + K;
  else
    L.Cnt = L.Off + K;
}

void dropFirst(Lanes &L, std::int64_t K) {
  if (L.Dense)
    L.Lo += K;
  else
    L.Off += K;
}

/// Position (in selection order) of the first lane whose predicate is
/// false, or L.size() when every live lane passes. A may-trap predicate is
/// evaluated lane by lane, in order, stopping at the boundary — exactly
/// the scalar evaluation order; a trap-free predicate is evaluated
/// columnar (evaluating past the boundary is unobservable: pure + total).
std::int64_t whileBoundary(const VStep &St, EvalCtx &Ctx, const Lanes &L) {
  std::int64_t Sz = L.size();
  if (St.Body.Tree.MayTrap) {
    for (std::int64_t J = 0; J != Sz; ++J)
      if (!evalLane(St.Body.Tree, St.ElemName, Ctx, L.at(J)).asBool())
        return J;
    return Sz;
  }
  Col Pd = evalVec(St.Body.Tree, Ctx, L);
  for (std::int64_t J = 0; J != Sz; ++J)
    if (!Pd.B[L.at(J)])
      return J;
  return Sz;
}

/// Calls \p Fn with the binary step `(acc, x) -> acc op x` of P's reduce
/// op over accumulator type T. Min/Max replicate evalCall's comparison
/// with the original operand order, so NaN handling matches scalar.
template <typename T, typename F> void withReduceOp(const VecPlan &P, F &&Fn) {
  switch (P.ROp) {
  case VReduceOp::Add:
    return Fn([](T A, T X) { return A + X; });
  case VReduceOp::Sub: // acc-left only (planner guarantees)
    return Fn([](T A, T X) { return A - X; });
  case VReduceOp::Mul:
    return Fn([](T A, T X) { return A * X; });
  case VReduceOp::Min:
    if (P.AccFirst)
      return Fn([](T A, T X) { return X < A ? X : A; });
    return Fn([](T A, T X) { return A < X ? A : X; });
  case VReduceOp::Max:
    if (P.AccFirst)
      return Fn([](T A, T X) { return A < X ? X : A; });
    return Fn([](T A, T X) { return X < A ? A : X; });
  }
}

/// Per-key accumulators of a GroupByAggregate tail in first-seen key
/// order: the generated code's hash or dense sink (rt::GroupAggSink,
/// rt::DenseAggSink). The dense sink reports every key in range.
template <typename A> class KeyedAccs {
public:
  KeyedAccs(bool Dense, std::int64_t NumKeys, A Seed)
      : IsDense(Dense), Seed(Seed), DenseS(Dense ? NumKeys : 0, Seed) {}

  A &at(std::int64_t Key) {
    if (!IsDense)
      return Hash.slot(Key, Seed);
    if (static_cast<std::uint64_t>(Key) >=
        static_cast<std::uint64_t>(DenseS.size()))
      support::fatalError("dense group key " + std::to_string(Key) +
                          " outside [0, " + std::to_string(DenseS.size()) +
                          ")");
    return DenseS.slot(Key);
  }
  std::int64_t size() const { return IsDense ? DenseS.size() : Hash.size(); }
  std::int64_t keyAt(std::int64_t I) const {
    return IsDense ? I : Hash.keyAt(I);
  }
  A accAt(std::int64_t I) const {
    return IsDense ? DenseS.accAt(I) : Hash.accAt(I);
  }

private:
  bool IsDense;
  A Seed;
  rt::GroupAggSink<A> Hash;
  rt::DenseAggSink<A> DenseS;
};

/// The accumulators of a GroupByAggregate tail. Reduce steps fold into
/// the typed table matching AccK; Generic steps keep Values, and their
/// table maps each key to an index into Vals (-1: still the seed).
struct GroupState {
  GroupState(const VecPlan &P, const Value &Seed, std::int64_t NumKeys)
      : SeedV(Seed), Dbl(P.Agg == VAggMode::Reduce &&
                         P.AccK == TypeKind::Double),
        D(Dbl && P.DenseKeys, NumKeys, Dbl ? Seed.asDouble() : 0.0),
        I(!Dbl && P.DenseKeys, NumKeys,
          P.Agg == VAggMode::Reduce && !Dbl ? Seed.asInt64() : -1) {}

  Value &generic(std::int64_t Key) {
    std::int64_t &J = I.at(Key);
    if (J < 0) {
      J = static_cast<std::int64_t>(Vals.size());
      Vals.push_back(SeedV);
    }
    return Vals[static_cast<std::size_t>(J)];
  }

  Value SeedV;
  bool Dbl; ///< Folds into D; every other fold uses I.
  KeyedAccs<double> D;
  KeyedAccs<std::int64_t> I;
  std::vector<Value> Vals;
};

/// Folds the live lanes \p L of one batch into their keys' accumulators.
void foldGroup(const VecPlan &P, GroupState &G, EvalCtx &Ctx,
               const Col &Elem, const Lanes &L) {
  Ctx.Elem = Elem;
  if (P.Agg == VAggMode::Generic) {
    // A key or step that may trap runs key, then step, element by
    // element; otherwise the key column is evaluated first.
    const std::int64_t *Keys =
        P.LaneOrder ? nullptr : evalVec(P.GroupKey.Tree, Ctx, L).I;
    L.forEach([&](std::int64_t I) {
      std::int64_t K =
          Keys ? Keys[I]
               : evalLane(P.GroupKey.Tree, P.KeyElemName, Ctx, I).asInt64();
      Value &A = G.generic(K);
      A = expr::applyLambda(P.AggStep, {A, laneValue(Elem, I)}, *Ctx.Env);
    });
    return;
  }
  const std::int64_t *Keys = evalVec(P.GroupKey.Tree, Ctx, L).I;
  Col X = evalVec(P.AggArg.Tree, Ctx, L);
  if (G.Dbl)
    withReduceOp<double>(P, [&](auto Op) {
      L.forEach([&](std::int64_t I) {
        double &A = G.D.at(Keys[I]);
        A = Op(A, X.D[I]);
      });
    });
  else
    withReduceOp<std::int64_t>(P, [&](auto Op) {
      L.forEach([&](std::int64_t I) {
        std::int64_t &A = G.I.at(Keys[I]);
        A = Op(A, X.I[I]);
      });
    });
}

/// Emits a GroupByAggregate tail's rows in first-seen key order.
void emitGroups(const VecPlan &P, const GroupState &G, expr::Env &Env,
                std::vector<Value> &Rows) {
  std::int64_t N = G.Dbl ? G.D.size() : G.I.size();
  Rows.reserve(static_cast<std::size_t>(N));
  for (std::int64_t J = 0; J != N; ++J) {
    Value Key(G.Dbl ? G.D.keyAt(J) : G.I.keyAt(J));
    Value Acc;
    if (G.Dbl)
      Acc = Value(G.D.accAt(J));
    else if (P.Agg == VAggMode::Reduce)
      Acc = Value(G.I.accAt(J));
    else if (std::int64_t Ix = G.I.accAt(J); Ix >= 0)
      Acc = G.Vals[static_cast<std::size_t>(Ix)];
    else
      Acc = G.SeedV;
    Rows.push_back(P.AggResult.valid()
                       ? expr::applyLambda(P.AggResult, {Key, Acc}, Env)
                       : Value::makePair(Key, Acc));
  }
}

} // namespace

std::vector<Value> vec::executeBatched(const VecPlan &P,
                                       const BatchInput &In) {
  assert(P.Ok && "executing a rejected plan");
  expr::Env Env;
  if (In.Values)
    Env.setCaptures(In.Values);
  if (In.Sources)
    Env.setSources(In.Sources);
  obs::ProfileSink *Prof = In.Profile;
  if (Prof && Prof->Counts.size() != 2 * P.NumProfOps)
    Prof = nullptr;

  // Prologue, in chain-op order (matching the generated code's alpha
  // region): per-op counter/flag seeds first, then the aggregate seed,
  // then the source bounds — Range Start only when the range is non-empty
  // (the scalar loop never evaluates it for an empty source).
  std::vector<std::int64_t> Counters(P.Steps.size(), 0);
  std::vector<std::uint8_t> Flags(P.Steps.size(), 0);
  for (std::size_t I = 0; I != P.Steps.size(); ++I) {
    const VStep &St = P.Steps[I];
    if (St.K == VStepKind::Take || St.K == VStepKind::Skip)
      Counters[I] = expr::evalExpr(*St.Count, Env).asInt64();
    else if (St.K == VStepKind::SkipWhile)
      Flags[I] = 1; // still skipping
  }
  bool IsReduce = P.Agg == VAggMode::Reduce;
  std::int64_t AccI = 0;
  double AccD = 0;
  Value AccV;
  std::optional<GroupState> Groups;
  if (P.Group) {
    // A dense sink's key bound, then its seed (the scalar DeclareSink
    // order); a hash sink's seed is pure and trap-free (planner checks).
    std::int64_t NumKeys =
        P.DenseKeys ? expr::evalExpr(*P.DenseKeys, Env).asInt64() : 0;
    Groups.emplace(P, expr::evalExpr(*P.AggSeed, Env), NumKeys);
  } else if (P.Agg != VAggMode::None) {
    Value Seed = expr::evalExpr(*P.AggSeed, Env);
    if (IsReduce) {
      if (P.AccK == TypeKind::Int64)
        AccI = Seed.asInt64();
      else
        AccD = Seed.asDouble();
    } else {
      AccV = Seed;
    }
  }

  const double *SrcD = nullptr;
  const std::int64_t *SrcI = nullptr;
  std::int64_t N = 0;
  std::int64_t RangeStart = 0;
  switch (P.Src.Kind) {
  case SourceKind::DoubleArray: {
    const expr::SourceBuffer &B = Env.sourceAt(P.Src.Slot);
    SrcD = B.DoubleData;
    N = B.Count;
    break;
  }
  case SourceKind::Int64Array: {
    const expr::SourceBuffer &B = Env.sourceAt(P.Src.Slot);
    SrcI = B.Int64Data;
    N = B.Count;
    break;
  }
  case SourceKind::Range:
    N = expr::evalExpr(*P.Src.CountE, Env).asInt64();
    if (N < 0)
      N = 0;
    if (N > 0)
      RangeStart = expr::evalExpr(*P.Src.Start, Env).asInt64();
    break;
  case SourceKind::VecExpr: {
    expr::VecView V = expr::evalExpr(*P.Src.Vec, Env).asVec();
    SrcD = V.Data;
    N = V.Len;
    break;
  }
  case SourceKind::PointArray:
    assert(false && "point source in a vectorized plan");
    break;
  }

  Workspace &WS = workspace();
  std::vector<Value> Rows;
  EvalCtx Ctx;
  Ctx.Env = &Env;
  Ctx.Scr = &WS.Scr;

  const std::int64_t BS = static_cast<std::int64_t>(P.BatchSize);
  for (std::int64_t Base = 0; Base < N; Base += BS) {
    std::int64_t M = std::min(BS, N - Base);
    WS.Scr.reset();
    if (Prof)
      Prof->Counts[2 * P.SrcProfSlot + 1] += static_cast<std::uint64_t>(M);

    Col Elem;
    switch (P.Src.Kind) {
    case SourceKind::DoubleArray:
    case SourceKind::VecExpr:
      Elem = Col::dbl(SrcD + Base);
      break;
    case SourceKind::Int64Array:
      Elem = Col::i64(SrcI + Base);
      break;
    default: { // Range
      std::int64_t *O = WS.Scr.col().i64(static_cast<std::size_t>(M));
      for (std::int64_t J = 0; J != M; ++J)
        O[J] = RangeStart + Base + J;
      Elem = Col::i64(O);
      break;
    }
    }
    Lanes L = Lanes::dense(M);

    for (std::size_t SI = 0; SI != P.Steps.size(); ++SI) {
      const VStep &St = P.Steps[SI];
      std::int64_t InCnt = L.size();
      if (Prof)
        Prof->Counts[2 * St.ProfSlot] += static_cast<std::uint64_t>(InCnt);
      if (InCnt == 0)
        continue; // rows-out += 0; nothing reaches the kernel
      std::uint64_t T0 = Prof ? nowNs() : 0;
      Ctx.Elem = Elem;
      switch (St.K) {
      case VStepKind::Trans:
        Elem = evalVec(St.Body.Tree, Ctx, L);
        break;
      case VStepKind::Where: {
        Col Pd = evalVec(St.Body.Tree, Ctx, L);
        std::vector<std::int32_t> &Sel = WS.Scr.sel();
        Sel.clear();
        L.forEach([&](std::int64_t I) {
          if (Pd.B[I])
            Sel.push_back(static_cast<std::int32_t>(I));
        });
        L = fromSel(Sel);
        break;
      }
      case VStepKind::Take: {
        std::int64_t K = std::clamp<std::int64_t>(Counters[SI], 0, InCnt);
        Counters[SI] -= K;
        trimToFirst(L, K);
        break;
      }
      case VStepKind::Skip: {
        std::int64_t K = std::clamp<std::int64_t>(Counters[SI], 0, InCnt);
        Counters[SI] -= K;
        dropFirst(L, K);
        break;
      }
      case VStepKind::TakeWhile: {
        if (Flags[SI]) { // done: everything downstream is filtered
          trimToFirst(L, 0);
          break;
        }
        std::int64_t B = whileBoundary(St, Ctx, L);
        if (B < InCnt) {
          Flags[SI] = 1;
          trimToFirst(L, B);
        }
        break;
      }
      case VStepKind::SkipWhile: {
        if (!Flags[SI]) // boundary already crossed: pass-through
          break;
        std::int64_t B = whileBoundary(St, Ctx, L);
        if (B < InCnt)
          Flags[SI] = 0;
        dropFirst(L, B);
        break;
      }
      }
      if (Prof) {
        Prof->Nanos[St.ProfSlot] += nowNs() - T0;
        Prof->Counts[2 * St.ProfSlot + 1] +=
            static_cast<std::uint64_t>(L.size());
      }
    }

    std::int64_t Out = L.size();
    if (P.Agg != VAggMode::None) {
      if (Prof)
        Prof->Counts[2 * P.AggProfSlot] += static_cast<std::uint64_t>(Out);
      if (Out == 0)
        continue;
      std::uint64_t T0 = Prof ? nowNs() : 0;
      if (Groups) {
        foldGroup(P, *Groups, Ctx, Elem, L);
      } else if (IsReduce) {
        Ctx.Elem = Elem;
        Col G = evalVec(P.AggArg.Tree, Ctx, L);
        if (P.AccK == TypeKind::Int64)
          withReduceOp<std::int64_t>(P, [&](auto Op) {
            std::int64_t A = AccI;
            L.forEach([&](std::int64_t I) { A = Op(A, G.I[I]); });
            AccI = A;
          });
        else
          withReduceOp<double>(P, [&](auto Op) {
            double A = AccD;
            L.forEach([&](std::int64_t I) { A = Op(A, G.D[I]); });
            AccD = A;
          });
      } else {
        L.forEach([&](std::int64_t I) {
          AccV = expr::applyLambda(P.AggStep, {AccV, laneValue(Elem, I)},
                                   Env);
        });
      }
      if (Prof) {
        Prof->Nanos[P.AggProfSlot] += nowNs() - T0;
        // A sink's rows-out is its entry count, added at emission.
        if (!Groups)
          Prof->Counts[2 * P.AggProfSlot + 1] +=
              static_cast<std::uint64_t>(Out);
      }
    } else {
      if (Prof)
        Prof->Counts[2 * P.RetProfSlot + 1] +=
            static_cast<std::uint64_t>(Out);
      L.forEach(
          [&](std::int64_t I) { Rows.push_back(laneValue(Elem, I)); });
    }
  }

  if (Groups) {
    emitGroups(P, *Groups, Env, Rows);
    if (Prof) {
      Prof->Counts[2 * P.AggProfSlot + 1] += Rows.size();
      Prof->Counts[2 * P.RetProfSlot + 1] += Rows.size();
    }
  } else if (P.Agg != VAggMode::None) {
    Value A = IsReduce ? (P.AccK == TypeKind::Int64 ? Value(AccI)
                                                    : Value(AccD))
                       : AccV;
    Value R = P.AggResult.valid()
                  ? expr::applyLambda(P.AggResult, {A}, Env)
                  : A;
    if (Prof)
      Prof->Counts[2 * P.RetProfSlot + 1] += 1;
    Rows.push_back(std::move(R));
  }
  return Rows;
}
