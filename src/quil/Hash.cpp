//===- quil/Hash.cpp - Structural chain hashing ----------------*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
//
// hashChain: the structural identity of a lowered plan, used as the
// ProfileStore key. It deliberately hashes the QUIL chain — not the
// generated source, whose entry symbol embeds a per-process counter, and
// not the pre-lowering query, whose sugar may lower to the same chain —
// so that all backends executing the same plan share one profile entry.
//
//===----------------------------------------------------------------------===//

#include "quil/Quil.h"
#include "expr/Analysis.h"
#include "support/StringUtil.h"

#include <cstdint>

using namespace steno;
using namespace steno::quil;
using expr::hashExpr;
using expr::hashLambda;

namespace {

std::uint64_t combine(std::uint64_t H, std::uint64_t V) {
  H ^= V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  return H;
}

std::uint64_t hashMaybeExpr(const expr::ExprRef &E) {
  return E ? hashExpr(*E) : 0x7f4a;
}

std::uint64_t hashMaybeLambda(const expr::Lambda &L) {
  return L.valid() ? hashLambda(L) : 0x1b2d;
}

std::uint64_t hashSource(const query::SourceDesc &Src) {
  std::uint64_t H = static_cast<std::uint64_t>(Src.Kind) + 0xabcd;
  H = combine(H, Src.Slot);
  H = combine(H, hashMaybeExpr(Src.Start));
  H = combine(H, hashMaybeExpr(Src.CountE));
  H = combine(H, hashMaybeExpr(Src.Vec));
  return H;
}

std::uint64_t hashOp(const Op &O) {
  std::uint64_t H = static_cast<std::uint64_t>(O.S) + 1;
  switch (O.S) {
  case Sym::Src:
    H = combine(H, hashSource(O.Src));
    break;
  case Sym::Pred:
    H = combine(H, static_cast<std::uint64_t>(O.P) + 0x11);
    break;
  case Sym::Sink:
    H = combine(H, static_cast<std::uint64_t>(O.K) + 0x22);
    break;
  case Sym::Trans:
  case Sym::Agg:
  case Sym::Ret:
  case Sym::Nested:
    break;
  }
  H = combine(H, hashMaybeLambda(O.Fn));
  H = combine(H, hashMaybeLambda(O.Fn2));
  H = combine(H, hashMaybeLambda(O.Fn3));
  H = combine(H, hashMaybeLambda(O.Combine));
  H = combine(H, hashMaybeLambda(O.StopWhen));
  H = combine(H, hashMaybeExpr(O.Seed));
  H = combine(H, hashMaybeExpr(O.DenseKeys));
  if (O.NestedChain) {
    H = combine(H, hashChain(*O.NestedChain));
    H = combine(H, static_cast<std::uint64_t>(O.Role) + 0x33);
    H = combine(H, support::fnv1a(O.OuterParam));
  }
  return H;
}

} // namespace

std::uint64_t quil::hashChain(const Chain &C) {
  std::uint64_t H = 0x53543641; // "ST6A"
  for (const Op &O : C.Ops)
    H = combine(H, hashOp(O));
  H = combine(H, C.Scalar ? 2 : 1);
  return H;
}
