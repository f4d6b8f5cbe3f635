//===- vec/BatchExec.h - Batched chain planning and execution --*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Plans a lowered QUIL chain for vectorized execution and runs it
/// batch-at-a-time (DESIGN.md §5i). This is the interpreter's batch tier;
/// the native backend always compiles the §4.2 fused loop. planChain()
/// decides once, at compile time, whether the chain fits the columnar
/// model —
///
///   Src (Trans|Pred)* (Agg | Sink(GroupByAggregate))? Ret
///
/// over scalar elements, with no nested queries and no early-exit
/// aggregates — and compiles every lambda body with compileVecExpr.
/// Chains that do not fit keep the scalar interpreter path; the plan
/// records why in WhyNot.
///
/// executeBatched() slices the source into batches of Plan.BatchSize
/// elements and pushes each batch through the operator chain — Trans maps
/// a column, Pred narrows the lane selection, Agg folds the surviving
/// lanes into the accumulator, and a GroupByAggregate sink (§4.3, or the
/// §6 partial vertex that emits (key, acc) pairs) folds each lane into
/// its key's accumulator in the table generated code uses
/// (rt::GroupAggSink, insertion-ordered, or rt::DenseAggSink). The whole
/// source is always consumed (a Take that is exhausted shrinks the
/// selection to empty but never breaks the batch loop), matching the
/// scalar backends, whose generated loops `continue` past filtered
/// elements rather than `break` — so trap behavior and per-operator
/// profile counts are identical to scalar execution. Profile accounting
/// is per batch: rows-in/rows-out move by lane counts and each timed
/// operator charges one clock read per batch instead of two per element.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_VEC_BATCHEXEC_H
#define STENO_VEC_BATCHEXEC_H

#include "expr/Eval.h"
#include "obs/Profile.h"
#include "quil/Quil.h"
#include "vec/VecEval.h"

#include <cstdint>
#include <string>
#include <vector>

namespace steno {
namespace vec {

/// Kind of one planned operator step (between Src and the Agg/Sink tail).
enum class VStepKind { Trans, Where, Take, Skip, TakeWhile, SkipWhile };

/// How the chain's fold (its Agg, or its GroupByAggregate sink's per-key
/// step), if any, executes.
enum class VAggMode {
  None,   ///< Collection chain: surviving lanes become rows.
  Reduce, ///< acc = acc op g(elem): typed tight-loop fold.
  Generic ///< Per-lane applyLambda fold (pair accumulators, odd steps).
};

/// Reduction operator for VAggMode::Reduce.
enum class VReduceOp { Add, Sub, Mul, Min, Max };

/// One planned Trans/Pred step.
struct VStep {
  VStepKind K = VStepKind::Trans;
  /// Compiled lambda body (Trans / Where / TakeWhile / SkipWhile).
  CompiledExpr Body;
  /// The lambda's element parameter name (per-lane fallback binding).
  std::string ElemName;
  /// Take/Skip count expression (the op's Seed).
  expr::ExprRef Count;
  /// Element kind after this step (Trans changes it; Preds keep it).
  expr::TypeKind OutK = expr::TypeKind::Double;
  /// This op's index in the chain's profile slots.
  std::size_t ProfSlot = 0;
};

/// A chain compiled for batch execution.
struct VecPlan {
  bool Ok = false;
  std::string WhyNot; ///< Reason the chain stays scalar when !Ok.

  query::SourceDesc Src;
  expr::TypeKind SrcK = expr::TypeKind::Double;
  std::size_t SrcProfSlot = 0;

  std::vector<VStep> Steps;

  VAggMode Agg = VAggMode::None;
  VReduceOp ROp = VReduceOp::Add;
  /// Whether the accumulator is the reduction's first operand (fixes the
  /// operand order of Sub and the NaN behavior of Min/Max).
  bool AccFirst = true;
  /// Compiled element-side expression g of `acc = acc op g(elem)`.
  CompiledExpr AggArg;
  expr::TypeKind AccK = expr::TypeKind::Double;
  expr::Lambda AggStep;   ///< Fn2, for the Generic fold.
  expr::ExprRef AggSeed;  ///< Evaluated in the prologue, chain order.
  /// Fn3; may be invalid (result = acc, or (key, acc) for a group tail).
  expr::Lambda AggResult;
  std::size_t AggProfSlot = 0; ///< The Agg or GroupByAggregate op.

  /// The tail is Sink(GroupByAggregate): the Agg fields above describe
  /// the per-key step, and AggResult is the (key, acc) result selector.
  bool Group = false;
  CompiledExpr GroupKey;   ///< Key selector body.
  std::string KeyElemName; ///< The key selector's element parameter.
  expr::ExprRef DenseKeys; ///< Dense sink's key bound; null = hash sink.
  /// The key selector or step may raise ST2001, so the fold runs Generic,
  /// key then step lane by lane in scalar order, instead of evaluating
  /// the key column first.
  bool LaneOrder = false;

  std::size_t RetProfSlot = 0;
  bool ScalarResult = false;
  /// Chain.Ops.size(): the ProfileSink this plan accounts into must have
  /// exactly this many op slots.
  std::size_t NumProfOps = 0;
  /// Elements per batch, captured from STENO_BATCH_SIZE at plan time.
  std::size_t BatchSize = 1024;
};

/// Plans \p C for batched execution; Ok=false (with WhyNot) means the
/// chain keeps the scalar path.
VecPlan planChain(const quil::Chain &C);

/// Bound inputs for one batched execution (mirrors interp::RunInput).
struct BatchInput {
  const std::vector<expr::SourceBuffer> *Sources = nullptr;
  const std::vector<expr::Value> *Values = nullptr;
  /// Per-batch accounting sink; null (or wrongly sized) disables it.
  obs::ProfileSink *Profile = nullptr;
};

/// Executes \p P against \p In. Returns the emitted rows (exactly one for
/// scalar chains). Rows hold no vec payload (the plan guarantees it), so
/// no arena is needed.
std::vector<expr::Value> executeBatched(const VecPlan &P,
                                        const BatchInput &In);

} // namespace vec
} // namespace steno

#endif // STENO_VEC_BATCHEXEC_H
