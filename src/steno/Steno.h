//===- steno/Steno.h - Public optimizer facade -----------------*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The front door: compile a declarative Query into an executable
/// CompiledQuery, choosing a backend.
///
/// \code
///   using namespace steno;
///   using namespace steno::expr::dsl;
///   auto X = param("x", expr::Type::doubleTy());
///   query::Query Q = query::Query::doubleArray(0)
///                        .select(lambda({X}, X * X))
///                        .sum();
///   CompiledQuery CQ = compileQuery(Q, {});
///   Bindings B;
///   B.bindDoubleArray(0, Data.data(), Data.size());
///   double SumSq = CQ.run(B).scalarValue().asDouble();
/// \endcode
///
/// The pipeline mirrors the paper: lower to QUIL (§4.1), validate the
/// grammar (Figure 4), specialize GroupBy-Aggregate (§4.3), generate loop
/// code with the pushdown automaton (§4.2, §5), then either compile and
/// dynamically load it (Native backend, §3.3) or execute the generated
/// AST directly (Interp backend). Compiled queries are cacheable objects,
/// as §7.1 prescribes for amortizing the one-off compilation cost.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_STENO_STENO_H
#define STENO_STENO_STENO_H

#include "analysis/Analysis.h"
#include "analysis/Rewrite.h"
#include "cpptree/Printer.h"
#include "cpptree/Tree.h"
#include "jit/Jit.h"
#include "obs/Profile.h"
#include "query/Query.h"
#include "quil/Quil.h"
#include "steno/Bindings.h"
#include "steno/Result.h"
#include "vec/Batch.h"

#include <memory>
#include <string>

namespace steno {

namespace adapt {
bool adaptEnvEnabled(); // adapt/Adapt.h — fwd-declared to keep this
                        // header free of the adapt dependency.
}

/// Execution strategy for a compiled query.
enum class Backend {
  Interp, ///< Walk the generated loop AST (portable; no compiler needed).
  Native  ///< Compile to a shared object and dlopen it (paper §3.3).
};

/// Knobs for compileQuery.
struct CompileOptions {
  Backend Exec = Backend::Native;
  /// Apply the §4.3 GroupBy-Aggregate specialization pass.
  bool SpecializeGroupByAggregate = true;
  /// Hoist repeated pure subexpressions into locals (§9 CSE).
  bool EnableCse = true;
  /// Static-analysis enforcement (lower -> validate -> analyze ->
  /// specialize -> cse -> codegen). Defaults to the STENO_ANALYZE
  /// environment variable (off | warn | strict; unset means strict).
  analysis::Mode Analyze = analysis::modeFromEnv();
  /// Fact-driven plan rewriting (lower -> validate -> analyze ->
  /// REWRITE -> specialize -> codegen): dead-operator elimination,
  /// constant-predicate dropping, Take/Skip folding, cost×selectivity
  /// predicate reordering and division-trap elision, each justified by a
  /// machine-checkable RewriteCertificate (see analysis/Rewrite.h).
  /// Defaults to the STENO_REWRITE environment variable (on unless set
  /// to "0" or "off"). The QueryCache keys on this flag.
  bool Rewrite = quil::rewriteEnvEnabled();
  /// Collect per-operator runtime statistics (rows in/out, selectivity,
  /// nanoseconds) into the global obs::ProfileStore on every run().
  /// Defaults to the STENO_PROFILE environment variable. Profiled and
  /// unprofiled compilations of the same query are distinct plans (the
  /// generated code differs); the QueryCache keys on this flag.
  bool Profile = obs::profilingEnvEnabled();
  /// Vectorized batch execution (DESIGN.md §5i): on the Interp backend,
  /// vectorizable chains run batch-at-a-time through the steno::vec
  /// kernels over contiguous columns with selection vectors. Chains whose
  /// shape does not fit the columnar model (nested queries, sinks other
  /// than a tail GroupByAggregate, early-exit aggregates, vec-typed
  /// elements) keep the scalar interpreter regardless. The Native backend
  /// always compiles the §4.2 fused loop and ignores this flag.
  /// Defaults to the STENO_VECTORIZE environment variable (on unless set
  /// to "0" or "off"). The QueryCache keys on this flag.
  bool Vectorize = vec::vectorizeEnvEnabled();
  /// Feedback-driven adaptive optimization (DESIGN.md §5j): when the
  /// global adapt::FeedbackStore holds ripe observed statistics for this
  /// plan (decayed selectivity + per-row cost per predicate, above the
  /// minimum-sample threshold), the rewrite phase ranks adjacent Where
  /// runs by observed cost×selectivity instead of the static heuristic.
  /// Every feedback-driven reorder still emits a RewriteCertificate and
  /// is replay-verified before the chain is adopted; verification
  /// failure falls back to the static plan. Plans quarantined by the
  /// ignorance list (repeated mispredictions) are pinned static. Only
  /// meaningful with Rewrite on. Defaults to the STENO_ADAPT
  /// environment variable (on unless set to "0" or "off"). The
  /// QueryCache keys on this flag.
  bool Adaptive = adapt::adaptEnvEnabled();
  /// Entry symbol / readable query name.
  std::string Name = "steno_query";
};

/// An optimized, executable query. Cheap to copy (shared state); reusable
/// across any number of run() calls with different bindings.
class CompiledQuery {
public:
  CompiledQuery() = default;

  /// False for default-constructed handles and failed rehydrations.
  bool valid() const { return I != nullptr; }

  /// Executes against \p B. Aborts with a diagnostic if a slot the query
  /// uses is unbound or has the wrong buffer kind.
  QueryResult run(const Bindings &B) const;

  /// Which engine run() dispatches to.
  Backend backend() const;

  /// The background-recompile hook (steno::serve): wraps \p Module — which
  /// must have been compiled from generatedSource() resolving
  /// program().Name, e.g. via jit::CompileQueue — as the Native-backend
  /// twin of this query. Chain, program, slot usage and analysis state are
  /// shared; only the execution engine changes. Aborts on an invalid
  /// handle or a null module.
  CompiledQuery
  withNativeModule(std::unique_ptr<jit::CompiledModule> Module) const;

  /// The generated C++ source (available for both backends).
  const std::string &generatedSource() const;
  /// One-off compile+load cost in ms (0 for the Interp backend).
  double compileMillis() const;
  /// The generated loop program.
  const cpptree::Program &program() const;
  /// The QUIL chain after optimization passes.
  const quil::Chain &chain() const;
  /// Whether the §4.3 specialization fired.
  bool groupBySpecialized() const;
  /// The analyze phase's findings and parallel-safety certificate
  /// (empty/default when the phase ran in Off mode).
  const analysis::AnalysisResult &analysisResult() const;
  /// The rewriter's outcome: certificates and before/after hashes. Null
  /// when rewriting was disabled or left the chain untouched.
  const quil::RewriteResult *rewriteResult() const;
  /// Provenance: the plan hash this query's chain was rewritten from
  /// (what planHash() would have been with rewriting off), or 0 when the
  /// rewriter did not change the chain. The ProfileStore uses this link
  /// to resolve profiles accumulated under the pre-rewrite plan.
  std::uint64_t rewrittenFromHash() const;
  /// Structural hash of the optimized QUIL chain (quil::hashChain) — the
  /// ProfileStore key. The interp and native plans of one query share a
  /// hash, so serve's backend swap keeps one merged profile. 0 for
  /// rehydrated artifacts (no chain survives persistence).
  std::uint64_t planHash() const;
  /// Whether this query was compiled with profiling hooks.
  bool profiled() const;
  /// Whether the interpreter runs this query batch-at-a-time. False on
  /// the Native backend, when vectorization was disabled, or when the
  /// chain's shape forced the scalar fallback.
  bool vectorized() const;
  /// EXPLAIN ANALYZE-style report of the accumulated profile for this
  /// plan (obs::renderExplainAnalyze over the store snapshot); a
  /// diagnostic line when the plan is unprofiled or never ran.
  std::string explainAnalyze() const;

  /// Opaque shared state (defined in Steno.cpp).
  struct Impl;

private:
  friend CompiledQuery compileQuery(const query::Query &,
                                    const CompileOptions &);
  friend CompiledQuery compileChain(const quil::Chain &,
                                    const CompileOptions &);
  friend struct PersistedQueryArtifact;
  friend class QueryRunner;
  std::shared_ptr<const Impl> I;
};

/// Amortized repeat-execution handle for one CompiledQuery — the inner
/// loop of the morsel runtime. CompiledQuery::run() pays per-call costs
/// that are invisible at query granularity but dominate at morsel
/// granularity: binding re-validation, a tracing span, global metric
/// updates and a heap-allocated profile sink per call. A QueryRunner
/// validates bindings on the first call only, accumulates profile deltas
/// into one reused sink, and merges them into the ProfileStore exactly
/// once (flush() or destruction). Not thread-safe: create one per worker.
class QueryRunner {
public:
  QueryRunner() = default;
  explicit QueryRunner(const CompiledQuery &CQ);
  QueryRunner(QueryRunner &&) = default;
  QueryRunner &operator=(QueryRunner &&) = default;
  ~QueryRunner();

  bool valid() const { return I != nullptr; }

  /// Executes against \p B. Slot usage is validated on the first call
  /// only — callers re-binding buffers between calls must keep the same
  /// slots bound (the morsel runtime rebinds windows of one source).
  QueryResult run(const Bindings &B);

  /// Merges the accumulated profile into the ProfileStore, attributed to
  /// \p Worker, and resets the accumulator. No-op when the query is
  /// unprofiled or nothing ran since the last flush.
  void flush(unsigned Worker = 0);

private:
  std::shared_ptr<const CompiledQuery::Impl> I;
  std::unique_ptr<obs::ProfileSink> Sink;
  bool Checked = false;
  bool Dirty = false;
};

/// Everything needed to rehydrate a Native compiled query without
/// recompiling: the persistence format of the Nectar-style on-disk cache
/// (§7.1's "stored and reused"). Interp-backend queries are not
/// persistable (they carry the full generated AST).
struct PersistedQueryArtifact {
  std::string Name;             ///< Readable query name.
  std::string EntrySymbol;      ///< extern "C" symbol in the object.
  std::string SharedObjectPath; ///< The compiled artifact on disk.
  std::string Source;           ///< Generated source (informational).
  expr::TypeRef ResultType;
  bool ScalarResult = false;
  cpptree::SlotUsage Slots;

  /// Describes a Native compiled query for persistence. Aborts if \p CQ
  /// is not a Native-backend query.
  static PersistedQueryArtifact describe(const CompiledQuery &CQ);

  /// Loads the artifact's shared object and wraps it as a runnable
  /// CompiledQuery. Returns an invalid handle and fills \p Err on
  /// failure (missing/corrupt object, missing symbol).
  CompiledQuery rehydrate(std::string *Err = nullptr) const;
};

/// Lowers, validates, optimizes and code-generates \p Q. Aborts with a
/// diagnostic on grammar violations; returns a runnable query otherwise.
CompiledQuery compileQuery(const query::Query &Q,
                           const CompileOptions &Options = CompileOptions());

/// Compiles an already-lowered QUIL chain (used by the distributed planner,
/// which rewrites chains into per-partition vertex programs before code
/// generation). Validates the chain; optimization passes are the caller's
/// responsibility.
CompiledQuery compileChain(const quil::Chain &Chain,
                           const CompileOptions &Options = CompileOptions());

} // namespace steno

#endif // STENO_STENO_STENO_H
