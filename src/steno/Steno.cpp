//===- steno/Steno.cpp ----------------------------------------*- C++ -*-===//

#include "steno/Steno.h"
#include "adapt/Adapt.h"
#include "codegen/Generator.h"
#include "cpptree/Printer.h"
#include "interp/Interp.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Error.h"
#include "support/StringUtil.h"
#include "support/Timing.h"
#include "vec/BatchExec.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <optional>

using namespace steno;

struct CompiledQuery::Impl {
  quil::Chain Chain;
  cpptree::Program Program;
  cpptree::SlotUsage Slots;
  std::string Source;
  bool Specialized = false;
  analysis::AnalysisResult Analysis;
  steno::Backend ExecBackend = Backend::Interp;
  std::unique_ptr<jit::CompiledModule> Module; // Native backend only
  /// ProfileStore key (quil::hashChain over the optimized chain); 0 for
  /// rehydrated artifacts, which carry no chain.
  std::uint64_t PlanHash = 0;
  /// Whether the generated code carries profiling hooks.
  bool Profile = false;
  /// The rewriter's certificates and hashes; engaged only when it ran
  /// AND changed the chain.
  std::optional<quil::RewriteResult> Rewrite;
  /// The plan hash this chain was rewritten from (0 = not rewritten):
  /// what PlanHash would be with rewriting off, i.e. the hash the same
  /// query registered under in profile stores before rewriting existed.
  std::uint64_t RewrittenFrom = 0;
  /// The interpreter's vectorized batch plan (DESIGN.md §5i). Non-null
  /// only for the Interp backend with CompileOptions::Vectorize on AND a
  /// chain that fits the columnar model.
  std::shared_ptr<const vec::VecPlan> VecPlan;
};

namespace {
/// The analyze phase: runs the static-analysis pipeline per the
/// STENO_ANALYZE mode, prints warnings, and (strict mode) rejects a chain
/// with error-severity findings before codegen spends anything on it.
void analyzePhase(CompiledQuery::Impl &Impl, const CompileOptions &Options,
                  const std::string &Context) {
  if (Options.Analyze == analysis::Mode::Off)
    return;
  obs::Span S("steno.analyze");
  Impl.Analysis = analysis::analyzeChain(Impl.Chain);
  S.arg("diags", static_cast<std::int64_t>(Impl.Analysis.Diags.size()));
  S.arg("errors",
        static_cast<std::int64_t>(Impl.Analysis.Diags.errorCount()));
  S.arg("parallel_safe", Impl.Analysis.Cert.parallelSafe() ? 1 : 0);

  std::string Printable =
      Impl.Analysis.Diags.render(analysis::Severity::Warning);
  if (!Printable.empty())
    std::fprintf(stderr, "steno: analysis of %s '%s':\n%s",
                 Context.c_str(), Options.Name.c_str(), Printable.c_str());

  if (Options.Analyze == analysis::Mode::Strict &&
      Impl.Analysis.Diags.hasErrors())
    support::fatalError(
        support::strFormat("%s '%s' rejected by static analysis (%zu "
                           "error(s)):\n",
                           Context.c_str(), Options.Name.c_str(),
                           Impl.Analysis.Diags.errorCount()) +
        Impl.Analysis.Diags.render(analysis::Severity::Error) +
        "  QUIL: " + Impl.Chain.symbols());
}

/// The ST4xxx diagnostic code describing one rewrite rule.
analysis::DiagCode diagForRule(quil::RewriteRule Rule) {
  using quil::RewriteRule;
  switch (Rule) {
  case RewriteRule::DropTruePred:
    return analysis::DiagCode::RewritePredDropped;
  case RewriteRule::CollapseFalsePred:
    return analysis::DiagCode::RewriteEmptyCollapse;
  case RewriteRule::RemoveDeadOp:
    return analysis::DiagCode::RewriteDeadOpRemoved;
  case RewriteRule::FoldConstCount:
  case RewriteRule::MergeTakeTake:
  case RewriteRule::MergeSkipSkip:
  case RewriteRule::DropSkipZero:
  case RewriteRule::DropRedundantTake:
    return analysis::DiagCode::RewriteTakeSkipFolded;
  case RewriteRule::ReorderPreds:
    return analysis::DiagCode::RewritePredReordered;
  case RewriteRule::ElideDivTrap:
    return analysis::DiagCode::RewriteTrapElided;
  }
  return analysis::DiagCode::RewritePredDropped;
}

/// The rewrite phase: analyze -> REWRITE -> specialize. Replaces the
/// chain with its fact-driven rewrite, records provenance (the plan hash
/// the original chain would have compiled to, so accumulated profiles
/// resolve across the rewrite), and surfaces each certificate as an
/// ST4xxx note when the analysis pipeline is on.
void rewritePhase(CompiledQuery::Impl &Impl, const CompileOptions &Options,
                  bool WillSpecialize) {
  if (!Options.Rewrite)
    return;
  // Cheap syntactic pre-scan: most hot compile paths (select/aggregate
  // over arrays) have nothing a rule could fire on — skip the phase
  // without copying or re-hashing the chain.
  if (!quil::chainHasRewriteTargets(Impl.Chain))
    return;
  obs::Span S("steno.rewrite");
  quil::RewriteOptions RO;
  if (Options.Profile)
    RO.Profile = &obs::ProfileStore::global();

  // Adaptive feedback: hand the rewriter ripe decayed per-predicate
  // statistics for this plan, keyed by the hash the un-rewritten chain
  // will register under (the anchor every plan version resolves to).
  // Quarantined plans (ignorance list) stay on the static heuristic.
  if (Options.Adaptive && obs::ProfileStore::global().size() != 0) {
    quil::Chain Anchor = Impl.Chain;
    if (WillSpecialize) {
      bool Dummy = false;
      Anchor = quil::specializeGroupByAggregate(Anchor, &Dummy);
    }
    std::uint64_t AnchorHash = quil::hashChain(Anchor);
    adapt::FeedbackStore &FS = adapt::FeedbackStore::global();
    if (!FS.ignored(AnchorHash)) {
      FS.refresh(AnchorHash, obs::ProfileStore::global());
      RO.Observed = FS.observedStats(AnchorHash);
    } else {
      // Quarantined: pin the fully static plan. The profile-guided
      // selectivity reorder is observation-driven too, so it stays off
      // for this hash as well.
      RO.Profile = nullptr;
    }
  }

  quil::RewriteResult R = quil::rewriteChain(Impl.Chain, RO);
  S.arg("rewrites", static_cast<std::int64_t>(R.Certs.size()));

  // Every feedback-driven rewrite must carry certificates that survive
  // the replay checker before the chain is adopted; a verification
  // failure (e.g. racing feedback mutation) falls back to the purely
  // static rewrite.
  if (!RO.Observed.empty() && R.Changed) {
    std::string VErr;
    if (quil::verifyCertificates(Impl.Chain, R, RO, &VErr)) {
      static obs::Counter &Verified = obs::counter("adapt.cert_verified");
      Verified.inc();
    } else {
      static obs::Counter &Failed = obs::counter("adapt.cert_failed");
      Failed.inc();
      std::fprintf(stderr,
                   "steno: adaptive rewrite certificate rejected for "
                   "'%s' (%s); using static plan\n",
                   Options.Name.c_str(), VErr.c_str());
      RO.Observed.clear();
      R = quil::rewriteChain(Impl.Chain, RO);
    }
  }
  if (!R.Changed)
    return;

  // Provenance target: the plan hash is computed post-specialize, so the
  // pre-rewrite plan's hash is "the original chain specialized the same
  // way this compile will". That is the key the query registered under
  // before rewriting.
  quil::Chain Original = Impl.Chain;
  if (WillSpecialize) {
    bool Dummy = false;
    Original = quil::specializeGroupByAggregate(Original, &Dummy);
  }
  Impl.RewrittenFrom = quil::hashChain(Original);
  Impl.Chain = R.Rewritten;

  if (Options.Analyze != analysis::Mode::Off)
    for (const quil::RewriteCertificate &C : R.Certs)
      Impl.Analysis.Diags.report(diagForRule(C.Rule),
                                 analysis::Severity::Note, C.Loc,
                                 C.Detail + " [" + C.Fact + "]");
  Impl.Rewrite = std::move(R);
}

void checkBindingsImpl(const cpptree::SlotUsage &Slots,
                       const std::string &Name, const Bindings &B) {
  for (unsigned Slot : Slots.SourceSlots) {
    if (Slot >= B.sources().size())
      support::fatalError(support::strFormat(
          "query '%s' uses source slot %u, which is not bound",
          Name.c_str(), Slot));
    const expr::SourceBuffer &Buf = B.sources()[Slot];
    if (!Buf.DoubleData && !Buf.Int64Data && Buf.Count != 0)
      support::fatalError(support::strFormat(
          "query '%s': source slot %u bound to no buffer", Name.c_str(),
          Slot));
  }
  for (unsigned Slot : Slots.ValueSlots)
    if (Slot >= B.values().size())
      support::fatalError(support::strFormat(
          "query '%s' uses capture slot %u, which is not set",
          Name.c_str(), Slot));
}
} // namespace

QueryResult CompiledQuery::run(const Bindings &B) const {
  if (!I)
    support::fatalError("running a default-constructed CompiledQuery");
  checkBindingsImpl(I->Slots, I->Program.Name, B);

  static obs::Counter &Runs = obs::counter("steno.run.count");
  static obs::Counter &RowsIn = obs::counter("steno.rows.consumed");
  static obs::Counter &RowsOut = obs::counter("steno.rows.emitted");
  static obs::Histogram &RunMicros = obs::histogram(
      "steno.run.micros", {10, 100, 1e3, 1e4, 1e5, 1e6, 1e7});

  std::int64_t Consumed = 0;
  for (unsigned Slot : I->Slots.SourceSlots)
    Consumed += B.sources()[Slot].Count;

  obs::Span Span("steno.run");
  support::WallTimer Timer;

  // Per-run profile sink: plain counters the hot loop bumps without
  // synchronization, merged once into the shared ProfileStore below.
  std::unique_ptr<obs::ProfileSink> Prof;
  if (I->Profile && !I->Program.ProfOps.empty())
    Prof = std::make_unique<obs::ProfileSink>(I->Program.ProfOps.size());

  std::vector<expr::Value> Rows;
  std::shared_ptr<std::deque<std::vector<double>>> Arena;
  if (I->ExecBackend == Backend::Native) {
    jit::ExecOutput Out =
        jit::run(I->Module->entry(), B.sources(), B.values(),
                 I->Program.ResultType,
                 Prof ? Prof->Counts.data() : nullptr,
                 Prof ? Prof->Nanos.data() : nullptr);
    Rows = std::move(Out.Rows);
    Arena = std::move(Out.Arena);
  } else if (I->VecPlan) {
    Rows = vec::executeBatched(*I->VecPlan,
                               {&B.sources(), &B.values(), Prof.get()});
  } else {
    interp::RunInput In;
    In.Sources = &B.sources();
    In.Values = &B.values();
    In.Profile = Prof.get();
    interp::RunOutput Out = interp::execute(I->Program, In);
    Rows = std::move(Out.Rows);
    Arena = std::move(Out.Arena);
  }

  // The universal merge point: every execution path — interp, native,
  // serve's swapped backends, a dryad vertex inside a morsel — funnels
  // its per-run deltas into the store here.
  if (Prof)
    obs::ProfileStore::global().merge(I->PlanHash, *Prof);

  Runs.inc();
  RowsIn.inc(static_cast<std::uint64_t>(Consumed));
  RowsOut.inc(Rows.size());
  RunMicros.observe(Timer.seconds() * 1e6);
  Span.arg("rows_in", Consumed);
  Span.arg("rows_out", static_cast<std::int64_t>(Rows.size()));

  if (I->Program.ScalarResult && Rows.size() != 1)
    support::fatalError("scalar query emitted " +
                        std::to_string(Rows.size()) + " rows");
  return QueryResult(I->Program.ScalarResult, std::move(Rows),
                     std::move(Arena));
}

const std::string &CompiledQuery::generatedSource() const {
  return I->Source;
}

QueryRunner::QueryRunner(const CompiledQuery &CQ) : I(CQ.I) {
  if (!I)
    support::fatalError("QueryRunner over an invalid CompiledQuery");
  if (I->Profile && !I->Program.ProfOps.empty())
    Sink = std::make_unique<obs::ProfileSink>(I->Program.ProfOps.size());
}

QueryRunner::~QueryRunner() {
  if (Sink && Dirty)
    flush(obs::profileWorker());
}

QueryResult QueryRunner::run(const Bindings &B) {
  if (!I)
    support::fatalError("running a default-constructed QueryRunner");
  if (!Checked) {
    checkBindingsImpl(I->Slots, I->Program.Name, B);
    Checked = true;
  }
  std::vector<expr::Value> Rows;
  std::shared_ptr<std::deque<std::vector<double>>> Arena;
  if (I->ExecBackend == Backend::Native) {
    jit::ExecOutput Out =
        jit::run(I->Module->entry(), B.sources(), B.values(),
                 I->Program.ResultType,
                 Sink ? Sink->Counts.data() : nullptr,
                 Sink ? Sink->Nanos.data() : nullptr);
    Rows = std::move(Out.Rows);
    Arena = std::move(Out.Arena);
  } else if (I->VecPlan) {
    Rows = vec::executeBatched(*I->VecPlan,
                               {&B.sources(), &B.values(), Sink.get()});
  } else {
    interp::RunInput In;
    In.Sources = &B.sources();
    In.Values = &B.values();
    In.Profile = Sink.get();
    interp::RunOutput Out = interp::execute(I->Program, In);
    Rows = std::move(Out.Rows);
    Arena = std::move(Out.Arena);
  }
  if (Sink)
    Dirty = true;
  if (I->Program.ScalarResult && Rows.size() != 1)
    support::fatalError("scalar query emitted " +
                        std::to_string(Rows.size()) + " rows");
  return QueryResult(I->Program.ScalarResult, std::move(Rows),
                     std::move(Arena));
}

void QueryRunner::flush(unsigned Worker) {
  if (!Sink || !Dirty)
    return;
  obs::ProfileWorkerScope Scope(Worker);
  obs::ProfileStore::global().merge(I->PlanHash, *Sink);
  std::fill(Sink->Counts.begin(), Sink->Counts.end(), 0);
  std::fill(Sink->Nanos.begin(), Sink->Nanos.end(), 0);
  Dirty = false;
}

Backend CompiledQuery::backend() const { return I->ExecBackend; }

CompiledQuery CompiledQuery::withNativeModule(
    std::unique_ptr<jit::CompiledModule> Module) const {
  if (!I)
    support::fatalError(
        "withNativeModule on a default-constructed CompiledQuery");
  if (!Module)
    support::fatalError("withNativeModule: null module for query '" +
                        I->Program.Name + "'");
  auto Impl = std::make_shared<CompiledQuery::Impl>();
  Impl->Chain = I->Chain;
  Impl->Program = I->Program;
  Impl->Slots = I->Slots;
  Impl->Source = I->Source;
  Impl->Specialized = I->Specialized;
  Impl->Analysis = I->Analysis;
  Impl->ExecBackend = Backend::Native;
  Impl->Module = std::move(Module);
  Impl->PlanHash = I->PlanHash;
  Impl->Profile = I->Profile;
  Impl->Rewrite = I->Rewrite;
  Impl->RewrittenFrom = I->RewrittenFrom;
  CompiledQuery CQ;
  CQ.I = std::move(Impl);
  return CQ;
}

double CompiledQuery::compileMillis() const {
  return I->Module ? I->Module->compileMillis() : 0.0;
}

const cpptree::Program &CompiledQuery::program() const { return I->Program; }

const quil::Chain &CompiledQuery::chain() const { return I->Chain; }

bool CompiledQuery::groupBySpecialized() const { return I->Specialized; }

const analysis::AnalysisResult &CompiledQuery::analysisResult() const {
  return I->Analysis;
}

std::uint64_t CompiledQuery::planHash() const { return I->PlanHash; }

const quil::RewriteResult *CompiledQuery::rewriteResult() const {
  return I->Rewrite ? &*I->Rewrite : nullptr;
}

std::uint64_t CompiledQuery::rewrittenFromHash() const {
  return I->RewrittenFrom;
}

bool CompiledQuery::profiled() const { return I->Profile; }

bool CompiledQuery::vectorized() const { return I->VecPlan != nullptr; }

std::string CompiledQuery::explainAnalyze() const {
  if (!I->Profile)
    return "query '" + I->Program.Name +
           "' was compiled without profiling (set STENO_PROFILE=1 or "
           "CompileOptions::Profile)\n";
  if (auto Snap = obs::ProfileStore::global().snapshotResolved(I->PlanHash))
    return obs::renderExplainAnalyze(*Snap);
  return "no profile recorded yet for query '" + I->Program.Name +
         "' (plan never ran)\n";
}

static std::shared_ptr<CompiledQuery::Impl>
codegenAndLoad(std::shared_ptr<CompiledQuery::Impl> Impl,
               const CompileOptions &Options) {
  // 4. Loop-code generation with the pushdown automaton (§4.2, §5).
  static std::atomic<unsigned> QueryCounter{0};
  std::string Entry = support::sanitizeIdentifier(Options.Name) + "_" +
                      std::to_string(QueryCounter++);
  {
    obs::Span S("steno.codegen");
    codegen::GenOptions Gen;
    Gen.EnableCse = Options.EnableCse;
    Gen.Profile = Options.Profile;
    Impl->Program = codegen::generate(Impl->Chain, Entry, Gen);
    Impl->Slots = cpptree::scanSlots(Impl->Program);
    Impl->Source = cpptree::printProgram(Impl->Program);
  }

  // Vectorized batch planning (§5i): decide once whether the optimized
  // chain fits the interpreter's columnar batch model. The native backend
  // always compiles the §4.2 fused loop printed above, so only Interp
  // plans carry a VecPlan. Chains the planner rejects keep the scalar
  // interpreter.
  if (Options.Vectorize && Options.Exec == Backend::Interp) {
    auto VP = std::make_shared<vec::VecPlan>(vec::planChain(Impl->Chain));
    if (VP->Ok)
      Impl->VecPlan = std::move(VP);
  }

  Impl->PlanHash = quil::hashChain(Impl->Chain);
  // A rewrite that round-trips to the same plan hash (theoretically
  // possible, e.g. a permutation that sorts back) must not create a
  // provenance self-loop.
  if (Impl->RewrittenFrom == Impl->PlanHash)
    Impl->RewrittenFrom = 0;
  Impl->Profile = Options.Profile;
  if (Options.Profile) {
    obs::PlanDesc D;
    D.Name = Options.Name;
    D.Symbols = Impl->Chain.symbols();
    D.RewrittenFrom = Impl->RewrittenFrom;
    for (const cpptree::ProfOp &PO : Impl->Program.ProfOps)
      D.Ops.push_back(obs::ProfOpDesc{PO.Label, PO.Depth, PO.Timed, PO.OpId});
    obs::ProfileStore::global().ensure(Impl->PlanHash, D);
  }

  // 5. Compile, load and bind (§3.3) for the native backend.
  if (Options.Exec == Backend::Native) {
    std::string Err;
    Impl->Module = jit::CompiledModule::compile(Impl->Source, Entry, &Err);
    if (!Impl->Module)
      support::fatalError("JIT compilation of query '" + Options.Name +
                          "' failed: " + Err);
  }
  return Impl;
}

CompiledQuery steno::compileQuery(const query::Query &Q,
                                  const CompileOptions &Options) {
  if (!Q.valid())
    support::fatalError("compiling an invalid query");

  static obs::Counter &Compiles = obs::counter("steno.compile.count");
  static obs::Counter &Specialized =
      obs::counter("steno.compile.specialized");
  static obs::Histogram &CompileMs = obs::histogram(
      "steno.compile.millis", {1, 5, 10, 25, 50, 100, 250, 500, 1e3, 5e3});

  obs::Span CompileSpan("steno.compile");
  support::WallTimer Timer;

  auto Impl = std::make_shared<CompiledQuery::Impl>();
  Impl->ExecBackend = Options.Exec;

  // 1. Lower to QUIL (§4.1) and check the grammar (Figure 4).
  {
    obs::Span S("steno.lower");
    Impl->Chain = quil::lower(Q);
  }
  {
    obs::Span S("steno.validate");
    if (auto Err = quil::validate(Impl->Chain))
      support::fatalError("invalid query '" + Options.Name + "': " + *Err +
                          "\n  query: " + Q.str() +
                          "\n  QUIL:  " + Impl->Chain.symbols());
  }

  // 2. Static analysis: types, effects, constant ranges (rejects in
  // strict mode before any further work is spent on the chain).
  analyzePhase(*Impl, Options, "query");

  // 2b. Certificate-gated plan rewriting over the analysis facts.
  rewritePhase(*Impl, Options,
               /*WillSpecialize=*/Options.SpecializeGroupByAggregate);

  // 3. Operator specialization (§4.3).
  if (Options.SpecializeGroupByAggregate) {
    obs::Span S("steno.specialize");
    Impl->Chain =
        quil::specializeGroupByAggregate(Impl->Chain, &Impl->Specialized);
  }

  CompiledQuery CQ;
  CQ.I = codegenAndLoad(std::move(Impl), Options);

  Compiles.inc();
  if (CQ.I->Specialized)
    Specialized.inc();
  CompileMs.observe(Timer.millis());
  return CQ;
}

PersistedQueryArtifact
PersistedQueryArtifact::describe(const CompiledQuery &CQ) {
  const CompiledQuery::Impl &I = *CQ.I;
  if (!I.Module)
    support::fatalError(
        "only Native-backend queries can be persisted (query '" +
        I.Program.Name + "')");
  PersistedQueryArtifact A;
  A.Name = I.Program.Name;
  A.EntrySymbol = I.Program.Name;
  A.SharedObjectPath = I.Module->objectPath();
  A.Source = I.Source;
  A.ResultType = I.Program.ResultType;
  A.ScalarResult = I.Program.ScalarResult;
  A.Slots = I.Slots;
  return A;
}

CompiledQuery PersistedQueryArtifact::rehydrate(std::string *Err) const {
  std::string LoadErr;
  std::unique_ptr<jit::CompiledModule> Module =
      jit::CompiledModule::load(SharedObjectPath, EntrySymbol, &LoadErr);
  if (!Module) {
    if (Err)
      *Err = LoadErr;
    return CompiledQuery();
  }
  auto Impl = std::make_shared<CompiledQuery::Impl>();
  Impl->ExecBackend = Backend::Native;
  Impl->Program.Name = EntrySymbol;
  Impl->Program.ResultType = ResultType;
  Impl->Program.ScalarResult = ScalarResult;
  Impl->Slots = Slots;
  Impl->Source = Source;
  Impl->Module = std::move(Module);
  CompiledQuery CQ;
  CQ.I = std::move(Impl);
  return CQ;
}

CompiledQuery steno::compileChain(const quil::Chain &Chain,
                                  const CompileOptions &Options) {
  static obs::Counter &Compiles = obs::counter("steno.compile.count");

  obs::Span CompileSpan("steno.compile");
  auto Impl = std::make_shared<CompiledQuery::Impl>();
  Impl->ExecBackend = Options.Exec;
  Impl->Chain = Chain;
  {
    obs::Span S("steno.validate");
    if (auto Err = quil::validate(Impl->Chain))
      support::fatalError("invalid chain '" + Options.Name + "': " + *Err +
                          "\n  QUIL: " + Impl->Chain.symbols());
  }
  analyzePhase(*Impl, Options, "chain");
  // compileChain never specializes, so provenance hashes the chain as-is.
  rewritePhase(*Impl, Options, /*WillSpecialize=*/false);
  CompiledQuery CQ;
  CQ.I = codegenAndLoad(std::move(Impl), Options);
  Compiles.inc();
  return CQ;
}
