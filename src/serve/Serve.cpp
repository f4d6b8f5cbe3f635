//===- serve/Serve.cpp - Concurrent query service --------------*- C++ -*-===//

#include "serve/Serve.h"

#include "adapt/Adapt.h"
#include "analysis/Analysis.h"
#include "dryad/Dist.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "quil/Quil.h"
#include "support/Timing.h"

#include <chrono>
#include <cstdio>
#include <future>

using namespace steno;
using namespace steno::serve;

const char *serve::statusName(Status S) {
  switch (S) {
  case Status::Ok:
    return "ok";
  case Status::Timeout:
    return "timeout";
  case Status::Shed:
    return "shed";
  case Status::Error:
    return "error";
  }
  return "?";
}

namespace {

/// Backends are compiled with analysis off: prepare() already screened
/// the chain, and strict mode inside compileQuery would abort the
/// process on what should be a per-request error.
CompileOptions planOptions(Backend B, bool Profile) {
  CompileOptions CO;
  CO.Exec = B;
  CO.Analyze = analysis::Mode::Off;
  CO.Profile = Profile;
  // The baseline (v1) plan is deliberately non-adaptive: it is the
  // stable static anchor the feedback accumulates against. Feedback
  // enters only through the explicit re-plan path below.
  CO.Adaptive = false;
  CO.Name = "serve_query";
  return CO;
}

/// Compile options for a feedback-replanned (v2+) plan version.
CompileOptions adaptPlanOptions(Backend B, bool Profile) {
  CompileOptions CO = planOptions(B, Profile);
  CO.Adaptive = true;
  CO.Name = "serve_adapt";
  return CO;
}

struct ServeMetrics {
  obs::Counter &Sessions = obs::counter("serve.sessions");
  obs::Counter &Prepares = obs::counter("serve.prepares");
  obs::Counter &Requests = obs::counter("serve.requests");
  obs::Counter &Ok = obs::counter("serve.ok");
  obs::Counter &Shed = obs::counter("serve.admission.shed");
  obs::Counter &Timeouts = obs::counter("serve.timeouts");
  obs::Counter &Errors = obs::counter("serve.errors");
  obs::Counter &Degraded = obs::counter("serve.degraded_runs");
  obs::Counter &NativeRuns = obs::counter("serve.native_runs");
  obs::Counter &PartialRuns = obs::counter("serve.partial_runs");
  obs::Counter &RecompSched = obs::counter("serve.recompile.scheduled");
  obs::Counter &RecompDone = obs::counter("serve.recompile.done");
  obs::Counter &RecompFailed = obs::counter("serve.recompile.failed");
  obs::Counter &RecompSaturated =
      obs::counter("serve.recompile.saturated");
  obs::Counter &Replans = obs::counter("adapt.replans");
  obs::Counter &ReplanSwaps = obs::counter("adapt.swaps");
  obs::Counter &AdaptReverted = obs::counter("adapt.reverted");
  obs::Gauge &QueueDepth = obs::gauge("serve.queue.depth");
  obs::Histogram &RequestMicros = obs::histogram(
      "serve.request.micros", {10, 100, 1e3, 1e4, 1e5, 1e6, 1e7});
  obs::Histogram &QueueMicros = obs::histogram(
      "serve.queue.micros", {10, 100, 1e3, 1e4, 1e5, 1e6, 1e7});
};

ServeMetrics &metrics() {
  static ServeMetrics M;
  return M;
}

} // namespace

double PreparedQuery::nativeCompileMillis() const {
  if (!NativeReady.load(std::memory_order_acquire))
    return 0.0;
  return NativePlan.compileMillis();
}

//===--------------------------------------------------------------------===//
// Session
//===--------------------------------------------------------------------===//

PreparedHandle Session::prepare(const std::string &SpecText,
                                std::string *Err) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Prepared.find(SpecText);
    if (It != Prepared.end())
      return It->second;
  }
  PreparedHandle P = Svc.prepare(SpecText, Err);
  if (!P)
    return nullptr;
  std::lock_guard<std::mutex> Lock(Mutex);
  // Another thread on this session may have prepared meanwhile; keep the
  // first so the session's handle for one text stays stable.
  return Prepared.emplace(SpecText, P).first->second;
}

Response Session::execute(const PreparedHandle &P,
                          std::chrono::milliseconds Deadline) {
  return Svc.execute(P, Deadline);
}

Response Session::execute(const PreparedHandle &P) {
  return Svc.execute(P, Svc.options().DefaultDeadline);
}

Response Session::executeSpec(const std::string &SpecText,
                              std::chrono::milliseconds Deadline) {
  std::string Err;
  PreparedHandle P = prepare(SpecText, &Err);
  if (!P) {
    Response R;
    R.St = Status::Error;
    R.Message = Err;
    return R;
  }
  return execute(P, Deadline);
}

//===--------------------------------------------------------------------===//
// QueryService
//===--------------------------------------------------------------------===//

struct QueryService::RequestState {
  std::promise<Response> Promise;
  PreparedHandle P;
  std::chrono::steady_clock::time_point Deadline;
  support::WallTimer QueueTimer;
  std::uint64_t Id = 0;
  /// Shard-partial request (executePartial): run the §6 vertex over
  /// [Begin, Begin+Len) of source slot 0 instead of the whole plan.
  bool Partial = false;
  std::size_t Begin = 0, Len = 0;
};

QueryService::QueryService(const ServeOptions &O)
    : Options(O), OwnedCache(O.Cache ? nullptr : new QueryCache()),
      Cache(O.Cache ? O.Cache : OwnedCache.get()),
      CompileQ(O.CompileWorkers, O.MaxCompileQueue),
      Exec(O.Workers ? O.Workers : 1) {}

QueryService::~QueryService() {
  Closed.store(true, std::memory_order_relaxed);
  // Members destroy in reverse declaration order: the execution pool
  // drains its accepted requests first (fulfilling every outstanding
  // promise), then the compile queue finishes its jobs (whose callbacks
  // still see live stats and cache), then the rest of the service.
}

std::shared_ptr<Session> QueryService::openSession() {
  metrics().Sessions.inc();
  NSessions.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t Id = NextSessionId.fetch_add(1, std::memory_order_relaxed);
  // make_shared needs a public constructor; Session's is private to us.
  return std::shared_ptr<Session>(new Session(*this, Id));
}

PreparedHandle QueryService::prepare(const std::string &SpecText,
                                     std::string *Err) {
  auto fail = [&](const std::string &M) {
    if (Err)
      *Err = M;
    return PreparedHandle();
  };
  if (Closed.load(std::memory_order_relaxed))
    return fail("service is shutting down");

  obs::Span Span("serve.prepare");
  fuzz::QuerySpec Spec;
  std::string E;
  if (!fuzz::parseSpec(SpecText, Spec, &E))
    return fail("spec parse error: " + E);

  auto P = std::make_shared<PreparedQuery>();
  P->Spec = Spec;
  P->SpecText = SpecText;
  if (!fuzz::buildSpec(Spec, P->Built, &E))
    return fail("spec build error: " + E);

  // Pre-screen through the front end so a bad request is a clean error,
  // never a strict-mode abort inside compileQuery.
  quil::Chain Chain = quil::lower(P->Built.Q);
  if (auto VErr = quil::validate(Chain))
    return fail("invalid query: " + *VErr);
  analysis::AnalysisResult Analyzed = analysis::analyzeChain(Chain);
  if (!Analyzed.ok())
    return fail("rejected by analysis: " +
                Analyzed.Diags.render(analysis::Severity::Error));

  // The interpreter plan is ready in milliseconds; the native plan (if
  // wanted) arrives later via the background swap. QueryCache makes
  // re-preparing a structurally equal query a hit sharing one module.
  P->InterpPlan = Cache->getOrCompile(
      P->Built.Q, planOptions(Backend::Interp, Options.Profile));

  metrics().Prepares.inc();
  NPrepares.fetch_add(1, std::memory_order_relaxed);

  if (Options.BackgroundRecompile)
    scheduleRecompile(P);
  return P;
}

bool QueryService::scheduleRecompile(const PreparedHandle &P) {
  if (!P || P->NativeReady.load(std::memory_order_acquire))
    return false;
  int Expected = 0;
  if (!P->RecompileState.compare_exchange_strong(
          Expected, 1, std::memory_order_acq_rel))
    return false; // already in flight or done

  // Another handle for the same structure may have finished first; the
  // cache peek turns that into an immediate swap with no compiler run.
  CompiledQuery Cached = Cache->lookup(
      P->Built.Q, planOptions(Backend::Native, Options.Profile));
  if (Cached.valid()) {
    P->NativePlan = std::move(Cached);
    P->NativeReady.store(true, std::memory_order_release);
    P->RecompileState.store(2, std::memory_order_release);
    metrics().RecompDone.inc();
    NRecompDone.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  PreparedHandle Handle = P; // keep the query alive across the compile
  bool Submitted = CompileQ.trySubmit(
      P->InterpPlan.generatedSource(), P->InterpPlan.program().Name,
      [this, Handle](std::unique_ptr<jit::CompiledModule> Module,
                     std::string Err) {
        if (!Module) {
          // Back to idle: a later execute may retry once the toolchain
          // recovers. The request path is unaffected (stays interpreted).
          Handle->RecompileState.store(0, std::memory_order_release);
          metrics().RecompFailed.inc();
          NRecompFailed.fetch_add(1, std::memory_order_relaxed);
          std::fprintf(stderr, "steno-serve: background recompile of '%s' "
                               "failed: %s\n",
                       Handle->InterpPlan.program().Name.c_str(),
                       Err.c_str());
          return;
        }
        CompiledQuery Native =
            Handle->InterpPlan.withNativeModule(std::move(Module));
        // Publish to the cache first (first insert wins, so concurrent
        // recompiles of equal queries converge on one module), then swap.
        Native = Cache->insert(
            Handle->Built.Q,
            planOptions(Backend::Native, Options.Profile),
            std::move(Native));
        Handle->NativePlan = std::move(Native);
        Handle->NativeReady.store(true, std::memory_order_release);
        Handle->RecompileState.store(2, std::memory_order_release);
        metrics().RecompDone.inc();
        NRecompDone.fetch_add(1, std::memory_order_relaxed);
      });

  if (!Submitted) {
    // Saturated compile queue: degrade (stay interpreted) and leave the
    // state idle so a later execute retries.
    P->RecompileState.store(0, std::memory_order_release);
    metrics().RecompSaturated.inc();
    NRecompSaturated.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  metrics().RecompSched.inc();
  NRecompSched.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void QueryService::drainRecompiles() { CompileQ.drain(); }

//===--------------------------------------------------------------------===//
// Shard-partial execution (steno::shard, DESIGN.md §5k)
//===--------------------------------------------------------------------===//

void QueryService::buildPartial(const PreparedHandle &P) {
  auto PS = std::make_unique<PreparedQuery::PartialState>();

  // Re-derive the specialized chain: prepare() screened the raw lowering,
  // but the §6 planner wants the same shape DistributedQuery plans —
  // GroupByAggregate specialized so dense sinks split into partials.
  quil::Chain Chain = quil::lower(P->Built.Q);
  Chain = quil::specializeGroupByAggregate(Chain);
  analysis::AnalysisResult Analyzed = analysis::analyzeChain(Chain);
  PS->Cert = Analyzed.Cert;

  std::string WhyNot;
  std::optional<dryad::ParallelPlan> Plan;
  if (!PS->Cert.shardSafe()) {
    WhyNot = "analyzer refused certification (" + PS->Cert.str() + ")";
  } else {
    Plan = dryad::planParallel(Chain, &WhyNot);
  }
  if (!Plan) {
    PS->WhyNot = std::move(WhyNot);
    P->Partial = std::move(PS);
    return;
  }

  PS->Splittable = true;
  PS->Plan = std::move(*Plan);
  CompileOptions VO = planOptions(Backend::Interp, Options.Profile);
  VO.SpecializeGroupByAggregate = false; // already applied
  VO.Name = "serve_vertex";
  PS->VertexInterp = compileChain(PS->Plan.VertexChain, VO);
  P->Partial = std::move(PS);
}

const PreparedQuery::PartialState *
QueryService::preparePartial(const PreparedHandle &P) {
  if (!P)
    return nullptr;
  std::call_once(P->PartialOnce, [&] { buildPartial(P); });
  PreparedQuery::PartialState *PS = P->Partial.get();
  // Same retry-the-upgrade policy as execute(): a saturated compile
  // queue at first pexec time degrades, later pexecs retry.
  if (PS && PS->Splittable && Options.BackgroundRecompile &&
      !PS->VertexNativeReady.load(std::memory_order_acquire) &&
      PS->VertexRecompile.load(std::memory_order_acquire) == 0 &&
      !CompileQ.saturated())
    scheduleVertexRecompile(P);
  return PS;
}

bool QueryService::scheduleVertexRecompile(const PreparedHandle &P) {
  PreparedQuery::PartialState *PS = P->Partial.get();
  if (!PS || !PS->Splittable ||
      PS->VertexNativeReady.load(std::memory_order_acquire))
    return false;
  int Expected = 0;
  if (!PS->VertexRecompile.compare_exchange_strong(
          Expected, 1, std::memory_order_acq_rel))
    return false; // already in flight or done

  // Deliberately not through the QueryCache: vertex plans are keyed by
  // the *partial* chain, not the query the cache indexes, and one handle
  // recompiles its vertex at most once.
  PreparedHandle Handle = P;
  bool Submitted = CompileQ.trySubmit(
      PS->VertexInterp.generatedSource(), PS->VertexInterp.program().Name,
      [this, Handle](std::unique_ptr<jit::CompiledModule> Module,
                     std::string Err) {
        PreparedQuery::PartialState *S = Handle->Partial.get();
        if (!Module) {
          S->VertexRecompile.store(0, std::memory_order_release);
          metrics().RecompFailed.inc();
          NRecompFailed.fetch_add(1, std::memory_order_relaxed);
          std::fprintf(stderr, "steno-serve: vertex recompile of '%s' "
                               "failed: %s\n",
                       S->VertexInterp.program().Name.c_str(),
                       Err.c_str());
          return;
        }
        S->VertexNative =
            S->VertexInterp.withNativeModule(std::move(Module));
        S->VertexNativeReady.store(true, std::memory_order_release);
        S->VertexRecompile.store(2, std::memory_order_release);
        metrics().RecompDone.inc();
        NRecompDone.fetch_add(1, std::memory_order_relaxed);
      });

  if (!Submitted) {
    PS->VertexRecompile.store(0, std::memory_order_release);
    metrics().RecompSaturated.inc();
    NRecompSaturated.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  metrics().RecompSched.inc();
  NRecompSched.fetch_add(1, std::memory_order_relaxed);
  return true;
}

Response QueryService::executePartial(const PreparedHandle &P,
                                      std::size_t Begin, std::size_t Len,
                                      std::chrono::milliseconds Deadline) {
  ServeMetrics &M = metrics();
  Response Rsp;
  Rsp.Id = NextRequestId.fetch_add(1, std::memory_order_relaxed);
  auto fail = [&](const std::string &Msg) {
    Rsp.St = Status::Error;
    Rsp.Message = Msg;
    M.Errors.inc();
    NErrors.fetch_add(1, std::memory_order_relaxed);
    return Rsp;
  };

  if (!P)
    return fail("null prepared handle");
  if (Closed.load(std::memory_order_relaxed))
    return fail("service is shutting down");

  const PreparedQuery::PartialState *PS = preparePartial(P);
  if (!PS->Splittable)
    return fail("query is not splittable: " + PS->WhyNot);
  const auto &Sources = P->bindings().sources();
  std::size_t Count =
      (Sources.empty() || Sources[0].Count < 0)
          ? 0
          : static_cast<std::size_t>(Sources[0].Count);
  if (Begin > Count || Len > Count - Begin)
    return fail("partial range [" + std::to_string(Begin) + ", +" +
                std::to_string(Len) + ") out of bounds for source of " +
                std::to_string(Count));

  // Admission gate, identical to execute(): partial requests share the
  // same queued + executing bound.
  std::int64_t Depth = InFlight.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (Depth > static_cast<std::int64_t>(Options.MaxQueue)) {
    InFlight.fetch_sub(1, std::memory_order_acq_rel);
    Rsp.St = Status::Shed;
    M.Shed.inc();
    NShed.fetch_add(1, std::memory_order_relaxed);
    return Rsp;
  }
  M.QueueDepth.set(Depth);
  M.Requests.inc();
  NAccepted.fetch_add(1, std::memory_order_relaxed);

  auto R = std::make_shared<RequestState>();
  R->P = P;
  R->Deadline = std::chrono::steady_clock::now() + Deadline;
  R->Id = Rsp.Id;
  R->Partial = true;
  R->Begin = Begin;
  R->Len = Len;
  std::future<Response> Fut = R->Promise.get_future();

  if (!Exec.submit([this, R] { runRequest(R); })) {
    Rsp.St = Status::Error;
    Rsp.Message = "service is shutting down";
    M.Errors.inc();
    NErrors.fetch_add(1, std::memory_order_relaxed);
    InFlight.fetch_sub(1, std::memory_order_acq_rel);
    return Rsp;
  }
  return Fut.get();
}

//===--------------------------------------------------------------------===//
// Adaptive re-planning (DESIGN.md §5j)
//===--------------------------------------------------------------------===//

std::uint64_t QueryService::feedbackAnchor(const PreparedQuery &P) const {
  // Feedback is keyed by the pre-rewrite (anchor) hash: the one hash
  // every plan version of this query — static v1, feedback v2, v3 — has
  // provenance edges to, so snapshotResolved() folds them all.
  std::uint64_t RF = P.InterpPlan.rewrittenFromHash();
  return RF ? RF : P.InterpPlan.planHash();
}

void QueryService::publishAdaptive(const PreparedHandle &P,
                                   CompiledQuery Plan) {
  {
    std::lock_guard<std::mutex> Lock(P->AdaptMutex);
    P->AdaptPlan = std::make_shared<const CompiledQuery>(std::move(Plan));
    P->AdaptState = 2;
  }
  // Fresh judgement window for the new version.
  P->AdaptRuns.store(0, std::memory_order_relaxed);
  P->AdaptNanos.store(0, std::memory_order_relaxed);
  metrics().ReplanSwaps.inc();
  NReplanSwaps.fetch_add(1, std::memory_order_relaxed);
}

bool QueryService::scheduleAdaptiveReplan(const PreparedHandle &P) {
  if (!P || Closed.load(std::memory_order_relaxed) || !Options.Profile)
    return false;
  if (P->Pinned.load(std::memory_order_relaxed))
    return false;
  std::uint64_t Anchor = feedbackAnchor(*P);
  adapt::FeedbackStore &FS = adapt::FeedbackStore::global();
  if (FS.ignored(Anchor)) {
    // Quarantined before this handle existed (or by a sibling handle):
    // pin without attempting a compile.
    if (!P->Pinned.exchange(true, std::memory_order_relaxed))
      NAdaptPinned.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  // Claim the compile slot. A live v2 may be re-planned into a v3; a
  // compile already in flight is left alone.
  int PrevState;
  {
    std::lock_guard<std::mutex> Lock(P->AdaptMutex);
    if (P->AdaptState == 1)
      return false;
    PrevState = P->AdaptState;
    P->AdaptState = 1;
  }
  auto Restore = [&] {
    std::lock_guard<std::mutex> Lock(P->AdaptMutex);
    P->AdaptState = PrevState;
  };
  metrics().Replans.inc();
  NReplans.fetch_add(1, std::memory_order_relaxed);

  // Compile the feedback version synchronously on the interpreter
  // backend (milliseconds — same budget as prepare). Deliberately NOT
  // through the QueryCache: feedback evolves between replans, so a v3
  // must not be served a stale cached v2.
  CompiledQuery V2 = compileQuery(
      P->Built.Q, adaptPlanOptions(Backend::Interp, Options.Profile));

  std::uint64_t CurHash;
  {
    std::lock_guard<std::mutex> Lock(P->AdaptMutex);
    CurHash = P->AdaptPlan ? P->AdaptPlan->planHash()
                           : P->InterpPlan.planHash();
  }
  if (!V2.valid() || V2.planHash() == CurHash) {
    // Feedback reproduced the running plan: nothing to swap.
    Restore();
    NReplanNoChange.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  if (!Options.BackgroundRecompile) {
    publishAdaptive(P, std::move(V2));
    return true;
  }
  if (!P->nativeReady()) {
    // The native v1 is still in flight; swapping a slower interpreted
    // v2 over it would regress the handle for the wrong reason. Retry
    // at the next cadence point.
    Restore();
    return false;
  }

  // Native mode: compile v2's generated source on the background queue
  // and publish the native twin from the completion callback — the same
  // machinery as the interp->native swap.
  auto V2Shared = std::make_shared<CompiledQuery>(std::move(V2));
  PreparedHandle Handle = P;
  bool Submitted = CompileQ.trySubmit(
      V2Shared->generatedSource(), V2Shared->program().Name,
      [this, Handle, V2Shared](std::unique_ptr<jit::CompiledModule> Module,
                               std::string Err) {
        if (!Module) {
          {
            std::lock_guard<std::mutex> Lock(Handle->AdaptMutex);
            Handle->AdaptState = Handle->AdaptPlan ? 2 : 0;
          }
          metrics().RecompFailed.inc();
          NRecompFailed.fetch_add(1, std::memory_order_relaxed);
          std::fprintf(stderr, "steno-serve: adaptive recompile of '%s' "
                               "failed: %s\n",
                       V2Shared->program().Name.c_str(), Err.c_str());
          return;
        }
        publishAdaptive(Handle,
                        V2Shared->withNativeModule(std::move(Module)));
      });
  if (!Submitted) {
    Restore();
    metrics().RecompSaturated.inc();
    NRecompSaturated.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void QueryService::judgeAdaptive(const PreparedHandle &P) {
  double BRuns =
      static_cast<double>(P->BaseRuns.load(std::memory_order_relaxed));
  double BNanos =
      static_cast<double>(P->BaseNanos.load(std::memory_order_relaxed));
  double ARuns =
      static_cast<double>(P->AdaptRuns.load(std::memory_order_relaxed));
  double ANanos =
      static_cast<double>(P->AdaptNanos.load(std::memory_order_relaxed));
  double BaseMean = BRuns > 0 ? BNanos / BRuns / 1e3 : 0.0;
  double AdaptMean = ARuns > 0 ? ANanos / ARuns / 1e3 : 0.0;

  bool Regressed =
      Options.AdaptJudge
          ? Options.AdaptJudge(BaseMean, AdaptMean)
          : (BaseMean > 0.0 &&
             AdaptMean > BaseMean * (1.0 + Options.AdaptSlack));

  std::uint64_t Anchor = feedbackAnchor(*P);
  adapt::FeedbackStore &FS = adapt::FeedbackStore::global();
  if (!Regressed) {
    FS.recordGoodPrediction(Anchor);
    return;
  }

  // Misprediction: revert to the static plan and strike the plan hash.
  {
    std::lock_guard<std::mutex> Lock(P->AdaptMutex);
    if (P->AdaptState != 2)
      return; // already reverted or being replaced
    P->AdaptPlan = nullptr;
    P->AdaptState = 0;
  }
  P->AdaptRuns.store(0, std::memory_order_relaxed);
  P->AdaptNanos.store(0, std::memory_order_relaxed);
  metrics().AdaptReverted.inc();
  NAdaptReverted.fetch_add(1, std::memory_order_relaxed);
  if (FS.recordMisprediction(Anchor)) {
    if (!P->Pinned.exchange(true, std::memory_order_relaxed))
      NAdaptPinned.fetch_add(1, std::memory_order_relaxed);
  }
}

Response QueryService::execute(const PreparedHandle &P,
                               std::chrono::milliseconds Deadline) {
  ServeMetrics &M = metrics();
  Response Rsp;
  Rsp.Id = NextRequestId.fetch_add(1, std::memory_order_relaxed);

  if (!P) {
    Rsp.St = Status::Error;
    Rsp.Message = "null prepared handle";
    M.Errors.inc();
    NErrors.fetch_add(1, std::memory_order_relaxed);
    return Rsp;
  }
  if (Closed.load(std::memory_order_relaxed)) {
    Rsp.St = Status::Error;
    Rsp.Message = "service is shutting down";
    M.Errors.inc();
    NErrors.fetch_add(1, std::memory_order_relaxed);
    return Rsp;
  }

  // A handle that degraded because the compile queue was saturated at
  // prepare time retries its upgrade here, once the queue has room.
  if (Options.BackgroundRecompile && !P->nativeReady() &&
      P->RecompileState.load(std::memory_order_acquire) == 0 &&
      !CompileQ.saturated())
    scheduleRecompile(P);

  // Admission gate: bound queued + executing requests.
  std::int64_t Depth = InFlight.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (Depth > static_cast<std::int64_t>(Options.MaxQueue)) {
    InFlight.fetch_sub(1, std::memory_order_acq_rel);
    Rsp.St = Status::Shed;
    M.Shed.inc();
    NShed.fetch_add(1, std::memory_order_relaxed);
    return Rsp;
  }
  M.QueueDepth.set(Depth);
  M.Requests.inc();
  NAccepted.fetch_add(1, std::memory_order_relaxed);

  auto R = std::make_shared<RequestState>();
  R->P = P;
  R->Deadline = std::chrono::steady_clock::now() + Deadline;
  R->Id = Rsp.Id;
  std::future<Response> Fut = R->Promise.get_future();

  if (!Exec.submit([this, R] { runRequest(R); })) {
    // Pool shutting down: answer inline (still exactly one response).
    Rsp.St = Status::Error;
    Rsp.Message = "service is shutting down";
    M.Errors.inc();
    NErrors.fetch_add(1, std::memory_order_relaxed);
    InFlight.fetch_sub(1, std::memory_order_acq_rel);
    return Rsp;
  }
  return Fut.get();
}

void QueryService::runRequest(const std::shared_ptr<RequestState> &R) {
  ServeMetrics &M = metrics();
  // Request-id propagation: every child span of this request's execution
  // (steno.run, jit.*, ...) nests under a span naming the request.
  obs::Span ReqSpan("serve.request");
  ReqSpan.arg("request_id", static_cast<std::int64_t>(R->Id));
  Response Rsp;
  Rsp.Id = R->Id;
  Rsp.QueueMicros = R->QueueTimer.seconds() * 1e6;
  M.QueueMicros.observe(Rsp.QueueMicros);

  if (std::chrono::steady_clock::now() > R->Deadline) {
    Rsp.St = Status::Timeout;
    M.Timeouts.inc();
    NTimeouts.fetch_add(1, std::memory_order_relaxed);
    finish(*R, std::move(Rsp));
    return;
  }

  if (Options.ExecHook)
    Options.ExecHook();

  if (R->Partial) {
    // Shard-partial path: run the §6 vertex over the request's source
    // range and answer with the *partial* — no adaptive bookkeeping
    // (partials are combined by the router; judging them against
    // whole-query latency would be apples to oranges).
    const PreparedQuery::PartialState &PS = *R->P->Partial;
    bool Native = PS.VertexNativeReady.load(std::memory_order_acquire);
    const CompiledQuery &Plan = Native ? PS.VertexNative : PS.VertexInterp;
    support::WallTimer RunTimer;
    Bindings Range = dryad::bindingRange(R->P->bindings(), 0, R->Begin,
                                         R->Len);
    Rsp.Result = Plan.run(Range);
    Rsp.RunMicros = RunTimer.seconds() * 1e6;
    Rsp.St = Status::Ok;
    Rsp.NativePlan = Native;
    Rsp.Degraded = !Native && Options.BackgroundRecompile;
    M.Ok.inc();
    NOk.fetch_add(1, std::memory_order_relaxed);
    M.PartialRuns.inc();
    NPartialRuns.fetch_add(1, std::memory_order_relaxed);
    if (Native) {
      M.NativeRuns.inc();
      NNativeRuns.fetch_add(1, std::memory_order_relaxed);
    }
    if (Rsp.Degraded) {
      M.Degraded.inc();
      NDegraded.fetch_add(1, std::memory_order_relaxed);
    }
    M.RequestMicros.observe(Rsp.QueueMicros + Rsp.RunMicros);
    finish(*R, std::move(Rsp));
    return;
  }

  PreparedQuery &P = *R->P;
  bool Native = P.NativeReady.load(std::memory_order_acquire);
  // A live feedback-replanned version takes precedence. The shared_ptr
  // is copied under the lock, so a concurrent revert or re-swap never
  // frees a plan this request is about to run.
  std::shared_ptr<const CompiledQuery> Adaptive;
  if (Options.AdaptiveReplan && Options.Profile &&
      !P.Pinned.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> Lock(P.AdaptMutex);
    if (P.AdaptState == 2)
      Adaptive = P.AdaptPlan;
  }
  // InterpPlan is immutable after prepare; NativePlan is published by the
  // release store NativeReady observes (see PreparedQuery).
  const CompiledQuery &Plan =
      Adaptive ? *Adaptive : (Native ? P.NativePlan : P.InterpPlan);

  support::WallTimer RunTimer;
  Rsp.Result = Plan.run(P.bindings());
  Rsp.RunMicros = RunTimer.seconds() * 1e6;
  Rsp.St = Status::Ok;
  Rsp.NativePlan =
      Adaptive ? Adaptive->backend() == Backend::Native : Native;
  Rsp.AdaptivePlan = Adaptive != nullptr;
  Rsp.Degraded = !Rsp.NativePlan && Options.BackgroundRecompile;

  std::uint64_t Execs = P.Execs.fetch_add(1, std::memory_order_relaxed) + 1;
  M.Ok.inc();
  NOk.fetch_add(1, std::memory_order_relaxed);
  if (Rsp.NativePlan) {
    M.NativeRuns.inc();
    NNativeRuns.fetch_add(1, std::memory_order_relaxed);
  }
  if (Rsp.Degraded) {
    M.Degraded.inc();
    NDegraded.fetch_add(1, std::memory_order_relaxed);
  }
  M.RequestMicros.observe(Rsp.QueueMicros + Rsp.RunMicros);

  // Latency accounting for the post-swap judgement, then answer the
  // client before any adaptive bookkeeping compiles anything.
  std::uint64_t RunNanos =
      static_cast<std::uint64_t>(Rsp.RunMicros * 1e3);
  bool Judge = false;
  if (Adaptive) {
    NAdaptiveRuns.fetch_add(1, std::memory_order_relaxed);
    P.AdaptNanos.fetch_add(RunNanos, std::memory_order_relaxed);
    Judge = P.AdaptRuns.fetch_add(1, std::memory_order_relaxed) + 1 ==
            Options.AdaptWindow;
  } else {
    P.BaseNanos.fetch_add(RunNanos, std::memory_order_relaxed);
    P.BaseRuns.fetch_add(1, std::memory_order_relaxed);
  }
  finish(*R, std::move(Rsp));

  if (Judge)
    judgeAdaptive(R->P);
  if (Options.AdaptiveReplan && Options.Profile && Options.ReplanEvery &&
      Execs % Options.ReplanEvery == 0 &&
      !P.Pinned.load(std::memory_order_relaxed))
    scheduleAdaptiveReplan(R->P);
}

void QueryService::finish(RequestState &R, Response Rsp) {
  std::int64_t Depth =
      InFlight.fetch_sub(1, std::memory_order_acq_rel) - 1;
  metrics().QueueDepth.set(Depth);
  R.Promise.set_value(std::move(Rsp));
}

QueryService::Stats QueryService::stats() const {
  Stats S;
  S.Sessions = NSessions.load(std::memory_order_relaxed);
  S.Prepares = NPrepares.load(std::memory_order_relaxed);
  S.Accepted = NAccepted.load(std::memory_order_relaxed);
  S.Ok = NOk.load(std::memory_order_relaxed);
  S.Shed = NShed.load(std::memory_order_relaxed);
  S.Timeouts = NTimeouts.load(std::memory_order_relaxed);
  S.Errors = NErrors.load(std::memory_order_relaxed);
  S.DegradedRuns = NDegraded.load(std::memory_order_relaxed);
  S.NativeRuns = NNativeRuns.load(std::memory_order_relaxed);
  S.RecompilesScheduled = NRecompSched.load(std::memory_order_relaxed);
  S.RecompilesDone = NRecompDone.load(std::memory_order_relaxed);
  S.RecompilesFailed = NRecompFailed.load(std::memory_order_relaxed);
  S.RecompilesSaturated = NRecompSaturated.load(std::memory_order_relaxed);
  S.Replans = NReplans.load(std::memory_order_relaxed);
  S.ReplanSwaps = NReplanSwaps.load(std::memory_order_relaxed);
  S.ReplanNoChange = NReplanNoChange.load(std::memory_order_relaxed);
  S.AdaptiveRuns = NAdaptiveRuns.load(std::memory_order_relaxed);
  S.AdaptReverted = NAdaptReverted.load(std::memory_order_relaxed);
  S.AdaptPinned = NAdaptPinned.load(std::memory_order_relaxed);
  S.PartialRuns = NPartialRuns.load(std::memory_order_relaxed);
  S.QueueDepth = InFlight.load(std::memory_order_relaxed);
  return S;
}
