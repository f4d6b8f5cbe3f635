//===- perfbench/src/Client.cpp - serve and routed workloads ----*- C++ -*-===//
///
/// \file
/// The `serve` and `routed` workloads: one closed-loop client connection
/// drives a steno_serve or a steno_router over its Unix socket with the
/// wire protocol users speak, waiting for every reply (the protocol has
/// no pipelining). Every `result` row is checked against
/// steno::runReference over the same spec built locally.
///
/// The timed phase runs whole rounds: each sends the mix Passes times, so
/// every run attempts the same operations in the same proportions. On
/// `serve`, each round also sends one `overdue` request (see overdueSpec).
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Workloads.h"

#include "fuzz/Diff.h"
#include "fuzz/Gen.h"
#include "fuzz/Spec.h"
#include "serve/Wire.h"
#include "steno/RefExec.h"
#include "support/Random.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace perfbench;
using namespace steno;
using namespace steno::fuzz;

namespace {

/// Mix passes per round.
constexpr unsigned ServePasses = 200;
constexpr unsigned RoutedPasses = 8;
/// Generated specs added to the serve mix, and their source-size cap.
constexpr unsigned GeneratedSpecs = 4;
constexpr std::uint32_t GeneratedMaxCount = 4096;
constexpr std::uint64_t GeneratorSeed = 2011;
/// Elements of each routed source.
constexpr std::uint32_t RoutedCount = 100000;
/// The overdue request's deadline; its native run takes several times
/// longer.
constexpr std::int64_t OverdueDeadlineMs = 20;

struct MixSpec {
  std::string Name;
  QuerySpec Spec;
  std::string Text;
  std::shared_ptr<BuiltQuery> Built; ///< Expected may borrow its buffers.
  QueryResult Expected;
  bool Split = false; ///< routed: fanned out as per-shard partials.
  std::uint64_t Handle = 0;
};

OpSpec op(OpK K) {
  OpSpec O;
  O.K = K;
  return O;
}

OpSpec aggOp(AggKind A) {
  OpSpec O = op(OpK::Agg);
  O.A = A;
  return O;
}

QuerySpec oneSource(ElemTy Ty, DataClass D, std::uint32_t Count,
                    std::uint64_t Seed, std::vector<OpSpec> Ops) {
  QuerySpec S;
  S.Sources.push_back({0, Ty, D, Count, Seed});
  S.Ops = std::move(Ops);
  return S;
}

/// steno_loadgen's paper-shaped mix: Sum of squares, captured Scale,
/// filtered Count, Ret-pop's nested flatten, Group, Sort and the
/// forced-sequential non-associative fold, with seeded data.
std::vector<MixSpec> paperMix(std::uint64_t Seed) {
  std::vector<MixSpec> Mix;
  auto add = [&](const char *Name, QuerySpec S) {
    MixSpec M;
    M.Name = Name;
    M.Spec = std::move(S);
    Mix.push_back(std::move(M));
  };
  std::uint64_t Sd = Seed * 64;
  OpSpec Square = op(OpK::Select);
  Square.T = TransTmpl::Square;
  add("sumsq", oneSource(ElemTy::Double, DataClass::Uniform, 4096, Sd + 1,
                         {Square, aggOp(AggKind::Sum)}));
  {
    OpSpec Scale = op(OpK::Select);
    Scale.T = TransTmpl::CapScale;
    QuerySpec S = oneSource(ElemTy::Double, DataClass::Uniform, 4096, Sd + 2,
                            {Scale, aggOp(AggKind::Sum)});
    S.HasCaptureD = true;
    S.CaptureD = 2.5;
    add("scale", S);
  }
  OpSpec Gt = op(OpK::Where);
  Gt.P = PredTmpl::GtC;
  Gt.DArg = 10.0;
  add("count", oneSource(ElemTy::Double, DataClass::Skewed, 4096, Sd + 3,
                         {Gt, aggOp(AggKind::Count)}));
  {
    OpSpec Flat = op(OpK::SelectMany);
    Flat.Slot = 1;
    QuerySpec S = oneSource(ElemTy::Double, DataClass::Uniform, 256, Sd + 4,
                            {Flat, aggOp(AggKind::Sum)});
    S.Sources.push_back({1, ElemTy::Double, DataClass::Uniform, 16, Sd + 5});
    add("retpop", S);
  }
  OpSpec Group = op(OpK::GroupAgg);
  Group.Key = KeyTmpl::Bucket;
  Group.DArg = 25.0;
  Group.G = GroupStep::Sum;
  add("group", oneSource(ElemTy::Double, DataClass::Skewed, 4096, Sd + 6,
                         {Group}));
  OpSpec Sort = op(OpK::OrderBy);
  Sort.Key = KeyTmpl::Abs;
  add("sort", oneSource(ElemTy::Double, DataClass::Uniform, 2048, Sd + 7,
                        {Sort, op(OpK::ToArray)}));
  add("nonassoc", oneSource(ElemTy::Int64, DataClass::Uniform, 2048, Sd + 8,
                            {aggOp(AggKind::FoldNonAssoc)}));
  return Mix;
}

/// The routed mix: splittable Sum/Count/GroupAgg specs over 10^5
/// elements, which fan out as per-shard partials, plus a non-associative
/// fold and an order-sensitive Skip/Take, which route whole.
std::vector<MixSpec> routedMix(std::uint64_t Seed) {
  std::vector<MixSpec> Mix;
  auto add = [&](const char *Name, bool Split, QuerySpec S) {
    MixSpec M;
    M.Name = Name;
    M.Split = Split;
    M.Spec = std::move(S);
    Mix.push_back(std::move(M));
  };
  std::uint64_t Sd = Seed * 64 + 32;
  OpSpec Square = op(OpK::Select);
  Square.T = TransTmpl::Square;
  add("sum", true, oneSource(ElemTy::Double, DataClass::Uniform, RoutedCount,
                             Sd + 1, {aggOp(AggKind::Sum)}));
  add("sumsq", true,
      oneSource(ElemTy::Double, DataClass::Uniform, RoutedCount, Sd + 2,
                {Square, aggOp(AggKind::Sum)}));
  OpSpec Gt = op(OpK::Where);
  Gt.P = PredTmpl::GtC;
  Gt.DArg = 10.0;
  add("count", true,
      oneSource(ElemTy::Double, DataClass::Skewed, RoutedCount, Sd + 3,
                {Gt, aggOp(AggKind::Count)}));
  OpSpec Group = op(OpK::GroupAgg);
  Group.Key = KeyTmpl::Bucket;
  Group.DArg = 25.0;
  Group.G = GroupStep::Sum;
  add("group", true,
      oneSource(ElemTy::Double, DataClass::Skewed, RoutedCount, Sd + 4,
                {Group}));
  add("nonassoc", false,
      oneSource(ElemTy::Int64, DataClass::Uniform, RoutedCount, Sd + 5,
                {aggOp(AggKind::FoldNonAssoc)}));
  OpSpec Skip = op(OpK::Skip);
  Skip.IArg = 3;
  OpSpec Take = op(OpK::Take);
  Take.IArg = RoutedCount / 2;
  add("skiptake", false,
      oneSource(ElemTy::Double, DataClass::Uniform, RoutedCount, Sd + 6,
                {Skip, Take, aggOp(AggKind::Sum)}));
  return Mix;
}

/// A Cart-shaped spec, Σ_x Σ_y x·y over 8192 x 8192 elements, whose
/// native run takes several times OverdueDeadlineMs. Its inputs do not
/// depend on the seed. The right answer is a `timeout` reply within twice
/// the deadline.
MixSpec overdueSpec() {
  OpSpec Cart = op(OpK::SelectNestedSum);
  Cart.N = NestedTmpl::MulXY;
  Cart.Slot = 1;
  MixSpec M;
  M.Name = "overdue";
  M.Spec = oneSource(ElemTy::Double, DataClass::Uniform, 8192, 7001,
                     {Cart, aggOp(AggKind::Sum)});
  M.Spec.Sources.push_back({1, ElemTy::Double, DataClass::Uniform, 8192,
                            7002});
  return M;
}

/// Builds the spec locally and computes its expected result with the
/// reference interpreter.
bool realize(MixSpec &M, Report &Rep) {
  M.Text = serializeSpec(M.Spec);
  M.Built = std::make_shared<BuiltQuery>();
  std::string Err;
  if (!buildSpec(M.Spec, *M.Built, &Err)) {
    Rep.fail("buildSpec(" + M.Name + "): " + Err);
    return false;
  }
  M.Expected = runReference(M.Built->Q, M.Built->B);
  return true;
}

int connectTo(const std::string &Path, double BudgetS) {
  Clock::time_point T0 = Clock::now();
  do {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return -1;
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Path.c_str(), sizeof Addr.sun_path - 1);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) == 0)
      return Fd;
    ::close(Fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  } while (msSince(T0) < BudgetS * 1e3);
  return -1;
}

/// A client connection (closed on destruction).
struct Conn {
  int Fd = -1;
  std::unique_ptr<serve::WireClient> C;

  explicit Conn(const std::string &Path, double BudgetS = 60) {
    Fd = connectTo(Path, BudgetS);
    if (Fd >= 0)
      C = std::make_unique<serve::WireClient>(Fd);
  }
  ~Conn() {
    if (C)
      C->quit();
    if (Fd >= 0)
      ::close(Fd);
  }
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;
  bool ok() const { return Fd >= 0; }
};

/// The unsigned counter \p Key of a stats JSON line.
double statField(const std::string &Json, const std::string &Key) {
  std::size_t Pos = Json.find("\"" + Key + "\":");
  return Pos == std::string::npos
             ? -1
             : std::atof(Json.c_str() + Pos + Key.size() + 3);
}

double stat(Conn &C, const std::string &Key) {
  std::string Json;
  return C.C->stats(Json) ? statField(Json, Key) : -1;
}

/// Outcome of the timed phase.
struct Outcome {
  std::map<std::string, std::vector<double>> BySpec; ///< Checked requests.
  std::vector<double> SplitMs, WholeMs; ///< routed: by how they route.
  std::vector<double> QueueUs, RunUs, WireUs;
  std::set<std::uint64_t> Ids;
  std::uint64_t Attempted = 0, Failed = 0, Duplicates = 0;
  std::uint64_t Native = 0, Degraded = 0;
  std::uint64_t Overdue = 0, OverdueFailed = 0;
  std::string FirstError;
  bool Broken = false;   ///< The connection failed.
  bool Mismatch = false; ///< A reply's rows were wrong.
};

/// Sends one exec and checks the reply. Returns false when the
/// connection broke.
bool request(Conn &C, const MixSpec &M, bool Routed, std::uint64_t Req,
             Outcome &Out) {
  serve::WireClient::ExecResult R;
  ++Out.Attempted;
  Clock::time_point T0 = Clock::now();
  bool Ok;
  {
    Span S(Routed ? "router.exec" : "serve.exec", Req);
    Ok = C.C->exec(M.Handle, -1, R);
  }
  double Ms = msSince(T0);
  if (!Ok) {
    ++Out.Failed;
    Out.Broken = true;
    Out.FirstError = M.Name + ": connection broke";
    return false;
  }
  Out.Duplicates += !Out.Ids.insert(R.Id).second;
  if (R.St != serve::Status::Ok) {
    ++Out.Failed;
    if (Out.FirstError.empty())
      Out.FirstError = M.Name + ": status " +
                       std::to_string(static_cast<int>(R.St)) + " " + R.Error;
    return true;
  }
  Out.BySpec[M.Name].push_back(Ms);
  (M.Split ? Out.SplitMs : Out.WholeMs).push_back(Ms);
  Out.QueueUs.push_back(R.QueueMicros);
  Out.RunUs.push_back(R.RunMicros);
  Out.WireUs.push_back(Ms * 1e3 - R.QueueMicros - R.RunMicros);
  Out.Native += R.Native;
  Out.Degraded += R.Degraded;
  if (R.Scalar != M.Expected.isScalar() ||
      !rowsMatch(R.Rows, M.Expected.rows())) {
    if (Out.FirstError.empty())
      Out.FirstError = M.Name + ": rows differ from runReference";
    Out.Mismatch = true;
  }
  return true;
}

/// Polls stats until `recompiles_done + recompiles_failed` reaches
/// \p Want; false when a recompile failed or 120 s passed.
bool awaitRecompiles(Conn &C, double Want, double &Failed) {
  Clock::time_point T0 = Clock::now();
  while (msSince(T0) < 120e3) {
    std::string Json;
    if (!C.C->stats(Json))
      return false;
    double Done = statField(Json, "recompiles_done");
    Failed = statField(Json, "recompiles_failed");
    if (Done + Failed >= Want)
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

/// Whether \p R holds the rows of \p Want, under fuzzValueNear.
bool sameRows(const QueryResult &R, const QueryResult &Want) {
  if (R.isScalar() != Want.isScalar() || R.rows().size() != Want.rows().size())
    return false;
  for (std::size_t I = 0; I != R.rows().size(); ++I)
    if (!fuzzValueNear(R.rows()[I], Want.rows()[I]))
      return false;
  return true;
}

} // namespace

int perfbench::runClient(const RunOptions &O, bool Routed) {
  Report Rep;
  Clock::time_point T0 = fromNs(O.T0Ns);
  if (O.Trace)
    Tracer::get().enable();

  Conn A(O.Socket);
  if (!A.ok()) {
    std::fprintf(stderr, "perfbench: cannot connect to %s\n",
                 O.Socket.c_str());
    return 2;
  }

  // Build the mix and prepare it. A spec's compile time runs from
  // `prepare` until the handle runs on the tier it will run on: native on
  // serve (the server's background compile), the interpreter on routed.
  std::vector<MixSpec> Mix = Routed ? routedMix(O.Seed) : paperMix(O.Seed);
  std::vector<MixSpec> Ready;
  MixSpec Overdue = overdueSpec();
  std::vector<std::pair<std::string, double>> CompileMs;
  double Recompiles = 0;
  auto admit = [&](MixSpec M, bool MustPrepare) {
    if (!realize(M, Rep))
      return false;
    std::string Err;
    double Split0 = Routed ? stat(A, "split_prepared") : 0;
    Clock::time_point P0 = Clock::now();
    if (!A.C->prepare(M.Text, M.Handle, Err)) {
      if (MustPrepare)
        Rep.fail("prepare(" + M.Name + "): " + Err);
      return false;
    }
    if (!Routed) {
      // One background compile per prepare; wait for it, so the compile
      // queue never saturates and every handle ends up native.
      double Failed = 0;
      if (!awaitRecompiles(A, ++Recompiles, Failed) || Failed > 0) {
        Rep.fail("native recompile of " + M.Name + " failed");
        return false;
      }
    }
    CompileMs.push_back({M.Name, msSince(P0)});
    if (Routed && (stat(A, "split_prepared") > Split0) != M.Split)
      Rep.fail("routed spec " + M.Name + " was not routed as expected");
    Ready.push_back(std::move(M));
    return true;
  };
  for (MixSpec &M : Mix)
    admit(std::move(M), true);
  if (!Routed) {
    // The generated query shapes are fixed, like the paper mix's; only
    // their data comes from the seed, so that runs with different seeds
    // measure the same queries.
    support::SplitMix64 Rng(GeneratorSeed);
    GenOptions G;
    G.MaxCount = GeneratedMaxCount;
    unsigned Added = 0;
    for (unsigned Tries = 0; Added < GeneratedSpecs && Tries < 200; ++Tries) {
      MixSpec M;
      M.Name = "gen" + std::to_string(Added);
      M.Spec = generateSpec(Rng, G);
      for (SourceSpec &Src : M.Spec.Sources)
        Src.Seed = O.Seed * 64 + 16 + Added * 4 + Src.Slot;
      Added += admit(std::move(M), false);
    }
    Overdue.Text = serializeSpec(Overdue.Spec);
    std::string Err;
    double Failed = 0;
    if (!A.C->prepare(Overdue.Text, Overdue.Handle, Err) ||
        !awaitRecompiles(A, ++Recompiles, Failed) || Failed > 0)
      Rep.fail("overdue spec did not prepare natively: " + Err);
  }
  if (Ready.empty()) {
    std::fprintf(stderr, "perfbench: no spec of the mix could be prepared\n");
    return 2;
  }

  // Warm-up: every handle once, checked.
  {
    Outcome W;
    for (const MixSpec &M : Ready)
      request(A, M, Routed, 0, W);
    bool NotNative = !Routed && W.Native != W.Attempted;
    if (W.Failed || W.Broken || W.Mismatch || NotNative)
      Rep.fail("warm-up: " + W.FirstError +
               (NotNative ? " (not all native)" : ""));
    if (!Routed) {
      serve::WireClient::ExecResult R;
      if (!A.C->exec(Overdue.Handle, -1, R) || !R.Native)
        Rep.fail("overdue spec is not native after warm-up");
    }
  }
  for (const MixSpec &M : Ready)
    std::fprintf(stderr, "perfbench: mix %-9s %s %s\n", M.Name.c_str(),
                 M.Split ? "split" : "whole", specSummary(M.Spec).c_str());

  double SubSent0 = Routed ? stat(A, "sub_sent") : 0;
  double Execs0 = Routed ? stat(A, "execs") : 0;
  double SetupS = msSince(T0) / 1e3;
  // compile_ms is the geometric mean of the specs' compile times. Each is
  // also reported as compile_ms.<spec>, so that run.py can take each
  // spec's median over repeated set-ups first; it drops these entries
  // from the result line.
  std::vector<double> SpecCompileMs;
  Report SetUp;
  SetUp.add("setup_s", SetupS, "s");
  for (const auto &[Name, Ms] : CompileMs) {
    SpecCompileMs.push_back(Ms);
    SetUp.add("compile_ms." + Name, Ms, "ms");
  }
  SetUp.add("compile_ms", geomean(SpecCompileMs), "ms");
  if (O.SetupOnly) {
    SetUp.Correct = Rep.Correct;
    std::printf("%s\n", SetUp.json().c_str());
    return 0;
  }

  // Timed phase: whole rounds of the mix.
  Clock::time_point End =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(O.Seconds));
  Outcome All;
  std::uint64_t Rounds = 0, Req = 0;
  unsigned Passes = Routed ? RoutedPasses : ServePasses;
  Clock::time_point Timed0 = Clock::now();
  while (Clock::now() < End && !All.Broken) {
    ++Rounds;
    for (unsigned P = 0; P != Passes && !All.Broken; ++P)
      for (const MixSpec &M : Ready)
        if (!request(A, M, Routed, ++Req, All))
          break;
    if (!Routed && !All.Broken) {
      // The overdue request counts in attempted and failed only.
      serve::WireClient::ExecResult R;
      ++All.Attempted;
      ++All.Overdue;
      Clock::time_point R0 = Clock::now();
      bool Ok = A.C->exec(Overdue.Handle, OverdueDeadlineMs, R);
      double Ms = msSince(R0);
      if (!Ok)
        All.Broken = true;
      else
        All.Duplicates += !All.Ids.insert(R.Id).second;
      if (!Ok || R.St != serve::Status::Timeout ||
          Ms > 2.0 * OverdueDeadlineMs) {
        ++All.Failed;
        ++All.OverdueFailed;
      }
    }
  }
  double TimedS = msSince(Timed0) / 1e3;

  // Audit.
  if (All.Broken || All.Mismatch)
    Rep.fail("timed phase: " + All.FirstError);
  if (All.Duplicates)
    Rep.fail(std::to_string(All.Duplicates) + " duplicate request ids");
  if (!Routed && All.Degraded)
    Rep.fail(std::to_string(All.Degraded) +
             " replies ran degraded in the timed phase");
  if (All.Failed != All.OverdueFailed)
    std::fprintf(stderr, "perfbench: %llu requests failed, first: %s\n",
                 static_cast<unsigned long long>(All.Failed -
                                                 All.OverdueFailed),
                 All.FirstError.c_str());
  Rep.Attempted = All.Attempted;
  Rep.Failed = All.Failed;
  std::fprintf(stderr,
               "perfbench: %llu rounds, %llu requests in %.2f s; overdue "
               "%llu sent, %llu failed\n",
               static_cast<unsigned long long>(Rounds),
               static_cast<unsigned long long>(All.Attempted), TimedS,
               static_cast<unsigned long long>(All.Overdue),
               static_cast<unsigned long long>(All.OverdueFailed));

  // The checks must reject a wrong answer.
  {
    const MixSpec &M = Ready.front();
    std::vector<std::string> Rows;
    for (const expr::Value &V : M.Expected.rows())
      Rows.push_back(fuzzValueStr(V));
    if (!rowsMatch(Rows, M.Expected.rows()))
      Rep.fail("self-test: the expected rows do not match themselves");
    Rows.back() = fuzzValueStr(expr::Value(
        M.Expected.rows().back().asDouble() * (1 + 1e-6) + 1e-3));
    if (rowsMatch(Rows, M.Expected.rows()))
      Rep.fail("self-test: a perturbed value passed the check");
  }

  // query_ms is the geometric mean of the specs' median latencies, so
  // each spec's relative change weighs alike.
  std::vector<double> Medians;
  for (const MixSpec &M : Ready) {
    Medians.push_back(median(All.BySpec[M.Name]));
    std::fprintf(stderr, "perfbench: %-9s median %8.3f ms over %zu\n",
                 M.Name.c_str(), Medians.back(), All.BySpec[M.Name].size());
  }
  Report EndToEnd = Rep;
  EndToEnd.Metrics = SetUp.Metrics;
  EndToEnd.add("query_ms", geomean(Medians), "ms");
  if (!O.Trace) {
    std::printf("%s\n", EndToEnd.json().c_str());
    return 0;
  }
  // With spans on, the same figures show what tracing costs.
  std::fprintf(stderr, "perfbench: traced end-to-end: %s\n",
               EndToEnd.json().c_str());

  // Where a request's time goes, from the replies and the router's stats.
  std::fprintf(stderr,
               "perfbench: reply medians: queue %.1f us, run %.1f us, "
               "rest (wire, client) %.1f us\n",
               median(All.QueueUs), median(All.RunUs), median(All.WireUs));
  if (Routed)
    std::fprintf(stderr,
                 "perfbench: split %.3f ms, whole %.3f ms (medians); "
                 "%.2f sub-requests per request\n",
                 median(All.SplitMs), median(All.WholeMs),
                 (stat(A, "sub_sent") - SubSent0) /
                     (stat(A, "execs") - Execs0));

  // The per-layer probes, in process on the mix's specs.
  std::vector<LayerQuery> Layers;
  for (const MixSpec &M : Ready) {
    const QueryResult *Want = &M.Expected;
    Layers.push_back({M.Name, M.Built->Q, &M.Built->B, &M.Built->B,
                      [Want](const QueryResult &R) {
                        return sameRows(R, *Want);
                      }});
  }
  probeLayers(Layers, Rep);
  Tracer::get().dump(O.TraceOut);
  std::printf("%s\n", Rep.json().c_str());
  return 0;
}
