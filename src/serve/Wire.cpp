//===- serve/Wire.cpp - Line protocol for steno_serve ----------*- C++ -*-===//

#include "serve/Wire.h"

#include "fuzz/Diff.h" // fuzzValueStr: the stable row renderer
#include "obs/Metrics.h"
#include "obs/Profile.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <sys/socket.h>
#include <unistd.h>

using namespace steno;
using namespace steno::serve;

//===--------------------------------------------------------------------===//
// FdStream
//===--------------------------------------------------------------------===//

bool FdStream::readLine(std::string &Line) {
  Line.clear();
  for (;;) {
    while (Pos < Buf.size()) {
      char C = Buf[Pos++];
      if (C == '\n') {
        if (!Line.empty() && Line.back() == '\r')
          Line.pop_back();
        return true;
      }
      Line.push_back(C);
    }
    Buf.clear();
    Pos = 0;
    char Chunk[4096];
    ssize_t N = ::read(Fd, Chunk, sizeof Chunk);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    if (N == 0)
      return false; // EOF; a partial unterminated line is dropped
    Buf.assign(Chunk, static_cast<std::size_t>(N));
  }
}

bool FdStream::writeAll(const std::string &Bytes) {
  std::size_t Off = 0;
  while (Off < Bytes.size()) {
    // MSG_NOSIGNAL: a peer death (e.g. a SIGKILLed shard worker) must
    // surface as a write error the retry layer can handle, never a
    // process-killing SIGPIPE in an embedder that didn't ignore it.
    ssize_t N = ::send(Fd, Bytes.data() + Off, Bytes.size() - Off,
                       MSG_NOSIGNAL);
    if (N < 0 && errno == ENOTSOCK) // pipes/files in tests
      N = ::write(Fd, Bytes.data() + Off, Bytes.size() - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<std::size_t>(N);
  }
  return true;
}

//===--------------------------------------------------------------------===//
// Frames
//===--------------------------------------------------------------------===//

namespace {

std::string oneLine(std::string S) {
  for (std::size_t I = 0; (I = S.find('\n', I)) != std::string::npos;)
    S.replace(I, 1, "; ");
  return S;
}

std::string errorFrame(const std::string &Message) {
  return "error " + oneLine(Message) + "\n";
}

std::string statsJson(const QueryService::Stats &S) {
  // End-to-end request latency percentiles from the (process-wide)
  // serve.request.micros histogram the execution path populates. The
  // bounds must match ServeMetrics so this resolves to the same
  // registered instrument rather than creating a second one.
  obs::Histogram &Lat = obs::histogram(
      "serve.request.micros", {10, 100, 1e3, 1e4, 1e5, 1e6, 1e7});
  char Buf[1536];
  std::snprintf(
      Buf, sizeof Buf,
      "{\"sessions\":%llu,\"prepares\":%llu,\"accepted\":%llu,"
      "\"ok\":%llu,\"shed\":%llu,\"timeouts\":%llu,\"errors\":%llu,"
      "\"degraded_runs\":%llu,\"native_runs\":%llu,"
      "\"recompiles_scheduled\":%llu,\"recompiles_done\":%llu,"
      "\"recompiles_failed\":%llu,\"recompiles_saturated\":%llu,"
      "\"replans\":%llu,\"replan_swaps\":%llu,"
      "\"replan_no_change\":%llu,\"adaptive_runs\":%llu,"
      "\"adapt_reverted\":%llu,\"adapt_pinned\":%llu,"
      "\"partial_runs\":%llu,"
      "\"queue_depth\":%lld,"
      "\"latency_us\":{\"p50\":%.1f,\"p95\":%.1f,\"p99\":%.1f}}",
      static_cast<unsigned long long>(S.Sessions),
      static_cast<unsigned long long>(S.Prepares),
      static_cast<unsigned long long>(S.Accepted),
      static_cast<unsigned long long>(S.Ok),
      static_cast<unsigned long long>(S.Shed),
      static_cast<unsigned long long>(S.Timeouts),
      static_cast<unsigned long long>(S.Errors),
      static_cast<unsigned long long>(S.DegradedRuns),
      static_cast<unsigned long long>(S.NativeRuns),
      static_cast<unsigned long long>(S.RecompilesScheduled),
      static_cast<unsigned long long>(S.RecompilesDone),
      static_cast<unsigned long long>(S.RecompilesFailed),
      static_cast<unsigned long long>(S.RecompilesSaturated),
      static_cast<unsigned long long>(S.Replans),
      static_cast<unsigned long long>(S.ReplanSwaps),
      static_cast<unsigned long long>(S.ReplanNoChange),
      static_cast<unsigned long long>(S.AdaptiveRuns),
      static_cast<unsigned long long>(S.AdaptReverted),
      static_cast<unsigned long long>(S.AdaptPinned),
      static_cast<unsigned long long>(S.PartialRuns),
      static_cast<long long>(S.QueueDepth), Lat.percentile(0.50),
      Lat.percentile(0.95), Lat.percentile(0.99));
  return Buf;
}

} // namespace

//===--------------------------------------------------------------------===//
// Exact value codec (shard framing)
//===--------------------------------------------------------------------===//

namespace {

void encodeValue(const expr::Value &V, std::string &Out) {
  char Buf[64];
  switch (V.kind()) {
  case expr::TypeKind::Bool:
    Out += V.asBool() ? "b 1" : "b 0";
    return;
  case expr::TypeKind::Int64:
    Out += "i ";
    Out += std::to_string(V.asInt64());
    return;
  case expr::TypeKind::Double:
    // %a round-trips every double (including nan/±inf) through strtod.
    std::snprintf(Buf, sizeof Buf, "d %a", V.asDouble());
    Out += Buf;
    return;
  case expr::TypeKind::Vec: {
    expr::VecView View = V.asVec();
    Out += "v ";
    Out += std::to_string(View.Len);
    for (std::int64_t I = 0; I != View.Len; ++I) {
      std::snprintf(Buf, sizeof Buf, " %a", View.Data[I]);
      Out += Buf;
    }
    return;
  }
  case expr::TypeKind::Pair:
    Out += "p ";
    encodeValue(V.first(), Out);
    Out += ' ';
    encodeValue(V.second(), Out);
    return;
  }
}

/// Token-stream decoder for encodeValue output. istream's operator>>
/// does not reliably accept hexfloats, so doubles go through strtod.
struct ValueDecoder {
  std::istringstream In;
  std::deque<std::vector<double>> &Arena;

  ValueDecoder(const std::string &S, std::deque<std::vector<double>> &A)
      : In(S), Arena(A) {}

  bool decodeDouble(double &D) {
    std::string Tok;
    if (!(In >> Tok))
      return false;
    const char *C = Tok.c_str();
    char *End = nullptr;
    D = std::strtod(C, &End);
    return End != C && *End == '\0';
  }

  bool decode(expr::Value &Out) {
    std::string Tag;
    if (!(In >> Tag))
      return false;
    if (Tag == "b") {
      int B = 0;
      if (!(In >> B) || (B != 0 && B != 1))
        return false;
      Out = expr::Value(B == 1);
      return true;
    }
    if (Tag == "i") {
      std::string Tok;
      if (!(In >> Tok))
        return false;
      const char *C = Tok.c_str();
      char *End = nullptr;
      long long I = std::strtoll(C, &End, 10);
      if (End == C || *End != '\0')
        return false;
      Out = expr::Value(static_cast<std::int64_t>(I));
      return true;
    }
    if (Tag == "d") {
      double D = 0;
      if (!decodeDouble(D))
        return false;
      Out = expr::Value(D);
      return true;
    }
    if (Tag == "v") {
      std::int64_t Len = 0;
      if (!(In >> Len) || Len < 0)
        return false;
      Arena.emplace_back();
      std::vector<double> &Vec = Arena.back();
      Vec.reserve(static_cast<std::size_t>(Len));
      for (std::int64_t I = 0; I != Len; ++I) {
        double D = 0;
        if (!decodeDouble(D))
          return false;
        Vec.push_back(D);
      }
      Out = expr::Value(expr::VecView{Vec.data(), Len});
      return true;
    }
    if (Tag == "p") {
      expr::Value First, Second;
      if (!decode(First) || !decode(Second))
        return false;
      Out = expr::Value::makePair(First, Second);
      return true;
    }
    return false;
  }
};

} // namespace

std::string serve::wireValue(const expr::Value &V) {
  std::string Out;
  encodeValue(V, Out);
  return Out;
}

bool serve::parseWireValue(const std::string &Enc, expr::Value &Out,
                           std::deque<std::vector<double>> &Arena,
                           std::string *Err) {
  ValueDecoder D(Enc, Arena);
  if (!D.decode(Out)) {
    if (Err)
      *Err = "malformed wire value: " + Enc;
    return false;
  }
  std::string Rest;
  if (D.In >> Rest) {
    if (Err)
      *Err = "trailing garbage in wire value: " + Enc;
    return false;
  }
  return true;
}

std::string serve::renderShardResponse(const Response &R, const char *Verb,
                                       std::uint64_t Rid) {
  switch (R.St) {
  case Status::Timeout:
    return support::strFormat("%s %llu timeout\n", Verb,
                              static_cast<unsigned long long>(Rid));
  case Status::Shed:
    return support::strFormat("%s %llu shed\n", Verb,
                              static_cast<unsigned long long>(Rid));
  case Status::Error:
    return support::strFormat(
        "%s %llu error %s\n", Verb, static_cast<unsigned long long>(Rid),
        oneLine(R.Message.empty() ? "internal error" : R.Message).c_str());
  case Status::Ok:
    break;
  }
  const char *RowTag = Verb[0] == 'p' ? "prow" : "xrow";
  const char *DoneTag = Verb[0] == 'p' ? "pdone" : "xdone";
  std::string Out = support::strFormat(
      "%s %llu %s %zu native=%d run_us=%.1f\n", Verb,
      static_cast<unsigned long long>(Rid),
      R.Result.isScalar() ? "scalar" : "rows", R.Result.rows().size(),
      R.NativePlan ? 1 : 0, R.RunMicros);
  for (const expr::Value &V : R.Result.rows()) {
    Out += RowTag;
    Out += ' ';
    Out += wireValue(V);
    Out += '\n';
  }
  Out += DoneTag;
  Out += '\n';
  return Out;
}

std::string serve::renderResponse(const Response &R) {
  switch (R.St) {
  case Status::Timeout:
    return support::strFormat("timeout %llu\n",
                              static_cast<unsigned long long>(R.Id));
  case Status::Shed:
    return support::strFormat("shed %llu\n",
                              static_cast<unsigned long long>(R.Id));
  case Status::Error:
    return errorFrame(R.Message.empty() ? "internal error" : R.Message);
  case Status::Ok:
    break;
  }
  std::string Out = support::strFormat(
      "result %llu %s %zu degraded=%d native=%d queue_us=%.1f "
      "run_us=%.1f\n",
      static_cast<unsigned long long>(R.Id),
      R.Result.isScalar() ? "scalar" : "rows", R.Result.rows().size(),
      R.Degraded ? 1 : 0, R.NativePlan ? 1 : 0, R.QueueMicros,
      R.RunMicros);
  for (const expr::Value &V : R.Result.rows())
    Out += "row " + fuzz::fuzzValueStr(V) + "\n";
  Out += "done\n";
  return Out;
}

//===--------------------------------------------------------------------===//
// Server side
//===--------------------------------------------------------------------===//

void serve::serveConnection(QueryService &Svc, int Fd) {
  FdStream S(Fd);
  std::shared_ptr<Session> Sess = Svc.openSession();
  std::vector<PreparedHandle> Handles; // connection-local handle table

  std::string Line;
  while (S.readLine(Line)) {
    std::istringstream Fields(Line);
    std::string Cmd;
    if (!(Fields >> Cmd))
      continue; // blank line

    if (Cmd == "quit") {
      S.writeAll("bye\n");
      return;
    }

    if (Cmd == "prepare") {
      // The spec's own `end` line frames the payload.
      std::string SpecText, SpecLine;
      bool SawEnd = false;
      while (S.readLine(SpecLine)) {
        SpecText += SpecLine;
        SpecText += '\n';
        if (SpecLine == "end") {
          SawEnd = true;
          break;
        }
      }
      if (!SawEnd)
        return; // EOF mid-spec: drop the connection
      std::string Err;
      PreparedHandle P = Sess->prepare(SpecText, &Err);
      if (!P) {
        if (!S.writeAll(errorFrame(Err)))
          return;
        continue;
      }
      Handles.push_back(P);
      if (!S.writeAll(support::strFormat("prepared %zu\n",
                                         Handles.size() - 1)))
        return;
      continue;
    }

    if (Cmd == "exec") {
      std::size_t Handle = 0;
      long long DeadlineMs = -1;
      if (!(Fields >> Handle)) {
        if (!S.writeAll(errorFrame("exec needs a handle")))
          return;
        continue;
      }
      Fields >> DeadlineMs; // optional; default deadline when absent
      if (Handle >= Handles.size()) {
        if (!S.writeAll(errorFrame(support::strFormat(
                "unknown handle %zu", Handle))))
          return;
        continue;
      }
      Response R =
          DeadlineMs >= 0
              ? Sess->execute(Handles[Handle],
                              std::chrono::milliseconds(DeadlineMs))
              : Sess->execute(Handles[Handle]);
      if (!S.writeAll(renderResponse(R)))
        return;
      continue;
    }

    if (Cmd == "pexec" || Cmd == "xexec") {
      // Shard sub-requests (router-to-worker): exact value encoding,
      // router request id echoed back for the exactly-once retry
      // protocol.
      bool IsPartial = Cmd == "pexec";
      const char *Verb = IsPartial ? "partial" : "xresult";
      std::size_t Handle = 0, Begin = 0, Len = 0;
      long long DeadlineMs = -1;
      unsigned long long Rid = 0;
      bool Parsed = static_cast<bool>(Fields >> Handle);
      if (Parsed && IsPartial)
        Parsed = static_cast<bool>(Fields >> Begin >> Len);
      if (!Parsed) {
        if (!S.writeAll(errorFrame(Cmd + " needs a handle" +
                                   (IsPartial ? " and a range" : ""))))
          return;
        continue;
      }
      Fields >> DeadlineMs >> Rid; // both optional
      std::chrono::milliseconds DL =
          DeadlineMs >= 0 ? std::chrono::milliseconds(DeadlineMs)
                          : Svc.options().DefaultDeadline;
      if (Handle >= Handles.size()) {
        Response R;
        R.St = Status::Error;
        R.Message = support::strFormat("unknown handle %zu", Handle);
        if (!S.writeAll(renderShardResponse(R, Verb, Rid)))
          return;
        continue;
      }
      Response R = IsPartial
                       ? Svc.executePartial(Handles[Handle], Begin, Len, DL)
                       : Svc.execute(Handles[Handle], DL);
      if (!S.writeAll(renderShardResponse(R, Verb, Rid)))
        return;
      continue;
    }

    if (Cmd == "stats") {
      if (!S.writeAll("stats " + statsJson(Svc.stats()) + "\n"))
        return;
      continue;
    }

    if (Cmd == "profile") {
      std::size_t Handle = 0;
      if (!(Fields >> Handle)) {
        if (!S.writeAll(errorFrame("profile needs a handle")))
          return;
        continue;
      }
      if (Handle >= Handles.size()) {
        if (!S.writeAll(errorFrame(support::strFormat(
                "unknown handle %zu", Handle))))
          return;
        continue;
      }
      const CompiledQuery &Plan = Handles[Handle]->currentPlan();
      if (!Plan.profiled()) {
        if (!S.writeAll(errorFrame(support::strFormat(
                "handle %zu was prepared without profiling (start the "
                "service with --profile or STENO_PROFILE=1)",
                Handle))))
          return;
        continue;
      }
      // Resolved through rewrite provenance: a plan the rewriter changed
      // inherits runs accumulated under its pre-rewrite hash, so a fresh
      // prepare of a long-profiled query answers with the merged stats
      // instead of "never executed".
      auto Snap =
          obs::ProfileStore::global().snapshotResolved(Plan.planHash());
      if (!Snap) {
        if (!S.writeAll(errorFrame(support::strFormat(
                "no profile recorded for handle %zu yet (never executed)",
                Handle))))
          return;
        continue;
      }
      if (!S.writeAll("profile " + obs::profileJson(*Snap) + "\n"))
        return;
      continue;
    }

    if (Cmd == "metrics") {
      std::string Text = obs::exportPrometheus();
      std::size_t NLines = static_cast<std::size_t>(
          std::count(Text.begin(), Text.end(), '\n'));
      if (!S.writeAll(support::strFormat("metrics %zu\n", NLines) + Text))
        return;
      continue;
    }

    if (!S.writeAll(errorFrame("unknown command '" + Cmd + "'")))
      return;
  }
}

//===--------------------------------------------------------------------===//
// Client side
//===--------------------------------------------------------------------===//

bool WireClient::prepare(const std::string &SpecText, std::uint64_t &Handle,
                         std::string &Err) {
  std::string Frame = "prepare\n" + SpecText;
  if (Frame.back() != '\n')
    Frame += '\n';
  if (!S.writeAll(Frame)) {
    Err = "write failed";
    return false;
  }
  std::string Line;
  if (!S.readLine(Line)) {
    Err = "connection closed";
    return false;
  }
  std::istringstream Fields(Line);
  std::string Tok;
  Fields >> Tok;
  if (Tok == "prepared") {
    unsigned long long H = 0;
    if (!(Fields >> H)) {
      Err = "malformed prepared frame: " + Line;
      return false;
    }
    Handle = H;
    return true;
  }
  if (Tok == "error") {
    Err = Line.size() > 6 ? Line.substr(6) : "unspecified error";
    return false;
  }
  Err = "unexpected frame: " + Line;
  return false;
}

bool WireClient::exec(std::uint64_t Handle, std::int64_t DeadlineMs,
                      ExecResult &Out) {
  Out = ExecResult();
  std::string Frame =
      DeadlineMs >= 0
          ? support::strFormat("exec %llu %lld\n",
                               static_cast<unsigned long long>(Handle),
                               static_cast<long long>(DeadlineMs))
          : support::strFormat("exec %llu\n",
                               static_cast<unsigned long long>(Handle));
  if (!S.writeAll(Frame))
    return false;
  std::string Line;
  if (!S.readLine(Line))
    return false;
  std::istringstream Fields(Line);
  std::string Tok;
  Fields >> Tok;

  if (Tok == "timeout" || Tok == "shed") {
    Out.St = Tok == "timeout" ? Status::Timeout : Status::Shed;
    unsigned long long Id = 0;
    Fields >> Id;
    Out.Id = Id;
    return true;
  }
  if (Tok == "error") {
    Out.St = Status::Error;
    Out.Error = Line.size() > 6 ? Line.substr(6) : "unspecified error";
    return true;
  }
  if (Tok != "result")
    return false;

  unsigned long long Id = 0;
  std::string Shape;
  std::size_t NRows = 0;
  std::string DegTok, NatTok, QueueTok, RunTok;
  if (!(Fields >> Id >> Shape >> NRows >> DegTok >> NatTok >> QueueTok >>
        RunTok))
    return false;
  Out.St = Status::Ok;
  Out.Id = Id;
  Out.Scalar = Shape == "scalar";
  Out.Degraded = DegTok == "degraded=1";
  Out.Native = NatTok == "native=1";
  if (QueueTok.rfind("queue_us=", 0) == 0)
    Out.QueueMicros = std::atof(QueueTok.c_str() + 9);
  if (RunTok.rfind("run_us=", 0) == 0)
    Out.RunMicros = std::atof(RunTok.c_str() + 7);

  Out.Rows.reserve(NRows);
  for (std::size_t I = 0; I != NRows; ++I) {
    if (!S.readLine(Line) || Line.rfind("row ", 0) != 0)
      return false;
    Out.Rows.push_back(Line.substr(4));
  }
  if (!S.readLine(Line) || Line != "done")
    return false;
  return true;
}

namespace {

/// Reads and decodes one shard answer (`<verb> <rid> ...` + rows +
/// terminator). False on protocol breakdown or a rid mismatch — either
/// way the connection is desynchronized and must be discarded.
bool readShardAnswer(FdStream &S, const char *Verb, std::uint64_t Rid,
                     WireClient::PartialResult &Out) {
  const char *RowTag = Verb[0] == 'p' ? "prow " : "xrow ";
  const char *DoneTag = Verb[0] == 'p' ? "pdone" : "xdone";
  std::string Line;
  if (!S.readLine(Line))
    return false;
  std::istringstream Fields(Line);
  std::string Tok;
  if (!(Fields >> Tok))
    return false;
  if (Tok == "error") {
    // Pre-dispatch errors (malformed frame) arrive as a bare error line
    // without a rid; the exchange is still framed, report it.
    Out.St = Status::Error;
    Out.Error = Line.size() > 6 ? Line.substr(6) : "unspecified error";
    return true;
  }
  if (Tok != Verb)
    return false;
  unsigned long long GotRid = 0;
  std::string Shape;
  if (!(Fields >> GotRid >> Shape))
    return false;
  if (GotRid != Rid)
    return false; // stale answer from a lost exchange: conn is dead
  if (Shape == "timeout") {
    Out.St = Status::Timeout;
    return true;
  }
  if (Shape == "shed") {
    Out.St = Status::Shed;
    return true;
  }
  if (Shape == "error") {
    Out.St = Status::Error;
    std::getline(Fields, Out.Error);
    if (!Out.Error.empty() && Out.Error.front() == ' ')
      Out.Error.erase(0, 1);
    return true;
  }
  if (Shape != "scalar" && Shape != "rows")
    return false;

  std::size_t NRows = 0;
  std::string NatTok, RunTok;
  if (!(Fields >> NRows >> NatTok >> RunTok))
    return false;
  Out.Scalar = Shape == "scalar";
  Out.Native = NatTok == "native=1";
  if (RunTok.rfind("run_us=", 0) == 0)
    Out.RunMicros = std::atof(RunTok.c_str() + 7);

  auto Arena = std::make_shared<std::deque<std::vector<double>>>();
  std::vector<expr::Value> Rows;
  Rows.reserve(NRows);
  for (std::size_t I = 0; I != NRows; ++I) {
    if (!S.readLine(Line) || Line.rfind(RowTag, 0) != 0)
      return false;
    expr::Value V;
    if (!parseWireValue(Line.substr(5), V, *Arena))
      return false;
    Rows.push_back(V);
  }
  if (!S.readLine(Line) || Line != DoneTag)
    return false;
  Out.St = Status::Ok;
  Out.Result = QueryResult(Out.Scalar, std::move(Rows), std::move(Arena));
  return true;
}

} // namespace

bool WireClient::pexec(std::uint64_t Handle, std::size_t Begin,
                       std::size_t Len, std::int64_t DeadlineMs,
                       std::uint64_t Rid, PartialResult &Out) {
  Out = PartialResult();
  if (!S.writeAll(support::strFormat(
          "pexec %llu %zu %zu %lld %llu\n",
          static_cast<unsigned long long>(Handle), Begin, Len,
          static_cast<long long>(DeadlineMs),
          static_cast<unsigned long long>(Rid))))
    return false;
  return readShardAnswer(S, "partial", Rid, Out);
}

bool WireClient::xexec(std::uint64_t Handle, std::int64_t DeadlineMs,
                       std::uint64_t Rid, PartialResult &Out) {
  Out = PartialResult();
  if (!S.writeAll(support::strFormat(
          "xexec %llu %lld %llu\n",
          static_cast<unsigned long long>(Handle),
          static_cast<long long>(DeadlineMs),
          static_cast<unsigned long long>(Rid))))
    return false;
  return readShardAnswer(S, "xresult", Rid, Out);
}

bool WireClient::stats(std::string &Json) {
  if (!S.writeAll("stats\n"))
    return false;
  std::string Line;
  if (!S.readLine(Line) || Line.rfind("stats ", 0) != 0)
    return false;
  Json = Line.substr(6);
  return true;
}

bool WireClient::profile(std::uint64_t Handle, std::string &Json,
                         std::string *Err) {
  if (!S.writeAll(support::strFormat(
          "profile %llu\n", static_cast<unsigned long long>(Handle)))) {
    if (Err)
      *Err = "write failed";
    return false;
  }
  std::string Line;
  if (!S.readLine(Line)) {
    if (Err)
      *Err = "connection closed";
    return false;
  }
  if (Line.rfind("profile ", 0) == 0) {
    Json = Line.substr(8);
    return true;
  }
  if (Err)
    *Err = Line.rfind("error ", 0) == 0 ? Line.substr(6)
                                        : "unexpected frame: " + Line;
  return false;
}

bool WireClient::metrics(std::string &Text) {
  Text.clear();
  if (!S.writeAll("metrics\n"))
    return false;
  std::string Line;
  if (!S.readLine(Line) || Line.rfind("metrics ", 0) != 0)
    return false;
  std::size_t NLines = 0;
  std::istringstream Fields(Line.substr(8));
  if (!(Fields >> NLines))
    return false;
  for (std::size_t I = 0; I != NLines; ++I) {
    if (!S.readLine(Line))
      return false;
    Text += Line;
    Text += '\n';
  }
  return true;
}

void WireClient::quit() {
  if (!S.writeAll("quit\n"))
    return;
  std::string Line;
  S.readLine(Line); // bye
}
