//===- tests/shard_test.cpp - Sharded serving & distributed Agg* -*- C++ -*-===//
//
// Coverage for the shard layer (shard/Shard.h, serve partial execution,
// the shard wire framing): the §6 decomposition unit-tested against the
// single-process reference for every combine kind (Fold/Count sums,
// MergeByKey groups, MergeSorted orders, Concat arrays), the
// non-associative fallback, empty- and single-element-shard edge cases,
// the exact-value wire codec, pexec over a socketpair, the router end to
// end over in-process shards (via the RouterOptions::Connect seam),
// retry-after-connection-death, and the full fuzz corpus replayed
// through a 3-shard router differentially against direct execution.
//
//===----------------------------------------------------------------------===//

#include "dryad/Dist.h"
#include "dryad/ThreadPool.h"
#include "fuzz/Diff.h"
#include "serve/Serve.h"
#include "serve/Wire.h"
#include "shard/Shard.h"
#include "steno/RefExec.h"

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "gtest/gtest.h"

using namespace steno;
using namespace steno::serve;

namespace {

//===--------------------------------------------------------------------===//
// Helpers
//===--------------------------------------------------------------------===//

fuzz::QuerySpec sumSqSpec(std::uint32_t Count = 96, std::uint64_t Seed = 7) {
  fuzz::QuerySpec S;
  S.Sources.push_back(
      {0, fuzz::ElemTy::Double, fuzz::DataClass::Uniform, Count, Seed});
  fuzz::OpSpec Sel;
  Sel.K = fuzz::OpK::Select;
  Sel.T = fuzz::TransTmpl::Square;
  fuzz::OpSpec Agg;
  Agg.K = fuzz::OpK::Agg;
  Agg.A = fuzz::AggKind::Sum;
  S.Ops = {Sel, Agg};
  return S;
}

fuzz::QuerySpec whereCountSpec() {
  fuzz::QuerySpec S;
  S.Sources.push_back(
      {0, fuzz::ElemTy::Double, fuzz::DataClass::Skewed, 96, 21});
  fuzz::OpSpec Wh;
  Wh.K = fuzz::OpK::Where;
  Wh.P = fuzz::PredTmpl::GtC;
  Wh.DArg = 5.0;
  fuzz::OpSpec Agg;
  Agg.K = fuzz::OpK::Agg;
  Agg.A = fuzz::AggKind::Count;
  S.Ops = {Wh, Agg};
  return S;
}

fuzz::QuerySpec groupSpec() {
  fuzz::QuerySpec S;
  S.Sources.push_back(
      {0, fuzz::ElemTy::Double, fuzz::DataClass::Skewed, 96, 25});
  fuzz::OpSpec GA;
  GA.K = fuzz::OpK::GroupAgg;
  GA.Key = fuzz::KeyTmpl::Bucket;
  GA.DArg = 25.0;
  GA.G = fuzz::GroupStep::Sum;
  S.Ops = {GA};
  return S;
}

fuzz::QuerySpec orderSpec() {
  // A *terminal* OrderBy: the §6 planner turns exactly this shape into
  // the distributed sort (per-shard local sorts + MergeSorted Agg*); an
  // OrderBy followed by ToArray is a mid-chain sink it refuses.
  fuzz::QuerySpec S;
  S.Sources.push_back(
      {0, fuzz::ElemTy::Double, fuzz::DataClass::Uniform, 64, 23});
  fuzz::OpSpec Ord;
  Ord.K = fuzz::OpK::OrderBy;
  Ord.Key = fuzz::KeyTmpl::Abs;
  S.Ops = {Ord};
  return S;
}

fuzz::QuerySpec selectArraySpec(std::uint32_t Count = 64) {
  fuzz::QuerySpec S;
  S.Sources.push_back(
      {0, fuzz::ElemTy::Double, fuzz::DataClass::Uniform, Count, 29});
  fuzz::OpSpec Sel;
  Sel.K = fuzz::OpK::Select;
  Sel.T = fuzz::TransTmpl::Square;
  fuzz::OpSpec Arr;
  Arr.K = fuzz::OpK::ToArray;
  S.Ops = {Sel, Arr};
  return S;
}

fuzz::QuerySpec nonAssocSpec() {
  fuzz::QuerySpec S;
  S.Sources.push_back(
      {0, fuzz::ElemTy::Int64, fuzz::DataClass::Uniform, 64, 31});
  fuzz::OpSpec Agg;
  Agg.K = fuzz::OpK::Agg;
  Agg.A = fuzz::AggKind::FoldNonAssoc;
  S.Ops = {Agg};
  return S;
}

std::string specText(const fuzz::QuerySpec &S) {
  return fuzz::serializeSpec(S);
}

bool resultsMatch(const QueryResult &Got, const QueryResult &Want) {
  if (Got.isScalar() != Want.isScalar() ||
      Got.rows().size() != Want.rows().size())
    return false;
  for (std::size_t I = 0; I != Got.rows().size(); ++I)
    if (!fuzz::fuzzValueNear(Got.rows()[I], Want.rows()[I]))
      return false;
  return true;
}

QueryResult reference(const PreparedHandle &P) {
  return runReference(P->query(), P->bindings());
}

ServeOptions interpOnly() {
  ServeOptions O;
  O.BackgroundRecompile = false;
  return O;
}

constexpr std::chrono::milliseconds kDeadline{5000};

/// Range-partitions [0, Count) into Parts contiguous ranges with the
/// same Base/Extra arithmetic as the router (first Count%Parts shards
/// get one extra element).
std::vector<std::pair<std::size_t, std::size_t>>
partitionRanges(std::size_t Count, unsigned Parts) {
  std::vector<std::pair<std::size_t, std::size_t>> R;
  std::size_t Base = Count / Parts, Extra = Count % Parts, Begin = 0;
  for (unsigned I = 0; I != Parts; ++I) {
    std::size_t Len = Base + (I < Extra ? 1 : 0);
    R.emplace_back(Begin, Len);
    Begin += Len;
  }
  return R;
}

/// The decomposition oracle: runs the per-shard vertex over each range
/// via executePartial, combines with the router's Agg* stage, and
/// compares against the single-process reference.
void expectDecomposes(const fuzz::QuerySpec &Spec, unsigned Parts) {
  QueryService Svc(interpOnly());
  std::string Err;
  PreparedHandle P = Svc.prepare(specText(Spec), &Err);
  ASSERT_TRUE(P) << Err;
  const PreparedQuery::PartialState *PS = Svc.preparePartial(P);
  ASSERT_TRUE(PS);
  ASSERT_TRUE(PS->Splittable) << PS->WhyNot;

  std::size_t Count = static_cast<std::size_t>(
      P->bindings().sources()[0].Count);
  std::vector<QueryResult> Partials;
  for (auto [Begin, Len] : partitionRanges(Count, Parts)) {
    Response R = Svc.executePartial(P, Begin, Len, kDeadline);
    ASSERT_EQ(R.St, Status::Ok) << R.Message;
    Partials.push_back(std::move(R.Result));
  }

  dryad::ThreadPool Pool(2);
  QueryResult Combined = dryad::combineParallelPartials(
      Pool, PS->Plan, PS->Cert, std::move(Partials));
  EXPECT_TRUE(resultsMatch(Combined, reference(P)));

  Response Whole = Svc.execute(P, kDeadline);
  ASSERT_EQ(Whole.St, Status::Ok);
  EXPECT_TRUE(resultsMatch(Combined, Whole.Result));
}

//===--------------------------------------------------------------------===//
// §6 decomposition: per-shard partials + Agg* combine vs the reference
//===--------------------------------------------------------------------===//

TEST(ShardDecomp, SumPartialsAddUp) {
  // Hand-check the Agg* stage for the simplest combiner: the combined
  // scalar must equal the arithmetic sum of the per-shard partials.
  QueryService Svc(interpOnly());
  std::string Err;
  PreparedHandle P = Svc.prepare(specText(sumSqSpec()), &Err);
  ASSERT_TRUE(P) << Err;
  const PreparedQuery::PartialState *PS = Svc.preparePartial(P);
  ASSERT_TRUE(PS && PS->Splittable) << (PS ? PS->WhyNot : "null state");

  std::vector<QueryResult> Partials;
  double HandSum = 0;
  for (auto [Begin, Len] : partitionRanges(96, 3)) {
    Response R = Svc.executePartial(P, Begin, Len, kDeadline);
    ASSERT_EQ(R.St, Status::Ok) << R.Message;
    ASSERT_TRUE(R.Result.isScalar());
    HandSum += R.Result.scalarValue().asNumericDouble();
    Partials.push_back(std::move(R.Result));
  }
  dryad::ThreadPool Pool(2);
  QueryResult Combined = dryad::combineParallelPartials(
      Pool, PS->Plan, PS->Cert, std::move(Partials));
  ASSERT_TRUE(Combined.isScalar());
  double C = Combined.scalarValue().asNumericDouble();
  EXPECT_NEAR(C, HandSum, 1e-9 * (std::abs(HandSum) + 1));
  EXPECT_TRUE(resultsMatch(Combined, reference(P)));
}

TEST(ShardDecomp, FoldSumAcrossThreeShards) {
  expectDecomposes(sumSqSpec(), 3);
}

TEST(ShardDecomp, FilteredCountAcrossFourShards) {
  expectDecomposes(whereCountSpec(), 4);
}

TEST(ShardDecomp, GroupMergeByKeyAcrossThreeShards) {
  expectDecomposes(groupSpec(), 3);
}

TEST(ShardDecomp, OrderByMergeSortedAcrossThreeShards) {
  expectDecomposes(orderSpec(), 3);
}

TEST(ShardDecomp, ToArrayConcatAcrossThreeShards) {
  expectDecomposes(selectArraySpec(), 3);
}

TEST(ShardDecomp, EmptyShardsProduceIdentityPartials) {
  // Two elements across four shards: two shards run Len == 0 and must
  // contribute the identity partial.
  expectDecomposes(sumSqSpec(2, 41), 4);
  expectDecomposes(selectArraySpec(2), 4);
}

TEST(ShardDecomp, SingleElementShards) {
  expectDecomposes(sumSqSpec(3, 43), 3);
}

TEST(ShardDecomp, NonAssociativeFoldRefusesTheSplit) {
  QueryService Svc(interpOnly());
  std::string Err;
  PreparedHandle P = Svc.prepare(specText(nonAssocSpec()), &Err);
  ASSERT_TRUE(P) << Err;
  const PreparedQuery::PartialState *PS = Svc.preparePartial(P);
  ASSERT_TRUE(PS);
  EXPECT_FALSE(PS->Splittable);
  EXPECT_FALSE(PS->WhyNot.empty());

  Response R = Svc.executePartial(P, 0, 8, kDeadline);
  EXPECT_EQ(R.St, Status::Error);
  EXPECT_NE(R.Message.find("not splittable"), std::string::npos)
      << R.Message;
}

TEST(ShardDecomp, OutOfBoundsRangeErrors) {
  QueryService Svc(interpOnly());
  std::string Err;
  PreparedHandle P = Svc.prepare(specText(sumSqSpec()), &Err);
  ASSERT_TRUE(P) << Err;
  Response R = Svc.executePartial(P, 90, 100, kDeadline);
  EXPECT_EQ(R.St, Status::Error);
  EXPECT_NE(R.Message.find("out of bounds"), std::string::npos)
      << R.Message;
}

//===--------------------------------------------------------------------===//
// Exact-value wire codec
//===--------------------------------------------------------------------===//

void expectRoundTrip(const expr::Value &V) {
  std::string Enc = wireValue(V);
  expr::Value Out;
  std::deque<std::vector<double>> Arena;
  std::string Err;
  ASSERT_TRUE(parseWireValue(Enc, Out, Arena, &Err)) << Enc << ": " << Err;
  EXPECT_TRUE(Out == V) << Enc;
}

TEST(ShardWire, ValueCodecRoundTripsExactly) {
  expectRoundTrip(expr::Value(true));
  expectRoundTrip(expr::Value(false));
  expectRoundTrip(expr::Value(std::int64_t(0)));
  expectRoundTrip(expr::Value(std::numeric_limits<std::int64_t>::min()));
  expectRoundTrip(expr::Value(std::numeric_limits<std::int64_t>::max()));
  expectRoundTrip(expr::Value(0.1));
  expectRoundTrip(expr::Value(-0.0));
  expectRoundTrip(expr::Value(5e-324));  // min subnormal
  expectRoundTrip(expr::Value(1e308));
  expectRoundTrip(expr::Value(std::numeric_limits<double>::infinity()));
  expectRoundTrip(expr::Value(-std::numeric_limits<double>::infinity()));
  expectRoundTrip(expr::Value::makePair(
      expr::Value(1.5), expr::Value::makePair(expr::Value(std::int64_t(-7)),
                                              expr::Value(true))));
}

TEST(ShardWire, ValueCodecPreservesNegativeZeroSign) {
  expr::Value Out;
  std::deque<std::vector<double>> Arena;
  ASSERT_TRUE(parseWireValue(wireValue(expr::Value(-0.0)), Out, Arena));
  ASSERT_TRUE(Out.isDouble());
  EXPECT_TRUE(std::signbit(Out.asDouble()));
}

TEST(ShardWire, ValueCodecRoundTripsNan) {
  expr::Value Out;
  std::deque<std::vector<double>> Arena;
  ASSERT_TRUE(parseWireValue(
      wireValue(expr::Value(std::numeric_limits<double>::quiet_NaN())), Out,
      Arena));
  ASSERT_TRUE(Out.isDouble());
  EXPECT_TRUE(std::isnan(Out.asDouble()));
}

TEST(ShardWire, ValueCodecRoundTripsVecs) {
  const double Data[] = {0.1, -0.0, 1e308, 5e-324};
  expectRoundTrip(expr::Value(expr::VecView{Data, 4}));
  expectRoundTrip(expr::Value(expr::VecView{nullptr, 0}));
}

TEST(ShardWire, ValueCodecRejectsGarbage) {
  expr::Value Out;
  std::deque<std::vector<double>> Arena;
  EXPECT_FALSE(parseWireValue("q 1", Out, Arena));
  EXPECT_FALSE(parseWireValue("i ", Out, Arena));
  EXPECT_FALSE(parseWireValue("d 1.0 trailing", Out, Arena));
  EXPECT_FALSE(parseWireValue("v 3 0x1p+0", Out, Arena));
}

//===--------------------------------------------------------------------===//
// pexec over a socketpair
//===--------------------------------------------------------------------===//

TEST(ShardWire, PexecPartialsCombineToTheReference) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  QueryService Svc(interpOnly());
  std::thread Server([&] { serveConnection(Svc, Fds[0]); });
  WireClient Client(Fds[1]);

  std::uint64_t H = 99;
  std::string Err;
  ASSERT_TRUE(Client.prepare(specText(groupSpec()), H, Err)) << Err;

  // The same spec prepared in-process shares the cached handle, so its
  // PartialState carries the Plan/Cert the router would use.
  PreparedHandle P = Svc.prepare(specText(groupSpec()), &Err);
  ASSERT_TRUE(P) << Err;
  const PreparedQuery::PartialState *PS = Svc.preparePartial(P);
  ASSERT_TRUE(PS && PS->Splittable);

  std::vector<QueryResult> Partials;
  std::uint64_t Rid = 100;
  for (auto [Begin, Len] : partitionRanges(96, 3)) {
    WireClient::PartialResult R;
    ASSERT_TRUE(Client.pexec(H, Begin, Len, 5000, Rid++, R));
    ASSERT_EQ(R.St, Status::Ok) << R.Error;
    Partials.push_back(std::move(R.Result));
  }
  dryad::ThreadPool Pool(2);
  QueryResult Combined = dryad::combineParallelPartials(
      Pool, PS->Plan, PS->Cert, std::move(Partials));
  EXPECT_TRUE(resultsMatch(Combined, reference(P)));

  // Out-of-range and unsplittable sub-requests answer error frames on a
  // healthy connection.
  WireClient::PartialResult Bad;
  ASSERT_TRUE(Client.pexec(H, 90, 100, 5000, 777, Bad));
  EXPECT_EQ(Bad.St, Status::Error);

  std::uint64_t HNa = 99;
  ASSERT_TRUE(Client.prepare(specText(nonAssocSpec()), HNa, Err)) << Err;
  ASSERT_TRUE(Client.pexec(HNa, 0, 8, 5000, 778, Bad));
  EXPECT_EQ(Bad.St, Status::Error);
  EXPECT_NE(Bad.Error.find("not splittable"), std::string::npos)
      << Bad.Error;

  // xexec: the whole query with exact values, for fallback routing.
  WireClient::PartialResult Whole;
  ASSERT_TRUE(Client.xexec(HNa, 5000, 779, Whole));
  ASSERT_EQ(Whole.St, Status::Ok) << Whole.Error;
  PreparedHandle PNa = Svc.prepare(specText(nonAssocSpec()), &Err);
  ASSERT_TRUE(PNa) << Err;
  EXPECT_TRUE(resultsMatch(Whole.Result, reference(PNa)));

  Client.quit();
  Server.join();
  ::close(Fds[0]);
  ::close(Fds[1]);
}

//===--------------------------------------------------------------------===//
// Router end to end over in-process shards
//===--------------------------------------------------------------------===//

/// An in-process shard fleet: one interpreter-only QueryService per
/// shard, served over socketpairs minted by the RouterOptions::Connect
/// seam. shutdown() joins the server threads — call it after the router
/// is destroyed (its connection pool owns the client fds; closing them
/// EOFs the servers).
struct InProcessFleet {
  explicit InProcessFleet(unsigned N) {
    for (unsigned I = 0; I != N; ++I)
      Services.push_back(std::make_unique<QueryService>(interpOnly()));
  }

  shard::RouterOptions options() {
    shard::RouterOptions O;
    for (std::size_t I = 0; I != Services.size(); ++I)
      O.ShardSockets.push_back("inproc-" + std::to_string(I));
    O.Connect = [this](unsigned Shard) { return connect(Shard); };
    O.RetryBudget = std::chrono::milliseconds(3000);
    O.RetryBackoff = std::chrono::milliseconds(5);
    return O;
  }

  int connect(unsigned Shard) {
    int Fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) != 0)
      return -1;
    QueryService &Svc = *Services[Shard];
    std::lock_guard<std::mutex> Lock(M);
    ServerFds.push_back(Fds[0]);
    Threads.emplace_back([&Svc, Fd = Fds[0]] {
      serveConnection(Svc, Fd);
      ::close(Fd);
    });
    return Fds[1];
  }

  /// Half-closes every server-side fd, killing all live connections the
  /// way a SIGKILLed worker would.
  void killConnections() {
    std::lock_guard<std::mutex> Lock(M);
    for (int Fd : ServerFds)
      ::shutdown(Fd, SHUT_RDWR);
    ServerFds.clear();
  }

  void shutdown() {
    killConnections();
    std::lock_guard<std::mutex> Lock(M);
    for (std::thread &T : Threads)
      T.join();
    Threads.clear();
  }

  std::vector<std::unique_ptr<QueryService>> Services;
  std::mutex M;
  std::vector<int> ServerFds;
  std::vector<std::thread> Threads;
};

/// The direct-execution oracle for a spec text.
QueryResult directResult(const std::string &Text) {
  fuzz::QuerySpec Spec;
  std::string Err;
  EXPECT_TRUE(fuzz::parseSpec(Text, Spec, &Err)) << Err;
  fuzz::BuiltQuery B;
  EXPECT_TRUE(fuzz::buildSpec(Spec, B, &Err)) << Err;
  return runReference(B.Q, B.B);
}

TEST(ShardRouter, SplitAndFallbackEndToEnd) {
  InProcessFleet Fleet(3);
  auto Router = std::make_unique<shard::ShardRouter>(Fleet.options());

  std::string Err;
  shard::RoutedHandle HSum = Router->prepare(specText(sumSqSpec()), &Err);
  ASSERT_TRUE(HSum) << Err;
  EXPECT_TRUE(HSum->Split) << HSum->WhyNot;

  shard::RoutedHandle HNa = Router->prepare(specText(nonAssocSpec()), &Err);
  ASSERT_TRUE(HNa) << Err;
  EXPECT_FALSE(HNa->Split);
  EXPECT_LT(HNa->HomeShard, 3u);

  // Re-preparing the same text returns the memoized handle.
  EXPECT_EQ(Router->prepare(specText(sumSqSpec()), &Err).get(), HSum.get());

  serve::Response RSum = Router->execute(HSum);
  ASSERT_EQ(RSum.St, Status::Ok) << RSum.Message;
  EXPECT_NE(RSum.Id, 0u);
  EXPECT_TRUE(resultsMatch(RSum.Result, directResult(HSum->SpecText)));

  serve::Response RNa = Router->execute(HNa);
  ASSERT_EQ(RNa.St, Status::Ok) << RNa.Message;
  EXPECT_TRUE(resultsMatch(RNa.Result, directResult(HNa->SpecText)));

  shard::ShardRouter::Stats S = Router->stats();
  EXPECT_EQ(S.SplitExecs, 1u);
  EXPECT_EQ(S.FallbackExecs, 1u);
  EXPECT_GE(S.NonAssocFallbacks, 1u);
  EXPECT_EQ(S.Ok, 2u);
  EXPECT_EQ(S.SubSent, 4u); // 3 pexec + 1 xexec

  std::string Json = Router->statsJson();
  EXPECT_NE(Json.find("\"split_execs\":1"), std::string::npos) << Json;

  Router.reset();
  Fleet.shutdown();
}

TEST(ShardRouter, SingleShardFleetRoutesWhole) {
  InProcessFleet Fleet(1);
  auto Router = std::make_unique<shard::ShardRouter>(Fleet.options());
  std::string Err;
  shard::RoutedHandle H = Router->prepare(specText(sumSqSpec()), &Err);
  ASSERT_TRUE(H) << Err;
  EXPECT_FALSE(H->Split);
  EXPECT_EQ(H->HomeShard, 0u);
  serve::Response R = Router->execute(H);
  ASSERT_EQ(R.St, Status::Ok) << R.Message;
  EXPECT_TRUE(resultsMatch(R.Result, directResult(H->SpecText)));
  Router.reset();
  Fleet.shutdown();
}

TEST(ShardRouter, RetriesAcrossConnectionDeathExactlyOnce) {
  InProcessFleet Fleet(2);
  auto Router = std::make_unique<shard::ShardRouter>(Fleet.options());
  std::string Err;
  shard::RoutedHandle H = Router->prepare(specText(groupSpec()), &Err);
  ASSERT_TRUE(H) << Err;
  ASSERT_TRUE(H->Split) << H->WhyNot;

  serve::Response R1 = Router->execute(H);
  ASSERT_EQ(R1.St, Status::Ok) << R1.Message;

  // Kill every live connection: the next execute must transparently
  // reconnect, re-prepare (handles are connection-local), retry, and
  // still answer exactly once.
  Fleet.killConnections();
  serve::Response R2 = Router->execute(H);
  ASSERT_EQ(R2.St, Status::Ok) << R2.Message;
  EXPECT_NE(R2.Id, R1.Id);
  EXPECT_TRUE(resultsMatch(R2.Result, directResult(H->SpecText)));

  shard::ShardRouter::Stats S = Router->stats();
  EXPECT_GE(S.Deaths, 1u);
  EXPECT_GE(S.Retries, 1u);
  EXPECT_GE(S.Reprepares, 1u);
  EXPECT_EQ(S.Ok, 2u);
  EXPECT_EQ(S.Errors, 0u);
  EXPECT_EQ(S.Timeouts, 0u);

  Router.reset();
  Fleet.shutdown();
}

//===--------------------------------------------------------------------===//
// Corpus replay: sharded vs direct, differentially
//===--------------------------------------------------------------------===//

TEST(ShardCorpus, EveryReproducerMatchesDirectExecution) {
  namespace fs = std::filesystem;
  std::string Dir = std::string(STENO_TESTS_SRC_DIR) + "/fuzz_corpus";
  ASSERT_TRUE(fs::exists(Dir));
  InProcessFleet Fleet(3);
  auto Router = std::make_unique<shard::ShardRouter>(Fleet.options());
  unsigned Replayed = 0, Split = 0;
  for (const auto &Entry : fs::directory_iterator(Dir)) {
    if (Entry.path().extension() != ".fuzzspec")
      continue;
    std::ifstream In(Entry.path());
    std::stringstream Ss;
    Ss << In.rdbuf();
    std::string Text = Ss.str(), Err;
    shard::RoutedHandle H = Router->prepare(Text, &Err);
    ASSERT_TRUE(H) << Entry.path() << ": " << Err;
    Split += H->Split;
    serve::Response R = Router->execute(H);
    ASSERT_EQ(R.St, Status::Ok) << Entry.path() << ": " << R.Message;
    EXPECT_TRUE(resultsMatch(R.Result, directResult(Text))) << Entry.path();
    ++Replayed;
  }
  EXPECT_GE(Replayed, 17u) << "corpus went missing";
  EXPECT_GE(Split, 1u) << "no corpus spec exercised the split path";
  shard::ShardRouter::Stats S = Router->stats();
  EXPECT_EQ(S.Errors, 0u);
  EXPECT_EQ(S.Timeouts, 0u);
  Router.reset();
  Fleet.shutdown();
}

} // namespace
