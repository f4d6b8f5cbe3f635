//===- tests/cache_test.cpp - Query cache & structural hashing -*- C++ -*-===//

#include "expr/Analysis.h"
#include "steno/PersistentCache.h"
#include "steno/QueryCache.h"
#include "support/TempFile.h"
#include "support/Timing.h"

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

using namespace steno;
using namespace steno::expr;
using namespace steno::expr::dsl;
using query::Query;

namespace {

E x() { return param("x", Type::doubleTy()); }

Query sumSq() {
  return Query::doubleArray(0).select(lambda({x()}, x() * x())).sum();
}

} // namespace

//===--------------------------------------------------------------------===//
// Structural hashing / equality of expressions
//===--------------------------------------------------------------------===//

TEST(ExprHash, EqualStructureEqualHash) {
  E A = x() * x() + 1.0;
  E B = x() * x() + 1.0;
  EXPECT_NE(A.node(), B.node());
  EXPECT_EQ(hashExpr(*A.node()), hashExpr(*B.node()));
  EXPECT_TRUE(equalExprs(*A.node(), *B.node()));
}

TEST(ExprHash, LiteralsDistinguish) {
  E A = x() + 1.0;
  E B = x() + 2.0;
  EXPECT_FALSE(equalExprs(*A.node(), *B.node()));
  EXPECT_NE(hashExpr(*A.node()), hashExpr(*B.node()));
}

TEST(ExprHash, OperatorsDistinguish) {
  EXPECT_FALSE(equalExprs(*(x() + 1.0).node(), *(x() - 1.0).node()));
}

TEST(ExprHash, ParamNamesDistinguish) {
  E A = param("a", Type::doubleTy());
  E B = param("b", Type::doubleTy());
  EXPECT_FALSE(equalExprs(*A.node(), *B.node()));
}

TEST(ExprHash, SlotsDistinguish) {
  EXPECT_FALSE(equalExprs(*capture(0, Type::doubleTy()).node(),
                          *capture(1, Type::doubleTy()).node()));
  EXPECT_FALSE(equalExprs(*sourceLen(0).node(), *sourceLen(1).node()));
}

TEST(ExprHash, IntAndDoubleLiteralsDiffer) {
  EXPECT_FALSE(
      equalExprs(*E(1).node(), *E(1.0).node()));
}

TEST(ExprHash, Lambdas) {
  Lambda A = lambda({x()}, x() * 2.0);
  Lambda B = lambda({x()}, x() * 2.0);
  Lambda C = lambda({x()}, x() * 3.0);
  EXPECT_TRUE(equalLambdas(A, B));
  EXPECT_EQ(hashLambda(A), hashLambda(B));
  EXPECT_FALSE(equalLambdas(A, C));
  EXPECT_TRUE(equalLambdas(Lambda(), Lambda()));
  EXPECT_FALSE(equalLambdas(A, Lambda()));
}

//===--------------------------------------------------------------------===//
// Query fingerprints
//===--------------------------------------------------------------------===//

TEST(QueryHash, IndependentlyBuiltQueriesAreEqual) {
  Query A = sumSq();
  Query B = sumSq();
  EXPECT_NE(A.node(), B.node());
  EXPECT_EQ(hashQuery(A), hashQuery(B));
  EXPECT_TRUE(equalQueries(A, B));
}

TEST(QueryHash, DifferentSlotsDiffer) {
  Query A = Query::doubleArray(0).sum();
  Query B = Query::doubleArray(1).sum();
  EXPECT_FALSE(equalQueries(A, B));
}

TEST(QueryHash, DifferentOperatorsDiffer) {
  EXPECT_FALSE(equalQueries(Query::doubleArray(0).sum(),
                            Query::doubleArray(0).count()));
}

TEST(QueryHash, NestedQueriesCompared) {
  auto Y = param("y", Type::doubleTy());
  auto Build = [&](double K) {
    return Query::doubleArray(0).selectMany(
        x(), Query::doubleArray(1).select(lambda({Y}, x() * Y + K)));
  };
  EXPECT_TRUE(equalQueries(Build(1.0), Build(1.0)));
  EXPECT_FALSE(equalQueries(Build(1.0), Build(2.0)));
}

TEST(QueryHash, ChainPrefixIsNotEqual) {
  Query Short = Query::doubleArray(0).where(lambda({x()}, x() > 0.0));
  Query Long = Short.select(lambda({x()}, x() * 2.0));
  EXPECT_FALSE(equalQueries(Short, Long));
}

//===--------------------------------------------------------------------===//
// The cache
//===--------------------------------------------------------------------===//

TEST(QueryCacheTest, HitOnStructurallyEqualQuery) {
  QueryCache Cache;
  CompileOptions Options;
  Options.Exec = Backend::Interp;
  CompiledQuery A = Cache.getOrCompile(sumSq(), Options);
  CompiledQuery B = Cache.getOrCompile(sumSq(), Options);
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_EQ(Cache.misses(), 1u);
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_EQ(&A.generatedSource(), &B.generatedSource())
      << "both handles share one compiled module";
}

TEST(QueryCacheTest, MissOnDifferentStructure) {
  QueryCache Cache;
  CompileOptions Options;
  Options.Exec = Backend::Interp;
  Cache.getOrCompile(sumSq(), Options);
  Cache.getOrCompile(Query::doubleArray(0).sum(), Options);
  EXPECT_EQ(Cache.misses(), 2u);
  EXPECT_EQ(Cache.size(), 2u);
}

TEST(QueryCacheTest, BackendIsPartOfTheKey) {
  QueryCache Cache;
  CompileOptions Interp;
  Interp.Exec = Backend::Interp;
  CompileOptions Native;
  Native.Exec = Backend::Native;
  Cache.getOrCompile(sumSq(), Interp);
  Cache.getOrCompile(sumSq(), Native);
  EXPECT_EQ(Cache.misses(), 2u);
}

TEST(QueryCacheTest, SpecializationFlagIsPartOfTheKey) {
  auto G = param("g", Type::pairTy(Type::int64Ty(), Type::vecTy()));
  auto A = param("a", Type::doubleTy());
  auto V = param("v", Type::doubleTy());
  Query BagSum = Query::overVec(G.second())
                     .aggregate(E(0.0), lambda({A, V}, A + V),
                                lambda({A}, pair(G.first(), A)));
  Query Q = Query::doubleArray(0)
                .groupBy(lambda({x()}, toInt64(x())))
                .selectNested(G, BagSum);
  QueryCache Cache;
  CompileOptions On;
  On.Exec = Backend::Interp;
  CompileOptions Off = On;
  Off.SpecializeGroupByAggregate = false;
  EXPECT_TRUE(Cache.getOrCompile(Q, On).groupBySpecialized());
  EXPECT_FALSE(Cache.getOrCompile(Q, Off).groupBySpecialized());
  EXPECT_EQ(Cache.misses(), 2u);
}

// Vectorize picks the interpreter's batch tier: it keys interpreter
// entries, while a native plan compiles the same fused loop either way.
TEST(QueryCacheTest, VectorizeKeysInterpreterEntriesOnly) {
  QueryCache Cache;
  for (Backend Exec : {Backend::Interp, Backend::Native}) {
    CompileOptions On;
    On.Exec = Exec;
    On.Vectorize = true;
    CompileOptions Off = On;
    Off.Vectorize = false;
    EXPECT_EQ(Cache.getOrCompile(sumSq(), On).vectorized(),
              Exec == Backend::Interp);
    EXPECT_FALSE(Cache.getOrCompile(sumSq(), Off).vectorized());
  }
  EXPECT_EQ(Cache.misses(), 3u); // interp on, interp off, native
  EXPECT_EQ(Cache.hits(), 1u);
}

TEST(QueryCacheTest, CachedNativeQuerySkipsRecompilation) {
  QueryCache Cache;
  CompiledQuery First = Cache.getOrCompile(sumSq(), {});
  EXPECT_GT(First.compileMillis(), 0.0);
  support::WallTimer T;
  CompiledQuery Second = Cache.getOrCompile(sumSq(), {});
  EXPECT_LT(T.millis(), First.compileMillis() / 2.0)
      << "cache hit must not re-invoke the compiler";
  // And the cached query runs.
  std::vector<double> Xs = {1.0, 2.0};
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), 2);
  EXPECT_DOUBLE_EQ(Second.run(B).scalarValue().asDouble(), 5.0);
}

TEST(QueryCacheTest, ClearEmptiesButHandlesSurvive) {
  QueryCache Cache;
  CompileOptions Options;
  Options.Exec = Backend::Interp;
  CompiledQuery Kept = Cache.getOrCompile(sumSq(), Options);
  Cache.clear();
  EXPECT_EQ(Cache.size(), 0u);
  std::vector<double> Xs = {3.0};
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), 1);
  EXPECT_DOUBLE_EQ(Kept.run(B).scalarValue().asDouble(), 9.0);
}

TEST(QueryCacheTest, GlobalInstanceIsShared) {
  QueryCache &A = QueryCache::global();
  QueryCache &B = QueryCache::global();
  EXPECT_EQ(&A, &B);
}

TEST(QueryCacheTest, LookupPeeksWithoutCompiling) {
  QueryCache Cache;
  CompileOptions Options;
  Options.Exec = Backend::Interp;
  EXPECT_FALSE(Cache.lookup(sumSq(), Options).valid());
  EXPECT_EQ(Cache.misses(), 0u) << "lookup must not count as a miss";
  CompiledQuery Compiled = Cache.getOrCompile(sumSq(), Options);
  CompiledQuery Peeked = Cache.lookup(sumSq(), Options);
  ASSERT_TRUE(Peeked.valid());
  EXPECT_EQ(&Peeked.generatedSource(), &Compiled.generatedSource());
  EXPECT_EQ(Cache.hits(), 0u) << "lookup must not count as a hit";
}

TEST(QueryCacheTest, InsertIsFirstWins) {
  QueryCache Cache;
  CompileOptions Options;
  Options.Exec = Backend::Interp;
  // Two independently compiled modules for one key: the second insert
  // must drop its argument and return the canonical first entry.
  CompiledQuery A = compileQuery(sumSq(), Options);
  CompiledQuery B = compileQuery(sumSq(), Options);
  CompiledQuery InA = Cache.insert(sumSq(), Options, A);
  CompiledQuery InB = Cache.insert(sumSq(), Options, B);
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_EQ(&InA.generatedSource(), &InB.generatedSource());
  EXPECT_EQ(&InB.generatedSource(), &A.generatedSource());
  EXPECT_EQ(Cache.duplicateCompilesDropped(), 1u);
}

TEST(QueryCacheTest, EvictRemovesExactlyTheKeyedEntry) {
  QueryCache Cache;
  CompileOptions Interp;
  Interp.Exec = Backend::Interp;
  CompileOptions NoSpec = Interp;
  NoSpec.SpecializeGroupByAggregate = false;
  CompiledQuery Kept = Cache.getOrCompile(sumSq(), Interp);
  Cache.getOrCompile(sumSq(), NoSpec);
  ASSERT_EQ(Cache.size(), 2u);
  EXPECT_TRUE(Cache.evict(sumSq(), NoSpec));
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_FALSE(Cache.evict(sumSq(), NoSpec)) << "already gone";
  EXPECT_TRUE(Cache.lookup(sumSq(), Interp).valid())
      << "the other options-key survives";
  // Evicted handles keep working (shared module state).
  std::vector<double> Xs = {2.0};
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), 1);
  EXPECT_TRUE(Cache.evict(sumSq(), Interp));
  EXPECT_DOUBLE_EQ(Kept.run(B).scalarValue().asDouble(), 4.0);
}

TEST(QueryCacheTest, ConcurrentMissesConvergeOnOneEntry) {
  // The duplicate-insert race: N threads miss the same key at once, all
  // compile (compilation is outside the lock), but first-wins insertion
  // must leave exactly one entry, and every caller must receive it.
  constexpr unsigned Threads = 8;
  QueryCache Cache;
  CompileOptions Options;
  Options.Exec = Backend::Interp;
  std::vector<const std::string *> Sources(Threads);
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      CompiledQuery CQ = Cache.getOrCompile(sumSq(), Options);
      Sources[T] = &CQ.generatedSource();
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(Cache.size(), 1u) << "duplicate entries for one key";
  for (unsigned T = 1; T < Threads; ++T)
    EXPECT_EQ(Sources[T], Sources[0])
        << "caller " << T << " got a non-canonical module";
  EXPECT_EQ(Cache.hits() + Cache.misses(), Threads);
  EXPECT_GE(Cache.misses(), 1u);
}

TEST(QueryCacheTest, ConcurrentInsertLookupEvictSameKey) {
  // Hammer one key from three kinds of threads; the cache must stay
  // coherent: size is always 0 or 1 for the key, lookups only ever see
  // the canonical entry, and nothing crashes or deadlocks.
  constexpr unsigned Iters = 200;
  QueryCache Cache;
  CompileOptions Options;
  Options.Exec = Backend::Interp;
  CompiledQuery Seed = compileQuery(sumSq(), Options);
  std::atomic<bool> Stop{false};
  std::atomic<std::uint64_t> Inserted{0}, Evicted{0};

  std::vector<std::thread> Pool;
  for (int T = 0; T < 2; ++T)
    Pool.emplace_back([&] {
      for (unsigned I = 0; I < Iters; ++I) {
        CompiledQuery Canon = Cache.insert(sumSq(), Options, Seed);
        EXPECT_TRUE(Canon.valid());
        Inserted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  Pool.emplace_back([&] {
    for (unsigned I = 0; I < Iters; ++I)
      if (Cache.evict(sumSq(), Options))
        Evicted.fetch_add(1, std::memory_order_relaxed);
  });
  Pool.emplace_back([&] {
    while (!Stop.load(std::memory_order_relaxed)) {
      CompiledQuery Peek = Cache.lookup(sumSq(), Options);
      if (Peek.valid()) {
        EXPECT_EQ(&Peek.generatedSource(), &Seed.generatedSource());
      }
      EXPECT_LE(Cache.size(), 1u);
    }
  });
  for (std::size_t I = 0; I + 1 < Pool.size(); ++I)
    Pool[I].join();
  Stop.store(true, std::memory_order_relaxed);
  Pool.back().join();

  EXPECT_EQ(Inserted.load(), 2u * Iters) << "every insert returned";
  EXPECT_LE(Cache.size(), 1u);
  // The entry (if present) is still runnable.
  CompiledQuery Final = Cache.getOrCompile(sumSq(), Options);
  std::vector<double> Xs = {1.0, 2.0};
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), 2);
  EXPECT_DOUBLE_EQ(Final.run(B).scalarValue().asDouble(), 5.0);
}

//===--------------------------------------------------------------------===//
// The persistent (Nectar-style) cache
//===--------------------------------------------------------------------===//

namespace {

std::string freshCacheDir(const char *Tag) {
  static int Counter = 0;
  return support::processTempDir() + "/pcache_" + Tag + "_" +
         std::to_string(Counter++);
}

} // namespace

TEST(PersistentCacheTest, MissCompilesAndPersists) {
  PersistentQueryCache Cache(freshCacheDir("miss"));
  CompiledQuery CQ = Cache.getOrCompile(sumSq());
  EXPECT_EQ(Cache.misses(), 1u);
  EXPECT_EQ(Cache.hits(), 0u);
  std::vector<double> Xs = {1.0, 2.0};
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), 2);
  EXPECT_DOUBLE_EQ(CQ.run(B).scalarValue().asDouble(), 5.0);
}

TEST(PersistentCacheTest, SecondInstanceHitsFromDisk) {
  std::string Dir = freshCacheDir("hit");
  {
    PersistentQueryCache First(Dir);
    First.getOrCompile(sumSq());
  }
  // A fresh cache object (standing in for a new process) must rehydrate
  // the stored artifact without invoking the compiler.
  PersistentQueryCache Second(Dir);
  support::WallTimer T;
  CompiledQuery CQ = Second.getOrCompile(sumSq());
  double LoadMs = T.millis();
  EXPECT_EQ(Second.hits(), 1u);
  EXPECT_EQ(Second.misses(), 0u);
  EXPECT_LT(LoadMs, 100.0) << "dlopen, not a compile";
  std::vector<double> Xs = {3.0};
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), 1);
  EXPECT_DOUBLE_EQ(CQ.run(B).scalarValue().asDouble(), 9.0);
}

TEST(PersistentCacheTest, OptionsKeyEntriesSeparately) {
  std::string Dir = freshCacheDir("opts");
  PersistentQueryCache Cache(Dir);
  CompileOptions WithCse;
  CompileOptions NoCse;
  NoCse.EnableCse = false;
  Cache.getOrCompile(sumSq(), WithCse);
  Cache.getOrCompile(sumSq(), NoCse);
  EXPECT_EQ(Cache.misses(), 2u);
  Cache.getOrCompile(sumSq(), WithCse);
  EXPECT_EQ(Cache.hits(), 1u);
  // Vectorize leaves the native TU alone, so it shares the artifact.
  CompileOptions OtherVec = WithCse;
  OtherVec.Vectorize = !WithCse.Vectorize;
  Cache.getOrCompile(sumSq(), OtherVec);
  EXPECT_EQ(Cache.hits(), 2u);
  EXPECT_EQ(Cache.misses(), 2u);
}

TEST(PersistentCacheTest, ProfileIsPartOfTheKey) {
  // A profiled TU and a plain one are different artifacts: neither may
  // be rehydrated for the other, in either order.
  CompileOptions Profiled;
  Profiled.Profile = true;
  CompileOptions Plain;
  Plain.Profile = false;
  {
    PersistentQueryCache Cache(freshCacheDir("prof_first"));
    CompiledQuery P = Cache.getOrCompile(sumSq(), Profiled);
    CompiledQuery U = Cache.getOrCompile(sumSq(), Plain);
    EXPECT_EQ(Cache.misses(), 2u);
    EXPECT_EQ(Cache.hits(), 0u);
    EXPECT_TRUE(P.profiled());
    EXPECT_NE(P.generatedSource().find("prof_c_"), std::string::npos);
    EXPECT_EQ(U.generatedSource().find("prof_c_"), std::string::npos)
        << "the unprofiled request got the profiled TU";
  }
  {
    PersistentQueryCache Cache(freshCacheDir("plain_first"));
    Cache.getOrCompile(sumSq(), Plain);
    CompiledQuery P = Cache.getOrCompile(sumSq(), Profiled);
    EXPECT_EQ(Cache.misses(), 2u);
    EXPECT_TRUE(P.profiled())
        << "the profiled request rehydrated the unprofiled TU and would "
           "record no profile";
  }
}

TEST(PersistentCacheTest, CorruptEntryRecompiles) {
  std::string Dir = freshCacheDir("corrupt");
  {
    PersistentQueryCache Cache(Dir);
    Cache.getOrCompile(sumSq());
  }
  // Truncate the stored object.
  std::string Entry;
  {
    PersistentQueryCache Probe(Dir);
    // Overwrite the .so of the only entry with garbage.
  }
  // Find and corrupt the entry's object file (redirection targets are
  // not globbed, so loop).
  std::string Cmd = "sh -c 'for f in " + Dir +
                    "/*/query.so; do echo garbage > \"$f\"; done'";
  ASSERT_EQ(std::system(Cmd.c_str()), 0);
  PersistentQueryCache Cache(Dir);
  CompiledQuery CQ = Cache.getOrCompile(sumSq());
  EXPECT_EQ(Cache.misses(), 1u) << "corrupt entry must recompile";
  std::vector<double> Xs = {2.0};
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), 1);
  EXPECT_DOUBLE_EQ(CQ.run(B).scalarValue().asDouble(), 4.0);
}

namespace {

/// The meta.txt of the single entry under \p Dir.
std::string onlyMetaPath(const std::string &Dir) {
  for (const auto &Entry : std::filesystem::directory_iterator(Dir)) {
    std::string Meta = Entry.path().string() + "/meta.txt";
    if (std::filesystem::exists(Meta))
      return Meta;
  }
  return "";
}

} // namespace

TEST(PersistentCacheTest, CrashDamagedMetaMissesCleanly) {
  // Crash-consistency: any torn or tampered metadata must read as a
  // clean miss (recompile, correct results) — never an abort and never
  // a rehydrated query with partial slot-usage records, which would
  // silently skip binding validation.
  std::string Dir = freshCacheDir("crash");
  {
    PersistentQueryCache Cache(Dir);
    Cache.getOrCompile(sumSq());
  }
  std::string MetaPath = onlyMetaPath(Dir);
  ASSERT_FALSE(MetaPath.empty());
  std::string Good = support::readFileOrEmpty(MetaPath);
  ASSERT_NE(Good.find("steno-pcache v1"), std::string::npos);
  ASSERT_NE(Good.find("\nend\n"), std::string::npos);

  const std::pair<const char *, std::string> Corruptions[] = {
      // Torn write: truncated mid-file (drops the slot lines and the
      // sentinel). The pre-fix decoder accepted this.
      {"truncated", Good.substr(0, Good.find("srcslots"))},
      // Torn write: truncated mid-line.
      {"mid-line", Good.substr(0, Good.size() / 2)},
      // Pre-versioning format (no header, no sentinel).
      {"old-format", Good.substr(Good.find('\n') + 1)},
      // Arbitrary garbage and empty file.
      {"garbage", "entry \x01\xff not a meta file"},
      {"empty", ""},
  };
  std::vector<double> Xs = {1.0, 2.0};
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), 2);
  for (const auto &[Tag, Bad] : Corruptions) {
    support::writeFile(MetaPath, Bad);
    PersistentQueryCache Cache(Dir);
    CompiledQuery CQ = Cache.getOrCompile(sumSq());
    EXPECT_EQ(Cache.misses(), 1u) << Tag << ": damaged meta must miss";
    EXPECT_EQ(Cache.hits(), 0u) << Tag;
    EXPECT_DOUBLE_EQ(CQ.run(B).scalarValue().asDouble(), 5.0) << Tag;
    // The recompile healed the entry: a fresh instance hits again.
    PersistentQueryCache Healed(Dir);
    Healed.getOrCompile(sumSq());
    EXPECT_EQ(Healed.hits(), 1u) << Tag << ": entry did not heal";
  }
}

TEST(PersistentCacheTest, NoTemporaryFilesLeftBehind) {
  // All entry files are written via write-to-temp + rename; nothing
  // with a .tmp suffix may survive a successful fill.
  std::string Dir = freshCacheDir("tmpfiles");
  PersistentQueryCache Cache(Dir);
  Cache.getOrCompile(sumSq());
  for (const auto &Entry :
       std::filesystem::recursive_directory_iterator(Dir))
    EXPECT_EQ(Entry.path().string().find(".tmp"), std::string::npos)
        << Entry.path();
}

TEST(PersistentCacheTest, ComplexResultTypesRoundTrip) {
  // Rows of Pair(int64, double) through a rehydrated query.
  std::string Dir = freshCacheDir("pairs");
  auto A = param("a", Type::doubleTy());
  Query Q = Query::doubleArray(0).groupByAggregate(
      lambda({x()}, toInt64(x())), E(0.0), lambda({A, x()}, A + x()));
  {
    PersistentQueryCache First(Dir);
    First.getOrCompile(Q);
  }
  PersistentQueryCache Second(Dir);
  CompiledQuery CQ = Second.getOrCompile(Q);
  EXPECT_EQ(Second.hits(), 1u);
  std::vector<double> Xs = {1.25, 1.5, 2.25};
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), 3);
  QueryResult R = CQ.run(B);
  ASSERT_EQ(R.rows().size(), 2u);
  EXPECT_EQ(R.rows()[0].first().asInt64(), 1);
  EXPECT_DOUBLE_EQ(R.rows()[0].second().asDouble(), 2.75);
}

//===--------------------------------------------------------------------===//
// Type serialization (the persistence codec)
//===--------------------------------------------------------------------===//

TEST(TypeSerialize, RoundTrips) {
  for (TypeRef T :
       {Type::boolTy(), Type::int64Ty(), Type::doubleTy(), Type::vecTy(),
        Type::pairTy(Type::int64Ty(), Type::vecTy()),
        Type::pairTy(Type::pairTy(Type::boolTy(), Type::doubleTy()),
                     Type::int64Ty())}) {
    TypeRef Back = Type::deserialize(T->serialize());
    ASSERT_TRUE(Back != nullptr) << T->serialize();
    EXPECT_TRUE(sameType(T, Back)) << T->serialize();
  }
}

TEST(TypeSerialize, RejectsMalformed) {
  EXPECT_EQ(Type::deserialize(""), nullptr);
  EXPECT_EQ(Type::deserialize("x"), nullptr);
  EXPECT_EQ(Type::deserialize("p(d"), nullptr);
  EXPECT_EQ(Type::deserialize("p(d,i"), nullptr);
  EXPECT_EQ(Type::deserialize("dd"), nullptr);
  EXPECT_EQ(Type::deserialize("p(d,i))"), nullptr);
}
