//===- steno/QueryCache.cpp -----------------------------------*- C++ -*-===//

#include "steno/QueryCache.h"
#include "expr/Analysis.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <cassert>
#include <cmath>

using namespace steno;
using expr::equalExprs;
using expr::equalLambdas;
using expr::hashExpr;
using expr::hashLambda;
using query::QueryNodeRef;
using query::SourceDesc;
using query::SourceKind;

namespace {

std::uint64_t combine(std::uint64_t H, std::uint64_t V) {
  H ^= V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  return H;
}

std::uint64_t hashMaybeExpr(const expr::ExprRef &E) {
  return E ? hashExpr(*E) : 0x7f4a;
}

bool equalMaybeExprs(const expr::ExprRef &A, const expr::ExprRef &B) {
  if (!A || !B)
    return !A && !B;
  return equalExprs(*A, *B);
}

std::uint64_t hashSource(const SourceDesc &Src) {
  std::uint64_t H = static_cast<std::uint64_t>(Src.Kind) + 0xabcd;
  H = combine(H, Src.Slot);
  H = combine(H, hashMaybeExpr(Src.Start));
  H = combine(H, hashMaybeExpr(Src.CountE));
  H = combine(H, hashMaybeExpr(Src.Vec));
  return H;
}

bool equalSources(const SourceDesc &A, const SourceDesc &B) {
  return A.Kind == B.Kind && A.Slot == B.Slot &&
         equalMaybeExprs(A.Start, B.Start) &&
         equalMaybeExprs(A.CountE, B.CountE) &&
         equalMaybeExprs(A.Vec, B.Vec);
}

std::uint64_t hashNode(const QueryNodeRef &N);

std::uint64_t hashChainFrom(const QueryNodeRef &N) {
  std::uint64_t H = 0x5555;
  for (QueryNodeRef Cur = N; Cur; Cur = Cur->upstream())
    H = combine(H, hashNode(Cur));
  return H;
}

std::uint64_t hashNode(const QueryNodeRef &N) {
  std::uint64_t H = static_cast<std::uint64_t>(N->kind()) + 1;
  if (N->kind() == query::OpKind::Source)
    H = combine(H, hashSource(N->source()));
  H = combine(H, hashLambda(N->fn()));
  H = combine(H, hashLambda(N->fn2()));
  H = combine(H, hashLambda(N->fn3()));
  H = combine(H, hashLambda(N->combiner()));
  H = combine(H, hashMaybeExpr(N->arg()));
  H = combine(H, hashMaybeExpr(N->denseKeys()));
  if (N->nested()) {
    H = combine(H, hashChainFrom(N->nested()));
    std::uint64_t NameH = 1469598103934665603ULL;
    for (char C : N->outerParam()) {
      NameH ^= static_cast<unsigned char>(C);
      NameH *= 1099511628211ULL;
    }
    H = combine(H, NameH);
  }
  return H;
}

bool equalNodes(const QueryNodeRef &A, const QueryNodeRef &B);

bool equalChainsFrom(const QueryNodeRef &A, const QueryNodeRef &B) {
  QueryNodeRef X = A;
  QueryNodeRef Y = B;
  while (X && Y) {
    if (!equalNodes(X, Y))
      return false;
    X = X->upstream();
    Y = Y->upstream();
  }
  return !X && !Y;
}

bool equalNodes(const QueryNodeRef &A, const QueryNodeRef &B) {
  if (A == B)
    return true;
  if (A->kind() != B->kind())
    return false;
  if (A->kind() == query::OpKind::Source &&
      !equalSources(A->source(), B->source()))
    return false;
  if (!equalLambdas(A->fn(), B->fn()) ||
      !equalLambdas(A->fn2(), B->fn2()) ||
      !equalLambdas(A->fn3(), B->fn3()) ||
      !equalLambdas(A->combiner(), B->combiner()))
    return false;
  if (!equalMaybeExprs(A->arg(), B->arg()) ||
      !equalMaybeExprs(A->denseKeys(), B->denseKeys()))
    return false;
  if ((A->nested() != nullptr) != (B->nested() != nullptr))
    return false;
  if (A->nested()) {
    if (A->outerParam() != B->outerParam())
      return false;
    if (!equalChainsFrom(A->nested(), B->nested()))
      return false;
  }
  return true;
}

} // namespace

std::uint64_t steno::hashQuery(const query::Query &Q) {
  assert(Q.valid() && "hashing an invalid query");
  return hashChainFrom(Q.node());
}

bool steno::equalQueries(const query::Query &A, const query::Query &B) {
  assert(A.valid() && B.valid() && "comparing invalid queries");
  return equalChainsFrom(A.node(), B.node());
}

bool QueryCache::Entry::matches(const query::Query &Q,
                                const CompileOptions &O) const {
  return Exec == O.Exec && Specialize == O.SpecializeGroupByAggregate &&
         Profile == O.Profile && Rewrite == O.Rewrite &&
         (Vectorize == O.Vectorize || Exec == Backend::Native) &&
         Adaptive == O.Adaptive && equalQueries(Query, Q);
}

CompiledQuery QueryCache::getOrCompile(const query::Query &Q,
                                       const CompileOptions &Options) {
  static obs::Counter &HitCount = obs::counter("steno.cache.hits");
  static obs::Counter &MissCount = obs::counter("steno.cache.misses");
  static obs::Counter &SavedMs =
      obs::counter("steno.cache.compile_ms_saved");

  obs::Span Span("steno.cache.getOrCompile");
  std::uint64_t Key = hashQuery(Q);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Buckets.find(Key);
    if (It != Buckets.end()) {
      for (const Entry &E : It->second) {
        if (E.matches(Q, Options)) {
          Hits.fetch_add(1, std::memory_order_relaxed);
          HitCount.inc();
          SavedMs.inc(static_cast<std::uint64_t>(
              std::llround(E.Compiled.compileMillis())));
          return E.Compiled;
        }
      }
    }
  }
  // Compile outside the lock (compilation can take hundreds of ms). A
  // concurrent getOrCompile for the same key may be compiling too; the
  // re-scan inside insert() makes the first finisher canonical and drops
  // the duplicate module, so every caller shares one entry.
  CompiledQuery Compiled = compileQuery(Q, Options);
  Misses.fetch_add(1, std::memory_order_relaxed);
  MissCount.inc();
  return insert(Q, Options, std::move(Compiled));
}

CompiledQuery QueryCache::lookup(const query::Query &Q,
                                 const CompileOptions &Options) const {
  std::uint64_t Key = hashQuery(Q);
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Buckets.find(Key);
  if (It == Buckets.end())
    return CompiledQuery();
  for (const Entry &E : It->second)
    if (E.matches(Q, Options))
      return E.Compiled;
  return CompiledQuery();
}

CompiledQuery QueryCache::insert(const query::Query &Q,
                                 const CompileOptions &Options,
                                 CompiledQuery Compiled) {
  static obs::Counter &DupDroppedCount =
      obs::counter("steno.cache.duplicate_compiles_dropped");
  std::uint64_t Key = hashQuery(Q);
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const Entry &E : Buckets[Key]) {
    if (E.matches(Q, Options)) {
      DupDropped.fetch_add(1, std::memory_order_relaxed);
      DupDroppedCount.inc();
      return E.Compiled; // first insert won; drop the duplicate
    }
  }
  Buckets[Key].push_back(Entry{Q, Options.Exec,
                               Options.SpecializeGroupByAggregate,
                               Options.Profile, Options.Rewrite,
                               Options.Vectorize, Options.Adaptive,
                               Compiled});
  return Compiled;
}

bool QueryCache::evict(const query::Query &Q, const CompileOptions &Options) {
  static obs::Counter &Evictions = obs::counter("steno.cache.evictions");
  std::uint64_t Key = hashQuery(Q);
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Buckets.find(Key);
  if (It == Buckets.end())
    return false;
  std::vector<Entry> &Entries = It->second;
  for (std::size_t I = 0; I != Entries.size(); ++I) {
    if (Entries[I].matches(Q, Options)) {
      Entries.erase(Entries.begin() + static_cast<std::ptrdiff_t>(I));
      if (Entries.empty())
        Buckets.erase(It);
      Evictions.inc();
      return true;
    }
  }
  return false;
}

std::size_t QueryCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::size_t N = 0;
  for (const auto &[Key, Entries] : Buckets)
    N += Entries.size();
  return N;
}

void QueryCache::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Buckets.clear();
}

QueryCache &QueryCache::global() {
  static QueryCache Cache;
  return Cache;
}
