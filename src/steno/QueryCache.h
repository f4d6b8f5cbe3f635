//===- steno/QueryCache.h - Compiled-query caching (§7.1/§9) ---*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// §7.1: "the optimized query object may be stored and reused in order to
/// amortize the cost of compilation. In the current implementation, the
/// user must explicitly instruct Steno to compile a given expression, but
/// a query caching approach (based on Nectar) could be added." This is
/// that addition: a cache keyed by the *structure* of the query — two
/// queries built independently but with identical operator chains,
/// lambdas, literals and slots share one compiled module, so the one-off
/// compile cost is paid once per query shape per process.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_STENO_QUERYCACHE_H
#define STENO_STENO_QUERYCACHE_H

#include "query/Query.h"
#include "steno/Steno.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace steno {

/// Structural fingerprint of a query (chains with equal structure hash
/// equally; see equalQueries for the equality it approximates).
std::uint64_t hashQuery(const query::Query &Q);

/// Deep structural equality over query chains: operator kinds, sources,
/// lambdas, argument expressions and nested queries.
bool equalQueries(const query::Query &A, const query::Query &B);

/// Thread-safe structural cache of compiled queries. Backend and
/// optimization options are part of the key.
class QueryCache {
public:
  /// Returns the cached compiled query for a structurally equal prior
  /// request, or compiles, caches and returns. Concurrent misses on the
  /// same key may compile in parallel (compilation runs outside the
  /// cache mutex), but insertion is first-wins: every caller receives the
  /// one canonical entry, duplicates are dropped, and size() never counts
  /// the same (query, options) twice.
  CompiledQuery getOrCompile(const query::Query &Q,
                             const CompileOptions &Options = CompileOptions());

  /// Cache peek without compiling: the cached entry for (Q, Options), or
  /// an invalid handle on a miss. Does not move hits()/misses() — those
  /// count getOrCompile outcomes only.
  CompiledQuery lookup(const query::Query &Q,
                       const CompileOptions &Options = CompileOptions()) const;

  /// Publishes an externally compiled query (e.g. a background native
  /// recompile finishing off-thread) under (Q, Options). First insert
  /// wins: if a structurally equal entry already exists, \p Compiled is
  /// dropped and the canonical entry is returned, so every handle for one
  /// key shares one compiled module.
  CompiledQuery insert(const query::Query &Q, const CompileOptions &Options,
                       CompiledQuery Compiled);

  /// Removes the entry for (Q, Options). Returns false when absent.
  /// Outstanding CompiledQuery handles stay valid (shared state).
  bool evict(const query::Query &Q,
             const CompileOptions &Options = CompileOptions());

  /// Number of distinct compiled entries.
  std::size_t size() const;
  /// Monotonic counters for inspection/benchmarks. Atomic so they can be
  /// polled without the cache mutex while getOrCompile runs concurrently
  /// (they also feed the obs registry: steno.cache.hits/misses).
  std::uint64_t hits() const {
    return Hits.load(std::memory_order_relaxed);
  }
  std::uint64_t misses() const {
    return Misses.load(std::memory_order_relaxed);
  }
  /// Modules compiled by a losing racer and discarded by first-wins
  /// insertion (concurrent misses, background recompiles).
  std::uint64_t duplicateCompilesDropped() const {
    return DupDropped.load(std::memory_order_relaxed);
  }

  /// Drops every entry (compiled modules stay alive while CompiledQuery
  /// handles reference them).
  void clear();

  /// A process-wide cache instance.
  static QueryCache &global();

private:
  struct Entry {
    query::Query Query;
    Backend Exec;
    bool Specialize;
    bool Profile;
    bool Rewrite;
    bool Vectorize;
    bool Adaptive;
    CompiledQuery Compiled;

    /// Whether this entry is \p Q compiled under options equivalent to
    /// \p O. Vectorize selects the interpreter's batch tier only, so
    /// Native entries match either value.
    bool matches(const query::Query &Q, const CompileOptions &O) const;
  };

  mutable std::mutex Mutex;
  std::unordered_map<std::uint64_t, std::vector<Entry>> Buckets;
  std::atomic<std::uint64_t> Hits{0};
  std::atomic<std::uint64_t> Misses{0};
  std::atomic<std::uint64_t> DupDropped{0};
};

} // namespace steno

#endif // STENO_STENO_QUERYCACHE_H
