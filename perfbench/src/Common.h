//===- perfbench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
///
/// \file
/// What the three workloads share: sample statistics, the result line the
/// benchmark prints, the in-memory span recorder of traced runs, the
/// output checks, which never trust the program under test for the
/// expected answer, and the per-layer probes of traced runs.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "expr/Value.h"
#include "query/Query.h"
#include "steno/Steno.h"

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds elapsed since \p T0.
inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// Median of \p V (0 for an empty sample).
double median(std::vector<double> V);
/// Geometric mean of \p V (0 for an empty sample).
double geomean(const std::vector<double> &V);

/// Options every workload receives from the command line.
struct RunOptions {
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// steady_clock time (ns since its epoch) at which set-up began; the
  /// launcher takes it before it starts any process of the run.
  std::int64_t T0Ns = 0;
  std::string TraceOut; ///< Where a traced run writes its spans.
  std::string Socket;   ///< serve/routed: the socket to drive.
  /// serve/routed: stop after set-up and report setup_s and compile_ms.
  bool SetupOnly = false;
};

/// steady_clock time point from \p Ns since the clock's epoch.
Clock::time_point fromNs(std::int64_t Ns);

/// The last line of a run: the verdict, the operation counts and the
/// metrics, as one JSON object.
struct Report {
  bool Correct = true;
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Metrics;

  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, {Value, Unit}});
  }
  /// Records a failed check (printed to stderr) and clears Correct.
  void fail(const std::string &Why);
  std::string json() const;
};

/// Ids of this process's threads.
std::vector<int> selfThreadIds();
/// Pins each thread of \p Tids to a CPU of its own, taken from the end of
/// this process's allowed set, and returns those CPUs (empty, and nothing
/// pinned, when there are fewer CPUs than threads).
std::vector<int> pinToOwnCpus(const std::vector<int> &Tids);

/// One memory line of this process's status, in MiB: Field is "VmHWM:"
/// (peak resident set) or "VmRSS:" (current resident set).
double selfMemMb(const char *Field);

//===--------------------------------------------------------------------===//
// Traced runs: spans recorded in memory around the calls into each layer.
//===--------------------------------------------------------------------===//

/// One recorded span. Spans of one request share Req; Parent is the id of
/// the enclosing span on the same thread (0 at the root).
struct SpanRecord {
  std::string Name;
  std::uint64_t Id = 0;
  std::uint64_t Parent = 0;
  std::uint64_t Req = 0;
  double StartUs = 0;
  double EndUs = 0;
};

/// Thread-safe in-memory span store. Disabled (every call a branch) in
/// untraced runs.
class Tracer {
public:
  static Tracer &get();
  void enable() { On = true; }
  bool on() const { return On; }
  std::uint64_t begin(const std::string &Name, std::uint64_t Req);
  void end(std::uint64_t Id);
  /// Writes every span as JSON to \p Path and prints, per span name, the
  /// count and the median self time (the span minus what its children
  /// cover) to stderr.
  void dump(const std::string &Path) const;

private:
  bool On = false;
  mutable std::mutex Mu;
  std::vector<SpanRecord> Spans;
  std::map<std::uint64_t, std::size_t> Open; ///< Id -> index in Spans.
  std::uint64_t NextId = 1;
  Clock::time_point Epoch = Clock::now();
};

/// RAII span over the enclosing scope (no-op when tracing is off).
class Span {
public:
  explicit Span(const char *Name, std::uint64_t Req = 0);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  std::uint64_t Id = 0;
};

//===--------------------------------------------------------------------===//
// Output checks.
//===--------------------------------------------------------------------===//

/// Parses one `row` of a `result` reply (fuzz::fuzzValueStr rendering)
/// into a value shaped like \p Like. Vec payloads go to \p Arena.
bool parseRow(const std::string &Text, const steno::expr::Value &Like,
              steno::expr::Value &Out, std::deque<std::vector<double>> &Arena);

/// Whether the rendered rows of a reply match the expected rows, element
/// by element under fuzz::fuzzValueNear.
bool rowsMatch(const std::vector<std::string> &Got,
               const std::vector<steno::expr::Value> &Want);

/// |Got - Want| <= N * eps * Magnitude: the worst-case rounding error of
/// summing N terms whose absolute values add up to Magnitude.
bool withinSumBound(double Got, long double Want, double N,
                    long double Magnitude);

//===--------------------------------------------------------------------===//
// Per-layer probes of traced runs.
//===--------------------------------------------------------------------===//

/// One of a workload's queries, as the layer probes run it in process.
struct LayerQuery {
  std::string Name;
  steno::query::Query Q;
  const steno::Bindings *B = nullptr;       ///< Native runs.
  const steno::Bindings *InterpB = nullptr; ///< Interpreter runs.
  /// Independent check of a native run's result.
  std::function<bool(const steno::QueryResult &)> Check;
};

/// Times each layer's public call on \p Qs in process and adds the
/// per-layer metrics of BENCHMARK.json to \p Rep: the compiler's phases,
/// the JIT's compiler and loader, the run-call overhead, the interpreter
/// and native tiers, and the wire value codec.
void probeLayers(const std::vector<LayerQuery> &Qs, Report &Rep);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
