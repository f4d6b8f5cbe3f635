//===- bench/BenchUtil.h - Shared benchmark harness helpers ----*- C++ -*-===//
///
/// \file
/// Timing and reporting helpers shared by the per-figure benchmark
/// binaries. Each binary reproduces one table/figure of the paper and
/// prints rows in the paper's shape (see EXPERIMENTS.md for the mapping).
///
/// Sizes are the paper's where a laptop allows, and scale with the
/// STENO_BENCH_SCALE environment variable (a double multiplier; set it
/// below 1 for quick smoke runs, e.g. STENO_BENCH_SCALE=0.1).
///
//===----------------------------------------------------------------------===//

#ifndef STENO_BENCH_BENCHUTIL_H
#define STENO_BENCH_BENCHUTIL_H

#include "support/Random.h"
#include "support/Timing.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

namespace steno {
namespace bench {

/// Global size multiplier from STENO_BENCH_SCALE (default 1.0).
inline double scaleFactor() {
  static const double Scale = [] {
    const char *Env = std::getenv("STENO_BENCH_SCALE");
    double V = Env ? std::atof(Env) : 1.0;
    return V > 0 ? V : 1.0;
  }();
  return Scale;
}

/// N scaled by STENO_BENCH_SCALE, at least 1.
inline std::int64_t scaled(std::int64_t N) {
  double V = static_cast<double>(N) * scaleFactor();
  return V < 1 ? 1 : static_cast<std::int64_t>(V);
}

/// Runs \p Fn \p Reps times (after one untimed warmup) and returns the
/// best wall-clock seconds. "Best of N" suppresses scheduler noise on a
/// busy machine; the relative numbers the paper reports are ratios of
/// such bests.
inline double bestSeconds(const std::function<void()> &Fn, int Reps = 3) {
  Fn(); // warmup (page faults, code fill)
  double Best = 1e300;
  for (int I = 0; I < Reps; ++I) {
    support::WallTimer T;
    Fn();
    double S = T.seconds();
    if (S < Best)
      Best = S;
  }
  return Best;
}

/// Best-of-\p Reps wall-clock seconds for each of \p Fns, timed
/// interleaved: one untimed warmup of each, then one run of each per
/// repetition, so CPU-frequency drift hits every variant alike. Use it
/// where the ratio of the variants is what gets reported or gated.
inline std::vector<double>
bestSecondsInterleaved(const std::vector<std::function<void()>> &Fns,
                       int Reps) {
  for (const std::function<void()> &Fn : Fns)
    Fn();
  std::vector<double> Best(Fns.size(), 1e300);
  for (int I = 0; I < Reps; ++I)
    for (std::size_t J = 0; J != Fns.size(); ++J) {
      support::WallTimer T;
      Fns[J]();
      double S = T.seconds();
      if (S < Best[J])
        Best[J] = S;
    }
  return Best;
}

/// Defeats dead-code elimination of a computed value.
inline void doNotOptimize(double V) {
  __asm__ __volatile__("" : : "g"(V) : "memory");
}

inline void doNotOptimize(std::int64_t V) {
  __asm__ __volatile__("" : : "g"(V) : "memory");
}

/// Uniform doubles in [Lo, Hi), deterministic.
inline std::vector<double> uniformDoubles(std::int64_t N,
                                          std::uint64_t Seed,
                                          double Lo = 0.0,
                                          double Hi = 1000.0) {
  support::SplitMix64 Rng(Seed);
  std::vector<double> Out(static_cast<size_t>(N));
  for (double &V : Out)
    V = Rng.nextDouble(Lo, Hi);
  return Out;
}

/// The paper's Group input: a one-dimensional mixture of Gaussians.
inline std::vector<double> mixtureOfGaussians(std::int64_t N,
                                              std::uint64_t Seed) {
  support::SplitMix64 Rng(Seed);
  const double Means[] = {100.0, 400.0, 750.0};
  const double Sigmas[] = {40.0, 90.0, 30.0};
  const double Weights[] = {0.5, 0.3, 0.2};
  std::vector<double> Out;
  Out.reserve(static_cast<size_t>(N));
  while (Out.size() < static_cast<size_t>(N)) {
    double U = Rng.nextDouble();
    int C = U < Weights[0] ? 0 : (U < Weights[0] + Weights[1] ? 1 : 2);
    double V = Means[C] + Sigmas[C] * Rng.nextGaussian();
    if (V >= 0.0 && V < 1000.0)
      Out.push_back(V);
  }
  return Out;
}

/// Prints a section header for a figure/table.
inline void header(const std::string &Title) {
  std::printf("\n=== %s ===\n", Title.c_str());
}

/// Machine-readable companion to the human tables: collects one entry per
/// measured variant and writes BENCH_<binary>.json on destruction, so the
/// repo's perf trajectory can be tracked across commits without scraping
/// stdout. Files land in $STENO_BENCH_OUT if set, else the working
/// directory.
class JsonReport {
public:
  /// \p Binary names the output file (BENCH_<Binary>.json).
  explicit JsonReport(std::string Binary) : Binary(std::move(Binary)) {}

  JsonReport(const JsonReport &) = delete;
  JsonReport &operator=(const JsonReport &) = delete;

  /// Records one variant: \p Seconds per iteration over \p Items
  /// elements, measured as best-of-\p Reps.
  void add(const std::string &Name, double Seconds, std::int64_t Items,
           int Reps = 3) {
    char Buf[256];
    double NsPerOp = Items > 0 ? Seconds * 1e9 / static_cast<double>(Items)
                               : Seconds * 1e9;
    double RowsPerSec =
        Seconds > 0 ? static_cast<double>(Items) / Seconds : 0;
    std::snprintf(Buf, sizeof Buf,
                  "    {\"name\": \"%s\", \"reps\": %d, \"ns_per_op\": "
                  "%.3f, \"rows_per_sec\": %.1f, \"seconds\": %.6f, "
                  "\"items\": %lld}",
                  Name.c_str(), Reps, NsPerOp, RowsPerSec, Seconds,
                  static_cast<long long>(Items));
    if (!Entries.empty())
      Entries += ",\n";
    Entries += Buf;
  }

  ~JsonReport() {
    const char *Dir = std::getenv("STENO_BENCH_OUT");
    std::string Path = (Dir && *Dir ? std::string(Dir) + "/" : std::string()) +
                       "BENCH_" + Binary + ".json";
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "bench: cannot write %s\n", Path.c_str());
      return;
    }
    std::fprintf(F,
                 "{\n  \"binary\": \"%s\",\n  \"scale\": %g,\n"
                 "  \"results\": [\n%s\n  ]\n}\n",
                 Binary.c_str(), scaleFactor(), Entries.c_str());
    std::fclose(F);
  }

private:
  std::string Binary;
  std::string Entries;
};

} // namespace bench
} // namespace steno

#endif // STENO_BENCH_BENCHUTIL_H
