//===- perfbench/src/Layers.cpp - Per-layer probes ---------------*- C++ -*-===//
///
/// \file
/// The per-layer metrics of a traced run. Every workload hands its own
/// queries to probeLayers, which times each layer's public call on them in
/// process: compileQuery on the interpreter backend (front end only), the
/// phase spans compileQuery records through obs, jit::CompiledModule's
/// compile and load, CompiledQuery::run on both tiers, and the wire value
/// codec. So the same metric means the same call on every workload, only
/// over other queries.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "fuzz/Diff.h"
#include "jit/Jit.h"
#include "obs/Trace.h"
#include "serve/Wire.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sys/resource.h>

using namespace perfbench;
using namespace steno;

namespace {

constexpr int Reps = 3;       ///< Compiles per query and probe.
constexpr int Runs = 5;       ///< Runs per query and tier.
constexpr int CodecReps = 50; ///< Codec round trips per query.

/// Runs `g++ -E` on \p Source with the JIT's include path; returns the
/// number of preprocessed lines (0 on failure).
double preprocessedLines(const std::string &Source) {
  char Cmd[4096];
  std::snprintf(Cmd, sizeof Cmd,
                "'%s' -std=c++20 -E -I '%s' '%s' 2>/dev/null | wc -l",
                PERFBENCH_CXX, PERFBENCH_STENO_INCLUDE, Source.c_str());
  std::FILE *P = ::popen(Cmd, "r");
  if (!P)
    return 0;
  long long Lines = 0;
  if (std::fscanf(P, "%lld", &Lines) != 1)
    Lines = 0;
  ::pclose(P);
  return static_cast<double>(Lines);
}

/// Durations (us) of every obs trace event named \p Name in \p Json.
std::vector<double> eventDurations(const std::string &Json,
                                   const std::string &Name) {
  std::vector<double> Out;
  std::string Key = "\"name\":\"" + Name + "\"";
  for (std::size_t Pos = Json.find(Key); Pos != std::string::npos;
       Pos = Json.find(Key, Pos + 1)) {
    std::size_t End = Json.find('}', Pos);
    std::size_t Dur = Json.find("\"dur\":", Pos);
    if (Dur != std::string::npos && Dur < End)
      Out.push_back(std::atof(Json.c_str() + Dur + 6));
  }
  return Out;
}

/// Median ms of Runs calls of \p CQ on \p B; the last result goes to
/// \p Last when it is given.
double medianRunMs(const CompiledQuery &CQ, const Bindings &B,
                   const char *SpanName, QueryResult *Last) {
  std::vector<double> Ms;
  for (int I = 0; I != Runs; ++I) {
    Span S(SpanName);
    Clock::time_point C0 = Clock::now();
    QueryResult R = CQ.run(B);
    Ms.push_back(msSince(C0));
    if (Last)
      *Last = std::move(R);
  }
  return median(Ms);
}

} // namespace

void perfbench::probeLayers(const std::vector<LayerQuery> &Qs, Report &Rep) {
  CompileOptions Interp;
  Interp.Exec = Backend::Interp;

  // The front end alone: the interpreter backend runs no compiler.
  std::vector<double> FrontendMs;
  for (int I = 0; I != Reps; ++I)
    for (const LayerQuery &L : Qs) {
      Span S("steno.compileQuery.interp");
      Clock::time_point C0 = Clock::now();
      compileQuery(L.Q, Interp);
      FrontendMs.push_back(msSince(C0));
    }
  Rep.add("compile.frontend_ms", median(FrontendMs), "ms");

  // Phase splits inside native compiles, from the spans the program
  // records.
  std::vector<CompiledQuery> Native;
  obs::resetTrace();
  obs::setTracingEnabled(true);
  for (const LayerQuery &L : Qs) {
    Span S("steno.compileQuery");
    Native.push_back(compileQuery(L.Q));
  }
  obs::setTracingEnabled(false);
  std::string Json = obs::traceJson();
  Rep.add("quil.lower_us", median(eventDurations(Json, "steno.lower")), "us");
  Rep.add("analysis.analyze_us",
          median(eventDurations(Json, "steno.analyze")), "us");
  Rep.add("quil.specialize_us",
          median(eventDurations(Json, "steno.specialize")), "us");
  Rep.add("codegen.generate_us",
          median(eventDurations(Json, "steno.codegen")), "us");

  // The compiler and loader, called directly on the generated sources.
  std::vector<double> CcMs, DlopenMs, SourceBytes, PreLines;
  for (const CompiledQuery &CQ : Native) {
    const std::string &Src = CQ.generatedSource();
    const std::string &Entry = CQ.program().Name;
    SourceBytes.push_back(static_cast<double>(Src.size()));
    std::string Err;
    Clock::time_point C0 = Clock::now();
    std::unique_ptr<jit::CompiledModule> M;
    {
      Span S("jit.CompiledModule.compile");
      M = jit::CompiledModule::compile(Src, Entry, &Err);
    }
    double CompileTotal = msSince(C0);
    if (!M) {
      Rep.fail("jit compile failed: " + Err);
      continue;
    }
    std::string So = M->objectPath();
    std::string SrcPath = M->sourcePath();
    M.reset(); // unload, so the load below is a real dlopen
    C0 = Clock::now();
    {
      Span S("jit.CompiledModule.load");
      M = jit::CompiledModule::load(So, Entry, &Err);
    }
    double LoadMs = msSince(C0);
    if (!M)
      Rep.fail("jit load failed: " + Err);
    DlopenMs.push_back(LoadMs);
    CcMs.push_back(CompileTotal - LoadMs);
    PreLines.push_back(preprocessedLines(SrcPath));
  }
  rusage Usage{};
  ::getrusage(RUSAGE_CHILDREN, &Usage);
  Rep.add("jit.cc_ms", median(CcMs), "ms");
  Rep.add("jit.dlopen_ms", median(DlopenMs), "ms");
  Rep.add("jit.source_bytes", median(SourceBytes), "bytes");
  Rep.add("jit.preprocessed_lines", median(PreLines), "lines");
  Rep.add("jit.cc_peak_rss_mb", static_cast<double>(Usage.ru_maxrss) / 1024.0,
          "MB");

  // Fixed per-call cost of CompiledQuery::run: a native Sum over one
  // element.
  {
    CompiledQuery One = compileQuery(query::Query::doubleArray(0).sum());
    double X = 1.5;
    Bindings B;
    B.bindDoubleArray(0, &X, 1);
    std::vector<double> Us;
    for (int I = 0; I != 20000; ++I) {
      Clock::time_point C0 = Clock::now();
      QueryResult R = One.run(B);
      Us.push_back(msSince(C0) * 1e3);
      if (R.rows()[0].asDouble() != X)
        Rep.fail("1-element Sum returned a wrong value");
    }
    Rep.add("steno.run_call_us", median(Us), "us");
  }

  // Both tiers on the workload's queries, and the codec on their results.
  std::vector<double> InterpMs, NativeMs, CodecUs;
  for (std::size_t I = 0; I != Qs.size(); ++I) {
    const LayerQuery &L = Qs[I];
    CompiledQuery CQ = compileQuery(L.Q, Interp);
    InterpMs.push_back(medianRunMs(CQ, *L.InterpB, "interp.run", nullptr));
    QueryResult R;
    NativeMs.push_back(medianRunMs(Native[I], *L.B, "native.run", &R));
    if (L.Check && !L.Check(R))
      Rep.fail(L.Name + ": native result differs in the layer probe");

    std::vector<double> Us;
    for (int J = 0; J != CodecReps; ++J) {
      Clock::time_point C0 = Clock::now();
      std::deque<std::vector<double>> Arena;
      for (const expr::Value &V : R.rows()) {
        expr::Value Back;
        if (!serve::parseWireValue(serve::wireValue(V), Back, Arena) ||
            !fuzz::fuzzValueNear(Back, V, 0))
          Rep.fail("wire codec did not round-trip a value of " + L.Name);
      }
      Us.push_back(msSince(C0) * 1e3);
    }
    CodecUs.push_back(median(Us));
    std::fprintf(stderr,
                 "perfbench: layer probe %-9s interp %9.3f ms, native "
                 "%9.3f ms, codec %9.2f us\n",
                 L.Name.c_str(), InterpMs.back(), NativeMs.back(),
                 CodecUs.back());
  }
  Rep.add("interp.query_ms", geomean(InterpMs), "ms");
  Rep.add("native.query_ms", geomean(NativeMs), "ms");
  Rep.add("wire.codec_us", geomean(CodecUs), "us");
}
