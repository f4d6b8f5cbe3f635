//===- perfbench/src/Main.cpp - Benchmark entry point ----------*- C++ -*-===//
///
/// \file
/// One workload per invocation; perfbench/run.py builds this binary,
/// starts the servers a workload needs and calls it as
///
///   perfbench figs|serve|routed --seed N --seconds S --trace 0|1
///             --t0-ns NS [--trace-out PATH] [--socket PATH]
///             [--setup-only 0|1]
///
/// The last line of standard output is the run's result object.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    std::fprintf(stderr, "usage: perfbench figs|serve|routed [options]\n");
    return 2;
  }
  std::string Workload = Argv[1];
  RunOptions O;
  for (int I = 2; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I];
    const char *Val = Argv[I + 1];
    if (Key == "--seed")
      O.Seed = std::strtoull(Val, nullptr, 10);
    else if (Key == "--seconds")
      O.Seconds = std::atof(Val);
    else if (Key == "--trace")
      O.Trace = std::strcmp(Val, "0") != 0;
    else if (Key == "--t0-ns")
      O.T0Ns = std::strtoll(Val, nullptr, 10);
    else if (Key == "--trace-out")
      O.TraceOut = Val;
    else if (Key == "--socket")
      O.Socket = Val;
    else if (Key == "--setup-only")
      O.SetupOnly = std::strcmp(Val, "0") != 0;
    else {
      std::fprintf(stderr, "perfbench: unknown option %s\n", Key.c_str());
      return 2;
    }
  }
  if (Workload == "figs")
    return runFigs(O);
  if (Workload == "serve" || Workload == "routed")
    return runClient(O, Workload == "routed");
  std::fprintf(stderr, "perfbench: unknown workload %s\n", Workload.c_str());
  return 2;
}
