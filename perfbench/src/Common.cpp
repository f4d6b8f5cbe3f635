//===- perfbench/src/Common.cpp - Shared benchmark plumbing -----*- C++ -*-===//

#include "Common.h"

#include "fuzz/Diff.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <sched.h>

using namespace perfbench;
using steno::expr::TypeKind;
using steno::expr::Value;

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  std::size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double perfbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

Clock::time_point perfbench::fromNs(std::int64_t Ns) {
  return Clock::time_point(std::chrono::duration_cast<Clock::duration>(
      std::chrono::nanoseconds(Ns)));
}

void Report::fail(const std::string &Why) {
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", Why.c_str());
  Correct = false;
}

std::string Report::json() const {
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  for (std::size_t I = 0; I != Metrics.size(); ++I) {
    char Buf[96];
    std::snprintf(Buf, sizeof Buf, "%.17g", Metrics[I].second.first);
    Out += (I ? ", \"" : "\"") + Metrics[I].first + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + Metrics[I].second.second + "\"}";
  }
  return Out + "}}";
}

std::vector<int> perfbench::selfThreadIds() {
  std::vector<int> Tids;
  if (DIR *D = opendir("/proc/self/task")) {
    while (dirent *E = readdir(D))
      if (E->d_name[0] != '.')
        Tids.push_back(std::atoi(E->d_name));
    closedir(D);
  }
  std::sort(Tids.begin(), Tids.end());
  return Tids;
}

std::vector<int> perfbench::pinToOwnCpus(const std::vector<int> &Tids) {
  cpu_set_t Allowed;
  if (sched_getaffinity(0, sizeof Allowed, &Allowed) != 0)
    return {};
  std::vector<int> Cpus;
  for (int C = CPU_SETSIZE - 1; C >= 0 && Cpus.size() < Tids.size(); --C)
    if (CPU_ISSET(C, &Allowed))
      Cpus.push_back(C);
  if (Cpus.size() < Tids.size())
    return {};
  for (std::size_t I = 0; I != Tids.size(); ++I) {
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpus[I], &One);
    if (sched_setaffinity(Tids[I], sizeof One, &One) != 0)
      return {};
  }
  return Cpus;
}

double perfbench::selfMemMb(const char *Field) {
  std::ifstream In("/proc/self/status");
  std::string Line;
  std::size_t Len = std::strlen(Field);
  while (std::getline(In, Line))
    if (Line.compare(0, Len, Field) == 0)
      return std::atof(Line.c_str() + Len) / 1024.0;
  return 0;
}

//===--------------------------------------------------------------------===//
// Tracer
//===--------------------------------------------------------------------===//

namespace {
thread_local std::vector<std::uint64_t> OpenStack;
} // namespace

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

std::uint64_t Tracer::begin(const std::string &Name, std::uint64_t Req) {
  double Now =
      std::chrono::duration<double, std::micro>(Clock::now() - Epoch).count();
  std::lock_guard<std::mutex> Lock(Mu);
  SpanRecord R;
  R.Name = Name;
  R.Id = NextId++;
  R.Parent = OpenStack.empty() ? 0 : OpenStack.back();
  R.Req = Req;
  R.StartUs = Now;
  Open[R.Id] = Spans.size();
  Spans.push_back(std::move(R));
  return Spans.back().Id;
}

void Tracer::end(std::uint64_t Id) {
  double Now =
      std::chrono::duration<double, std::micro>(Clock::now() - Epoch).count();
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Open.find(Id);
  if (It == Open.end())
    return;
  Spans[It->second].EndUs = Now;
  Open.erase(It);
}

void Tracer::dump(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(Mu);
  // Self time: the span minus the union of its children's intervals.
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> Children;
  for (const SpanRecord &S : Spans)
    if (S.Parent)
      Children[S.Parent].push_back({S.StartUs, S.EndUs});
  std::map<std::string, std::vector<double>> SelfByName;
  std::FILE *F = Path.empty() ? nullptr : std::fopen(Path.c_str(), "w");
  if (F)
    std::fprintf(F, "{\"spans\": [\n");
  bool First = true;
  for (const SpanRecord &S : Spans) {
    double Covered = 0;
    auto It = Children.find(S.Id);
    if (It != Children.end()) {
      std::vector<std::pair<double, double>> Iv = It->second;
      std::sort(Iv.begin(), Iv.end());
      double Lo = S.StartUs, Hi = S.StartUs;
      for (auto [B, E] : Iv) {
        B = std::max(B, S.StartUs);
        E = std::min(E, S.EndUs);
        if (E <= B)
          continue;
        if (B > Hi) {
          Covered += Hi - Lo;
          Lo = B;
        }
        Hi = std::max(Hi, E);
      }
      Covered += Hi - Lo;
    }
    double Self = (S.EndUs - S.StartUs) - Covered;
    SelfByName[S.Name].push_back(Self);
    if (F) {
      std::fprintf(F,
                   "%s{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                   "\"req\": %llu, \"start_us\": %.3f, \"end_us\": %.3f, "
                   "\"self_us\": %.3f}",
                   First ? "" : ",\n", S.Name.c_str(),
                   static_cast<unsigned long long>(S.Id),
                   static_cast<unsigned long long>(S.Parent),
                   static_cast<unsigned long long>(S.Req), S.StartUs,
                   S.EndUs, Self);
      First = false;
    }
  }
  if (F) {
    std::fprintf(F, "\n]}\n");
    std::fclose(F);
  }
  std::fprintf(stderr, "perfbench: span self times (%zu spans)\n",
               Spans.size());
  for (const auto &[Name, Selfs] : SelfByName)
    std::fprintf(stderr, "  %-28s n=%-7zu median self %10.1f us\n",
                 Name.c_str(), Selfs.size(), median(Selfs));
}

Span::Span(const char *Name, std::uint64_t Req) {
  Tracer &T = Tracer::get();
  if (!T.on())
    return;
  Id = T.begin(Name, Req);
  OpenStack.push_back(Id);
}

Span::~Span() {
  if (!Id)
    return;
  OpenStack.pop_back();
  Tracer::get().end(Id);
}

//===--------------------------------------------------------------------===//
// Checks
//===--------------------------------------------------------------------===//

namespace {

/// Recursive-descent reader over fuzzValueStr output, guided by the
/// expected value's shape.
struct RowReader {
  const std::string &S;
  std::size_t Pos = 0;
  std::deque<std::vector<double>> &Arena;

  bool lit(const char *L) {
    std::size_t N = std::strlen(L);
    if (S.compare(Pos, N, L) != 0)
      return false;
    Pos += N;
    return true;
  }

  bool number(double &D) {
    const char *Begin = S.c_str() + Pos;
    char *End = nullptr;
    D = std::strtod(Begin, &End);
    if (End == Begin)
      return false;
    Pos += static_cast<std::size_t>(End - Begin);
    return true;
  }

  bool read(const Value &Like, Value &Out) {
    switch (Like.kind()) {
    case TypeKind::Bool:
      if (lit("true"))
        return Out = Value(true), true;
      if (lit("false"))
        return Out = Value(false), true;
      return false;
    case TypeKind::Int64: {
      const char *Begin = S.c_str() + Pos;
      char *End = nullptr;
      long long V = std::strtoll(Begin, &End, 10);
      if (End == Begin)
        return false;
      Pos += static_cast<std::size_t>(End - Begin);
      Out = Value(static_cast<std::int64_t>(V));
      return true;
    }
    case TypeKind::Double: {
      double D = 0;
      if (!number(D))
        return false;
      Out = Value(D);
      return true;
    }
    case TypeKind::Vec: {
      if (!lit("["))
        return false;
      std::vector<double> Data;
      while (!lit("]")) {
        if (!Data.empty() && !lit(", "))
          return false;
        double D = 0;
        if (!number(D))
          return false;
        Data.push_back(D);
      }
      Arena.push_back(std::move(Data));
      const std::vector<double> &Stored = Arena.back();
      Out = Value(steno::expr::VecView{
          Stored.data(), static_cast<std::int64_t>(Stored.size())});
      return true;
    }
    case TypeKind::Pair: {
      Value A, B;
      if (!lit("(") || !read(Like.first(), A) || !lit(", ") ||
          !read(Like.second(), B) || !lit(")"))
        return false;
      Out = Value::makePair(A, B);
      return true;
    }
    }
    return false;
  }
};

} // namespace

bool perfbench::parseRow(const std::string &Text, const Value &Like,
                         Value &Out, std::deque<std::vector<double>> &Arena) {
  RowReader R{Text, 0, Arena};
  return R.read(Like, Out) && R.Pos == Text.size();
}

bool perfbench::rowsMatch(const std::vector<std::string> &Got,
                          const std::vector<Value> &Want) {
  if (Got.size() != Want.size())
    return false;
  std::deque<std::vector<double>> Arena;
  for (std::size_t I = 0; I != Got.size(); ++I) {
    Value V;
    if (!parseRow(Got[I], Want[I], V, Arena) ||
        !steno::fuzz::fuzzValueNear(V, Want[I]))
      return false;
  }
  return true;
}

bool perfbench::withinSumBound(double Got, long double Want, double N,
                               long double Magnitude) {
  long double Bound = static_cast<long double>(N) * DBL_EPSILON * Magnitude;
  return std::isfinite(Got) &&
         std::fabs(static_cast<long double>(Got) - Want) <= Bound;
}
