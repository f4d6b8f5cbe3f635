//===- jit/Jit.cpp --------------------------------------------*- C++ -*-===//

#include "jit/Jit.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Error.h"
#include "support/StringUtil.h"
#include "support/TempFile.h"
#include "support/Timing.h"

#include <atomic>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <dlfcn.h>

using namespace steno;
using namespace steno::jit;
using expr::Type;
using expr::TypeRef;
using expr::Value;
using expr::VecView;

#ifndef STENO_HOST_CXX
#define STENO_HOST_CXX "c++"
#endif
#ifndef STENO_SOURCE_INCLUDE
#define STENO_SOURCE_INCLUDE "."
#endif

CompiledModule::~CompiledModule() {
  if (Handle)
    ::dlclose(Handle);
}

std::unique_ptr<CompiledModule>
CompiledModule::compile(const std::string &Source,
                        const std::string &EntrySymbol,
                        std::string *ErrMsg) {
  static std::atomic<unsigned> ModuleCounter{0};
  unsigned Id = ModuleCounter++;

  static obs::Counter &Compiles = obs::counter("jit.compile.count");
  static obs::Counter &Failures = obs::counter("jit.compile.failures");
  static obs::Histogram &CompileMs = obs::histogram(
      "jit.compile.millis", {1, 5, 10, 25, 50, 100, 250, 500, 1e3, 5e3});
  obs::Span CompileSpan("jit.compile");

  const std::string &Dir = support::processTempDir();
  std::string SrcPath = support::strFormat("%s/%s_%u.cpp", Dir.c_str(),
                                           EntrySymbol.c_str(), Id);
  std::string SoPath = support::strFormat("%s/%s_%u.so", Dir.c_str(),
                                          EntrySymbol.c_str(), Id);
  std::string LogPath = support::strFormat("%s/%s_%u.log", Dir.c_str(),
                                           EntrySymbol.c_str(), Id);

  support::WallTimer Timer;
  support::writeFile(SrcPath, Source);

  // The compiler that built this library also builds the generated query.
  const char *Cxx = ::getenv("STENO_CXX");
  if (!Cxx)
    Cxx = STENO_HOST_CXX;
  // -O3 matches the optimization level of statically compiled code, so
  // "Steno vs hand-optimized" comparisons measure code shape, not
  // compiler flags.
  //
  // STENO_JIT_LINT=1 is the debug "lint generated code" mode: the
  // generated translation unit must itself survive -Wall -Wextra -Werror,
  // catching codegen regressions (unused locals, sign-compare, shadowing)
  // that -O3 alone would silently accept.
  const char *LintEnv = ::getenv("STENO_JIT_LINT");
  bool Lint = LintEnv && LintEnv[0] && ::strcmp(LintEnv, "0") != 0;
  std::string Cmd = support::strFormat(
      "'%s' -std=c++20 -O3%s -fPIC -shared -I '%s' -o '%s' '%s' > '%s' 2>&1",
      Cxx, Lint ? " -Wall -Wextra -Werror" : "", STENO_SOURCE_INCLUDE,
      SoPath.c_str(), SrcPath.c_str(), LogPath.c_str());
  int Rc;
  {
    // The compiler invocation dominates the one-off cost; the dlopen
    // below is microseconds. The split shows up as two child spans.
    obs::Span S("jit.cc");
    Rc = std::system(Cmd.c_str());
  }
  if (Rc != 0) {
    Failures.inc();
    if (ErrMsg)
      *ErrMsg = "compiler failed (exit " + std::to_string(Rc) + "):\n" +
                support::readFileOrEmpty(LogPath) + "\nsource: " + SrcPath;
    return nullptr;
  }

  obs::Span LoadSpan("jit.dlopen");
  void *Handle = ::dlopen(SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!Handle) {
    Failures.inc();
    if (ErrMsg)
      *ErrMsg = std::string("dlopen failed: ") + ::dlerror();
    return nullptr;
  }
  void *Sym = ::dlsym(Handle, EntrySymbol.c_str());
  if (!Sym) {
    Failures.inc();
    if (ErrMsg)
      *ErrMsg = std::string("dlsym failed: ") + ::dlerror();
    ::dlclose(Handle);
    return nullptr;
  }

  auto Module = std::unique_ptr<CompiledModule>(new CompiledModule());
  Module->Handle = Handle;
  Module->Entry = reinterpret_cast<EntryFn>(Sym);
  Module->CompileMs = Timer.millis();
  Module->SourcePath = std::move(SrcPath);
  Module->SoPath = std::move(SoPath);
  Compiles.inc();
  CompileMs.observe(Module->CompileMs);
  return Module;
}

std::unique_ptr<CompiledModule>
CompiledModule::load(const std::string &SharedObjectPath,
                     const std::string &EntrySymbol, std::string *ErrMsg) {
  static obs::Counter &Loads = obs::counter("jit.load.count");
  obs::Span LoadSpan("jit.dlopen");
  support::WallTimer Timer;
  void *Handle = ::dlopen(SharedObjectPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!Handle) {
    if (ErrMsg)
      *ErrMsg = std::string("dlopen failed: ") + ::dlerror();
    return nullptr;
  }
  void *Sym = ::dlsym(Handle, EntrySymbol.c_str());
  if (!Sym) {
    if (ErrMsg)
      *ErrMsg = std::string("dlsym failed: ") + ::dlerror();
    ::dlclose(Handle);
    return nullptr;
  }
  auto Module = std::unique_ptr<CompiledModule>(new CompiledModule());
  Module->Handle = Handle;
  Module->Entry = reinterpret_cast<EntryFn>(Sym);
  Module->CompileMs = Timer.millis();
  Module->SoPath = SharedObjectPath;
  Loads.inc();
  return Module;
}

std::uint64_t jit::runtimeHeaderHash() {
  static const std::uint64_t Hash = support::fnv1a(support::readFileOrEmpty(
      std::string(STENO_SOURCE_INCLUDE) + "/steno/Rt.h"));
  return Hash;
}

//===----------------------------------------------------------------===//
// Execution: binding and row decoding
//===----------------------------------------------------------------===//

namespace {

/// Decodes one value from the flattened cell stream (pre-order over
/// pairs), copying vec payloads into the arena.
Value decodeCells(const Type &Ty, const rt::Cell *&Cell,
                  std::deque<std::vector<double>> &Arena) {
  switch (Ty.kind()) {
  case expr::TypeKind::Bool:
    return Value((Cell++)->I != 0);
  case expr::TypeKind::Int64:
    return Value((Cell++)->I);
  case expr::TypeKind::Double:
    return Value((Cell++)->D);
  case expr::TypeKind::Vec: {
    const rt::Cell &C = *Cell++;
    Arena.emplace_back(C.VData, C.VData + C.VLen);
    const std::vector<double> &Stored = Arena.back();
    return Value(VecView{Stored.data(),
                         static_cast<std::int64_t>(Stored.size())});
  }
  case expr::TypeKind::Pair: {
    Value First = decodeCells(*Ty.first(), Cell, Arena);
    Value Second = decodeCells(*Ty.second(), Cell, Arena);
    return Value::makePair(std::move(First), std::move(Second));
  }
  }
  stenoUnreachable("bad TypeKind");
}

struct CollectCtx {
  const Type *RowType;
  std::vector<Value> *Rows;
  std::deque<std::vector<double>> *Arena;
};

void collectRow(void *CtxRaw, const rt::Cell *Cells, std::int64_t N) {
  auto *Ctx = static_cast<CollectCtx *>(CtxRaw);
  const rt::Cell *Cursor = Cells;
  Ctx->Rows->push_back(decodeCells(*Ctx->RowType, Cursor, *Ctx->Arena));
  assert(Cursor == Cells + N && "row cell count mismatch");
  (void)N;
}

rt::CaptureValue bindCapture(const Value &V) {
  rt::CaptureValue Out;
  switch (V.kind()) {
  case expr::TypeKind::Bool:
    Out.B = V.asBool();
    break;
  case expr::TypeKind::Int64:
    Out.I = V.asInt64();
    break;
  case expr::TypeKind::Double:
    Out.D = V.asDouble();
    break;
  case expr::TypeKind::Vec: {
    VecView View = V.asVec();
    Out.VData = View.Data;
    Out.VLen = View.Len;
    break;
  }
  case expr::TypeKind::Pair:
    support::fatalError("pair-typed captures are not supported");
  }
  return Out;
}

} // namespace

ExecOutput jit::run(EntryFn Fn,
                    const std::vector<expr::SourceBuffer> &Sources,
                    const std::vector<Value> &Values,
                    const TypeRef &RowType, std::uint64_t *ProfCounts,
                    std::uint64_t *ProfNanos) {
  assert(Fn && "running a null entry point");
  std::vector<rt::SourceBinding> BoundSources;
  BoundSources.reserve(Sources.size());
  for (const expr::SourceBuffer &Buf : Sources) {
    rt::SourceBinding B;
    B.D = Buf.DoubleData;
    B.I = Buf.Int64Data;
    B.Count = Buf.Count;
    B.Dim = Buf.Dim;
    BoundSources.push_back(B);
  }
  std::vector<rt::CaptureValue> BoundValues;
  BoundValues.reserve(Values.size());
  for (const Value &V : Values)
    BoundValues.push_back(bindCapture(V));

  rt::Captures Caps;
  Caps.Sources = BoundSources.data();
  Caps.NumSources = static_cast<std::int64_t>(BoundSources.size());
  Caps.Values = BoundValues.data();
  Caps.NumValues = static_cast<std::int64_t>(BoundValues.size());
  Caps.ProfCounts = ProfCounts;
  Caps.ProfNanos = ProfNanos;

  ExecOutput Out;
  Out.Arena = std::make_shared<std::deque<std::vector<double>>>();
  CollectCtx Ctx{RowType.get(), &Out.Rows, Out.Arena.get()};
  rt::Emitter Emit{&Ctx, &collectRow};
  Fn(&Caps, &Emit);
  return Out;
}
