//===- jit/Jit.h - Compile-load-invoke backend (paper §3.3) ----*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The native backend: writes the generated C++ source to a temp file,
/// invokes the production compiler to build a shared object (the paper
/// invokes csc to build a DLL), loads it with dlopen (Assembly.Load in the
/// paper) and resolves the extern "C" entry point. The measured one-off
/// compilation cost is exposed so the §7.1 break-even experiment can report
/// it. Compiled modules are cached by the facade between invocations, as
/// the paper prescribes.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_JIT_JIT_H
#define STENO_JIT_JIT_H

#include "expr/Type.h"
#include "expr/Value.h"
#include "steno/Rt.h"

#include <deque>
#include <memory>
#include <string>
#include <vector>

namespace steno {
namespace jit {

/// Signature of every generated entry point.
using EntryFn = void (*)(const rt::Captures *, rt::Emitter *);

/// A compiled and loaded query module. Closing the module unloads the
/// shared object, invalidating the entry pointer.
class CompiledModule {
public:
  ~CompiledModule();
  CompiledModule(const CompiledModule &) = delete;
  CompiledModule &operator=(const CompiledModule &) = delete;

  /// Compiles \p Source (a complete translation unit) and resolves
  /// \p EntrySymbol. Returns nullptr and fills \p ErrMsg on failure.
  static std::unique_ptr<CompiledModule>
  compile(const std::string &Source, const std::string &EntrySymbol,
          std::string *ErrMsg = nullptr);

  /// Loads an already-compiled shared object (the persistent-cache hit
  /// path — no compiler invocation; compileMillis() reports only the
  /// dlopen cost). Returns nullptr and fills \p ErrMsg on failure.
  static std::unique_ptr<CompiledModule>
  load(const std::string &SharedObjectPath, const std::string &EntrySymbol,
       std::string *ErrMsg = nullptr);

  EntryFn entry() const { return Entry; }
  /// Wall-clock cost of compiler + load, in milliseconds (paper §7.1's
  /// one-off cost; ~69 ms with csc, more with a C++ compiler).
  double compileMillis() const { return CompileMs; }
  const std::string &sourcePath() const { return SourcePath; }
  const std::string &objectPath() const { return SoPath; }

private:
  CompiledModule() = default;

  void *Handle = nullptr;
  EntryFn Entry = nullptr;
  double CompileMs = 0;
  std::string SourcePath;
  std::string SoPath;
};

/// FNV-1a hash of the text of steno/Rt.h as the JIT compiles against it
/// (read once from the source tree). Stored artifacts key on it, so an
/// object built against an older runtime header is never reloaded.
std::uint64_t runtimeHeaderHash();

/// Rows collected from one native execution. Vec payloads are copied into
/// Arena during emission (the emitter callback), so rows outlive the
/// query's internal sinks.
struct ExecOutput {
  std::vector<expr::Value> Rows;
  std::shared_ptr<std::deque<std::vector<double>>> Arena;
};

/// Binds sources/captures into the rt ABI, invokes \p Fn and decodes the
/// emitted rows according to \p RowType. ProfCounts/ProfNanos, when
/// non-null, receive the profile flush of a TU generated with profiling
/// hooks (sized 2*NumOps and NumOps respectively); leave null otherwise.
ExecOutput run(EntryFn Fn, const std::vector<expr::SourceBuffer> &Sources,
               const std::vector<expr::Value> &Values,
               const expr::TypeRef &RowType,
               std::uint64_t *ProfCounts = nullptr,
               std::uint64_t *ProfNanos = nullptr);

} // namespace jit
} // namespace steno

#endif // STENO_JIT_JIT_H
