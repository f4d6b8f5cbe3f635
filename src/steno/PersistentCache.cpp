//===- steno/PersistentCache.cpp ------------------------------*- C++ -*-===//

#include "steno/PersistentCache.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "steno/QueryCache.h"
#include "support/Error.h"
#include "support/StringUtil.h"
#include "support/TempFile.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <sys/stat.h>
#include <unistd.h>

using namespace steno;

namespace {

/// Minimal line-based metadata codec. Format:
///   steno-pcache v1
///   entry <symbol>
///   scalar <0|1>
///   result <type serialization>
///   srcslots <n...>
///   valslots <n...>
///   end
/// The version header and the `end` sentinel exist for crash consistency:
/// a metadata file from an interrupted write (truncated anywhere, even
/// mid-line) fails to decode and the entry misses cleanly, instead of
/// rehydrating a query with half its slot-usage records — which would
/// silently skip binding validation at run time.
std::string encodeMeta(const PersistedQueryArtifact &A) {
  std::string Out = "steno-pcache v1\n";
  Out += "entry " + A.EntrySymbol + "\n";
  Out += std::string("scalar ") + (A.ScalarResult ? "1" : "0") + "\n";
  Out += "result " + A.ResultType->serialize() + "\n";
  Out += "srcslots";
  for (unsigned Slot : A.Slots.SourceSlots)
    Out += " " + std::to_string(Slot);
  Out += "\nvalslots";
  for (unsigned Slot : A.Slots.ValueSlots)
    Out += " " + std::to_string(Slot);
  Out += "\nend\n";
  return Out;
}

bool decodeMeta(const std::string &Text, PersistedQueryArtifact &A) {
  std::istringstream In(Text);
  std::string Line;
  if (!std::getline(In, Line) || Line != "steno-pcache v1")
    return false; // unknown/older format: miss and recompile
  bool SawEntry = false;
  bool SawScalar = false;
  bool SawResult = false;
  bool SawSrc = false;
  bool SawVal = false;
  bool SawEnd = false;
  while (std::getline(In, Line)) {
    if (SawEnd)
      return false; // trailing garbage
    std::istringstream Fields(Line);
    std::string Key;
    if (!(Fields >> Key))
      return false; // blank line: not something encodeMeta emits
    if (Key == "entry") {
      Fields >> A.EntrySymbol;
      SawEntry = !A.EntrySymbol.empty();
    } else if (Key == "scalar") {
      int V = 0;
      if (!(Fields >> V))
        return false;
      A.ScalarResult = V != 0;
      SawScalar = true;
    } else if (Key == "result") {
      std::string Ty;
      Fields >> Ty;
      A.ResultType = expr::Type::deserialize(Ty);
      SawResult = A.ResultType != nullptr;
    } else if (Key == "srcslots") {
      unsigned Slot;
      while (Fields >> Slot)
        A.Slots.SourceSlots.insert(Slot);
      SawSrc = true;
    } else if (Key == "valslots") {
      unsigned Slot;
      while (Fields >> Slot)
        A.Slots.ValueSlots.insert(Slot);
      SawVal = true;
    } else if (Key == "end") {
      SawEnd = true;
    } else {
      return false; // unknown key: corrupt or future format
    }
  }
  return SawEntry && SawScalar && SawResult && SawSrc && SawVal && SawEnd;
}

void ensureDir(const std::string &Path) {
  if (::mkdir(Path.c_str(), 0755) != 0 && errno != EEXIST)
    support::fatalError("cannot create cache directory " + Path + ": " +
                        std::strerror(errno));
}

bool fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0;
}

/// Write-then-rename so a crash mid-write can never leave a partially
/// written file at the final path (rename within a directory is atomic
/// on POSIX). The temp name is pid-qualified so two processes filling
/// the same entry don't interleave their temp writes.
void writeFileAtomic(const std::string &Path, const std::string &Contents) {
  std::string Tmp =
      Path + support::strFormat(".tmp%d", static_cast<int>(::getpid()));
  support::writeFile(Tmp, Contents);
  if (::rename(Tmp.c_str(), Path.c_str()) != 0)
    support::fatalError("cannot move " + Tmp + " into place: " +
                        std::strerror(errno));
}

/// Copies a file (the compiled .so lives in the JIT temp dir; the cache
/// keeps its own copy that outlives the process).
bool copyFile(const std::string &From, const std::string &To) {
  std::string Data = support::readFileOrEmpty(From);
  if (Data.empty())
    return false;
  writeFileAtomic(To, Data);
  return true;
}

} // namespace

PersistentQueryCache::PersistentQueryCache(std::string Directory)
    : Dir(std::move(Directory)) {
  ensureDir(Dir);
}

std::string
PersistentQueryCache::entryDir(const query::Query &Q,
                               const CompileOptions &Options) const {
  // Every option that changes the generated code (the flags QueryCache
  // keys on for Native entries), plus the runtime header the object was
  // compiled against.
  std::uint64_t Key = hashQuery(Q);
  return support::strFormat(
      "%s/q%016llx_s%d_c%d_p%d_r%d_h%016llx", Dir.c_str(),
      static_cast<unsigned long long>(Key),
      Options.SpecializeGroupByAggregate ? 1 : 0, Options.EnableCse ? 1 : 0,
      Options.Profile ? 1 : 0, Options.Rewrite ? 1 : 0,
      static_cast<unsigned long long>(jit::runtimeHeaderHash()));
}

CompiledQuery
PersistentQueryCache::getOrCompile(const query::Query &Q,
                                   const CompileOptions &Options) {
  if (Options.Exec != Backend::Native)
    support::fatalError(
        "the persistent cache stores compiled objects; use the Native "
        "backend");

  static obs::Counter &HitCount = obs::counter("steno.pcache.hits");
  static obs::Counter &MissCount = obs::counter("steno.pcache.misses");
  obs::Span Span("steno.pcache.getOrCompile");

  std::lock_guard<std::mutex> Lock(Mutex);
  std::string Entry = entryDir(Q, Options);
  std::string MetaPath = Entry + "/meta.txt";
  std::string SoPath = Entry + "/query.so";
  std::string SourcePath = Entry + "/query.cpp";

  if (fileExists(MetaPath) && fileExists(SoPath)) {
    PersistedQueryArtifact A;
    if (decodeMeta(support::readFileOrEmpty(MetaPath), A)) {
      A.SharedObjectPath = SoPath;
      A.Source = support::readFileOrEmpty(SourcePath);
      std::string Err;
      CompiledQuery CQ = A.rehydrate(&Err);
      if (CQ.valid()) {
        Hits.fetch_add(1, std::memory_order_relaxed);
        HitCount.inc();
        return CQ;
      }
    }
    // Corrupt entry: fall through and recompile over it.
  }

  CompiledQuery Compiled = compileQuery(Q, Options);
  Misses.fetch_add(1, std::memory_order_relaxed);
  MissCount.inc();
  PersistedQueryArtifact A = PersistedQueryArtifact::describe(Compiled);
  ensureDir(Entry);
  if (!copyFile(A.SharedObjectPath, SoPath))
    support::fatalError("cannot persist compiled object from " +
                        A.SharedObjectPath);
  writeFileAtomic(SourcePath, A.Source);
  // Metadata last: an entry is visible only once its object and source
  // are already in place, so readers can never observe meta-without-so.
  writeFileAtomic(MetaPath, encodeMeta(A));
  return Compiled;
}
