//===- steno/Rt.h - Runtime support for Steno-generated code ---*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Self-contained runtime included by every generated translation unit
/// (paper §3.3): the capture-block ABI through which the host binds source
/// buffers and captured variables, the emitter ABI through which the
/// generated query returns rows, and the sink collections the generated
/// loops build (the Lookup of Figure 7(b) and the partial-aggregate sink of
/// §4.3). This header must not include any other steno header — generated
/// code compiles against it alone.
///
/// It is also STL-free: it includes only <cstdint>, <cstdio>, <cstdlib>
/// and <time.h>, so a generated TU preprocesses to a few thousand lines and
/// the §7.1 one-off compile cost is spent on the query, not on parsing
/// <vector>, <unordered_map>, <chrono>, <algorithm> and <cmath>. Everything
/// the generated loops call is defined inline here: the sinks grow with
/// malloc/realloc, sorting is a merge sort, and the math builtins wrap the
/// compiler's __builtin_* functions (DESIGN.md, "The generated-code header
/// contract").
///
//===----------------------------------------------------------------------===//

#ifndef STENO_STENO_RT_H
#define STENO_STENO_RT_H

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <time.h>

namespace steno {
namespace rt {

//===------------------------------------------------------------------===//
// Checked integer division
//===------------------------------------------------------------------===//

/// Structured runtime trap for integer division by zero (and the INT64_MIN
/// / -1 overflow, the other undefined case of C++ integer division). The
/// code ST2001 matches the static analyzer's division diagnostic, so a log
/// line from a production trap correlates directly with the compile-time
/// warning that predicted it.
[[noreturn]] inline void trapDivByZero() {
  std::fputs("steno runtime error [ST2001]: integer division by zero\n",
             stderr);
  std::abort();
}

/// Division/modulo with defined behavior on every input: traps with a
/// structured error instead of executing undefined behavior. The code
/// generator emits these wherever the analyzer could not prove the divisor
/// is a nonzero constant.
inline std::int64_t ckdiv(std::int64_t A, std::int64_t B) {
  if (B == 0 || (B == -1 && A == INT64_MIN))
    trapDivByZero();
  return A / B;
}

inline std::int64_t ckmod(std::int64_t A, std::int64_t B) {
  if (B == 0 || (B == -1 && A == INT64_MIN))
    trapDivByZero();
  return A % B;
}

/// Borrowed view of Len contiguous doubles (a point, or a group's bag).
struct VecView {
  const double *Data;
  std::int64_t Len;
};

/// The generated representation of pair-typed elements. An aggregate so
/// that brace-initialization in generated code stays trivial.
template <typename A, typename B> struct Pair {
  A First;
  B Second;
};

//===------------------------------------------------------------------===//
// Capture ABI (host -> query)
//===------------------------------------------------------------------===//

/// One bound source buffer. Exactly one of D/I is non-null; Count is the
/// element count and Dim the doubles-per-element stride (1 for scalars).
struct SourceBinding {
  const double *D = nullptr;
  const std::int64_t *I = nullptr;
  std::int64_t Count = 0;
  std::int64_t Dim = 1;
};

/// One captured variable (paper §3.3's placeholder instance variables).
/// A fat struct rather than a union keeps binding code trivial; the
/// generated accessor reads the one field matching the slot's static type.
struct CaptureValue {
  double D = 0;
  std::int64_t I = 0;
  bool B = false;
  const double *VData = nullptr;
  std::int64_t VLen = 0;
};

/// The capture block passed to every generated entry point.
///
/// ProfCounts/ProfNanos are the profile flush targets for TUs generated
/// under STENO_PROFILE: null means "discard" (a profiled entry run by an
/// unprofiled caller is safe). Tail-appended so the offsets of the
/// original four fields — and therefore the ABI seen by previously
/// generated modules — are unchanged.
struct Captures {
  const SourceBinding *Sources = nullptr;
  std::int64_t NumSources = 0;
  const CaptureValue *Values = nullptr;
  std::int64_t NumValues = 0;
  std::uint64_t *ProfCounts = nullptr; ///< 2 slots per profiled op.
  std::uint64_t *ProfNanos = nullptr;  ///< 1 slot per profiled op.
};

/// CLOCK_MONOTONIC in nanoseconds: the clock std::chrono::steady_clock
/// reads on Linux, without <chrono>'s parse cost.
inline std::uint64_t monotonicNanos() {
  timespec T{};
  clock_gettime(CLOCK_MONOTONIC, &T);
  return static_cast<std::uint64_t>(T.tv_sec) * 1000000000u +
         static_cast<std::uint64_t>(T.tv_nsec);
}

/// Scoped nanosecond accumulator for one profiled operator. Declared
/// inline in the loop body (not in its own scope); stop() charges the
/// slot and disarms, and the destructor charges it instead when a
/// continue/break leaves the iteration before the stop() is reached.
class ProfTimer {
public:
  explicit ProfTimer(std::uint64_t *Slot)
      : Slot(Slot), Start(monotonicNanos()) {}
  ~ProfTimer() { stop(); }
  ProfTimer(const ProfTimer &) = delete;
  ProfTimer &operator=(const ProfTimer &) = delete;

  void stop() {
    if (!Slot)
      return;
    *Slot += monotonicNanos() - Start;
    Slot = nullptr;
  }

private:
  std::uint64_t *Slot;
  std::uint64_t Start;
};

//===------------------------------------------------------------------===//
// Emitter ABI (query -> host)
//===------------------------------------------------------------------===//

/// One flattened component of a result row. Kind: 0 = bool (in I),
/// 1 = int64 (in I), 2 = double (in D), 3 = vec (VData/VLen).
struct Cell {
  std::int32_t Kind;
  double D;
  std::int64_t I;
  const double *VData;
  std::int64_t VLen;
};

/// Host-supplied row callback. Scalar queries emit exactly one row;
/// collection queries emit one row per element. Vec cells point into
/// query-local storage and must be copied during the callback.
struct Emitter {
  void *Ctx;
  void (*EmitRow)(void *Ctx, const Cell *Cells, std::int64_t NumCells);
};

/// Number of cells a statically-typed element flattens into.
template <typename T> struct CellCount;
template <> struct CellCount<bool> {
  static constexpr std::int64_t value = 1;
};
template <> struct CellCount<std::int64_t> {
  static constexpr std::int64_t value = 1;
};
template <> struct CellCount<double> {
  static constexpr std::int64_t value = 1;
};
template <> struct CellCount<VecView> {
  static constexpr std::int64_t value = 1;
};
template <typename A, typename B> struct CellCount<Pair<A, B>> {
  static constexpr std::int64_t value =
      CellCount<A>::value + CellCount<B>::value;
};

inline void fillCells(Cell *&P, bool V) {
  *P++ = Cell{0, 0.0, V ? 1 : 0, nullptr, 0};
}
inline void fillCells(Cell *&P, std::int64_t V) {
  *P++ = Cell{1, 0.0, V, nullptr, 0};
}
inline void fillCells(Cell *&P, double V) {
  *P++ = Cell{2, V, 0, nullptr, 0};
}
inline void fillCells(Cell *&P, const VecView &V) {
  *P++ = Cell{3, 0.0, 0, V.Data, V.Len};
}
template <typename A, typename B>
inline void fillCells(Cell *&P, const Pair<A, B> &V) {
  fillCells(P, V.First);
  fillCells(P, V.Second);
}

/// Flattens \p V into cells (pre-order over pairs) and hands the row to
/// the emitter.
template <typename T> inline void emitRow(Emitter *Out, const T &V) {
  Cell Cells[CellCount<T>::value];
  Cell *P = Cells;
  fillCells(P, V);
  Out->EmitRow(Out->Ctx, Cells, CellCount<T>::value);
}

//===------------------------------------------------------------------===//
// Math builtins
//===------------------------------------------------------------------===//

// The spellings expr::builtinSpelling emits. Each is what the matching
// std:: function compiles to (libstdc++'s std::sqrt(double) is
// __builtin_sqrt, and so on), so the generated code is the same as with
// <cmath>/<algorithm>. min/max keep std::min/std::max's operand order.

/// Non-finite literals (support::doubleLiteral's spellings), as
/// std::numeric_limits<double> names them.
constexpr double quiet_NaN() { return __builtin_nan(""); }
constexpr double infinity() { return __builtin_inf(); }

inline double sqrt(double X) { return __builtin_sqrt(X); }
inline double floor(double X) { return __builtin_floor(X); }
inline double ceil(double X) { return __builtin_ceil(X); }
inline double exp(double X) { return __builtin_exp(X); }
inline double log(double X) { return __builtin_log(X); }
inline double pow(double X, double Y) { return __builtin_pow(X, Y); }
inline double fmod(double X, double Y) { return __builtin_fmod(X, Y); }
inline double abs(double X) { return __builtin_fabs(X); }
inline std::int64_t abs(std::int64_t X) { return __builtin_llabs(X); }
inline double min(double A, double B) { return (B < A) ? B : A; }
inline std::int64_t min(std::int64_t A, std::int64_t B) {
  return (B < A) ? B : A;
}
inline double max(double A, double B) { return (A < B) ? B : A; }
inline std::int64_t max(std::int64_t A, std::int64_t B) {
  return (A < B) ? B : A;
}

//===------------------------------------------------------------------===//
// Growable buffers
//===------------------------------------------------------------------===//

/// Structured runtime trap for a sink whose allocation failed (the
/// generated code has no exceptions to throw).
[[noreturn]] inline void trapOutOfMemory() {
  std::fputs("steno runtime error: out of memory growing a query sink\n",
             stderr);
  std::abort();
}

/// Reallocates \p Data to hold \p Cap elements, trapping on failure.
/// Only for trivially copyable T, whose objects realloc may move bytewise.
template <typename T> inline T *reallocArray(T *Data, std::int64_t Cap) {
  void *P = std::realloc(Data, static_cast<std::size_t>(Cap) * sizeof(T));
  if (!P)
    trapOutOfMemory();
  return static_cast<T *>(P);
}

/// The next capacity for an array of \p Cap elements that must hold
/// \p Need: doubling from 1, as std::vector grows, so a GroupSink of many
/// one-element bags costs no more than it did with std::vector.
inline std::int64_t grownCapacity(std::int64_t Cap, std::int64_t Need) {
  std::int64_t New = Cap ? 2 * Cap : 1;
  return New < Need ? Need : New;
}

/// Growable array of trivially copyable elements: the Vec sink of the
/// generated loops (ToArray, OrderBy's buffer) and the storage of the
/// other sinks. A move-only std::vector subset that grows with realloc.
template <typename T> class Buf {
  static_assert(__is_trivially_copyable(T),
                "Buf grows by realloc: its elements must be trivially "
                "copyable");

public:
  Buf() = default;
  ~Buf() { std::free(Data); }
  Buf(const Buf &) = delete;
  Buf &operator=(const Buf &) = delete;

  /// By value: V may alias an element that the growth moves.
  void push_back(T V) {
    if (Len == Cap)
      grow(Len + 1);
    Data[Len++] = V;
  }

  /// Sets the size to \p N, filling new elements with \p Fill.
  void resize(std::int64_t N, T Fill) {
    if (N > Cap)
      grow(N);
    for (std::int64_t I = Len; I < N; ++I)
      Data[I] = Fill;
    Len = N;
  }

  T &operator[](std::int64_t I) { return Data[I]; }
  const T &operator[](std::int64_t I) const { return Data[I]; }
  T *data() { return Data; }
  const T *data() const { return Data; }
  std::int64_t size() const { return Len; }

private:
  __attribute__((noinline)) void grow(std::int64_t Need) {
    Cap = grownCapacity(Cap, Need);
    Data = reallocArray(Data, Cap);
  }

  T *Data = nullptr;
  std::int64_t Len = 0;
  std::int64_t Cap = 0;
};

/// Stable sort of \p N trivially copyable elements by \p Less (a strict
/// weak order; the generated OrderBy's inlined key comparison): insertion
/// sort over runs of 32, then bottom-up merges through one scratch buffer.
/// Equal elements keep their input order, as with std::stable_sort.
template <typename T, typename LessFn>
inline void stableSort(T *Data, std::int64_t N, LessFn Less) {
  static_assert(__is_trivially_copyable(T),
                "stableSort moves elements bytewise");
  constexpr std::int64_t Run = 32;
  for (std::int64_t Lo = 0; Lo < N; Lo += Run) {
    std::int64_t Hi = Lo + Run < N ? Lo + Run : N;
    for (std::int64_t I = Lo + 1; I < Hi; ++I) {
      T V = Data[I];
      std::int64_t J = I;
      for (; J > Lo && Less(V, Data[J - 1]); --J)
        Data[J] = Data[J - 1];
      Data[J] = V;
    }
  }
  if (N <= Run)
    return;
  T *Scratch = reallocArray<T>(nullptr, N);
  T *From = Data;
  T *To = Scratch;
  for (std::int64_t Width = Run; Width < N; Width *= 2) {
    for (std::int64_t Lo = 0; Lo < N; Lo += 2 * Width) {
      std::int64_t Mid = Lo + Width < N ? Lo + Width : N;
      std::int64_t Hi = Lo + 2 * Width < N ? Lo + 2 * Width : N;
      std::int64_t I = Lo, J = Mid, K = Lo;
      // Take from the right run only when strictly less: stability.
      while (I < Mid && J < Hi)
        To[K++] = Less(From[J], From[I]) ? From[J++] : From[I++];
      while (I < Mid)
        To[K++] = From[I++];
      while (J < Hi)
        To[K++] = From[J++];
    }
    T *Tmp = From;
    From = To;
    To = Tmp;
  }
  if (From != Data)
    __builtin_memcpy(Data, From, static_cast<std::size_t>(N) * sizeof(T));
  std::free(Scratch);
}

//===------------------------------------------------------------------===//
// Sink collections
//===------------------------------------------------------------------===//

/// Insertion-ordered int64 -> partial-accumulator map: the specialized
/// GroupByAggregate sink of §4.3. slot() returns a mutable reference,
/// inserting the seed on the key's first appearance.
///
/// A flat open-addressing table: entries live in insertion order in one
/// array, and a power-of-two index of entry numbers (0 = empty) is probed
/// linearly from the key's Fibonacci hash, at most half full. A lookup is
/// one index probe plus one entry read; iteration walks the entry array.
template <typename A> class GroupAggSink {
  static_assert(__is_trivially_copyable(A),
                "accumulators are moved bytewise");

public:
  GroupAggSink() { rehash(4); }
  ~GroupAggSink() { std::free(Index); }
  GroupAggSink(const GroupAggSink &) = delete;
  GroupAggSink &operator=(const GroupAggSink &) = delete;

  A &slot(std::int64_t Key, const A &Seed) {
    for (std::uint64_t H = hash(Key);; H = (H + 1) & Mask) {
      std::uint32_t E = Index[H];
      if (E == 0)
        return insert(H, Key, Seed);
      if (Entries[E - 1].Key == Key)
        return Entries[E - 1].Acc;
    }
  }

  std::int64_t size() const { return Entries.size(); }
  std::int64_t keyAt(std::int64_t I) const { return Entries[I].Key; }
  const A &accAt(std::int64_t I) const { return Entries[I].Acc; }

private:
  struct Entry {
    std::int64_t Key;
    A Acc;
  };

  std::uint64_t hash(std::int64_t Key) const {
    return (static_cast<std::uint64_t>(Key) * 0x9E3779B97F4A7C15ull) >>
           Shift;
  }

  /// First sight of \p Key, whose probe ended at the empty index slot \p H.
  __attribute__((noinline)) A &insert(std::uint64_t H, std::int64_t Key,
                                      const A &Seed) {
    if (Entries.size() == 0xFFFFFFFEll)
      trapOutOfMemory(); // entry numbers are 32-bit
    Entries.push_back(Entry{Key, Seed});
    Index[H] = static_cast<std::uint32_t>(Entries.size());
    if (2 * Entries.size() > static_cast<std::int64_t>(Mask))
      rehash(Bits + 1);
    return Entries[Entries.size() - 1].Acc;
  }

  /// Rebuilds the index at 2^NewBits slots from the entry array.
  void rehash(unsigned NewBits) {
    std::free(Index);
    Bits = NewBits;
    Shift = 64 - NewBits;
    Mask = (std::uint64_t{1} << NewBits) - 1;
    Index = static_cast<std::uint32_t *>(
        std::calloc(Mask + 1, sizeof(std::uint32_t)));
    if (!Index)
      trapOutOfMemory();
    for (std::int64_t I = 0; I != Entries.size(); ++I) {
      std::uint64_t H = hash(Entries[I].Key);
      while (Index[H] != 0)
        H = (H + 1) & Mask;
      Index[H] = static_cast<std::uint32_t>(I + 1);
    }
  }

  Buf<Entry> Entries;
  std::uint32_t *Index = nullptr;
  std::uint64_t Mask = 0;
  unsigned Bits = 0;
  unsigned Shift = 64;
};

/// Insertion-ordered int64 -> bag-of-doubles multi-map: the Lookup of
/// Figure 7(b), built by GroupBy sinks. A GroupAggSink whose accumulator
/// is each bag's malloc'd array.
class GroupSink {
public:
  GroupSink() = default;
  ~GroupSink() {
    for (std::int64_t I = 0; I != Groups.size(); ++I)
      std::free(Groups.accAt(I).Data);
  }
  GroupSink(const GroupSink &) = delete;
  GroupSink &operator=(const GroupSink &) = delete;

  void put(std::int64_t Key, double Value) {
    Bag &B = Groups.slot(Key, Bag{nullptr, 0, 0});
    if (B.Len == B.Cap) {
      B.Cap = grownCapacity(B.Cap, B.Len + 1);
      B.Data = reallocArray(B.Data, B.Cap);
    }
    B.Data[B.Len++] = Value;
  }

  std::int64_t size() const { return Groups.size(); }

  Pair<std::int64_t, VecView> group(std::int64_t I) const {
    const Bag &B = Groups.accAt(I);
    return {Groups.keyAt(I), VecView{B.Data, B.Len}};
  }

private:
  struct Bag {
    double *Data;
    std::int64_t Len;
    std::int64_t Cap;
  };

  GroupAggSink<Bag> Groups;
};

/// Dense-key partial-aggregate sink (the closing optimization of §4.3):
/// when the keys are known to lie in [0, NumKeys), one flat array of
/// accumulators replaces the hash table — O(1) access with no hashing.
/// Every key in range is reported, untouched slots carrying the seed.
template <typename A> class DenseAggSink {
public:
  DenseAggSink(std::int64_t NumKeys, const A &Seed) {
    Slots.resize(NumKeys < 0 ? 0 : NumKeys, Seed);
  }

  A &slot(std::int64_t Key) { return Slots[Key]; }
  std::int64_t size() const { return Slots.size(); }
  std::int64_t keyAt(std::int64_t I) const { return I; }
  const A &accAt(std::int64_t I) const { return Slots[I]; }

private:
  Buf<A> Slots;
};

} // namespace rt
} // namespace steno

#endif // STENO_STENO_RT_H
