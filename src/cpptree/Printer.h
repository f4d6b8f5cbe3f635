//===- cpptree/Printer.h - Render generated AST to C++ source --*- C++ -*-===//
///
/// \file
/// Renders a cpptree::Program into a self-contained C++ translation unit
/// exposing one extern "C" entry point
///
///   extern "C" void <name>(const steno::rt::Captures *Caps_,
///                          steno::rt::Emitter *Out_);
///
/// which the JIT backend compiles into a shared object (paper §3.3). All
/// runtime support (VecView, Pair, the sink classes, emitRow) lives in
/// steno/Rt.h, which the generated source includes.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_CPPTREE_PRINTER_H
#define STENO_CPPTREE_PRINTER_H

#include "cpptree/Tree.h"

#include <set>
#include <string>

namespace steno {
namespace cpptree {

/// Slots a program touches; used to validate bindings before running.
struct SlotUsage {
  std::set<unsigned> SourceSlots;
  std::set<unsigned> ValueSlots;
};

/// Computes the source/capture slots referenced anywhere in \p P.
SlotUsage scanSlots(const Program &P);

/// Renders \p P as a complete C++ source file.
std::string printProgram(const Program &P);

/// The opening every generated translation unit shares, whichever code
/// generator prints the body: a banner naming \p Generator, the one
/// include (steno/Rt.h, the generated-code header contract), the extern
/// "C" entry signature, the source-binding locals of \p Slots and, when
/// \p NumProfOps is non-zero, the profile accumulator arrays. The body
/// continues at one level of indentation.
std::string printPrelude(const std::string &Generator,
                         const std::string &Entry, const SlotUsage &Slots,
                         std::size_t NumProfOps);

} // namespace cpptree
} // namespace steno

#endif // STENO_CPPTREE_PRINTER_H
