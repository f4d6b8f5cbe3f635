//===- tools/steno_serve.cpp - Query service over a Unix socket ----------===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
//
// A long-lived serving process: listens on a Unix-domain socket and runs
// one serve::serveConnection thread per client. The protocol is the
// line-oriented one in serve/Wire.h; try it interactively with
//
//   steno_serve --socket /tmp/steno.sock &
//   nc -U /tmp/steno.sock
//
// Exit: 0 on clean SIGINT/SIGTERM shutdown, 2 on usage/bind errors.
//
//===----------------------------------------------------------------------===//

#include "serve/Serve.h"
#include "serve/Wire.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace steno;

namespace {

std::atomic<bool> Stop{false};
int ListenFdForSignal = -1;

void onSignal(int) {
  Stop.store(true);
  // Unblock accept(): shutdown() on a listening socket is
  // implementation-defined, but close() reliably fails the accept.
  if (ListenFdForSignal >= 0)
    ::close(ListenFdForSignal);
}

void usage() {
  std::fprintf(
      stderr,
      "usage: steno_serve [options]\n"
      "  --socket PATH      Unix socket path (default /tmp/steno-serve.sock)\n"
      "  --workers N        execution pool size (default 4)\n"
      "  --max-queue N      admission bound, queued+running (default 64)\n"
      "  --compile-workers N  background JIT threads (default 1)\n"
      "  --deadline-ms N    default request deadline (default 5000)\n"
      "  --no-recompile     stay on the interpreter backend forever\n"
      "  --profile          per-operator query profiling (wire command\n"
      "                     `profile <handle>`; also STENO_PROFILE=1)\n"
      "  --no-adapt         disable feedback-driven re-planning (also\n"
      "                     STENO_ADAPT=off)\n"
      "  --replan-every N   adaptive re-plan cadence in executions per\n"
      "                     handle (default 64; 0 = never)\n"
      "  --adapt-window N   post-swap judgement window in runs\n"
      "                     (default 32)\n");
}

bool parseUnsigned(const char *S, unsigned long long &Out) {
  char *End = nullptr;
  Out = std::strtoull(S, &End, 10);
  return End && *End == '\0' && End != S;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string SocketPath = "/tmp/steno-serve.sock";
  serve::ServeOptions Opts;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto next = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "steno_serve: %s needs a value\n", Arg.c_str());
        std::exit(2);
      }
      return Argv[++I];
    };
    unsigned long long N = 0;
    if (Arg == "--socket") {
      SocketPath = next();
    } else if (Arg == "--workers" && parseUnsigned(next(), N)) {
      Opts.Workers = static_cast<unsigned>(N);
    } else if (Arg == "--max-queue" && parseUnsigned(next(), N)) {
      Opts.MaxQueue = static_cast<unsigned>(N);
    } else if (Arg == "--compile-workers" && parseUnsigned(next(), N)) {
      Opts.CompileWorkers = static_cast<unsigned>(N);
    } else if (Arg == "--deadline-ms" && parseUnsigned(next(), N)) {
      Opts.DefaultDeadline = std::chrono::milliseconds(N);
    } else if (Arg == "--no-recompile") {
      Opts.BackgroundRecompile = false;
    } else if (Arg == "--profile") {
      Opts.Profile = true;
    } else if (Arg == "--no-adapt") {
      Opts.AdaptiveReplan = false;
    } else if (Arg == "--replan-every" && parseUnsigned(next(), N)) {
      Opts.ReplanEvery = static_cast<unsigned>(N);
    } else if (Arg == "--adapt-window" && parseUnsigned(next(), N)) {
      Opts.AdaptWindow = static_cast<unsigned>(N);
    } else {
      usage();
      return 2;
    }
  }

  int ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    std::perror("steno_serve: socket");
    return 2;
  }
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (SocketPath.size() >= sizeof Addr.sun_path) {
    std::fprintf(stderr, "steno_serve: socket path too long\n");
    return 2;
  }
  std::strncpy(Addr.sun_path, SocketPath.c_str(), sizeof Addr.sun_path - 1);
  ::unlink(SocketPath.c_str()); // stale socket from a previous run
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) <
          0 ||
      ::listen(ListenFd, 64) < 0) {
    std::perror("steno_serve: bind/listen");
    return 2;
  }

  ListenFdForSignal = ListenFd;
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  std::signal(SIGPIPE, SIG_IGN); // client hangups surface as write errors

  serve::QueryService Svc(Opts);
  std::fprintf(stderr,
               "steno_serve: listening on %s (workers=%u max-queue=%u)\n",
               SocketPath.c_str(), Opts.Workers, Opts.MaxQueue);

  std::vector<std::thread> Connections;
  while (!Stop.load()) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (Stop.load() || errno == EBADF)
        break;
      if (errno == EINTR)
        continue;
      std::perror("steno_serve: accept");
      break;
    }
    Connections.emplace_back([&Svc, Fd] {
      serve::serveConnection(Svc, Fd);
      ::close(Fd);
    });
  }

  for (std::thread &T : Connections)
    T.join();
  ::unlink(SocketPath.c_str());
  serve::QueryService::Stats S = Svc.stats();
  std::fprintf(stderr,
               "steno_serve: shut down; served %llu requests "
               "(%llu ok, %llu shed, %llu timeout, %llu error)\n",
               static_cast<unsigned long long>(S.Accepted),
               static_cast<unsigned long long>(S.Ok),
               static_cast<unsigned long long>(S.Shed),
               static_cast<unsigned long long>(S.Timeouts),
               static_cast<unsigned long long>(S.Errors));
  return 0;
}
