//===- shard/Spawn.cpp - Worker process management -------------*- C++ -*-===//

#include "shard/Spawn.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace steno;
using namespace steno::shard;

WorkerProcess::WorkerProcess(WorkerProcess &&O) noexcept
    : Bin(std::move(O.Bin)), Socket(std::move(O.Socket)),
      ExtraArgs(std::move(O.ExtraArgs)), Pid(O.Pid) {
  O.Pid = -1;
}

WorkerProcess &WorkerProcess::operator=(WorkerProcess &&O) noexcept {
  if (this != &O) {
    Bin = std::move(O.Bin);
    Socket = std::move(O.Socket);
    ExtraArgs = std::move(O.ExtraArgs);
    Pid = O.Pid;
    O.Pid = -1;
  }
  return *this;
}

bool WorkerProcess::start(std::string *Err,
                          std::chrono::milliseconds Budget) {
  if (Pid > 0) {
    if (Err)
      *Err = "worker already running";
    return false;
  }

  pid_t Child = ::fork();
  if (Child < 0) {
    if (Err)
      *Err = std::string("fork failed: ") + std::strerror(errno);
    return false;
  }
  if (Child == 0) {
    std::vector<char *> Argv;
    Argv.push_back(const_cast<char *>(Bin.c_str()));
    Argv.push_back(const_cast<char *>("--socket"));
    Argv.push_back(const_cast<char *>(Socket.c_str()));
    for (const std::string &A : ExtraArgs)
      Argv.push_back(const_cast<char *>(A.c_str()));
    Argv.push_back(nullptr);
    ::execv(Bin.c_str(), Argv.data());
    _exit(127); // exec failed; the probe below reports the start failure
  }

  Pid = Child;
  int Fd = connectTo(Socket, Budget);
  if (Fd < 0) {
    if (Err)
      *Err = "worker '" + Bin + "' never started listening on " + Socket;
    kill9();
    return false;
  }
  ::close(Fd);
  return true;
}

void WorkerProcess::kill9() {
  if (Pid <= 0)
    return;
  ::kill(Pid, SIGKILL);
  int Status = 0;
  ::waitpid(Pid, &Status, 0);
  Pid = -1;
}

int WorkerProcess::connectTo(const std::string &Socket,
                             std::chrono::milliseconds Budget) {
  auto GiveUp = std::chrono::steady_clock::now() + Budget;
  for (;;) {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd >= 0) {
      sockaddr_un Addr{};
      Addr.sun_family = AF_UNIX;
      std::strncpy(Addr.sun_path, Socket.c_str(),
                   sizeof Addr.sun_path - 1);
      if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                    sizeof Addr) == 0)
        return Fd;
      ::close(Fd);
    }
    if (std::chrono::steady_clock::now() >= GiveUp)
      return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}
