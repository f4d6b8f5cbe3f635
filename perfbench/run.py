#!/usr/bin/env python3
"""Steno/C++ benchmark: one command, three workloads.

    python3 perfbench/run.py --workload figs|serve|routed --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. Builds the tree in Release under
.bench_build/ (or $CARGO_TARGET_DIR), starts the servers the workload
needs, runs the perfbench binary (perfbench/src) against them and
prints, as the last line of standard output, one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (see
perfbench/README.md).

Every run clears the STENO_* knobs, gets a fresh TMPDIR for JIT
artifacts, and stops and reaps every process it started, also when it
fails. serve and routed run client and servers on one CPU (see
perfbench/README.md).
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("figs", "serve", "routed")
SETUP_REPEATS = {"routed": 8}
BUILD_TARGETS = ("perfbench", "steno_serve", "steno_router")
CLIENT_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def clean_env():
    """The environment every child gets: no STENO_* knob set."""
    env = dict(os.environ)
    cleared = sorted(k for k in env if k.startswith("STENO_"))
    for k in cleared:
        del env[k]
    return env, cleared


def build(root, build_dir, env):
    """Configures and builds the benchmark binary and the servers."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as out:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                          "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j4", "--target",
                      *BUILD_TARGETS])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                return False
    return True


class Server:
    """A server process in its own process group, so that it and every
    child it spawns can be signalled together."""

    def __init__(self, argv, cwd, env, log_path):
        self.log = open(log_path, "w")
        self.proc = subprocess.Popen(argv, cwd=cwd, env=env,
                                     stdin=subprocess.DEVNULL,
                                     stdout=self.log, stderr=self.log,
                                     start_new_session=True)

    def peak_rss_mb(self):
        """Sum of the peak resident sets (VmHWM) of the server and every
        process of its group, i.e. the router's shard workers."""
        total = 0.0
        for pid in os.listdir("/proc"):
            if not pid.isdigit():
                continue
            try:
                with open("/proc/%s/stat" % pid) as f:
                    pgrp = int(f.read().rsplit(")", 1)[1].split()[2])
                if pgrp != self.proc.pid:
                    continue
                with open("/proc/%s/status" % pid) as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            total += float(line.split()[1]) / 1024.0
            except (OSError, IndexError, ValueError):
                continue
        if total <= 0:
            raise RuntimeError("no VmHWM for group %d" % self.proc.pid)
        return total

    def stop(self):
        """SIGTERM (the servers shut down cleanly and reap their own
        workers), then SIGKILL to the whole group if needed."""
        pgid = self.proc.pid
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        # Children of the server are not ours to wait for; wait until the
        # group is empty.
        for _ in range(100):
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        self.log.close()


def session(binary, args, server_argv, work_dir, env, trace_out,
            setup_only):
    """Starts the workload's servers in work_dir, runs perfbench against
    them (only its set-up when setup_only) and stops them; returns the
    result object, or None when perfbench failed."""
    os.makedirs(work_dir)
    servers = []
    # Set-up time starts before the first process of the session.
    t0_ns = time.monotonic_ns()
    try:
        cmd = [binary, args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--t0-ns", str(t0_ns), "--trace-out", trace_out]
        if setup_only:
            cmd += ["--setup-only", "1"]
        if args.workload != "figs":
            servers.append(Server(server_argv, work_dir, env,
                                  os.path.join(work_dir, "server.log")))
            cmd += ["--socket", server_argv[2]]
        out = subprocess.run(cmd, cwd=work_dir, env=env,
                             stdout=subprocess.PIPE, text=True,
                             timeout=CLIENT_TIMEOUT_S)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            log("perfbench exited with %d" % out.returncode)
            return None
        result = json.loads(lines[-1])
        if servers and not args.trace and not setup_only:
            result["metrics"]["peak_rss_mb"] = {
                "value": servers[0].peak_rss_mb(), "unit": "MB"}
        if not result["correct"]:
            log("set-up or run failed its checks")
        return result
    finally:
        for s in servers:
            s.stop()
        for s in servers:
            with open(s.log.name) as f:
                tail = f.read().strip().splitlines()[-3:]
            for line in tail:
                log("server: " + line)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("CMakeLists.txt", "src", "tools",
                 os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.exists(os.path.join(root, need)):
            log("not a Steno source checkout: %s is missing" % need)
            return 2

    env, cleared = clean_env()
    base = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))
    build_dir = os.path.join(base, "perfbench-release")
    if not build(root, build_dir, env):
        log("build failed")
        return 1
    binary = os.path.join(build_dir, "perfbench")
    serve_bin = os.path.join(build_dir, "steno", "tools", "steno_serve")
    router_bin = os.path.join(build_dir, "steno", "tools", "steno_router")

    run_dir = os.path.join(base, "runs", "%s-%d" % (args.workload,
                                                      os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    tmp_dir = os.path.join(run_dir, "tmp")
    os.makedirs(tmp_dir)
    env["TMPDIR"] = tmp_dir
    trace_out = os.path.join(base, "traces", "%s-seed%d.json" %
                             (args.workload, args.seed))
    if args.trace:
        os.makedirs(os.path.dirname(trace_out), exist_ok=True)

    server_argv = None
    if args.workload == "serve":
        server_argv = [serve_bin, "--socket", "serve.sock", "--workers", "2",
                       "--compile-workers", "1"]
    elif args.workload == "routed":
        server_argv = [router_bin, "--socket", "router.sock", "--spawn", "2",
                       "--serve-bin", serve_bin, "--shard-socket-dir", ".",
                       "--no-recompile"]
    log("config: workload=%s seed=%d seconds=%g trace=%d build=Release "
        "cores=%d TMPDIR=%s cleared=%s" %
        (args.workload, args.seed, args.seconds, args.trace,
         os.cpu_count(), tmp_dir, ",".join(cleared) or "none"))
    if args.workload != "figs":
        log("config: server: %s" % " ".join(
            os.path.basename(a) for a in server_argv))

    # serve and routed: client and servers share one CPU, so a request's
    # wake-ups are context switches on that CPU, not cross-CPU wake-ups
    # whose cost follows where the scheduler placed each thread in a run.
    if args.workload != "figs":
        cpu = sorted(os.sched_getaffinity(0))[-1]
        os.sched_setaffinity(0, {cpu})
        log("config: client and servers pinned to CPU %d" % cpu)

    # Routed set-up is short (~0.2 s) and spreads by a third between
    # runs, so an untraced run does it SETUP_REPEATS[workload] times more,
    # each with a fresh server fleet. setup_s is the median over all
    # set-ups; compile_ms the geometric mean over the specs of each spec's
    # median compile_ms.<spec>.
    setups = {}
    setup_correct = True
    result = None
    try:
        repeats = 0 if args.trace else SETUP_REPEATS.get(args.workload, 0)
        for i in range(repeats + 1):
            r = session(binary, args, server_argv,
                        os.path.join(run_dir, "setup%d" % i), env,
                        trace_out, setup_only=i < repeats)
            if r is None:
                return 1
            setup_correct = setup_correct and r["correct"]
            if not args.trace:
                for name, m in r["metrics"].items():
                    if name == "setup_s" or name.startswith("compile_ms."):
                        setups.setdefault(name, []).append(m["value"])
            result = r
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result["correct"] = result["correct"] and setup_correct
    if repeats:
        metrics = result["metrics"]
        medians = {name: statistics.median(values)
                   for name, values in setups.items()}
        metrics["setup_s"]["value"] = medians.pop("setup_s")
        metrics["compile_ms"]["value"] = statistics.geometric_mean(
            medians.values())
        for name, values in setups.items():
            log("%s of %d set-ups: %s" % (
                name, len(values), ", ".join("%.4f" % v for v in values)))
    for name in [n for n in result["metrics"]
                 if n.startswith("compile_ms.")]:
        del result["metrics"][name]
    print(json.dumps(result))
    return 0


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
