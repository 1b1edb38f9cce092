#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload wfs_solve --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The first run configures and
builds the engine library, hilog_server and the hlbench runner from the
checked-out sources (CMake, Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset; later runs only re-check the
build. The last line of stdout is the JSON result. See README.md.
"""

import argparse
import os
import shutil
import signal
import socket
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wfs_solve", "magic_query", "served_mixed")
BUILD_TIMEOUT_S = 840
# Every run must end within 180 s; set-up and measurement take at most
# `seconds` plus this margin.
RUN_MARGIN_S = 100
# For the in-process workloads, keep freed memory in the process instead
# of returning it to the system and faulting it in again: on the host
# these figures come from, that churn is what swings between its two
# speed states (README.md). hilog_server runs with the defaults: with
# these settings its latency got worse and less steady.
MALLOC_TUNABLES = ("glibc.malloc.mmap_threshold=1073741824:"
                   "glibc.malloc.trim_threshold=4294967295:"
                   "glibc.malloc.top_pad=67108864")


class Interrupted(Exception):
    pass


def on_signal(signum, frame):
    raise Interrupted("signal %d" % signum)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no engine sources at %s/src" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: %s" % " ".join(step))


def stop(proc, grace_s):
    """Waits up to grace_s for proc to exit, then terminates, then kills."""
    if proc is None:
        return
    for sig, wait_s in ((None, grace_s), (signal.SIGTERM, 5),
                        (signal.SIGKILL, 30)):
        if proc.poll() is not None:
            return
        if sig is not None:
            try:
                proc.send_signal(sig)
            except ProcessLookupError:
                pass
        try:
            proc.wait(timeout=wait_s)
            return
        except subprocess.TimeoutExpired:
            pass


def wait_for_socket(path, server, deadline):
    while time.monotonic() < deadline:
        if server.poll() is not None:
            return False
        if os.path.exists(path):
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(path)
                return True
            except OSError:
                pass
            finally:
                probe.close()
        time.sleep(0.02)
    return False


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, on_signal)

    out_dir = build_dir()
    build(out_dir)
    env = None
    if args.workload != "served_mixed":
        env = dict(os.environ, GLIBC_TUNABLES=MALLOC_TUNABLES)
    hlbench = os.path.join(out_dir, "hlbench")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    deadline = time.monotonic() + args.seconds + RUN_MARGIN_S

    run_dir = os.path.join(out_dir, "run-%d" % os.getpid())
    server = client = None
    try:
        # Set-up is timed from here: input generation, server start and
        # base load, and the client's warm-up all count.
        t0_ns = time.monotonic_ns()
        cmd = [hlbench, "run"] + common + ["--t0-ns", str(t0_ns)]
        if args.workload == "served_mixed":
            os.makedirs(run_dir, exist_ok=True)
            gen = subprocess.run([hlbench, "gen"] + common + ["--out", "base.hl"],
                                 cwd=run_dir, env=env, timeout=60)
            if gen.returncode != 0:
                sys.exit("perfbench: input generation failed")
            # A relative socket path keeps it under the 108-byte limit
            # whatever the checkout's location.
            server = subprocess.Popen(
                [os.path.join(out_dir, "hilog_server"), "--port", "-1",
                 "--unix", "s.sock", "--threads", "1", "--preload", "base.hl"],
                cwd=run_dir, env=env, stdout=subprocess.DEVNULL,
                stderr=sys.stderr)
            if not wait_for_socket(os.path.join(run_dir, "s.sock"), server,
                                   deadline):
                sys.exit("perfbench: hilog_server did not start")
            cmd += ["--socket", "s.sock", "--server-pid", str(server.pid)]
        client = subprocess.Popen(cmd, cwd=run_dir if server else ROOT,
                                  env=env, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = client.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            sys.exit("perfbench: %s timed out" % args.workload)
        lines = out.strip().splitlines()
        for line in lines[:-1]:
            print(line, file=sys.stderr)
        if not lines or not lines[-1].startswith("{"):
            sys.exit("perfbench: %s printed no result" % args.workload)
        result = lines[-1]
        code = client.returncode
    except Interrupted as why:
        sys.exit("perfbench: interrupted by %s" % why)
    finally:
        stop(client, 0)
        # The client sent the shutdown op; give the server time to drain.
        stop(server, 10)
        shutil.rmtree(run_dir, ignore_errors=True)
    print(result)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
