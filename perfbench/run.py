#!/usr/bin/env python3
"""End-to-end serving benchmark for nblb.

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
library from the repository's sources) and runs one workload:

    python3 perfbench/run.py --workload hot_get --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Each run works in its own directory under .bench_build/runs/ and removes it
on every exit path. The generator and the server it starts share a process
group, which is killed and waited for before this script exits. The last
line of stdout is the run's JSON result; see perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(build_dir):
    """Configures once, then brings the build up to date (a no-op when it is)."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def stop_group(proc):
    """SIGKILLs the generator's process group and waits until it is empty."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the checker's self-tests")
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "nblb.h")):
        log("the nblb sources (src/) are not next to perfbench/; nothing to "
            "build")
        return 2
    bdir = os.path.join(build_root(), "perfbench")
    if not build(bdir):
        log("build failed")
        return 1
    if args.self_test:
        return subprocess.run([os.path.join(bdir, "perfbench_checker_test")],
                              stdout=sys.stderr).returncode
    if not args.workload:
        ap.error("--workload is required")

    run_dir = os.path.join(build_root(), "runs", "%s-s%d-t%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    os.makedirs(run_dir)
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha())
    cmd = [os.path.join(bdir, "perfbench_gen"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--dir", run_dir, "--server", os.path.join(bdir, "perfbench_server")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    # Any exit path below, a signal included, stops the whole group first.
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda *_: sys.exit(1))
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        stop_group(proc)
        shutil.rmtree(run_dir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n") if out else []
    for line in lines:
        print(line)
    sys.stdout.flush()
    if proc.returncode != 0:
        log("generator exited with code %d" % proc.returncode)
        return proc.returncode if proc.returncode > 0 else 1
    if not lines or not lines[-1].startswith("{\"correct\""):
        log("generator printed no result")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
