#!/usr/bin/env python3
"""Builds (Release) and runs the socket-level benchmark.

    python3 perfbench/run.py --workload read_hot|edit_integrate|write_durable \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
server and the load generator under .bench_build/perfbench; later runs only
check that the build is current. Its stdout is passed through: the last
line is the run's JSON result. See perfbench/README.md.
"""

import argparse
import ctypes
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORK = os.path.join(REPO, ".bench_build")
BUILD = os.path.join(WORK, "perfbench")
WORKLOADS = ("read_hot", "edit_integrate", "write_durable")
# A run must end within 180 s; leave room to report a timeout.
RUN_TIMEOUT_S = 170
PR_SET_CHILD_SUBREAPER = 36


def build():
    if not os.path.isfile(os.path.join(REPO, "src", "service", "service.h")):
        sys.exit("perfbench: no ecrint sources next to perfbench/; "
                 "run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    # The default seed is the load generator's own (see README.md).
    parser.add_argument("--seed", type=int)
    # No default: the run length is BENCHMARK.json's run_seconds.
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as error:
        sys.exit("perfbench: build failed: %s" % error)

    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload,
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--bin-dir", BUILD, "--work-dir", WORK]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    # The servers run in the load generator's own process group; as a
    # subreaper this process inherits any it leaves behind, so every exit
    # path below can stop them and wait for them.
    ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    child = subprocess.Popen(command, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        code = 3
    except KeyboardInterrupt:
        code = 130
    stop_group(child)
    return code if code >= 0 else 128 - code


def stop_group(child):
    """Kills what is left of the run's process group and reaps it."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.01)


if __name__ == "__main__":
    sys.exit(main())
