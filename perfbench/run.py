#!/usr/bin/env python3
"""Build the repo benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload allreduce64 --seed 1 --seconds 10 --trace 0

Workloads: allreduce64, pingpong_stream, rdma_kv_lossy (see
perfbench/README.md). The first call configures and compiles the library
and the benchmark into .bench_build/perfbench (build output goes to
stderr); later calls only rebuild what changed. The benchmark's report and,
as the last line of stdout, its JSON result pass through unchanged. The
exit code is the benchmark's: non-zero when the build fails or any output
is wrong.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "vmmc_perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def run(cmd, timeout, **kwargs):
    """Runs cmd to completion (killing it on timeout); returns its exit code."""
    proc = subprocess.Popen(cmd, cwd=ROOT, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: %s timed out after %d s" % (cmd[0], timeout),
              file=sys.stderr)
        return 1
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def build():
    if shutil.which("cmake") is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return False
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", SOURCE, "-B", BUILD] + generator
        if run(configure, BUILD_TIMEOUT_S, **quiet) != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run(["cmake", "--build", BUILD, "-j", jobs], BUILD_TIMEOUT_S,
               **quiet) == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return run([BINARY] + sys.argv[1:], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
