#!/usr/bin/env python3
"""Builds the repository and the perfbench binary, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The repository is configured from its own CMake files into a Release build
tree under .bench_build/ (or $CARGO_TARGET_DIR when set), and only the
libraries and tools the benchmark uses are built. The perfbench binary
(perfbench/src) is then built against them and replaces this process, so
the last line on standard output is its JSON result. Build output
goes to standard error.
"""
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGETS = ["sweep_serve", "rrfd_serve", "rrfd_sweep", "rrfd_ho", "rrfd_trace",
           "rrfd_agreement", "rrfd_msgpass", "rrfd_runtime", "rrfd_core",
           "rrfd_util"]


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def sh(cmd):
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)


def configure(src, build, extra):
    if not os.path.exists(os.path.join(build, "build.ninja")):
        sh(["cmake", "-S", src, "-B", build, "-G", "Ninja",
            "-DCMAKE_BUILD_TYPE=Release"] + extra)


def build():
    jobs = str(os.cpu_count() or 1)
    out = build_root()
    repo_build = os.path.join(out, "rrfd")
    bench_build = os.path.join(out, "perfbench")
    configure(ROOT, repo_build, [])
    sh(["cmake", "--build", repo_build, "-j", jobs, "--target"] + TARGETS)
    configure(HERE, bench_build, ["-DRRFD_SOURCE_DIR=" + ROOT,
                                  "-DRRFD_BUILD_DIR=" + repo_build])
    sh(["cmake", "--build", bench_build, "-j", jobs])
    return (os.path.join(bench_build, "perfbench"),
            os.path.join(repo_build, "tools", "sweep_serve"))


def main():
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.stderr.write("perfbench: %s is not a checkout of the repository "
                             "(no %s)\n" % (ROOT, needed))
            return 2
    try:
        binary, serve = build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.stderr.write("perfbench: build failed: %s\n" % error)
        return 2
    sys.stdout.flush()
    # Set-up time is measured from this instant: it covers loading the
    # perfbench binary, generating inputs and starting sweep_serve.
    t0 = str(time.monotonic_ns())
    os.chdir(ROOT)
    os.execv(binary, [binary, "--serve-bin", serve, "--out-dir",
                      os.path.join(build_root(), "spans"), "--t0-ns", t0]
             + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
