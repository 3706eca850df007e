#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload insitu-slice --seed 1 --seconds 20 --trace 0

Workloads: insitu-slice, intransit-tcp, composite-tcp. --trace 1 runs the
traced mode, which reports per-layer metrics and writes a Chrome trace.
Any further flags go to the harness (see perfbench/_harness/main.go), for
example --reference-seed 7 for the wrong-reference control.

The harness is a Go module of its own (perfbench/_harness) that builds
against the repository through a replace directive. Everything the build
and the run write stays under .bench_build/ in the working directory: the
Go build cache, the binary, and the run's scratch output. The last line of
standard output is the JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HARNESS = os.path.join(HERE, "_harness")
RUN_TIMEOUT_S = 170


def revision(root):
    """The git revision of root, or 'unknown' outside a git checkout."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=root,
                             capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=root,
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return rev + ("-dirty" if dirty else "")


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    binary = os.path.join(build, "perfbench")
    env = dict(os.environ)
    # Keep the toolchain's caches and config inside the checkout.
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "HOME": build,
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    built = subprocess.run(["go", "build", "-buildvcs=false", "-o", binary, "."], cwd=HARNESS, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary, "--out", os.path.join(build, "out"), "--rev", revision(root)] + sys.argv[1:]
    proc = subprocess.Popen(args, cwd=root)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
