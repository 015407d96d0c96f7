#!/usr/bin/env python3
"""Builds and runs the repository benchmark from the checkout it sits in.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 10 --trace 0

Run from the root of a Deco checkout. The first run configures and builds
the library plus the `perfbench` binary (Release) into `.bench_build`
(or `$CARGO_TARGET_DIR`, if set); later runs rebuild incrementally. The
build log goes to `<build dir>/build.log`; the benchmark's own output is
passed through, and its last stdout line is the JSON result. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def fail(message, code=2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def git_sha():
    if shutil.which("git") is None or not os.path.exists(
            os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the library sources, so a result names its code even
    in a checkout without git metadata."""
    digest = hashlib.sha256()
    for sub in ("CMakeLists.txt", "src", "tools"):
        path = os.path.join(ROOT, sub)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench",
         "-j", str(os.cpu_count() or 2)],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed (full log: {log_path})", code=1)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for required in ("CMakeLists.txt", "src/harness/experiment.h"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail(f"{required} not found next to perfbench/: run from a "
                 "Deco checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    spans_dir = os.path.join(build_dir, "spans")
    os.makedirs(spans_dir, exist_ok=True)

    sys.stdout.flush()
    proc = subprocess.run([
        binary,
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--out_dir={spans_dir}",
        f"--git_sha={git_sha()}",
        f"--source_digest={source_digest()}",
    ], cwd=ROOT)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
