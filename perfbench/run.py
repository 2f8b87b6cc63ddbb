#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload compress|retrieve|serve \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds the
`perfbench` binary (and the library from this checkout's sources) under
$CARGO_TARGET_DIR, default `.bench_build`; later calls rebuild only what
changed.  Build output goes to stderr.  The binary's stdout is passed
through: a `report` line, then the result object as the last line.  See
perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build():
    """Configure (once) and build the perfbench binary; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("run.py: the library sources (CMakeLists.txt, src/) are "
                 "missing next to perfbench/; nothing to build")
    bdir = build_dir()
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(bdir), "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build step failed: " + " ".join(cmd))
    return bdir / "perfbench"


def source_id():
    """The commit when run from a git work tree, else a hash of the sources."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", *sorted((ROOT / "src").rglob("*"))]
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["compress", "retrieve", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    binary = build()
    workdir = build_dir() / "data"
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--commit", source_id()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: perfbench did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        sys.exit(f"run.py: perfbench exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        sys.exit("run.py: malformed result line: " + lines[-1])
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
