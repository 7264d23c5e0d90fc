#!/usr/bin/env python3
"""Build and run the repo benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]
    python3 perfbench/run.py --workload all [...]
    python3 perfbench/run.py --print-digests

Builds perfbench/ (and through it the emulator sources under src/) in
Release into .bench_build/perfbench, then runs bce_bench once per workload,
each in its own process. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the exit code is non-zero
when the build fails or any output is wrong.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("paper_matrix", "long_horizon", "fleet_faulty")
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def configured_source():
    """The source directory an existing build tree was configured from."""
    cache = BUILD / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text(errors="replace").splitlines():
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1]
    return None


def build():
    """Configure (once) and build bce_bench; returns its path."""
    source = configured_source()
    if source is not None and Path(source) != HERE:
        shutil.rmtree(BUILD)  # a tree configured from another checkout
        source = None
    steps = []
    if source is None:
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", BUILD_JOBS])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")
    return BUILD / "bce_bench"


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the emulator sources (the benchmark also runs from plain exports)."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, check=True)
        top, head = out.stdout.split()
        if Path(top).resolve() == ROOT:
            return head
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "src-" + h.hexdigest()[:12]


def run_binary(cmd):
    """Run one bce_bench process in its own process group, relaying its
    stdout; returns (exit code, stdout lines)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"perfbench: {' '.join(cmd)} exceeded {RUN_TIMEOUT_S} s")
        return 1, []
    finally:
        # Reap any worker subprocess left behind by a crashed run.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode, out.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="shrunken inputs for the self-test")
    ap.add_argument("--print-digests", action="store_true",
                    help="print the default-seed digests to commit")
    ap.add_argument("--digests", help="digest file to check against")
    args = ap.parse_args()
    if not args.print_digests and args.workload is None:
        ap.error("--workload is required")

    exe = build()
    common = [str(exe), "--commit", source_id()]
    if args.digests:
        common += ["--digests", args.digests]
    if args.print_digests:
        rc, _ = run_binary(common + ["--print-digests"])
        return rc

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    worst = 0
    for w in workloads:
        cmd = common + ["--workload", w, "--seed", str(args.seed),
                        "--seconds", repr(args.seconds),
                        "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        rc, lines = run_binary(cmd)
        if not lines or rc not in (0, 1):
            raise SystemExit(f"perfbench: {w} exited {rc} without a result")
        results[w] = json.loads(lines[-1])
        worst = max(worst, rc)

    if args.workload == "all":
        merged = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
        print(json.dumps(merged))
    return worst


if __name__ == "__main__":
    sys.exit(main())
