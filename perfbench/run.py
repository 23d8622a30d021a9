#!/usr/bin/env python3
"""Repository benchmark: build glto_perfbench from source, run one workload.

    python3 perfbench/run.py --workload tasks|loops|qps --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
glto_perfbench binary (CMake, Release) into .bench_build/; later runs
rebuild only what changed. The binary runs with the runtime-selection knobs
(GLT_*, GLTO_*, OMP_*, ABT_*, QTH_*, MTH_*) removed, so every run measures
the default backend (abt, glto-abt) at 4 GLT threads.

Prints the binary's human-readable lines, a "# run {...}" identity line
(git sha and dirty flag or a source digest, nproc, uname, /proc/stat steal
time across the run) and, as the last line, one JSON object with the keys
correct, attempted, failed and metrics. --trace 1 also writes the span
JSON to .bench_build/ and checks it with check_trace.py, printing the
per-layer self-time table. Exits non-zero, without a result line, when the
sources are missing or the build fails; exits 1 when an output check or
the trace check failed.
"""
import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "glto_perfbench")
RUN_LIMIT_S = 175  # the whole command must finish within 180 s
KNOB_PREFIXES = ("GLT_", "GLTO_", "OMP_", "ABT_", "QTH_", "MTH_")

sys.dont_write_bytecode = True  # leave nothing behind in the benchmark's files
sys.path.insert(0, BENCH_DIR)
import check_trace  # noqa: E402  (lives beside this file)


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (once) and build the binary; build output goes to stderr
    only on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "glto_perfbench",
                  "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-8000:])
            die("build step failed: " + " ".join(cmd))


def git_identity():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None, None
    try:
        def git(*argv):
            return subprocess.run(["git", "-C", ROOT, *argv],
                                  capture_output=True, text=True,
                                  check=True).stdout.strip()
        sha = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
        return sha, bool(dirty)
    except (OSError, subprocess.CalledProcessError):
        return None, None


def source_digest():
    """sha256 over the library sources, the root build file and the
    benchmark's own files: identifies the measured code without git."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in (os.path.join(ROOT, "src"), BENCH_DIR):
        for d, dirs, files in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            paths += [os.path.join(d, f) for f in sorted(files)]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def steal_ticks():
    """Machine-wide steal time from the aggregate cpu line of /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        if fields[0] != "cpu" or len(fields) <= 8:
            return None
        return int(fields[8])
    except OSError:
        return None


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["tasks", "loops", "qps"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if not 1 <= args.seconds <= 120:
        die("--seconds must be 1..120")
    if args.seed < 0:
        die("--seed must be non-negative")
    for need in ("CMakeLists.txt", os.path.join("src", "glt", "glt.hpp")):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("no glto source tree here (missing %s)" % need)

    build()

    trace_out = os.path.join(
        BUILD_DIR, "trace-%s-%d.json" % (args.workload, args.seed))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", trace_out]
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(KNOB_PREFIXES)}
    steal0, t0 = steal_ticks(), time.monotonic()
    # Budget left after the build; the first run of a checkout may spend
    # most of its time building.
    budget = max(RUN_LIMIT_S - (time.monotonic() - start),
                 2 * args.seconds + 60)
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        die("glto_perfbench exceeded %.0f s" % budget, 1)
    wall, steal1 = time.monotonic() - t0, steal_ticks()
    lines = p.stdout.splitlines()
    if not lines:
        die("glto_perfbench printed nothing (exit %d)" % p.returncode, 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        die("glto_perfbench's last line is not a result (exit %d)"
            % p.returncode, 1)
    for line in lines[:-1]:
        print(line)

    trace_ok = True
    if args.trace:
        trace_ok, table = check_trace.check(trace_out)
        print(table)
        if not trace_ok:
            result["correct"] = False
            result["failed"] += 1

    sha, dirty = git_identity()
    u = platform.uname()
    ncpu = os.cpu_count() or 1
    hz = os.sysconf("SC_CLK_TCK")
    steal_s = None
    if steal0 is not None and steal1 is not None:
        steal_s = (steal1 - steal0) / hz
    if args.trace:
        # Host interference beside the layer numbers: the share of the
        # machine's CPU time the hypervisor stole during the run.
        result["metrics"]["host.steal_frac"] = {
            "value": (steal_s or 0.0) / (wall * ncpu), "unit": "ratio"}
    identity = {
        "git_sha": sha, "git_dirty": dirty, "source_digest": source_digest(),
        "nproc": ncpu, "uname": " ".join((u.system, u.release, u.machine)),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "run_wall_s": round(wall, 3),
        "steal_s": steal_s,
        "steal_frac": (None if steal_s is None
                       else round(steal_s / (wall * ncpu), 6)),
    }
    print("# run " + json.dumps(identity))
    keys = ("correct", "attempted", "failed", "metrics")
    print(json.dumps({k: result[k] for k in keys}))
    sys.exit(p.returncode if p.returncode != 0 else (0 if trace_ok else 1))


if __name__ == "__main__":
    main()
