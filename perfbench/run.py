#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the library and the perfbench binary from source (optimized) into
.bench_build/perfbench, runs workload W in a fresh process (two rank
processes for solve-shm), and prints its result line as the last line of
standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
(and writes a Chrome trace of the benchmark's spans next to the result
files in .bench_build/perfbench/results). Exits non-zero, without a result
line, when the sources cannot be built or a run fails.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ["solve-rmat", "stream-churn", "solve-shm"]
RANKS = 2
RUN_TIMEOUT_S = 170

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RESULTS_DIR = BUILD_DIR / "results"

# Library switches that would write files or change behaviour behind the
# benchmark's back; DPG_SIMD_LEVEL is kept and recorded in the provenance.
SCRUBBED_ENV = ("DPG_TRACE", "DPG_OBS_SUMMARY", "DPG_LOG")


def die(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def jobs():
    return max(1, min(4, os.cpu_count() or 1))


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"library sources not found under {ROOT / 'src'}", 2)
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR / "build.log"
    with open(log, "w") as out:
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            r = subprocess.run(
                ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=out, stderr=subprocess.STDOUT)
            if r.returncode != 0:
                die(f"cmake configure failed (see {log})")
        r = subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", str(jobs())],
                           stdout=out, stderr=subprocess.STDOUT)
    if r.returncode != 0:
        tail = log.read_text(errors="replace").splitlines()[-30:]
        print("\n".join(tail), file=sys.stderr)
        die(f"build failed (see {log})")


def source_digest():
    """sha256 over the library and benchmark sources: the run's identity
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for p in sorted(top.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def child_env():
    env = dict(os.environ)
    for k in SCRUBBED_ENV:
        env.pop(k, None)
    return env


def stop(procs):
    for p in procs:
        if p.poll() is None:
            p.kill()
    for p in procs:
        p.wait()


def run_workload(args):
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    binary = BUILD_DIR / "perfbench"
    base = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out-dir", str(RESULTS_DIR), "--source-digest", source_digest()]
    session = f"pb{os.getpid()}"
    if args.workload == "solve-shm":
        # One process per rank; rank 0 reports. Rank 1's output is kept for
        # diagnostics only.
        cmds = [base + ["--rank", str(r), "--session", session] for r in range(RANKS)]
    else:
        cmds = [base]
    procs = []
    try:
        for i, cmd in enumerate(cmds):
            procs.append(subprocess.Popen(
                cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                stderr=None if i == 0 else subprocess.DEVNULL, text=True))
        deadline = time.monotonic() + RUN_TIMEOUT_S
        out = ""
        try:
            out, _ = procs[0].communicate(timeout=RUN_TIMEOUT_S)
            # A failed rank 0 leaves its peer blocked on the wire: stop it.
            if procs[0].returncode != 0:
                stop(procs[1:])
            for p in procs[1:]:
                p.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            die(f"{args.workload} did not finish within {RUN_TIMEOUT_S}s")
        codes = [p.returncode for p in procs]
    finally:
        stop(procs)
        for seg in Path("/dev/shm").glob(f"dpg_{session}-*"):
            seg.unlink(missing_ok=True)

    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        die(f"{args.workload} printed no result (exit codes {codes})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        die(f"{args.workload} printed a malformed result line: {lines[-1][:200]}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die(f"{args.workload} result has unexpected keys {sorted(result)}")
    for l in lines[:-1]:
        print(l)
    print(json.dumps(result), flush=True)
    if any(c != 0 for c in codes):
        sys.exit(codes[0] or next(c for c in codes if c != 0))


def selftest():
    """Runs perfbench's unit tests and checks BENCHMARK.json against its
    metric catalog."""
    r = subprocess.run([str(BUILD_DIR / "perfbench_selftest")], cwd=ROOT)
    if r.returncode != 0:
        die("perfbench_selftest failed")
    listed = subprocess.run([str(BUILD_DIR / "perfbench"), "--list-metrics"],
                            capture_output=True, text=True, check=True).stdout
    catalog = {}
    for line in listed.splitlines():
        name, unit, kind = line.split()
        catalog[name] = (unit, kind)
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text())
        declared = {}
        for kind in ("end_to_end", "per_layer"):
            for m in spec[kind]:
                declared[m["name"]] = (m["unit"], kind)
        if declared != catalog:
            diff = sorted(set(declared.items()) ^ set(catalog.items()))
            die(f"BENCHMARK.json and the metric catalog disagree: {diff}")
        unknown = [w["name"] for w in spec["workloads"] if w["name"] not in WORKLOADS]
        if unknown:
            die(f"BENCHMARK.json names workloads run.py does not know: {unknown}")
    print("perfbench selftest: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None):
        ap.error("--workload and --seed are required")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build()
    if args.selftest:
        selftest()
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
