#!/usr/bin/env python3
"""Build and run the jhpc wall-clock benchmark.

    python3 perfbench/run.py --workload p2p_small|bulk|cg_app|service_churn \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
libraries under src/ together with the perfbench binary in perfbench/src (CMake,
Release) into .bench_build/; later runs rebuild incrementally. Each run
writes its full record, stamped with a host and build fingerprint, to
.bench_out/, and traced runs also write their kept spans there.

stdout: the binary's metric table, a "# fingerprint" line, and as the last
line the result object {"correct", "attempted", "failed", "metrics"}.
The exit code is non-zero when the sources are missing, the build fails,
or any operation failed verification.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = ROOT / ".bench_out"
RUN_TIMEOUT_S = 170
WORKLOADS = ("p2p_small", "bulk", "cg_app", "service_churn")


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    # CARGO_TARGET_DIR, when set, names the checkout's directory for build
    # products; the CMake tree goes there too.
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    # A CMake tree is tied to one source directory; key it by ours so a
    # shared build directory never mixes two checkouts.
    return base / ("perfbench-" + hashlib.sha256(str(BENCH_DIR).encode()).hexdigest()[:8])


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout", 2)
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "perfbench", "-j", jobs])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = bdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}", 3)
    return bdir / "perfbench"


def affinity():
    cpus = sorted(os.sched_getaffinity(0))
    ranges, start = [], None
    for i, c in enumerate(cpus):
        if start is None:
            start = c
        if i + 1 == len(cpus) or cpus[i + 1] != c + 1:
            ranges.append(f"{start}-{c}" if start != c else str(c))
            start = None
    return ",".join(ranges)


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_rev():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def fingerprint(record):
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity(),
        "cpu_model": cpu_model(),
        "compiler": record.get("compiler", "unknown"),
        "build_type": record.get("build_type", "unknown"),
        # The binary builds every configuration with observability off
        # and ignores the JHPC_* environment knobs.
        "obs": "off",
        "git_rev": git_rev(),
        "source_digest": source_digest(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    exe = build()
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record_path = OUT_DIR / f"{stem}.json"
    spans_path = OUT_DIR / f"{stem}.spans.json"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--record", str(record_path), "--spans", str(spans_path)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail(f"perfbench printed no result (exit {r.returncode})", r.returncode or 5)

    try:
        record = json.loads(record_path.read_text())
    except (OSError, ValueError):
        fail("perfbench wrote no record", r.returncode or 5)
    record["fingerprint"] = fingerprint(record)
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for line in lines[:-1]:
        print(line)
    print("# fingerprint " + json.dumps(record["fingerprint"], sort_keys=True))
    print(lines[-1], flush=True)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
