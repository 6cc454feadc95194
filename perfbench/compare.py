#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are run records written by run.py (.bench_out/*.json) or
directories holding them. Records are grouped by workload and trace mode;
for every metric of the result line the medians of the two sides are
compared, and end-to-end metrics are judged against their bound in
BENCHMARK.json.

Runs are only comparable on the same host and build: the comparison is
refused (exit 3) when any record's fingerprint differs from the others in
nproc, affinity mask, CPU model, compiler, build type or observability.
Exit 1 means some end-to-end metric regressed beyond its bound.
"""

import json
import statistics
import sys
from pathlib import Path

HOST_KEYS = ("nproc", "affinity", "cpu_model", "compiler", "build_type", "obs")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(arg):
    p = Path(arg)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    records = []
    for f in files:
        if f.name.endswith(".spans.json"):
            continue
        rec = json.loads(f.read_text())
        if "fingerprint" not in rec:
            sys.exit(f"compare: {f} has no fingerprint (not written by run.py)")
        records.append(rec)
    if not records:
        sys.exit(f"compare: no run records in {arg}")
    return records


def host_of(rec):
    return {k: rec["fingerprint"].get(k) for k in HOST_KEYS}


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    base, new = load(argv[1]), load(argv[2])
    ref = host_of(base[0])
    for rec in base + new:
        if host_of(rec) != ref:
            diff = {k: (ref[k], host_of(rec)[k]) for k in HOST_KEYS if host_of(rec)[k] != ref[k]}
            print(f"compare: refusing to compare runs from different hosts or builds: {diff}",
                  file=sys.stderr)
            return 3

    spec = json.loads(BENCHMARK.read_text()) if BENCHMARK.is_file() else {}
    e2e = {m["name"]: m for m in spec.get("end_to_end", [])}

    def medians(records):
        groups = {}
        for rec in records:
            key = (rec["workload"], rec["trace"])
            for name, m in rec["result"]["metrics"].items():
                groups.setdefault(key, {}).setdefault(name, []).append(m["value"])
        return {k: {n: statistics.median(v) for n, v in g.items()} for k, g in groups.items()}

    mb, mn = medians(base), medians(new)
    regressed = False
    print(f"host: {ref}")
    for key in sorted(set(mb) & set(mn)):
        print(f"\n{key[0]} (trace {key[1]})")
        for name in sorted(set(mb[key]) & set(mn[key])):
            b, n = mb[key][name], mn[key][name]
            ratio = n / b if b else float("nan")
            verdict = ""
            if name in e2e:
                lower = e2e[name]["better"] == "lower"
                worse = (n - b) / b if lower else (b - n) / b
                if worse > e2e[name]["bound"]:
                    verdict = f"REGRESSED (bound {e2e[name]['bound']})"
                    regressed = True
                else:
                    verdict = "ok"
            print(f"  {name:32s} {b:14.6g} -> {n:14.6g}  x{ratio:.4f}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
