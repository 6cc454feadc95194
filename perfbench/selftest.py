#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

Runs every workload briefly through run.py, untraced and traced, and
checks that:
  * the result line carries exactly the metrics BENCHMARK.json names,
    with their units, and every operation verified;
  * the table prints every metric the workload is documented to report
    (perfbench/README.md), each with its unit and a value;
  * the untraced run records no spans;
  * in the traced run spans nest per operation id, each span's recorded
    parent is the innermost span open around it, and for every kept
    operation the self times of its spans (the layers plus the
    unattributed remainder) add up to the operation's duration within
    the tolerance perfbench states;
  * compare.py refuses runs whose host or build fingerprints differ;
  * run.py fails without printing a result where the sources are missing.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
OUT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = "1"
SEED = 7

# Named metrics each workload prints in its table.
E2E_NAMED = {
    "p2p_small": {"lat_p50_us": "us", "lat_p90_us": "us", "msg_rate_kps": "kmsg/s"},
    "bulk": {"bw_MBps": "MB/s", "coll_p50_us": "us", "bytes_moved_computed_MiB": "MiB"},
    "cg_app": {"solve_s": "s", "iterations_per_solve": "count"},
    "service_churn": {"jobs_per_s": "jobs/s", "job_p90_ms": "ms"},
}
E2E_COMMON = {"setup_s": "s", "peak_rss_mib": "MiB", "error_ratio": "ratio"}
LAYER_NAMED = {
    "p2p_small": {"vclock.ns_per_msg": "ns", "netsim.vlat_det_ns": "ns",
                  "minimpi.slab_hit_ratio": "ratio"},
    "bulk": {"minimpi.rndv_send_ns": "ns", "minimpi.coll.bcast_large_us": "us",
             "minimpi.coll.allreduce_large_us": "us", "minimpi.slab_hit_ratio": "ratio"},
    "cg_app": {"minimpi.coll.allreduce_small_ns": "ns", "minimpi.slab_hit_ratio": "ratio"},
    "service_churn": {"jhpcd.submit_ns": "ns", "jhpcd.queue_wait_us": "us",
                      "jhpcd.run_us": "us", "jhpcd.reuse_ratio": "ratio",
                      "jhpcd.rejected": "count", "minimpi.rndv_send_ns": "ns"},
}
LAYER_COMMON = {"layers.sum_error": "ratio", "layers.sum_tolerance": "ratio"}


def run_bench(workload, trace, cwd=ROOT, runner=RUN):
    r = subprocess.run([sys.executable, str(runner), "--workload", workload, "--seed",
                        str(SEED), "--seconds", SECONDS, "--trace", str(trace)],
                       cwd=cwd, capture_output=True, text=True, timeout=600)
    return r


def parse_table(stdout):
    table = {}
    for line in stdout.splitlines():
        if line.startswith("  "):
            name, value, unit = line.split()
            table[name] = (value, unit)
    return table


class BenchmarkSelfTest(unittest.TestCase):
    results = {}

    @classmethod
    def setUpClass(cls):
        for w in (x["name"] for x in SPEC["workloads"]):
            for trace in (0, 1):
                cls.results[(w, trace)] = run_bench(w, trace)

    def check_result(self, w, trace, expected):
        r = self.results[(w, trace)]
        self.assertEqual(r.returncode, 0, r.stderr)
        lines = r.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        self.assertEqual(set(res["metrics"]), {m["name"] for m in expected})
        for m in expected:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
        fp = [l for l in lines if l.startswith("# fingerprint ")]
        self.assertEqual(len(fp), 1)
        self.assertLessEqual({"nproc", "affinity", "cpu_model", "compiler", "build_type",
                              "obs", "git_rev", "source_digest"},
                             set(json.loads(fp[0][len("# fingerprint "):])))
        return res, parse_table(r.stdout)

    def check_table(self, table, named):
        for name, unit in named.items():
            self.assertIn(name, table)
            value, got_unit = table[name]
            self.assertEqual(got_unit, unit, name)
            self.assertNotEqual(value, "n/a", name)

    def spans(self, w, trace):
        return json.loads((OUT / f"{w}-seed{SEED}-trace{trace}.spans.json").read_text())

    def test_untraced_runs(self):
        for w in E2E_NAMED:
            with self.subTest(workload=w):
                res, table = self.check_result(w, 0, SPEC["end_to_end"])
                for v in res["metrics"].values():
                    self.assertGreater(v["value"], 0)
                self.check_table(table, {**E2E_NAMED[w], **E2E_COMMON})
                self.assertEqual(self.spans(w, 0)["spans"], [])

    def test_traced_runs(self):
        for w in LAYER_NAMED:
            with self.subTest(workload=w):
                _, table = self.check_result(w, 1, SPEC["per_layer"])
                self.check_table(table, {**LAYER_NAMED[w], **LAYER_COMMON})
                self.assertLessEqual(float(table["layers.sum_error"][0]),
                                     float(table["layers.sum_tolerance"][0]))

    def test_spans_nest_and_add_up(self):
        for w in LAYER_NAMED:
            with self.subTest(workload=w):
                doc = self.spans(w, 1)
                timer, tol = doc["timer_ns"], doc["tolerance"]
                op_layer = doc["layers"].index("op")
                spans = {s[0]: s for s in doc["spans"]}
                self.assertGreater(len(spans), 0)
                children = {}
                for sid, (_, parent, op, _l, _c, _s, _b, t0, t1) in spans.items():
                    self.assertLessEqual(t0, t1)
                    if parent == 0:
                        self.assertEqual(op, sid)
                        continue
                    self.assertIn(parent, spans)
                    p = spans[parent]
                    self.assertEqual(op, p[2], "child carries its root's op id")
                    self.assertLessEqual(p[7], t0)
                    self.assertLessEqual(t1, p[8])
                    children.setdefault(parent, []).append(sid)

                # The recorded parent is the innermost span open around a
                # span: replay each thread's spans in open order (ids rise
                # per thread) against a stack of enclosing intervals.
                by_thread = {}
                for sid in sorted(spans):
                    by_thread.setdefault(sid >> 32, []).append(spans[sid])
                for seq in by_thread.values():
                    stack = []
                    for s in seq:
                        while stack and not (stack[-1][7] <= s[7] and s[8] <= stack[-1][8]):
                            stack.pop()
                        self.assertEqual(s[1], stack[-1][0] if stack else 0,
                                         f"span {s[0]} has the wrong parent")
                        stack.append(s)

                def dur(s):
                    return max(0, s[8] - s[7] - timer)

                tree_self, ops = {}, 0
                for sid, s in spans.items():
                    self_ns = dur(s) - sum(dur(spans[c]) for c in children.get(sid, []))
                    tree_self[s[2]] = tree_self.get(s[2], 0) + self_ns
                for sid, s in spans.items():
                    if s[1] == 0 and s[3] == op_layer:
                        ops += 1
                        self.assertLessEqual(abs(tree_self[sid] - dur(s)),
                                             tol * dur(s) + 1, f"op {sid}")
                self.assertGreater(ops, 0)

    def test_compare_refuses_other_hosts(self):
        a = json.loads((OUT / f"p2p_small-seed{SEED}-trace0.json").read_text())
        tmp = OUT / "selftest-compare"
        shutil.rmtree(tmp, ignore_errors=True)
        (tmp / "a").mkdir(parents=True)
        (tmp / "b").mkdir()
        (tmp / "a" / "r.json").write_text(json.dumps(a))
        (tmp / "b" / "r.json").write_text(json.dumps(a))
        cmp = [sys.executable, str(ROOT / "perfbench" / "compare.py"),
               str(tmp / "a"), str(tmp / "b")]
        self.assertEqual(subprocess.run(cmp, capture_output=True).returncode, 0)
        a["fingerprint"]["nproc"] = a["fingerprint"]["nproc"] + 1
        (tmp / "b" / "r.json").write_text(json.dumps(a))
        self.assertEqual(subprocess.run(cmp, capture_output=True).returncode, 3)
        shutil.rmtree(tmp)

    def test_fails_without_sources(self):
        tmp = OUT / "selftest-bare"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "perfbench", tmp / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        r = run_bench("p2p_small", 0, cwd=tmp, runner=tmp / "perfbench" / "run.py")
        self.assertNotEqual(r.returncode, 0)
        self.assertFalse(r.stdout.strip().endswith("}"))
        shutil.rmtree(tmp)


if __name__ == "__main__":
    unittest.main(verbosity=2)
