"""The benchmark's own tests.

    python3 bench/selftest.py

Run from the repository root.  Takes a few minutes: one test runs every
workload once at full size.  The file is not named ``test_*.py`` so the
package's pytest suite does not collect it.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import unittest
from contextlib import redirect_stdout

import run  # first: pins BLAS threads before numpy loads

ROOT = run.ROOT
RUN_PY = os.path.join(run.HERE, "run.py")
NAMED_METRICS = {
    "setup_s": "s", "peak_rss_mib": "MiB", "failed_fraction": "fraction",
    "ce_tokens_per_s": "1/s", "fisher_tokens_per_s": "1/s",
    "audit_model_tokens_per_s": "1/s", "ce_final": "nats",
    "audit_positions_per_s": "1/s", "compare_positions_per_s": "1/s",
    "gapfit_positions_per_s": "1/s",
    "validate_s.circle2": "s", "validate_s.square8": "s",
}


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN_PY, *args], capture_output=True, text=True,
                          cwd=ROOT, timeout=900)


class BenchmarkTests(unittest.TestCase):
    def test_all_prints_every_metric_with_its_unit(self):
        proc = _bench("--workload", "all", "--seed", "0", "--seconds", "1")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        printed = {}
        for line in proc.stdout.strip().splitlines()[:-1]:
            name, _value, unit = line.split()
            printed[name] = unit
        result = _last_json(proc.stdout)
        self.assertEqual(result["failed"], 0)
        for metric, unit in NAMED_METRICS.items():
            found = {n: u for n, u in printed.items() if n.split(".", 1)[1] == metric}
            self.assertTrue(found, metric)
            self.assertEqual(set(found.values()), {unit}, metric)
        self.assertTrue(all(result["metrics"][f"{w}.failed_fraction"]["value"] == 0
                            for w in run.WORKLOAD_NAMES))
        e2e = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
        for workload in run.WORKLOAD_NAMES:
            path = os.path.join(ROOT, ".bench_out", f"{workload}-seed0-trace0.json")
            with open(path, encoding="utf-8") as f:
                self.assertEqual(set(json.load(f)["end_to_end"]), set(e2e))

    def test_traced_run_prints_every_per_layer_metric(self):
        proc = _bench("--workload", "refine", "--seed", "0", "--seconds", "1", "--trace", "1")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        metrics = _last_json(proc.stdout)["metrics"]
        spec = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
        self.assertEqual({k: v["unit"] for k, v in metrics.items()}, spec)
        self.assertGreater(metrics["toylm.forward.self_ms_per_step.ce"]["value"], 0)
        self.assertGreater(metrics["autodiff.tape_nodes_per_step.fisher"]["value"], 0)

    def test_corrupted_audit_record_is_counted_as_failed(self):
        import marginlab.fileio
        import workloads

        original = marginlab.fileio.write_audit

        def swap_first_record(path, records, *args, **kwargs):
            if path.endswith("polished.jsonl"):
                r = records[0]
                records = [dataclasses.replace(r, top1_id=r.top2_id, top2_id=r.top1_id)] + records[1:]
            return original(path, records, *args, **kwargs)

        positions = workloads.AUDIT_POSITIONS
        marginlab.fileio.write_audit = swap_first_record
        workloads.AUDIT_POSITIONS = 5_000
        try:
            out = io.StringIO()
            with redirect_stdout(out):
                run.main(["--workload", "audit", "--seed", "0", "--seconds", "1"])
        finally:
            marginlab.fileio.write_audit = original
            workloads.AUDIT_POSITIONS = positions
        result = _last_json(out.getvalue())
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"] / result["attempted"], 0)

    def test_fails_without_the_program(self):
        bare = os.path.join(ROOT, ".bench_work", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "refine", "--seed", "0",
                 "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=bare, timeout=180,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
